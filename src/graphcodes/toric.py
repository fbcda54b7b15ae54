"""Projective tori and toric sets parameterized by graph edges.

A toric set X is the image of a source torus T = (GF(q)^*)^r under a
monomial map, so X is a group, and in discrete logs it is the image of a
homomorphism between (Z/(q-1))-modules.  `group_image` writes such an image
as a grid of exactly |image| cells, from a diagonal (Smith) form over the
integers, and X is built from it: the closed-form length is checked against
the point cap before anything is built, the point map and the form
included, and the order m = |X| read off the form is checked against the
closed form, before anything of size m exists.  Over GF(3) and up, a cap on
|X| bounds the rows as well; over GF(2), where X is one point whatever the
graph, the graph is not summarized, no rows are built, and X is the empty
grid.  The torus of P^{s-1} is its own grid, (Z/(q-1))^(s-1), written
with no form.  The points themselves are listed from the grid, one cell per
point, only when a caller needs them; the source torus, (q-1)^r tuples, is
never enumerated.  The one grid also indexes the characters of X (X, a
finite abelian group, is isomorphic to its dual), so no second form is built
for them.  The form and the grid are
exact Python ints, and X is built from the field size alone: numpy is
imported, and the field tables built, only where characters are evaluated
on the grid (`ToricSet.values`, which lists the points and builds every
generator) and in `count_points`, so dimension and regularity use neither.

Points of the torus in P^{s-1} are normalized so the last coordinate is 1
(all torus coordinates are nonzero) and stored as uint8 rows of field
elements, row i the point of grid cell i in C order.  X acts on its points
by translation, and length, dimension and minimum distance do not change
when the coordinates are permuted, so that order is as canonical as any;
it is the order of the coordinates of every code, and nothing sorts the
points.  The evaluation matrix of all degree-d monomials, and the
enumeration of the whole source torus, are built only by the tests, as
independent oracles (`tests/oracle.py`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import DEFAULT_POINT_CAP, CapExceeded, LengthMismatch
from .graph import summarize

_COLUMN_CELLS = 1 << 23  # cells of the coordinates `ToricSet.arr` lists at a time


class GroupImage(namedtuple("GroupImage", "orders embed")):
    """The image of x -> A x, a homomorphism (Z/N)^c -> (Z/N)^t given by an
    integer (t, c) matrix A, as the grid G = Z/d_1 + ... + Z/d_k (each
    d_i > 1) of exactly |image| cells.

    `embed` is t cells of G, row j a tuple w_j with entry i in [0, d_i).
    With e_i = N / d_i, the grid element g maps to the image element whose
    entry j is (w_j e) . g mod N, one-to-one onto the image; and
    g -> zeta^((w e) . g), zeta of order N, is the character of the cell w,
    w -> that character being an isomorphism of G onto its dual."""

    __slots__ = ()

    @property
    def size(self):
        return math.prod(self.orders)


def _pivot(M, p):
    """(i, j) of the pivot in M[p:][p:]: the first entry +-1 in row order,
    which clears its row and column in one pass, or else the smallest
    nonzero entry, whose row and column remainders are smaller still; None
    when every entry is zero."""
    best = None
    for i in range(p, len(M)):
        row = M[i]
        for j in range(p, len(row)):
            a = abs(row[j])
            if a == 1:
                return i, j
            if a and (best is None or a < best[0]):
                best = a, i, j
    return best and best[1:]


def group_image(A, N):
    """The image of the integer matrix A, t rows of c ints, over Z/N, as a
    GroupImage.

    Unimodular row and column operations (with exact Python ints) bring A
    to a diagonal form U A V = diag(a), a_p = 0 past the rank; no
    divisibility chain is needed, and only V is kept.  U maps the image
    onto a_1 Z/N + ... + a_t Z/N, and a_p Z/N = e_p Z/N for
    e_p = gcd(a_p, N), so onto the grid with d_p = N / e_p, whose element g
    is sum_p g_p e_p u_p, u_p the column p of U^-1.  Column p of V has
    A v_p = a_p u_p, so u_p mod d_p, column p of `embed`, is A v_p / a_p,
    an exact division, summed over the nonzero entries of A alone."""
    t, c = len(A), len(A[0]) if A else 0
    M = [list(row) for row in A]
    V = [[int(i == j) for j in range(c)] for i in range(c)]
    p = 0
    while p < min(t, c):
        cell = _pivot(M, p)
        if cell is None:
            break
        i, j = cell
        M[p], M[i] = M[i], M[p]
        for row in M[p:] + V:  # the rows above p are zero from column p on
            row[p], row[j] = row[j], row[p]
        pivot = M[p][p]
        support = [(j, a) for j, a in enumerate(M[p]) if a and j >= p]
        done = True
        for row in M[p + 1 :]:
            f = row[p] // pivot
            if f:
                for j, a in support:
                    row[j] -= f * a
            done = done and not row[p]
        factors = [(j, f) for j, a in support if j > p and (f := a // pivot)]
        for row in M[p:] + V:
            x = row[p]
            if x:
                for j, f in factors:
                    row[j] -= f * x
        done = done and all(not M[p][j] for j, _ in support if j > p)
        p += done
    keep = [i for i in range(p) if M[i][i] % N]  # e_i = gcd(a_i, N) < N
    pivots = [M[i][i] for i in keep]
    orders = tuple(N // math.gcd(a, N) for a in pivots)
    section = [[row[i] for i in keep] for row in V]
    embed = []
    for row in A:
        image = [0] * len(keep)
        for a, column in zip(row, section):
            if a:
                image = [x + a * y for x, y in zip(image, column)]
        embed.append(tuple(x // a % d for x, a, d in zip(image, pivots, orders)))
    return GroupImage(orders, tuple(embed))


class ToricSet:
    """A finite set of torus points in P^{s-1} over GF(q).  `arr` is the
    (m, s) uint8 array of normalized coordinates, row i the point of grid
    cell i in C order.

    X is the image of a source torus T = (GF(q)^*)^r under the monomial map
    phi(t) = (t^{b_1} : ... : t^{b_s}), a group homomorphism, so X is a
    subgroup of the torus of P^{s-1}.  In logs, a point is the point map
    l -> ((b_k - b_s) . l)_{k < s}, and `point_group` is its image, a grid
    Z/d_1 + ... + Z/d_k of m = |X| cells, one per point: `parameterize`
    writes the point map of a graph and takes its image, and
    `torus_points` writes the grid of the torus of P^{s-1} itself.
    `values` evaluates characters at every cell, which lists the points on
    first use of `arr` and builds every generator row; dimension and
    regularity never list them.

    The same grid indexes the characters of X: a finite abelian group is
    isomorphic to its dual, the cell w being the character
    g -> zeta^((w e) . g), e_i = (q - 1) / d_i.  The coordinate ratio
    P -> P_j / P_s is the character w_j = `point_group.embed`[j], and
    w_s = 0, so t^a / t_1^d (|a| = d) is the cell sum_j a_j w_j - d w_1;
    distinct characters being linearly independent, the number of distinct
    such cells is dim C_X(d)."""

    def __init__(self, F, s, point_group, graph=None):
        self.F = F
        self.s = s
        self.point_group = point_group
        self.graph = graph

    @property
    def m(self):
        return self.point_group.size

    def values(self, cells):
        """The character of each cell w of the point grid (one int per axis)
        at every cell g, cells in C order: exp_table[(w e) . g mod (q - 1)],
        e_i = (q - 1) / d_i, a (len(cells), m) uint8 array.  This is the one
        place the cells are scaled by e.  The logs are outer sums along the
        axes, mod q - 1 in uint16, so no array holds the cell of each
        point."""
        import numpy as np

        n, orders = self.F.q - 1, self.point_group.orders
        e = np.array([n // d for d in orders], dtype=np.int64)
        A = np.asarray(cells, dtype=np.int64).reshape(len(cells), len(orders)) * e
        logs = np.zeros((len(A), 1), dtype=np.uint16)
        for a, d in zip(A.T, orders):
            step = (a[:, None] * np.arange(d) % n).astype(np.uint16)
            logs = ((logs[:, :, None] + step[:, None, :]) % n).reshape(len(A), -1)
        return self.F.exp_table[logs]

    @cached_property
    def arr(self):
        """The (m, s) uint8 points, row i the point of grid cell i in C
        order: its coordinate ratio P_j / P_s is the character
        `point_group.embed`[j], and P_s = 1.  The coordinates are listed in
        chunks of about _COLUMN_CELLS cells, so the temporaries of `values`
        stay near one column of K_6/GF(25) and a long graph over a small
        field takes few calls (one for path(10^5) over GF(2))."""
        import numpy as np

        embed = self.point_group.embed
        listed = np.ones((self.m, self.s), dtype=np.uint8)
        step = max(1, _COLUMN_CELLS // self.m)
        for j in range(0, len(embed), step):
            chunk = embed[j : j + step]
            listed[:, j : j + len(chunk)] = self.values(chunk).T
        return listed

    @property
    def degenerate(self):
        # Over GF(2) the torus collapses to a single point.
        return self.F.q == 2

    def __repr__(self):
        src = "torus" if self.graph is None else f"graph(n={self.graph.n}, s={self.graph.s})"
        return f"ToricSet(q={self.F.q}, s={self.s}, m={self.m}, source={src})"


def _refuse_past_cap(expected, cap):
    """Refuse X when its closed-form length is past the point cap.  Both
    callers check this before anything is built, the point map too."""
    if expected > cap:
        raise CapExceeded(f"X has {expected} points, cap is {cap}", required=expected)


def torus_points(s, F, cap=DEFAULT_POINT_CAP):
    """The projective torus of P^{s-1}: (q-1)^(s-1) normalized points,
    refused past the cap before anything is built.  Its point map is the
    identity of (Z/(q-1))^(s-1), so that group is the grid and P_j / P_s
    the cell of axis j; over GF(2) it is the empty grid, with s - 1 empty
    rows."""
    expected = (F.q - 1) ** (s - 1)
    _refuse_past_cap(expected, cap)
    k = s - 1 if F.q > 2 else 0
    cells = tuple(tuple(int(i == j) for j in range(k)) for i in range(s - 1))
    return ToricSet(F, s, GroupImage((F.q - 1,) * k, cells))


def expected_length(summary, F):
    """Closed-form |X| from the component structure of the source graph."""
    q = F.q
    n, b0, gamma = summary.n, summary.b0, summary.gamma
    if summary.bipartite:
        return (q - 1) ** (n - b0 - 1)
    if q % 2 == 1:
        return (q - 1) ** (n - b0 + gamma - 1) // 2 ** (gamma - 1)
    return (q - 1) ** (n - b0 + gamma - 1)


def parameterize(G, F, cap=DEFAULT_POINT_CAP):
    """Image of the torus of P^{n-1} under the edge-monomial map, refused
    past the cap from the closed-form length before anything is built (the
    point map is s - 1 rows of n' - 1 ints, n' the touched vertices), and
    the order of the point group asserted against that length, so once it
    holds |X| is within the cap and nothing of size |X| exists.  Over GF(2)
    that length is 1 for every graph, so the graph is not summarized and X
    is the empty grid, with s - 1 empty rows."""
    if F.q == 2:
        _refuse_past_cap(1, cap)
        return ToricSet(F, G.s, GroupImage((), ((),) * (G.s - 1)), G)
    expected = expected_length(summarize(G), F)
    _refuse_past_cap(expected, cap)
    # Row k of the point map is b_k - b_s, b_k the endpoint indicator of
    # edge k over the touched vertices in ascending order.  A vertex no edge
    # touches would be a zero column, and scaling every source coordinate by
    # one factor scales every edge monomial by its square, so the last
    # touched vertex is fixed to 1 and its column dropped: the image does
    # not change.
    columns = sorted({v for edge in G.edges for v in edge})[:-1]
    last = [v in G.edges[-1] for v in columns]
    point_map = [[(v in edge) - b for v, b in zip(columns, last)] for edge in G.edges[:-1]]
    P = group_image(point_map, F.q - 1)
    if P.size != expected:
        raise LengthMismatch(
            f"the point group has order {P.size} but the length formula gives {expected}"
        )
    return ToricSet(F, G.s, P, G)


def count_points(X):
    """|X| counted from the listed points, a check on the listing that does
    not trust the group order m: the rows of X.arr, as fixed-width byte
    strings, sorted, and 1 plus the number of strict steps between adjacent
    ones.  A repeated row is no step, and the count falls below m.

    Counting the rows equal to the identity point would be faster, but it
    is exact only because `values` is a homomorphism: it would miss a
    repeated non-identity row, which is what this check is for."""
    import numpy as np

    keys = np.sort(X.arr.view(f"S{X.s}")[:, 0])
    return 1 + int(np.count_nonzero(keys[1:] > keys[:-1]))
