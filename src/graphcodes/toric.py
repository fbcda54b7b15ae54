"""Projective tori and toric sets parameterized by graph edges.

A toric set X is the image of a source torus T = (GF(q)^*)^r under a
monomial map, so X is a group, and in discrete logs it is the image of a
homomorphism between (Z/(q-1))-modules.  `group_image` writes such an image
as a grid of exactly |image| cells, from a diagonal (Smith) form over the
integers, and X is built from it: the closed-form length is checked against
the point cap before anything is built, the exponent rows and the form
included, and the order m = |X| read off the form is checked against the
closed form, before anything of size m exists.  Over GF(3) and up, a cap on
|X| bounds the rows as well; over GF(2), where X is one point whatever the
graph, the graph is not summarized, no rows are built, and X is the empty
grid.  The points themselves are listed from the grid, one cell per point,
only when a caller needs them; the source torus, (q-1)^r tuples, is never
enumerated.  The one grid also indexes the characters of X (X, a finite
abelian group, is isomorphic to its dual), so no second form is built for
them.  The form and the grid are
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

    `embed`, t rows of k ints in [0, N), maps a grid element g to its image
    element embed g mod N, one-to-one onto the image.  Column i of `embed`
    is a multiple of e_i = N / d_i, so a row of `embed` divided by e is a
    cell w of G, and g -> zeta^((w e) . g), zeta of order N, is the
    character that row gives; w -> that character is an isomorphism of G
    onto its dual."""

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
    e_p = gcd(a_p, N), so onto the grid with d_p = N / e_p.  Column p of V
    has A v_p = a_p u_p, u_p the column p of U^-1, and a_p / e_p is a unit
    mod d_p, so A maps v_p times its inverse to e_p u_p mod N: these images
    are the columns of `embed`, each a multiple of its e_p, summed over the
    nonzero entries of A alone."""
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
    e = [math.gcd(M[i][i], N) for i in range(p)]
    keep = [i for i in range(p) if e[i] < N]
    units = [pow(M[i][i] // e[i], -1, N // e[i]) for i in keep]
    section = [[row[i] * u % N for i, u in zip(keep, units)] for row in V]
    embed = []
    for row in A:
        image = [0] * len(keep)
        for a, column in zip(row, section):
            if a:
                image = [x + a * y for x, y in zip(image, column)]
        embed.append(tuple(x % N for x in image))
    return GroupImage(tuple(N // e[i] for i in keep), tuple(embed))


class ToricSet:
    """A finite set of torus points in P^{s-1} over GF(q).  `arr` is the
    (m, s) uint8 array of normalized coordinates, row i the point of grid
    cell i in C order.

    X is the image of a source torus T = (GF(q)^*)^r under the monomial map
    phi(t) = (t^{b_1} : ... : t^{b_s}), a group homomorphism, so X is a
    subgroup of the torus of P^{s-1}.  The exponent vectors b_k are the
    columns of an (r, s) matrix B: for a graph the rows are the incidence
    rows of the vertices some edge touches, but the last of them (fixed to
    1); the torus of P^{s-1} has exponents [I_{s-1} | 0].  B is used once,
    by `_toric_set`, which passes s and the group below.  In logs, a point
    is l -> (b_k - b_s) . l for k < s, and `point_group` is the image of
    that map, a grid Z/d_1 + ... + Z/d_k of m = |X| cells, one per
    point.  `values` evaluates characters at every cell, which lists the
    points on first use of `arr` and builds every generator row;
    dimension and regularity never list them.

    The same grid indexes the characters of X: a finite abelian group is
    isomorphic to its dual, the cell w being the character
    g -> zeta^((w e) . g), e_i = (q - 1) / d_i.  The coordinate ratio
    P -> P_j / P_s is the character w_j = `point_group.embed`[j] / e, and
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

    def values(self, rows):
        """exp_table[(a . g) mod (q - 1)] for each int row a (one entry per
        axis of the point grid) at every cell g, cells in C order: a
        (len(rows), m) uint8 array.  The logs are outer sums along the axes,
        mod q - 1 in uint16, so no array holds the cell of each point."""
        import numpy as np

        n, orders = self.F.q - 1, self.point_group.orders
        A = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(orders)) % n
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
    callers check this before anything is built, the exponent rows too."""
    if expected > cap:
        raise CapExceeded(f"X has {expected} points, cap is {cap}", required=expected)


def _toric_set(F, s, exponents, expected, graph=None):
    """X in P^{s-1} for the exponent matrix B, rows of s ints, whose
    closed-form length the caller has checked against the cap.  The order
    of the point group is checked against the closed form, so once it
    holds |X| is within the cap, and nothing of size |X| has been
    allocated.  No exponent rows (over GF(2)) give the empty grid, the
    image of s - 1 empty point-map rows, with no rows walked."""
    if exponents:
        P = group_image([[b[k] - b[-1] for b in exponents] for k in range(s - 1)], F.q - 1)
    else:
        P = GroupImage((), ((),) * (s - 1))
    if P.size != expected:
        raise LengthMismatch(
            f"the point group has order {P.size} but the length formula gives {expected}"
        )
    return ToricSet(F, s, P, graph)


def torus_points(s, F, cap=DEFAULT_POINT_CAP):
    """The projective torus of P^{s-1}: (q-1)^(s-1) normalized points,
    refused past the cap before anything is built."""
    expected = (F.q - 1) ** (s - 1)
    _refuse_past_cap(expected, cap)
    exponents = [[int(i == k) for k in range(s)] for i in range(s - 1)] if F.q > 2 else []
    return _toric_set(F, s, exponents, expected)


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
    incidence rows are n x s), and its order asserted against that length.
    Over GF(2) that length is 1 for every graph, so the graph is not
    summarized."""
    if F.q == 2:  # X is one point, the empty grid of no rows
        _refuse_past_cap(1, cap)
        return _toric_set(F, G.s, [], 1, G)
    expected = expected_length(summarize(G), F)
    _refuse_past_cap(expected, cap)
    # A vertex no edge touches has a zero incidence row, and scaling every
    # source coordinate by one factor scales every edge monomial by its
    # square, so only the touched vertices are rows and the last of them is
    # fixed to 1: the image does not change.
    row = {v: k for k, v in enumerate(G.adjacency())}
    incidence = [[0] * G.s for _ in row]
    for k, (u, v) in enumerate(G.edges):
        incidence[row[u]][k] = incidence[row[v]][k] = 1
    return _toric_set(F, G.s, incidence[:-1], expected, G)


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
