"""Projective tori and toric sets parameterized by graph edges.

A toric set X is the image of a source torus T = (GF(q)^*)^r under a
monomial map, so X is a group, and in discrete logs it is the image of a
homomorphism between (Z/(q-1))-modules, the point map.  X is a grid of
exactly |X| cells written with no elimination: for a graph from its
spanning forest, an axis per touched vertex less a few gauge vertices
(`_point_grid`), and for the torus of P^{s-1} (Z/(q-1))^(s-1) itself.
The closed-form length is checked against the point cap before anything
is built, and the order m = |X| of the grid against the closed form,
before anything of size m exists.  Over GF(3) and up, a cap on |X| bounds
the rows as well; over GF(2), where X is one point whatever the graph, the
graph is not walked, no rows are built, and X is the empty grid.  The
source torus, (q-1)^r tuples, is never enumerated, and the points of X are
never listed: `count_points` counts them from the kernel of the point map
on the grid.  The grid also indexes the characters of X (X, a finite
abelian group, is isomorphic to its dual).  It is exact Python ints, built
from the field size alone: numpy is imported, and the field tables built,
only where characters are evaluated on the grid (`ToricSet.values`, which
builds every generator row), so length, dimension and regularity use
neither.

Points of the torus in P^{s-1} are normalized so the last coordinate is 1
(all torus coordinates are nonzero), and the point of grid cell i in C
order is coordinate i of every code.  X acts on its points by translation,
and length, dimension and minimum distance do not change when the
coordinates are permuted, so that order is as canonical as any, and
nothing sorts the points.  The listing of the points, the evaluation
matrix of all degree-d monomials, the enumeration of the whole source
torus, and a Smith form of the point map are built only by the tests, as
independent oracles (`tests/oracle.py`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DEFAULT_POINT_CAP, CapExceeded, LengthMismatch
from .graph import _forest, summarize


class GroupImage(namedtuple("GroupImage", "orders embed")):
    """A subgroup of (Z/N)^t, N = q - 1, as the grid
    G = Z/d_1 + ... + Z/d_k (each d_i > 1) of exactly as many cells.

    `embed` is t cells of G, row j a tuple w_j with entry i in [0, d_i).
    With e_i = N / d_i, the grid element g maps to the element whose entry
    j is (w_j e) . g mod N, one-to-one onto the subgroup; and
    g -> zeta^((w e) . g), zeta of order N, is the character of the cell w,
    w -> that character being an isomorphism of G onto its dual."""

    __slots__ = ()

    @property
    def size(self):
        return math.prod(self.orders)


def _point_grid(G, forest, N):
    """The point grid of X for G over Z/N, N = q - 1 > 1, from `forest`,
    the pass `graph._forest` of G: an axis of order N per touched vertex v,
    ascending, with column c_v = ([v in e_j] - [v in e_s])_{j<s}, less the
    gauge vertices D.

    The point map l -> sum_v l_v c_v has kernel K: l_u + l_v = kappa on
    every edge, so alpha and kappa - alpha on the classes of a bipartite
    component and lambda with 2 lambda = kappa on an odd one.  K is spanned
    by sigma_C (1 and -1 on the classes of a bipartite C), by 1, or by tau
    (1 on a class of each component, L's in its own, L the last vertex) if
    no component is odd, and for even N by h_C = (N/2) 1_C, C odd.  D is,
    in order, the first vertex of each bipartite C without L, for sigma_C;
    then L for tau and the first vertex of C_L opposite L for sigma_{C_L}
    if no component is odd, L for 1 if C_L is odd, and else L for
    sigma_{C_L} and the first vertex of the first odd component for 1.
    Each vector is +-1 at its own vertex and 0 at those after it, so they
    span a free K_0 with (Z/N)^V = K_0 + (Z/N)^(V - D), and the c_v off D
    are a grid of (Z/N)^V / K_0.  As (N/2) 1 = (N/2) sigma_C on a bipartite
    C, the sum of all h_C is in K_0, so X is that grid modulo the h_C of
    the further odd components, which hold no vertex of D.  Written on 1_C
    in place of its first vertex (a unimodular change), such an h_C cuts
    that axis to order N/2, column sum_{u in C} c_u = 2 ([e_j in C] -
    [e_s in C]) (no edge leaves C), held in `embed` divided by e = 2 and
    dropped at q = 3: |X| = (q-1)^(n-b0+gamma-1) / 2^(gamma-1).  For odd N
    the same change gives that sum as an axis of order N."""
    color, parent, odd = forest
    comp, roots = {}, []
    for v, link in parent.items():  # component by component, each from its root
        if link is None:
            roots.append(v)
        comp[v] = len(roots) - 1
    vertices = sorted(color)
    last = vertices[-1]
    c = comp[last]
    dropped = {last, *(r for k, r in enumerate(roots) if k != c and not odd[k])}
    further = [k for k, o in enumerate(odd) if o]
    if not further:
        dropped.add(next(v for v in vertices if comp[v] == c and color[v] != color[last]))
    elif odd[c]:
        further.remove(c)
    else:
        dropped.add(roots[further.pop(0)])
    g, cuts = math.gcd(2, N), {roots[k] for k in further}
    axis, orders = {}, []
    for v in vertices:
        d = N // g if v in cuts else N
        if v not in dropped and d > 1:
            axis[v] = len(orders)
            orders.append(d)

    def moves(edge):  # its endpoint indicator on the axes; no edge leaves a component
        out = [(axis[v], 1) for v in edge if v in axis and v not in cuts]
        r = roots[comp[edge[0]]]  # a cut axis holds sum_{u in C} c_u / g, not c_r
        return out + [(axis[r], 2 // g)] if r in cuts and r in axis else out

    base = [0] * len(orders)
    for i, a in moves(G.edges[-1]):
        base[i] = -a % orders[i]
    embed = []
    for edge in G.edges[:-1]:
        row = base.copy()
        for i, a in moves(edge):
            row[i] = (row[i] + a) % orders[i]
        embed.append(tuple(row))
    return GroupImage(tuple(orders), tuple(embed))


class ToricSet:
    """A finite set of torus points in P^{s-1} over GF(q), the point of
    grid cell i in C order being its i-th point.

    X is the image of a source torus T = (GF(q)^*)^r under the monomial map
    phi(t) = (t^{b_1} : ... : t^{b_s}), a group homomorphism, so X is a
    subgroup of the torus of P^{s-1}.  In logs, a point is the point map
    l -> ((b_k - b_s) . l)_{k < s}, and `point_group` is its image, a grid
    Z/d_1 + ... + Z/d_k of m = |X| cells, one per point: `parameterize`
    writes it for a graph from its spanning forest (`_point_grid`), and
    `torus_points` writes the grid of the torus of P^{s-1} itself.
    `values` evaluates characters at every cell, which builds every
    generator row; length, dimension and regularity never list the points.

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
        e_i = (q - 1) / d_i, a (len(cells), m) uint8 array.  Only here and
        in the point count (`_zero_set`) are cells scaled by e.  The logs
        are outer sums along the axes, mod q - 1 in uint16, so no array
        holds the cell of each point."""
        import numpy as np

        n, orders = self.F.q - 1, self.point_group.orders
        e = np.array([n // d for d in orders], dtype=np.int64)
        A = np.asarray(cells, dtype=np.int64).reshape(len(cells), len(orders)) * e
        logs = np.zeros((len(A), 1), dtype=np.uint16)
        for a, d in zip(A.T, orders):
            step = (a[:, None] * np.arange(d) % n).astype(np.uint16)
            logs = ((logs[:, :, None] + step[:, None, :]) % n).reshape(len(A), -1)
        return self.F.exp_table[logs]

    @property
    def degenerate(self):
        # Over GF(2) the torus collapses to a single point.
        return self.F.q == 2

    def __repr__(self):
        src = "torus" if self.graph is None else f"graph(n={self.graph.n}, s={self.graph.s})"
        return f"ToricSet(q={self.F.q}, s={self.s}, m={self.m}, source={src})"


def _refuse_past_cap(expected, cap):
    """Refuse X when its closed-form length is past the point cap.  Both
    callers check this before anything is built, the point grid too."""
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
    graph is walked once, `_forest`, for both the length and the grid), and
    the order of the point grid (`_point_grid`) asserted against that
    length, so once it holds |X| is within the cap and nothing of size |X|
    exists.  Over GF(2) that length is 1 for every graph, so the graph is
    not walked and X is the empty grid, with s - 1 empty rows."""
    if F.q == 2:
        _refuse_past_cap(1, cap)
        return ToricSet(F, G.s, GroupImage((), ((),) * (G.s - 1)), G)
    forest = _forest(G)
    expected = expected_length(summarize(G, forest), F)
    _refuse_past_cap(expected, cap)
    P = _point_grid(G, forest, F.q - 1)
    if P.size != expected:
        raise LengthMismatch(
            f"the point group has order {P.size} but the length formula gives {expected}"
        )
    return ToricSet(F, G.s, P, G)


def _zero_set(w, orders, N):
    """The cells g of the grid Z/d_1 + ... + Z/d_k at which the log of the
    character of the cell w is 0, (w e) . g = 0 mod N with e_i = N / d_i,
    as an int whose bit sum_i g_i st_i marks g (C order, as `hilbert`'s
    sets).  It is built from the fastest axis outward, one level set per
    residue of the log over the axes so far; at the outermost axis only
    the cells of residue 0 are kept.  The grid has at least one axis."""
    levels, size = {0: 1}, 1
    for d, a in zip(orders[:0:-1], w[:0:-1]):
        grown, step = {}, a * (N // d)
        for x in range(d):
            for r, bits in levels.items():
                t = (r + step * x) % N
                grown[t] = grown.get(t, 0) | bits << x * size
        levels, size = grown, size * d
    step, zeros = w[0] * (N // orders[0]), 0
    for x in range(orders[0]):
        zeros |= levels.get(-step * x % N, 0) << x * size
    return zeros


def count_points(X):
    """|X| counted from the point map of its grid, a check that the grid is
    one-to-one onto X: m / |ker phi|, in exact ints and without numpy or
    the field tables.

    The point of grid cell g has the coordinate ratios P_j / P_s =
    zeta^(phi(g)_j), phi(g)_j = (w_j e) . g mod (q - 1) over the `embed`
    rows w_j.  phi is a homomorphism in exact arithmetic, so every fibre is
    a coset of its kernel and phi takes m / |ker phi| values; exp is a
    bijection of Z/(q - 1) onto GF(q)^*, so distinct log tuples are
    distinct points, and that is the number of points.  The kernel is the
    intersection of the zero sets of the w_j (`_zero_set`), stopped once
    only cell 0, which every zero set holds, is left: the grid of one
    cell, which has no axis (X over GF(2)), reads no row."""
    N, group = X.F.q - 1, X.point_group
    kernel = (1 << X.m) - 1
    for w in group.embed:
        if kernel == 1:
            break
        kernel &= _zero_set(w, group.orders, N)
    return X.m // kernel.bit_count()
