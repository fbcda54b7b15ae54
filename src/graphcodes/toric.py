"""Projective tori and toric sets parameterized by graph edges.

A toric set X is the image of a source torus T = (GF(q)^*)^r under a
monomial map, so X is a group, and in discrete logs it is the image of a
homomorphism between (Z/(q-1))-modules.  `group_image` writes such an image
as a grid of exactly |image| cells, from a diagonal (Smith) form over the
integers, and X is built from it: the closed-form length is checked against
the point cap before the form is computed, and the order m = |X| read off
the form is checked against the closed form, before anything of size m
exists.  The points themselves are listed from the grid, one cell per
point, only when a caller needs them; the source torus, (q-1)^r tuples, is
never enumerated.

Points of the torus in P^{s-1} are normalized so the last coordinate is 1
(all torus coordinates are nonzero), stored as rows of an integer array in
field encoding and kept in lexicographic row order.  The evaluation matrix
of all degree-d monomials, and the enumeration of the whole source torus,
are built only by the tests, as independent oracles (`tests/oracle.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, LengthMismatch
from .graph import summarize

DEFAULT_POINT_CAP = 10**7  # points of X


@dataclass(frozen=True)
class GroupImage:
    """The image of x -> A x, a homomorphism (Z/N)^c -> (Z/N)^t given by an
    integer (t, c) matrix A, as the grid G = Z/d_1 + ... + Z/d_k (each
    d_i > 1) of exactly |image| cells.

    `section` (c, k) maps a grid element g to a source element x = section g
    mod N, and `embed` = A section (t, k) maps it to the image element A x;
    g -> A x is one-to-one onto the image.  `gens` (k, c) holds in column j
    the grid coordinates of A e_j, so x -> gens x mod d is A followed by the
    inverse of `embed`."""

    orders: tuple
    section: np.ndarray
    embed: np.ndarray
    gens: np.ndarray

    @property
    def size(self):
        return math.prod(self.orders)


def group_image(A, N):
    """The image of the (t, c) integer matrix A over Z/N, as a GroupImage.

    Unimodular row and column operations (with exact Python ints) bring A
    to a diagonal form U A V = diag(a), a_p = 0 past the rank; no
    divisibility chain is needed.  U maps the image onto
    a_1 Z/N + ... + a_t Z/N, and a_p Z/N = e_p Z/N for e_p = gcd(a_p, N), so
    onto the grid with d_p = N / e_p.  Column p of V has A v_p = a_p u_p,
    u_p the column p of U^-1, and a_p / e_p is a unit mod d_p, so v_p times
    its inverse lies over e_p u_p, which gives `section`; `gens` is U A
    divided row by row by e."""
    A = np.asarray(A, dtype=np.int64)
    t, c = A.shape
    M = A.tolist()
    U = [[int(i == j) for j in range(t)] for i in range(t)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]
    p = 0
    while p < min(t, c):
        # Pivot on the smallest nonzero entry left; the remainders of its row
        # and column are smaller still, so p advances.
        cells = [(abs(M[i][j]), i, j) for i in range(p, t) for j in range(p, c) if M[i][j]]
        if not cells:
            break
        _, i, j = min(cells)
        M[p], M[i] = M[i], M[p]
        U[p], U[i] = U[i], U[p]
        for row in M + V:
            row[p], row[j] = row[j], row[p]
        pivot = M[p][p]
        done = True
        for i in range(p + 1, t):
            f = M[i][p] // pivot
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[p])]
                U[i] = [a - f * b for a, b in zip(U[i], U[p])]
            done = done and not M[i][p]
        for j in range(p + 1, c):
            f = M[p][j] // pivot
            if f:
                for row in M + V:
                    row[j] -= f * row[p]
            done = done and not M[p][j]
        p += done
    e = [math.gcd(M[i][i], N) for i in range(p)]
    keep = [i for i in range(p) if e[i] < N]
    orders = tuple(N // e[i] for i in keep)
    units = [pow(M[i][i] // e[i], -1, N // e[i]) for i in keep]
    section = (np.array(V, dtype=object).reshape(c, c)[:, keep] * units % N).astype(np.int64)
    U = (np.array(U, dtype=object).reshape(t, t) % N).astype(np.int64)
    UA = U @ A % N
    gens = np.array([UA[i] // e[i] % (N // e[i]) for i in keep],
                    dtype=np.int64).reshape(len(keep), c)
    return GroupImage(orders, section, A @ section % N, gens)


class ToricSet:
    """A finite set of torus points in P^{s-1} over GF(q), canonically
    sorted.  `arr` is the (m, s) array of normalized coordinates.

    X carries its source map: X is the image of a source torus
    T = (GF(q)^*)^r under the monomial map phi(t) = (t^{b_1} : ... : t^{b_s}),
    a group homomorphism, so X is a subgroup of the torus of P^{s-1}.  The
    exponent vectors b_k are the columns of the (r, s) matrix B, `exponents`:
    for a graph r = n - 1 and the rows are the incidence rows of the free
    vertices (the last vertex is fixed to 1); the torus of P^{s-1} has
    exponents [I_{s-1} | 0].  In logs, a point is l -> (b_k - b_s) . l for
    k < s, and `point_group` is the image of that map, m = |X| cells.
    `preimage_logs` is the (m, r) array of the discrete logs l of one
    preimage in T of each point, in the row order of `arr`.  Both arrays are
    built on first use; dimension and regularity never touch them.

    On X the function t^a / t_1^d (|a| = d) is a character of X, and it
    pulls back along phi to the character l -> g^((B a - d b_1) . l) of T.
    phi is onto X, so pulling back is injective: two such functions agree on
    X exactly when B a = B a' mod (q - 1).  The characters of X therefore
    form the subgroup of (Z/(q-1))^r spanned by the steps b_k - b_1, which
    `character_group` writes as a grid of |X| cells, and, distinct
    characters being linearly independent, the number of degree-d ones is
    dim C_X(d)."""

    def __init__(self, F, exponents, point_group, graph=None):
        self.F = F
        self.exponents = exponents
        self.s = exponents.shape[1]
        self.point_group = point_group
        self.graph = graph

    @property
    def m(self):
        return self.point_group.size

    @cached_property
    def character_group(self):
        B = self.exponents
        return group_image(B[:, 1:] - B[:, :1], self.F.q - 1)

    def _grid_values(self, coeffs):
        """sum_i coeffs_i g_i mod (q - 1) over the cells g of the point grid,
        in grid order."""
        orders = self.point_group.orders
        v = np.zeros(orders, dtype=np.int64)
        for a, g in zip(coeffs.tolist(), np.indices(orders, sparse=True)):
            v += a * g
        return (v % (self.F.q - 1)).ravel()

    @cached_property
    def _listing(self):
        """(arr, order): one point per cell of the point grid, each log
        coordinate a linear form in the cell's indices, sorted; row i of arr
        is the point of cell order[i]."""
        listed = np.ones((self.m, self.s), dtype=np.int16)
        for k, coeffs in enumerate(self.point_group.embed):
            listed[:, k] = self.F.exp_table[self._grid_values(coeffs)]
        order = np.lexsort(listed.T[::-1])
        return listed[order], order

    @property
    def arr(self):
        return self._listing[0]

    @cached_property
    def preimage_logs(self):
        section = self.point_group.section
        logs = np.zeros((self.m, section.shape[0]), dtype=np.int64)
        for j, coeffs in enumerate(section):
            logs[:, j] = self._grid_values(coeffs)
        return logs[self._listing[1]]

    @property
    def points(self):
        return [tuple(int(c) for c in row) for row in self.arr]

    @property
    def degenerate(self):
        # Over GF(2) the torus collapses to a single point.
        return self.F.q == 2

    def __len__(self):
        return self.m

    def __repr__(self):
        src = "torus" if self.graph is None else f"graph(n={self.graph.n}, s={self.graph.s})"
        return f"ToricSet(q={self.F.q}, s={self.s}, m={self.m}, source={src})"


def _toric_set(F, exponents, expected, cap, graph=None):
    """X for the exponent matrix B.  The closed-form length is checked
    against the cap before any work is done, and the order of the point
    group against the closed form; once both hold, |X| is within the cap,
    and nothing of size |X| has been allocated."""
    if expected > cap:
        raise CapExceeded(f"X has {expected} points, cap is {cap}", required=expected)
    point_map = (exponents[:, :-1] - exponents[:, -1:]).T
    P = group_image(point_map, F.q - 1)
    if P.size != expected:
        raise LengthMismatch(
            f"the point group has order {P.size} but the length formula gives {expected}"
        )
    return ToricSet(F, exponents, P, graph)


def torus_points(s, F, cap=DEFAULT_POINT_CAP):
    """The projective torus of P^{s-1}: (q-1)^(s-1) normalized points."""
    exponents = np.eye(s - 1, s, dtype=np.int64)
    return _toric_set(F, exponents, (F.q - 1) ** (s - 1), cap)


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
    """Image of the torus of P^{n-1} under the edge-monomial map, its order
    asserted against the closed-form length."""
    incidence = np.zeros((G.n, G.s), dtype=np.int64)
    for k, (u, v) in enumerate(G.edges):
        incidence[[u - 1, v - 1], k] = 1
    # The last source coordinate is fixed to 1.
    return _toric_set(F, incidence[:-1], expected_length(summarize(G), F), cap, G)


def count_points(X):
    """|X| counted from the enumerated points: the number of distinct rows of
    X.arr, a check on the listing that does not trust the group order m.
    The rows are sorted again here rather than assumed sorted, and counted
    where they change (np.unique(axis=0) gives the same count ten times
    slower)."""
    rows = X.arr[np.lexsort(X.arr.T[::-1])]
    return 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))
