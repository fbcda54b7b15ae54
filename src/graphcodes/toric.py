"""Projective tori and toric sets parameterized by graph edges.

Points of the torus in P^{s-1} are normalized so the last coordinate is 1
(all torus coordinates are nonzero), stored as rows of an integer array in
field encoding and kept in lexicographic row order.  Construction of a
toric set enumerates the source torus, maps each point through the edge
monomials, normalizes, deduplicates, and cross-checks the count against
the closed-form length; the toric set keeps that source map, which is all
the code parameters need (see `ToricSet`).  The evaluation matrix of all
degree-d monomials is built only by the tests, as an independent oracle
(`tests/oracle.py`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, LengthMismatch
from .graph import summarize

DEFAULT_POINT_CAP = 10**7


class ToricSet:
    """A finite set of torus points in P^{s-1} over GF(q), canonically
    sorted.  `arr` is the (m, s) array of normalized coordinates.

    X carries its source map: X is the image of a source torus
    T = (GF(q)^*)^r under the monomial map phi(t) = (t^{b_1} : ... : t^{b_s}),
    a group homomorphism, so X is a subgroup of the torus of P^{s-1}.  The
    exponent vectors b_k are the columns of the (r, s) matrix B, `exponents`:
    for a graph r = n - 1 and the rows are the incidence rows of the free
    vertices (the last vertex is fixed to 1); the torus of P^{s-1} has
    exponents [I_{s-1} | 0].  `preimage_logs` is the (m, r) array of the
    discrete logs l of one preimage in T of each point, in the row order of
    `arr`.

    On X the function t^a / t_1^d (|a| = d) is a character of X, and it
    pulls back along phi to the character l -> g^((B a - d b_1) . l) of T.
    phi is onto X, so pulling back is injective: two such functions agree on
    X exactly when B a = B a' mod (q - 1).  The degree-d characters of X are
    therefore counted exactly in the group (Z/(q-1))^r of exponent vectors,
    and, distinct characters being linearly independent, their number is
    dim C_X(d)."""

    def __init__(self, F, s, arr, exponents, preimage_logs, graph=None):
        self.F = F
        self.s = s
        self.arr = np.ascontiguousarray(arr, dtype=np.int16)
        self.exponents = exponents
        self.preimage_logs = preimage_logs
        self.graph = graph

    @property
    def m(self):
        return self.arr.shape[0]

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


def _torus_rows(k, F, cap):
    """All (q-1)^k tuples of nonzero elements, lexicographic, as an array."""
    q = F.q
    total = (q - 1) ** k
    if total > cap:
        raise CapExceeded(f"torus needs {total} tuples, cap is {cap}", required=total)
    if k == 0:
        return np.zeros((1, 0), dtype=np.int16)
    idx = np.arange(total, dtype=np.int64)
    pows = (q - 1) ** np.arange(k - 1, -1, -1, dtype=np.int64)
    digits = (idx[:, None] // pows[None, :]) % (q - 1)
    return (digits + 1).astype(np.int16)


def torus_points(s, F, cap=DEFAULT_POINT_CAP):
    """The projective torus of P^{s-1}: (q-1)^(s-1) normalized points."""
    rows = _torus_rows(s - 1, F, cap)
    arr = np.concatenate([rows, np.ones((rows.shape[0], 1), dtype=np.int16)], axis=1)
    exponents = np.eye(s - 1, s, dtype=np.int64)
    return ToricSet(F, s, arr, exponents, F.log_table[rows])


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
    """Image of the torus of P^{n-1} under the edge-monomial map, with the
    enumerated count asserted against the closed-form length."""
    q = F.q
    rows = _torus_rows(G.n - 1, F, cap)
    # Last source coordinate is fixed to 1 (log 0).
    logs = np.concatenate(
        [
            F.log_table[rows.astype(np.int64)],
            np.zeros((rows.shape[0], 1), dtype=np.int64),
        ],
        axis=1,
    )
    s = G.s
    img_logs = np.empty((rows.shape[0], s), dtype=np.int64)
    incidence = np.zeros((G.n, s), dtype=np.int64)
    for k, (u, v) in enumerate(G.edges):
        img_logs[:, k] = logs[:, u - 1] + logs[:, v - 1]
        incidence[[u - 1, v - 1], k] = 1
    img_logs %= q - 1
    # Normalize so the last coordinate is 1.
    img_logs = (img_logs - img_logs[:, -1:]) % (q - 1)
    arr = F.exp_table[img_logs]
    if s * math.log2(q) < 62:
        # Pack each row into one base-q integer; unique on scalar keys is
        # much faster than a row-wise unique and yields the same lex order.
        pows = q ** np.arange(s - 1, -1, -1, dtype=np.int64)
        keys, first = np.unique(arr @ pows, return_index=True)
        arr = ((keys[:, None] // pows[None, :]) % q).astype(np.int16)
    else:
        arr, first = np.unique(arr.astype(np.int16), axis=0, return_index=True)
    count = arr.shape[0]
    expected = expected_length(summarize(G), F)
    if count != expected:
        raise LengthMismatch(
            f"enumerated {count} points but the length formula gives {expected}"
        )
    return ToricSet(F, s, arr, incidence[:-1], logs[first, :-1], graph=G)

