"""Brute-force code parameters: dimension, regularity plateau, minimum
distance by enumeration, and per-degree profiles.

X is a finite abelian group, written by `ToricSet.point_group` as a grid
Z/d_1 + ... + Z/d_k of |X| cells, and the same grid indexes its characters
(the dual of a finite abelian group is isomorphic to it).  Each function
t^a / t_1^d on X is a character: with w_j the cell of P -> P_j / P_s
(w_s = 0), it is the cell sum_j a_j w_j - d w_1.  Distinct characters are
linearly independent (Dedekind-Artin), so dim C_X(d) is the number of
distinct such cells.  They are counted as a boolean set over the grid:
T_0 = {0} and T_{d+1} is the union of the translates T_d + (w_k - w_1), a
sumset iteration that is the single source of the Hilbert function
(`dimension`, `regularity_index`, `hilbert_function`).  It builds no
evaluation matrix and lists no point, and its work, s |X| cells per degree,
is bounded by the point cap `parameterize` enforces on |X|.  The generator
of C_X(d) is one row per element of T_d: the character's values at the
grid cell of each listed point (`characters`).

Minimum distance enumerates one representative per projective class of
the message space; when the dual code is smaller, its weight distribution
is enumerated instead and transformed (MacWilliams), which is exact and far
cheaper near the plateau.  The dual is a character code as well: it is
spanned by the characters outside -T_d, the grid holding every character
of X (see `code_distance`), so neither side needs GF(q) elimination.  The
side, the generator cap and the class budget are decided from k and m
before any matrix exists.  Both routes stay independent of every
closed-form formula, and both read their weights from one kernel: a span
table holds all q^r combinations of the last r generator rows (r as large
as a fixed cell bound allows), every other coefficient is enumerated as a
"high" vector h, and wt(h + l) over the table rows l is the count of
positions where l differs from -h.  A block of the search is thus one byte
comparison; the add/mul tables only build the span table and the high
vectors, with no fork on the kind of q.  Exact rank and null spaces stay in
the tests (`tests/oracle.py`) as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from math import comb

import numpy as np

from .errors import BudgetExceeded, CapExceeded, MonotonicityViolation

DEFAULT_BUDGET = 5 * 10**7
DEFAULT_CELL_CAP = 10**7  # cells of the generator built: k or m - k rows, m columns
_CELLS = 1 << 20  # compared cells per block of the distance search


@dataclass
class CodeInstance:
    """C_X(d) by its characters, before any matrix is built."""

    X: object
    d: int
    T: np.ndarray  # the set T_d of degree-d characters, over X.point_group
    k: int  # |T_d| = dim C_X(d)

    @property
    def m(self):
        return self.X.m

    def dual(self):
        """The set of the m - k characters outside -T_d; their rows are a
        basis of C_X(d)^perp (see `code_distance`)."""
        return ~_negated(self.T)


def _scales(X):
    """e_i = (q - 1) / d_i over the axes d_i of X's point grid."""
    return np.array([(X.F.q - 1) // d for d in X.point_group.orders], dtype=np.int64)


def _sumsets(X):
    """Yield (T_d, |T_d|) for d = 0, 1, ... up to the plateau |T_d| = |X|.

    T_d is a boolean array over the point grid of X marking the degree-d
    characters t^a / t_1^d (|a| = d) of X, the grid being its own dual (see
    `ToricSet`): w_j = embed_j / e is the character P -> P_j / P_s, and
    w_s = 0.  T_0 = {0}, and T_{d+1} is the union of the translates
    T_d + (w_k - w_1).  Raises MonotonicityViolation when a step fails to
    grow the set before it reaches |X|."""
    group = X.point_group
    orders = np.array(group.orders, dtype=np.int64)
    w = np.vstack([group.embed // _scales(X), np.zeros_like(orders)])
    axes = tuple(range(len(orders)))
    zero = (0,) * len(axes)
    steps = {tuple(b) for b in ((w - w[0]) % orders).tolist()} - {zero}
    T = np.zeros(group.orders, dtype=bool)
    T[zero] = True
    k = 1
    for d in count(1):
        yield T, k
        if k == X.m:
            return
        grown = T.copy()
        for b in steps:
            grown |= np.roll(T, b, axes)
        previous, k = k, int(np.count_nonzero(grown))
        if k <= previous:
            raise MonotonicityViolation(
                f"dimension {k} at degree {d} does not exceed {previous}"
            )
        T = grown


def hilbert_function(X):
    """[dim C_X(0), ..., dim C_X(reg)]: the Hilbert function up to and
    including its first value |X|."""
    return [k for _, k in _sumsets(X)]


def dimension(X, d):
    """dim C_X(d): the number of distinct degree-d characters of X."""
    return code_instance(X, d).k


def regularity_index(X):
    """Smallest d at which the dimension reaches |X|; asserts the Hilbert
    function is strictly increasing before the plateau."""
    return len(hilbert_function(X)) - 1


def characters(X, S):
    """One row per element of the boolean set S over the point grid of X,
    in grid-index order: the row of the character c is
    P -> zeta^((c e) . g(P)), g(P) the grid cell of P.  Distinct
    characters, so the rows are independent; for S = T_d they are a basis
    of C_X(d)."""
    return X.F.exp_table[np.argwhere(S) * _scales(X) @ X._cells % (X.F.q - 1)]


def code_instance(X, d):
    """C_X(d), with the sumset iterated up to d only."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    for T, k in islice(_sumsets(X), d + 1):
        pass
    return CodeInstance(X, d, T, k)


def _negated(S):
    """The set -S = {-c : c in S} over the grid Z/d_1 + ... + Z/d_k:
    flipping axis i maps c to d_i - 1 - c, and a roll by one then to -c.
    A grid with no axes is {0}, and -0 = 0."""
    if S.ndim == 0:
        return S
    axes = tuple(range(S.ndim))
    return np.roll(np.flip(S, axes), 1, axes)


def _spans(base, rows, F, limit):
    """Yield base + c @ rows for every c in GF(q)^len(rows), as uint8 blocks
    of at most `limit` rows (limit >= 1).  The first row is the most
    significant digit of the enumeration order, so the first q^t rows of a
    single block are base plus the span of the last t rows."""
    if len(rows) == 0:
        yield base.astype(np.uint8)[None, :]
        return
    add, mul = F.add_table, F.mul_table
    tail = F.q ** (len(rows) - 1)
    if tail > limit:
        for c in range(F.q):
            yield from _spans(add[base, mul[c, rows[0]]], rows[1:], F, limit)
        return
    low = next(_spans(base, rows[1:], F, tail))
    step = limit // tail  # coefficients of rows[0] per block
    for c in range(0, F.q, step):
        multiples = mul[c : c + step, rows[0]]
        yield add[multiples[:, None, :], low[None, :, :]].reshape(-1, base.size).astype(np.uint8)


def _class_weights(G, F):
    """Hamming weights of one codeword per projective class of the code
    spanned by G (first nonzero message coordinate 1), in blocks of at most
    _CELLS compared cells (or one codeword, when that is longer).

    A codeword is h + l: l is a row of a span table holding all q^r
    combinations of the last r generator rows, and h is the lead row plus a
    combination of the rows between.  wt(h + l) = #{j : -l_j != h_j}, so
    with the table negated once a block is one byte comparison, the same
    for every q."""
    k, m = G.shape
    q = F.q
    G = G.astype(np.uint8)  # byte comparisons against the uint8 table
    r = 0
    while r < k - 1 and q ** (r + 1) * m <= _CELLS:
        r += 1
    table = next(_spans(np.zeros(m, dtype=np.uint8), G[k - r :], F, q**r))
    neg_low = F.neg_table.astype(np.uint8)[table]
    batch = max(1, _CELLS // neg_low.size)  # high vectors per comparison
    for lead in range(k):
        free = k - 1 - lead
        if free <= r:
            yield np.count_nonzero(neg_low[: q**free] != G[lead], axis=1)
            continue
        for high in _spans(G[lead], G[lead + 1 : k - r], F, batch):
            yield np.count_nonzero(neg_low[None, :, :] != high[:, None, :], axis=2).ravel()


def _min_weight_enum(G, F):
    """Minimum weight over the nonzero codewords spanned by G."""
    best = G.shape[1]
    for weights in _class_weights(G, F):
        best = min(best, int(weights.min()))
        if best == 1:
            break
    return best


def _weight_distribution(G, F):
    """Exact weight distribution of the code spanned by G (all codewords)."""
    m = G.shape[1]
    counts = np.zeros(m + 1, dtype=np.int64)
    for weights in _class_weights(G, F):
        counts += np.bincount(weights, minlength=m + 1)
    dist = [int(c) * (F.q - 1) for c in counts]  # q - 1 scalings per class
    dist[0] += 1  # the zero message
    return dist


def _macwilliams_min_weight(H, F, k):
    """Minimum weight of the code with dual generator H, via the
    MacWilliams identity applied to the dual's weight distribution."""
    m = H.shape[1]
    q = F.q
    B = _weight_distribution(H, F)
    A = [0] * (m + 1)
    for j, Bj in enumerate(B):
        if not Bj:
            continue
        # (x + (q-1)y)^(m-j) * (x - y)^j, coefficients in y.
        left = [comb(m - j, a) * (q - 1) ** a for a in range(m - j + 1)]
        right = [comb(j, b) * (-1) ** b for b in range(j + 1)]
        for a, la in enumerate(left):
            if not la:
                continue
            for b, rb in enumerate(right):
                A[a + b] += Bj * la * rb
    scale = q ** (H.shape[0])
    A = [a // scale for a in A]
    assert A[0] == 1 and sum(A) == q**k, "MacWilliams transform sanity check"
    return next(w for w in range(1, m + 1) if A[w] > 0)


def minimum_distance(X, d, budget=DEFAULT_BUDGET, cap=DEFAULT_CELL_CAP):
    """Exact minimum Hamming weight of C_X(d)."""
    return code_distance(code_instance(X, d), budget=budget, cap=cap)


def code_distance(inst, budget=DEFAULT_BUDGET, cap=DEFAULT_CELL_CAP):
    """Exact minimum Hamming weight of a code instance.

    Enumerates projective message classes on whichever side of the code
    (primal or dual) is smaller.  The side, the cap on its generator cells
    and then the budget on its classes are checked from k and m alone,
    before any matrix is built; only the chosen side is built.  A full code
    (k = m) has distance 1 and builds nothing.

    The dual side is a character code too: m = |X| divides (q-1)^r, so
    m != 0 in GF(q), and the characters satisfy <chi_a, chi_b> = m [a + b = 0].
    C_X(d)^perp is therefore spanned by the m - k characters of X, the
    cells of the point grid, that lie outside -T_d.
    """
    k, m = inst.k, inst.m
    if k == m:
        return 1
    F = inst.X.F
    q = F.q
    primal = (q**k - 1) // (q - 1)
    dual = (q ** (m - k) - 1) // (q - 1)
    rows = k if primal <= dual else m - k
    if rows * m > cap:
        raise CapExceeded(
            f"generator needs {rows * m} cells, cap is {cap}", required=rows * m
        )
    needed = min(primal, dual)
    if needed > budget:
        raise BudgetExceeded(
            f"{needed} message classes required, budget is {budget}", required=needed
        )
    if primal <= dual:
        return _min_weight_enum(characters(inst.X, inst.T), F)
    return _macwilliams_min_weight(characters(inst.X, inst.dual()), F, k)


@dataclass
class ProfileRow:
    d: int
    dim: int
    delta: int | None
    singleton: int
    skipped: str | None = None


def distance_profile(X, d_max, budget=DEFAULT_BUDGET, cap=DEFAULT_CELL_CAP):
    """Per-degree (dim, delta, Singleton bound) records for d = 0..d_max,
    with laws asserted: the Singleton bound, strict decrease of delta until
    it reaches 1, and delta = 1 from the regularity plateau on.  Budget
    refusals yield a marked row instead of a failure."""
    rows = []
    reg_seen = None
    prev_delta = None
    for d in range(d_max + 1):
        inst = code_instance(X, d)
        dim = inst.k
        singleton = X.m - dim + 1
        if reg_seen is None and dim == X.m:
            reg_seen = d
        try:
            delta = code_distance(inst, budget=budget, cap=cap)
            skipped = None
        except BudgetExceeded as exc:
            delta = None
            skipped = f"budget: {exc.required} classes required"
        if delta is not None:
            if delta > singleton:
                raise AssertionError(
                    f"Singleton bound violated at d={d}: {delta} > {singleton}"
                )
            if prev_delta is not None:
                if prev_delta > 1 and delta >= prev_delta:
                    raise AssertionError(
                        f"minimum distance failed to decrease at d={d}"
                    )
                if prev_delta == 1 and delta != 1:
                    raise AssertionError(f"distance rose above 1 at d={d}")
            if reg_seen is not None and d >= reg_seen and delta != 1:
                raise AssertionError(f"distance is {delta} past the plateau at d={d}")
        prev_delta = delta if delta is not None else prev_delta
        rows.append(ProfileRow(d=d, dim=dim, delta=delta, singleton=singleton, skipped=skipped))
    return rows
