"""Brute-force code parameters: dimension, regularity plateau, minimum
distance by enumeration, and per-degree profiles.

X is a subgroup of the torus, so each evaluation row P -> P^a / P_1^d is a
group character of X, and distinct characters are linearly independent
(Dedekind-Artin).  The dimension of C_X(d) is therefore the number of
distinct rows of the evaluation matrix, and those rows, one per distinct
character in lexicographic order, form a reproducible generator matrix.
Exact GF(q) elimination (`rref`) is left to the dual code's null space and,
through `rank`, to the tests as an independent oracle.

Minimum distance enumerates one representative per projective class of
the message space; when the dual code is smaller, its weight distribution
is enumerated instead and transformed (MacWilliams), which is exact and far
cheaper near the plateau.  Both routes stay independent of every
closed-form formula.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetExceeded, MonotonicityViolation
from .toric import DEFAULT_MONOMIAL_CAP, evaluation_matrix

DEFAULT_BUDGET = 5 * 10**7
_CHUNK = 1 << 15


def worker_count():
    """Workers for the distance search; env GRAPHCODES_THREADS, 0 = auto."""
    raw = os.environ.get("GRAPHCODES_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        value = min(4, os.cpu_count() or 1)
    return value


def rref(M, F):
    """Reduced row-echelon form over GF(q).  Returns (R, pivot columns);
    R keeps only the nonzero rows, so len(pivots) is the rank."""
    R = np.array(M, dtype=np.int64)
    if R.ndim != 2:
        raise ValueError("matrix expected")
    rows, cols = R.shape
    add, mul, neg, inv = F.add_table, F.mul_table, F.neg_table, F.inv_table
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        scale = int(inv[R[r, c]])
        if scale != 1:
            R[r] = mul[scale, R[r]]
        col = R[:, c].copy()
        col[r] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            prod = mul[col[nzr][:, None], R[r][None, :]]
            R[nzr] = add[R[nzr], neg[prod]]
        pivots.append(c)
        r += 1
    return R[:r].astype(np.int16), pivots


def rank(M, F):
    return len(rref(M, F)[1])


def null_space(M, F):
    """Basis of the right null space of M over GF(q), as rows."""
    R, pivots = rref(M, F)
    cols = np.asarray(M).shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int16)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = F.neg_table[R[r, fc]]
    return basis


@dataclass
class CodeInstance:
    X: object
    d: int
    generator: np.ndarray  # one row per distinct character, rows independent
    k: int
    m: int


def characters(X, d, cap=DEFAULT_MONOMIAL_CAP):
    """The distinct rows of the evaluation matrix, lexicographically sorted:
    one row per distinct degree-d character of X, a basis of C_X(d)."""
    return np.unique(evaluation_matrix(X, d, cap=cap), axis=0)


def code_instance(X, d, cap=DEFAULT_MONOMIAL_CAP):
    G = characters(X, d, cap=cap)
    return CodeInstance(X=X, d=d, generator=G, k=G.shape[0], m=X.m)


def dimension(X, d, cap=DEFAULT_MONOMIAL_CAP):
    """dim C_X(d): the number of distinct degree-d characters of X."""
    return characters(X, d, cap=cap).shape[0]


def regularity_index(X, cap=DEFAULT_MONOMIAL_CAP):
    """Smallest d at which the dimension reaches |X|; asserts the Hilbert
    function is strictly increasing before the plateau."""
    previous = None
    d = 0
    while True:
        dim = dimension(X, d, cap=cap)
        if previous is not None and dim <= previous:
            raise MonotonicityViolation(
                f"dimension {dim} at degree {d} does not exceed {previous}"
            )
        if dim == X.m:
            return d
        previous = dim
        d += 1


def _class_chunks(q, r, chunk=_CHUNK):
    total = q**r
    starts = range(0, total, chunk)
    pows = (q ** np.arange(r - 1, -1, -1, dtype=np.int64)) if r else None
    for lo in starts:
        hi = min(lo + chunk, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        if r == 0:
            yield np.zeros((1, 0), dtype=np.int64)
        else:
            yield (idx[:, None] // pows[None, :]) % q


def _encode_chunk(lead_row, tail_rows, coeffs, F):
    """Codewords lead_row + coeffs @ tail_rows over GF(q)."""
    if F.e == 1:
        cw = coeffs.astype(np.float64) @ tail_rows.astype(np.float64)
        cw += lead_row.astype(np.float64)[None, :]
        return (cw % F.q).astype(np.int64)
    mul, add = F.mul_table, F.add_table
    out = np.broadcast_to(lead_row.astype(np.int64), (coeffs.shape[0], lead_row.size)).copy()
    for j in range(tail_rows.shape[0]):
        prod = mul[coeffs[:, j][:, None], tail_rows[j][None, :]]
        out = add[out, prod]
    return out


def _min_weight_enum(G, F):
    """Minimum weight over nonzero codewords, one representative per
    projective class (first nonzero message coordinate fixed to 1)."""
    k, m = G.shape
    q = F.q
    best = m + 1

    def jobs():
        for lead in range(k):
            for coeffs in _class_chunks(q, k - 1 - lead):
                yield lead, coeffs

    def run(job):
        lead, coeffs = job
        cw = _encode_chunk(G[lead], G[lead + 1 :], coeffs, F)
        return int((cw != 0).sum(axis=1).min())

    workers = worker_count()
    if workers > 1:
        # Bounded submission window keeps memory flat; min() is
        # order-independent, so the result is worker-count invariant.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = set()
            for job in jobs():
                pending.add(pool.submit(run, job))
                if len(pending) >= 2 * workers:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    best = min(best, *(f.result() for f in done))
                    if best == 1:
                        break
            for f in pending:
                best = min(best, f.result())
    else:
        for job in jobs():
            best = min(best, run(job))
            if best == 1:
                break
    return best


def _weight_distribution(G, F):
    """Exact weight distribution of the code spanned by G (all codewords)."""
    k, m = G.shape
    q = F.q
    counts = np.zeros(m + 1, dtype=object)
    counts[0] = 1
    for lead in range(k):
        for coeffs in _class_chunks(q, k - 1 - lead):
            cw = _encode_chunk(G[lead], G[lead + 1 :], coeffs, F)
            weights = (cw != 0).sum(axis=1)
            binc = np.bincount(weights, minlength=m + 1)
            counts += binc.astype(object) * (q - 1)
    return [int(c) for c in counts]


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


def minimum_distance(X, d, budget=DEFAULT_BUDGET, cap=DEFAULT_MONOMIAL_CAP):
    """Exact minimum Hamming weight of C_X(d).

    Enumerates projective message classes on whichever side of the code
    (primal or dual) is smaller; refuses with the required class count when
    both exceed the budget.  A full code (k = m) trivially has distance 1.
    """
    inst = code_instance(X, d, cap=cap)
    k, m = inst.k, inst.m
    if k == m:
        return 1
    q = X.F.q
    primal = (q**k - 1) // (q - 1)
    dual = (q ** (m - k) - 1) // (q - 1)
    needed = min(primal, dual)
    if needed > budget:
        raise BudgetExceeded(
            f"{needed} message classes required, budget is {budget}", required=needed
        )
    if primal <= dual:
        return _min_weight_enum(inst.generator, X.F)
    H = rref(null_space(inst.generator, X.F), X.F)[0]
    return _macwilliams_min_weight(H, X.F, k)


@dataclass
class ProfileRow:
    d: int
    dim: int
    delta: int | None
    singleton: int
    skipped: str | None = None


def distance_profile(X, d_max, budget=DEFAULT_BUDGET, cap=DEFAULT_MONOMIAL_CAP):
    """Per-degree (dim, delta, Singleton bound) records for d = 0..d_max,
    with laws asserted: the Singleton bound, strict decrease of delta until
    it reaches 1, and delta = 1 from the regularity plateau on.  Budget
    refusals yield a marked row instead of a failure."""
    rows = []
    reg_seen = None
    prev_delta = None
    for d in range(d_max + 1):
        dim = dimension(X, d, cap=cap)
        singleton = X.m - dim + 1
        if reg_seen is None and dim == X.m:
            reg_seen = d
        try:
            delta = minimum_distance(X, d, budget=budget, cap=cap)
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
