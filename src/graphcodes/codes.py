"""Exact minimum distance and per-degree profiles of the codes C_X(d).

The Hilbert function, the count of the set T_d of degree-d characters of X
over its point grid, and with it dimension and regularity, is in `hilbert`,
which needs no numpy.  `profile_rows` takes every degree of a profile from
one pass of its sumset.  This module holds what needs numpy and the field
tables: T_d as a boolean grid (`character_grid`), the generator of C_X(d),
one row per element of T_d, the character's values at every cell of the
point grid, in the order `ToricSet.arr` lists the points (`characters`),
the basis of the dual (`dual_basis`) and the distance search.

Minimum distance uses the translation action of X.  X acts regularly on
the coordinates, its points, and since chi_c(x + g) = chi_c(g) chi_c(x) the
action maps C_X(d) and its dual to themselves.  The primal side puts the
character generator in systematic form on one information set I (the one
GF(q) elimination in the package, `_systematic`) and runs Brouwer-Zimmermann
(`_bz_min_weight`): every translate g + I is an information set, so after
the messages of weight <= w a word not yet seen weighs at least
ceil(m (w + 1) / k), and the search stops once that reaches the best weight
found, or once the best weight reaches the coset bound (`coset_bound`), a
lower bound on every nonzero word read from T_d alone: a word on X is a
sum over the characters of one axis, each times a word on the others, so
it is nonzero on as many cosets of that axis as its lightest such word
needs, and on each of those cosets it is a word on one cyclic axis, bounded
by the longest gap of its spectrum (the BCH / Reed-Solomon bound).  On the
d = 1 codes of K_{3,3}/GF(5), K_4/GF(9) and K_4/GF(25), among others, a
weight-1 message reaches the bound and the search ends there.  The same
count trims the last weight W, after which the search
stops, to the messages whose support contains the first j rows.  A word c
lighter than the best weight b weighs at least W on every translate of I,
and these weights sum to k wt(c), so at least (W + 1) m - k wt(c)
translates carry exactly W; and c is nonzero on all j information
coordinates of rows 0..j - 1 of at least j wt(c) - (j - 1) m translates.
When (W + 1 - j) m > (k - j)(b - 1) the two sets of translates meet: some
translate of c is a weight-W message containing rows 0..j - 1.  j = 0 is
the stop rule's own test, and a valid j makes j - 1 valid.  The dual is a
character code as well, spanned by the characters
outside -T_d (see `code_distance`), whose rows are the field inverses of the
rows of the characters outside T_d.  The dual route reads dependent columns
first, then the shortened dual: its basis is a parity-check matrix of
C_X(d), so a distance of 2 or 3 is two proportional columns or a column in
the span of two others, one of them at the identity point by translation
(`_dependent_columns`); otherwise only the dual's words vanishing at the
identity point are enumerated, transitivity gives the whole weight
distribution (`_dual_distribution`) and MacWilliams the code's.  The side,
the generator cap and the budget are decided from k, m and q before any
matrix exists, and both routes stay independent of every closed-form
formula.  Field elements are bytes (the uint8 tables of `gfq`), so both
read weights from byte comparisons with no conversion and no fork on the
kind of q, each block counted by one sum along its contiguous rows, into
uint16 while the counts fit (`_count_type`).  Brouwer-Zimmermann compares prefixes, sums of w - r
rows, with tails of r later rows: up to weight 3 the multiples of one row
(r = 1), and from weight 4 a table of every two-row tail
c_1 A_i + c_2 A_j (r = 2), built once per search from the field tables
when its C(k - 2, 2) (q - 1)^2 (m - k) cells fit the cell cap, a check
made before it is allocated (over the cap, r stays 1).  The dual's
enumeration compares "high" vectors h with a span table of all q^r
combinations l of the last r rows (wt(h + l) is the count of positions
where l differs from -h).  The add/mul tables only build the vectors
compared, at several times the cost of a compared cell; within a weight
each prefix is built once, by extending a block of the sums one row
shorter with the multiples of every higher row, in blocks of about _CELLS
compared cells.  Exact rank, null spaces and the exhaustive primal search
stay in the tests (`tests/oracle.py`) as an independent check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice

import numpy as np

from . import hilbert
from .errors import DEFAULT_BUDGET, BudgetExceeded, CapExceeded
from .hilbert import CodeInstance, code_instance

# Re-exported only for perfbench/workloads.py, which calls them through this
# module, until the benchmark calls `hilbert` itself (ROADMAP item 1).
from .hilbert import dimension, regularity_index  # noqa: F401

DEFAULT_CELL_CAP = 10**7  # cells of the generator built: k or m - k rows, m columns
_CELLS = 1 << 20  # compared cells per block of the distance search


def character_grid(inst):
    """T_d of a code instance as a boolean array over X.point_group."""
    orders = inst.X.point_group.orders
    size = math.prod(orders)
    packed = np.frombuffer(inst.bits.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").view(bool).reshape(orders)


def dual_basis(inst):
    """The m - k rows of the characters outside -T_d, a basis of
    C_X(d)^perp (see `code_distance`): chi_-b = 1 / chi_b, so they are the
    inverses of the rows of the characters outside T_d."""
    return inst.X.F.inv_table[characters(inst.X, ~character_grid(inst))]


def characters(X, S):
    """One row per element of the boolean set S over the point grid of X,
    in grid-index order: the character of the cell c at every grid cell in
    C order, the order in which X.arr lists the points (`ToricSet.values`).
    Distinct characters, so the rows are independent; for S = T_d they are
    a basis of C_X(d)."""
    return X.values(np.argwhere(S))


def _spans(base, rows, F, limit):
    """Yield base + c @ rows for every c in GF(q)^len(rows), as uint8 blocks
    of at most `limit` rows (limit >= 1).  The first row is the most
    significant digit of the enumeration order, so the first q^t rows of a
    single block are base plus the span of the last t rows."""
    if len(rows) == 0:
        yield base[None, :]
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
        yield add[multiples[:, None, :], low[None, :, :]].reshape(-1, base.size)


def _count_type(n):
    """The narrowest unsigned type that holds the counts 0..n of a row sum
    over a byte comparison: a sum into uint16 runs about 1.5 times as fast
    as one into uint32, and 8 bits would wrap past 255."""
    return np.uint16 if n < 1 << 16 else np.uint32


def _class_weights(G, F):
    """Hamming weights of one codeword per projective class of the code
    spanned by G (first nonzero message coordinate 1), in blocks of at most
    _CELLS compared cells (or one codeword, when that is longer).

    A codeword is h + l: l is a row of a span table holding all q^r
    combinations of the last r generator rows, and h is the lead row plus a
    combination of the rows between.  wt(h + l) = #{j : -l_j != h_j}, so
    with the table negated once a block is one byte comparison, the same
    for every q, counted by a sum along its contiguous rows.  r is at most
    half the rows and fits a fixed cell bound:
    the table and the high vectors, q^r and about q^(k-1-r) gathered rows,
    then cost far less than the q^(k-1) compared rows."""
    k, m = G.shape
    q = F.q
    r = 0
    while r < k // 2 and q ** (r + 1) * m <= _CELLS:
        r += 1
    table = next(_spans(np.zeros(m, dtype=np.uint8), G[k - r :], F, q**r))
    neg_low = F.neg_table[table]
    batch = max(1, _CELLS // neg_low.size)  # high vectors per comparison
    count = _count_type(m)
    for lead in range(k):
        free = k - 1 - lead
        if free <= r:
            yield (neg_low[: q**free] != G[lead]).sum(axis=1, dtype=count)
            continue
        for high in _spans(G[lead], G[lead + 1 : k - r], F, batch):
            differ = neg_low[None, :, :] != high[:, None, :]
            yield differ.sum(axis=2, dtype=count).ravel()


def _weight_distribution(G, F):
    """Exact weight distribution of the code spanned by G (all codewords)."""
    m = G.shape[1]
    counts = np.zeros(m + 1, dtype=np.int64)
    for weights in _class_weights(G, F):
        counts += np.bincount(weights, minlength=m + 1)
    dist = [int(c) * (F.q - 1) for c in counts]  # q - 1 scalings per class
    dist[0] += 1  # the zero message
    return dist


def _systematic(G, F):
    """The redundancy part A of G row-reduced over GF(q) to [I_k | A] on an
    information set I: a message u is the codeword's values on I, and u A
    its values elsewhere.  A is a C-contiguous uint8 k x (m - k) array; G
    must have full row rank k."""
    S = G.copy()
    k, m = S.shape
    add, mul = F.add_table, F.mul_table
    info = []
    for r in range(k):
        # Earlier pivot columns are already zero in row r.
        support = np.flatnonzero(S[r])
        assert support.size, "generator rows are dependent"
        p = int(support[0])
        S[r] = mul[F.inv_table[S[r, p]], S[r]]
        factors = F.neg_table[S[:, p]]
        factors[r] = 0
        rows = np.flatnonzero(factors)
        S[rows] = add[S[rows], mul[factors[rows, None], S[r]]]
        info.append(p)
    return np.ascontiguousarray(np.delete(S, info, axis=1))


def _combinations(A, t, F, limit, fixed=0):
    """Yield (sums, tops) for every combination of t rows of A whose lowest
    row has coefficient 1 and the others any nonzero one, and whose lowest
    `fixed` rows (fixed <= t) are rows 0..fixed - 1, each once: sums in
    blocks of at most `limit` rows, tops the index of each combination's
    highest row, ascending within a block.

    Each block of (t - 1)-row sums is extended by every row j above its
    lowest top (only by row t - 1 when all t rows are fixed): its sums with
    top below j, a prefix of the block, take the nonzero multiples of row
    j.  So every sum is built once, from the one a row shorter.  The
    extensions are gathered into blocks of up to `limit` rows in the order
    they are built; one whose top is below the last starts a new block,
    which keeps the tops ascending."""
    k, L = A.shape
    if t == 1:
        last = 1 if fixed else k
        for i in range(0, last, limit):
            yield A[i : min(i + limit, last)], np.arange(i, min(i + limit, last))
        return
    q = F.q
    add = F.add_table.ravel()  # x + y at x q + y
    step = min(q - 1, limit)  # multiples of a row per extension
    pieces, tops = [], []  # the block being gathered
    shorter = _combinations(A, t - 1, F, max(1, limit // (q - 1)), min(fixed, t - 1))
    for sums, below_tops in shorter:
        high = sums.astype(np.uint16) * q  # at most 255 q + 255 < 2^16
        for j in range(int(below_tops[0]) + 1, t if fixed == t else k):
            below = high[: np.searchsorted(below_tops, j)]
            multiples = F.mul_table[np.arange(1, q)[:, None], A[j]].astype(np.uint16)
            for c in range(0, q - 1, step):
                piece = add.take(below[:, None, :] + multiples[None, c : c + step]).reshape(-1, L)
                if len(tops) + len(piece) > limit or (tops and j < tops[-1]):
                    yield np.concatenate(pieces), np.array(tops)
                    pieces, tops = [], []
                pieces.append(piece)
                tops += [j] * len(piece)
    if pieces:
        yield np.concatenate(pieces), np.array(tops)


def _tails(A, F, cap):
    """The two-row tails of A from row 2 up: entry i, i >= 2, lists the
    (q - 1)^2 (k - 1 - i) rows c_1 A_i + c_2 A_j, j > i, c_1 and c_2
    nonzero, C-contiguous, for k >= 4.  Entries 0 and 1 are empty, as no
    prefix of two or more rows has its top below 1.  None when those
    C(k - 2, 2) (q - 1)^2 L cells would pass the cap, a check made before
    anything is allocated."""
    k, L = A.shape
    q = F.q
    if math.comb(k - 2, 2) * (q - 1) ** 2 * L > cap:
        return None
    add = F.add_table.ravel()  # x + y at x q + y
    multiples = F.mul_table[np.arange(1, q)[:, None, None], A[None, 2:]]  # (q - 1, k - 2, L)
    high = multiples.astype(np.uint16) * q  # at most 255 q + 255 < 2^16
    return [A[:0], A[:0]] + [
        add.take(high[:, None, i, None] + multiples[None, :, i + 1 :]).reshape(-1, L)
        for i in range(k - 2)
    ]


def _tail_rows(w, tails):
    """r, the rows of a tail at weight w (see `_message_weights`)."""
    return 2 if w >= 4 and tails is not None else 1


def _message_weights(A, w, F, tails=None, fixed=0):
    """Weights of the codewords u [I_k | A] over the projective messages u of
    weight w (first nonzero coordinate 1) whose support contains rows
    0..fixed - 1, fixed at most the w - r rows of a prefix:
    C(k - fixed, w - fixed) (q - 1)^(w - 1) of them, in blocks of at most
    _CELLS compared cells (or one row of A, when that is longer).

    For w > 1 a message is a prefix, a combination of w - r rows, plus a
    tail of r rows above the prefix's rows: for w >= 4 with the table
    `tails` (`_tails`) the two-row combinations c_1 A_i + c_2 A_j (r = 2),
    and otherwise the nonzero multiples of one row (r = 1).  As the
    coefficients run over the nonzero elements so do their negatives, so a
    message weighs w plus the positions where its prefix differs from its
    tail.  Tail group i, the tails whose lowest row is i, meets the
    prefixes whose top is below i (the start of a block, whose tops
    ascend) in byte comparisons, each counted by a row sum.  Each prefix
    is built once (`_combinations`, its lowest `fixed` rows 0..fixed - 1);
    r = 2 builds (w - 1) / ((q - 1) (k - w + 2)) of the prefixes r = 1
    builds, and the table, built once per search, serves every weight from
    4 on."""
    k, L = A.shape
    r = _tail_rows(w, tails)
    assert 0 <= fixed <= w - r, "only prefix rows are fixed"
    count = _count_type(k + L)  # a weight is at most w + L
    if w == 1:
        for rows, _ in _combinations(A, 1, F, max(1, _CELLS // L)):
            yield 1 + (rows != 0).sum(axis=1, dtype=count)
        return
    q = F.q
    rows = max(1, _CELLS // L)  # compared rows per block
    coefficients = np.arange(1, q)[:, None]
    for sums, tops in _combinations(A, w - r, F, rows, fixed):
        for i in range(int(tops[0]) + 1, k + 1 - r):
            below = sums[: np.searchsorted(tops, i)]
            group = len(tails[i]) if r == 2 else q - 1
            per = min(group, rows)  # tails per comparison
            step = max(1, rows // per)  # prefixes per comparison
            for c in range(0, group, per):
                if r == 2:
                    tail = tails[i][c : c + per]
                else:
                    # A 2-D index keeps the multiples C-contiguous; a slice
                    # beside the fancy index would lay them out by column.
                    tail = F.mul_table[coefficients[c : c + per], A[i]]
                for b in range(0, len(below), step):
                    differ = below[b : b + step, None, :] != tail[None]
                    yield w + differ.sum(axis=2, dtype=count).ravel()


def _arc_bound(n, P):
    """The least weight of a nonzero word on Z/n whose spectrum lies in
    the nonempty set P of residues: the largest circular gap between the
    sorted P t, over the units t mod n, which is n less the shortest arc
    holding some P t, plus 1 (the BCH / Reed-Solomon bound).  A word with
    spectrum in an arc b, ..., b + L - 1 is x -> zeta^(b x) p(zeta^x) for a
    polynomial p of degree < L, zero at most L - 1 times among the n
    distinct zeta^x, and x -> t x permutes Z/n and takes spectrum P to P t.
    t and -t give mirrored gaps, so t runs up to n / 2, and it stops once
    the gap reaches n - |P| + 1, the most any arc can give."""
    r = len(P)
    if r >= n - 1:  # P, or P and one more residue, is an arc already
        return n - r + 1
    best = 0
    for t in range(1, n // 2 + 1):
        if math.gcd(t, n) == 1:
            v = sorted(p * t % n for p in P)
            best = max(best, v[0] + n - v[-1], *(b - a for a, b in zip(v, v[1:])))
            if best == n - r + 1:
                break
    return best


def _coset_bound(orders, bits):
    """LB(orders, S): a lower bound on the weight of every nonzero word
    with spectrum in the nonempty set S (bit i, grid cell i in C order) on
    the grid Z/d_1 + ... + Z/d_k, in exact ints.

    A single character is zero nowhere, so LB = |grid|; every character,
    the whole space, has LB = 1.  On one axis Z/n LB is `_arc_bound`.  On
    more, write x + h with h on axis 0 (H, of order n = d_1) and x on the
    rest: a word f with spectrum S is f(x + h) = sum_psi F_psi(x) psi(h),
    psi over the first coordinates of S, and F_psi a word on the rest whose
    spectrum is S_psi, the cells of S with first coordinate psi, projected.
    Let a_psi = LB(rest, S_psi) and Psi = {psi : F_psi != 0}, nonempty as f
    is nonzero.  Each F_psi with psi in Psi is nonzero on at least a_psi
    points x, so f is nonzero on at least a = max_{psi in Psi} a_psi
    cosets x + H.  On each of them f is a nonzero word on Z/n whose
    spectrum lies in Psi, so it weighs at least the arc bound of Psi, and
    at least that of {psi : a_psi <= a}, which holds Psi: removing residues
    only widens the gaps.  a is one of the a_psi, so
    LB = min over them of a * arc(n, {psi : a_psi <= a})."""
    cells, size = bits.bit_count(), math.prod(orders)
    if cells == 1:
        return size
    if cells == size:
        return 1
    n = orders[0]
    if len(orders) == 1:
        return _arc_bound(n, [x for x in range(n) if bits >> x & 1])
    stride = size // n
    mask = (1 << stride) - 1
    a = {}
    for psi in range(n):
        part = bits >> psi * stride & mask
        if part:
            a[psi] = _coset_bound(orders[1:], part)
    return min(t * _arc_bound(n, [psi for psi in a if a[psi] <= t]) for t in set(a.values()))


def coset_bound(inst):
    """A certified lower bound on the minimum distance of C_X(d), read
    from its characters T_d alone (`_coset_bound`), in the line of Camion's
    apparent distance of abelian codes: C_X(d) is the code of the words on
    the group X whose spectrum lies in T_d."""
    return _coset_bound(inst.X.point_group.orders, inst.bits)


def _bz_min_weight(G, F, lower=0):
    """Minimum weight of the code spanned by G (k x m, full rank) when a
    group acting regularly on the m coordinates maps the code to itself
    (Brouwer-Zimmermann over the translates of one information set).

    Messages on the information set I are enumerated by weight.  Each
    translate g + I is an information set too, and the translate of a word
    has the same weight, so once every message of weight < w is done, a
    word not yet seen weighs at least w on each of the m translates; each
    coordinate lies in exactly k of them, so the word weighs at least
    ceil(m w / k).  The search stops when that reaches the best weight,
    which starts at the Griesmer bound (no [m, k]_q code weighs more).

    At the last weight W, where ceil(m (W + 1) / k) reaches the best
    weight b, only a word c with wt(c) <= b - 1 is left to rule out.  Each
    translate of I carries at least W of its weight and they carry
    k wt(c) in all, so at least (W + 1) m - k wt(c) carry exactly W; a
    translate of the j information coordinates of rows 0..j - 1 misses
    the support of c for at most j (m - wt(c)) translations.  If
    (W + 1 - j) m > (k - j)(b - 1), some translate of c is a message of
    weight W whose support contains rows 0..j - 1, so only those are
    enumerated: the largest such j up to the W - r rows of a prefix, which
    leaves the tails as they are.  j = 0 is the stop test itself, so no
    earlier weight is trimmed, and a lighter word found on the way only
    makes j safer.  On K_{3,3}/GF(5) at d = 1 (k = 9, m = 256, b = 144
    from weight 1), searched without a lower bound, W = 5 and j = 2: 8,960
    messages of weight 5.

    Up to weight 3 a message is a sum of w - 1 rows against the multiples
    of a later row (`_message_weights`).  On reaching weight 4 the search
    builds the table of two-row tails (`_tails`) once, if its
    C(k - 2, 2) (q - 1)^2 (m - k) cells fit DEFAULT_CELL_CAP (checked
    before it is allocated), and from then on compares sums of w - 2 rows
    with it; over the cap it keeps to one-row tails.  A table built for weight
    3 would hold about 3 / k as many rows as weight 3 compares, each built
    at several times the cost of a comparison, which a search that ends at
    weight 3 does not repay (C_4/GF(32) at d = 1 took three times as
    long).

    `lower`, a lower bound on the weight of every nonzero word
    (`coset_bound`), ends the search as soon as the best weight reaches it,
    in the same two places as the floor: on K_{3,3}/GF(5) at d = 1 the
    bound is 144 and the search stops after the 9 messages of weight 1.  A
    word found below it would make the bound false, and is an error."""
    k, m = G.shape
    A = _systematic(G, F)
    best = _griesmer(k, m, F.q)
    tails = None
    for w in range(1, k + 1):
        floor = -(-m * w // k)  # least weight of a word not yet seen
        if floor >= best or best <= lower:
            break
        if w == 4:
            tails = _tails(A, F, DEFAULT_CELL_CAP)
        fixed = w - _tail_rows(w, tails)
        while fixed and (w + 1 - fixed) * m <= (k - fixed) * (best - 1):
            fixed -= 1
        for weights in _message_weights(A, w, F, tails, fixed):
            best = min(best, int(weights.min()))
            if floor >= best or best <= lower:
                break
    assert best >= lower, "a word weighs less than the lower bound"
    return best


def _griesmer(k, m, q):
    """The Griesmer bound: the largest d with sum_{i<k} ceil(d / q^i) <= m,
    at least the minimum distance of every [m, k]_q code."""

    def length(d):
        n, i, power = 0, 0, 1
        while i < k and power < d:
            n, i, power = n - (-d // power), i + 1, power * q
        return n + k - i  # ceil(d / q^i) = 1 once q^i >= d

    lo, hi = 1, m - k + 1  # length(1) = k <= m; Singleton
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if length(mid) <= m else (lo, mid - 1)
    return lo


def _bz_messages(k, m, q):
    """The most messages `_bz_min_weight` enumerates for an [m, k]_q code:
    those of weight <= W, W the least w >= 1 with ceil(m (w + 1) / k) above
    the Griesmer bound, since by then the minimum word is found and the
    floor exceeds it.  At most (q^k - 1) / (q - 1), the weights <= k."""
    total, term = 0, k  # term: the C(k, w) (q - 1)^(w - 1) of weight w
    for w in range(1, max(1, k * _griesmer(k, m, q) // m) + 1):
        total += term
        term = term * (k - w) * (q - 1) // (w + 1)
    return total


def _dual_distribution(D, F):
    """Weight distribution B of the code spanned by the r rows of D, r
    characters of X, from the r - 1 differences chi_c - chi_c0 alone.

    The differences span the words that vanish at the identity point, where
    every character is 1.  Translations act regularly on the coordinates
    and map the code to itself, so each coordinate is zero in the same
    number B0_w of weight-w words, and counting the zeros of the weight-w
    words two ways gives B_w (m - w) = m B0_w for w < m; B_m is the rest of
    the q^r words."""
    r, m = D.shape
    B0 = _weight_distribution(F.add_table[D[1:], F.neg_table[D[0]]], F)
    B = []
    for w in range(m):
        Bw, rest = divmod(m * B0[w], m - w)
        assert not rest, "the translations do not act regularly"
        B.append(Bw)
    B.append(F.q**r - sum(B))
    return B


def _dependent_columns(D, F, classes):
    """2 or 3, the minimum distance of the code whose parity-check matrix
    is the dual basis D (`dual_basis`, r x m, column 0 at the identity
    point) when it is one of these; None when it is at least 4, or when it
    is not 2 and the three-column search would compare more cells than the
    shortened dual's `classes` do or than DEFAULT_CELL_CAP, a check made
    before anything is allocated for it.

    The minimum distance of a code is the least number of linearly
    dependent columns of a parity-check matrix (MacWilliams-Sloane).  Every
    entry of D is nonzero, as its rows are inverted character values, so no
    column is zero and the distance is at least 2.  Each column x is scaled
    to N_x, first entry 1: two columns are proportional exactly when their
    N are equal, and then the distance is 2.  Otherwise three columns are
    dependent exactly when all three coefficients are nonzero, so exactly
    when N_c = mu N_a + nu N_b with mu, nu nonzero and mu + nu = 1 (the
    first entries), that is N_c = (N_a + l N_b) / (1 + l) for some
    l = nu / mu not in {0, -1}; c is neither a nor b, as N_a != N_b.  And
    a = 0 is enough: the column at x + g is the column at x times the
    column at g entrywise (chi(x + g) = chi(g) chi(x)), an invertible
    diagonal map, so translating three dependent columns by -a leaves them
    dependent, with a at the identity point, where N_0 is all ones.  So the
    distance is 3 exactly when a column equals (1 + l N_b) / (1 + l) for
    some b >= 1 and l: (m - 1)(q - 2) candidates of r cells, looked up
    among the sorted columns, as byte strings, by binary search.  The
    answer reads no bound on the distance, so on a dual degree the coset
    bound stays an independent check (`distance_laws`)."""
    r, m = D.shape
    add, mul, inv = F.add_table, F.mul_table, F.inv_table
    # N^T, C-contiguous: row x is the column x scaled by the inverse of
    # its first entry.
    NT = np.ascontiguousarray(mul[inv[D[0]], D].T)
    keys = np.sort(NT.view(f"S{r}")[:, 0])
    if np.any(keys[1:] == keys[:-1]):
        return 2
    if (m - 1) * (F.q - 2) * r > min(classes * m, DEFAULT_CELL_CAP):
        return None
    scales = np.arange(1, F.q)
    scales = scales[add[1, scales] != 0]  # l, with 1 + l != 0
    # (1 + l x) / (1 + l) for every element x, one row per l.
    maps = mul[inv[add[1, scales]][:, None], add[1, mul[scales]]]
    per = max(1, _CELLS // ((m - 1) * r))  # values of l per lookup
    for i in range(0, len(maps), per):
        found = maps[i : i + per, NT[1:]].reshape(-1, r).view(f"S{r}")[:, 0]
        at = np.minimum(np.searchsorted(keys, found), m - 1)
        if np.any(keys[at] == found):
            return 3
    return None


def _macwilliams_min_weight(B, q, k):
    """Minimum weight of an [m, k]_q code whose dual has the weight
    distribution B = (B_0, ..., B_m), by the MacWilliams transform
    A_j = q^(k - m) sum_w B_w K_j(w).  The Krawtchouk values K_j(w) follow
    the three-term recurrence
    (j + 1) K_{j+1} = ((m - j)(q - 1) + j - q w) K_j - (q - 1)(m - j + 1) K_{j-1}
    from K_0 = 1, in exact integers: O(m) per weight of the dual.  Every
    A_j must divide exactly by q^(m - k), A_0 be 1 and the A_j sum to q^k."""
    m = len(B) - 1
    A = [0] * (m + 1)
    for w, Bw in enumerate(B):
        if not Bw:
            continue
        previous, K = 0, 1
        for j in range(m + 1):
            A[j] += Bw * K
            previous, K = K, (
                ((m - j) * (q - 1) + j - q * w) * K - (q - 1) * (m - j + 1) * previous
            ) // (j + 1)
    A, rests = zip(*(divmod(a, q ** (m - k)) for a in A))
    assert not any(rests), "MacWilliams transform is not integral"
    assert A[0] == 1 and sum(A) == q**k, "MacWilliams transform sanity check"
    return next(w for w in range(1, m + 1) if A[w] > 0)


def minimum_distance(X, d, budget=DEFAULT_BUDGET):
    """Exact minimum Hamming weight of C_X(d)."""
    return code_distance(code_instance(X, d), budget=budget)


def code_distance(inst, budget=DEFAULT_BUDGET):
    """Exact minimum Hamming weight of a code instance.

    X acts regularly on the coordinates by translation and maps C_X(d) and
    its dual to themselves (chi_c(x + g) = chi_c(g) chi_c(x)).  The primal
    side runs Brouwer-Zimmermann over the translates of one information set
    (`_bz_min_weight`), at most `_bz_messages` messages, and ends it at the
    coset bound of T_d (`coset_bound`).  The dual side is a
    character code: m = |X| divides (q-1)^r, so m != 0 in GF(q), and the
    characters satisfy <chi_a, chi_b> = m [a + b = 0], so C_X(d)^perp is
    spanned by the m - k cells of the point grid outside -T_d.  As
    chi_-b = 1 / chi_b, those rows are the rows of the characters outside
    T_d through the field's inverse table (`dual_basis`).  The dual route
    takes dependent columns first, then the shortened dual: that basis is a
    parity-check matrix, and a distance of 2 or 3 is read off its columns
    (`_dependent_columns`), reading no bound; otherwise only the
    (q^(m-k-1) - 1)/(q - 1) classes of its words vanishing at the identity
    are enumerated (`_dual_distribution`), then transformed (MacWilliams).

    The side is the cheaper one whose generator (k or m - k rows of m
    cells) fits DEFAULT_CELL_CAP, and its count is checked against the
    budget, all from k, m and q before any matrix is built; only the chosen
    side is built, and a side over the cap is not even counted.  Nothing is
    built for a single character (k = 1), which is zero nowhere and so has
    distance m, nor for a full code (k = m), whose distance is 1.
    """
    k, m = inst.k, inst.m
    if k == m:
        return 1
    if k == 1:
        return m
    cap = DEFAULT_CELL_CAP
    cells = min(k, m - k) * m  # the smaller generator
    if cells > cap:
        raise CapExceeded(f"generator needs {cells} cells, cap is {cap}", required=cells)
    F = inst.X.F
    q = F.q
    out = float("inf")  # the count of a side over the cap
    primal = _bz_messages(k, m, q) if k * m <= cap else out
    dual = (q ** (m - k - 1) - 1) // (q - 1) if (m - k) * m <= cap else out
    needed = min(primal, dual)
    if needed > budget:
        raise BudgetExceeded(
            f"{needed} message classes required, budget is {budget}", required=needed
        )
    if primal <= dual:
        G = characters(inst.X, character_grid(inst))
        return _bz_min_weight(G, F, coset_bound(inst))
    D = dual_basis(inst)
    return _dependent_columns(D, F, dual) or _macwilliams_min_weight(
        _dual_distribution(D, F), q, k
    )


class ProfileRow(
    namedtuple("ProfileRow", "d dim delta singleton required bound", defaults=(None, None))
):
    """One degree of a profile; delta is None and `required` holds the
    classes of the search when the budget refused it.  `bound` is the coset
    bound (`coset_bound`) of a degree whose delta was computed."""

    __slots__ = ()

    @property
    def skipped(self):
        return None if self.required is None else f"budget: {self.required} classes required"


def profile_rows(X, d_max, budget=DEFAULT_BUDGET):
    """Per-degree (dim, delta, Singleton bound, coset bound) records for
    d = 0..d_max from one pass of the sumset, with no law checked.  A
    degree the budget refuses has no delta and no coset bound, and records
    the classes it required."""
    rows = []
    for d, (T, k) in enumerate(islice(hilbert._sumsets(X), d_max + 1)):
        inst = CodeInstance(X, d, T, k)
        try:
            delta, required = code_distance(inst, budget=budget), None
        except BudgetExceeded as exc:
            delta, required = None, exc.required
        bound = None if delta is None else coset_bound(inst)
        rows.append(ProfileRow(d, k, delta, X.m - k + 1, required, bound))
    return rows


def distance_laws(rows):
    """Yield (check, d, expected, actual) for each law the distances of
    profile rows obey: delta within the Singleton bound; delta at least the
    coset bound, which the dual route, blind to it, tests independently;
    delta below the last delta computed while that exceeds 1, and 1 once it
    is 1; and delta = 1 from the regularity plateau (dim = m, Singleton
    bound 1) on.  A refused degree has no delta and no check."""
    previous = None
    for r in rows:
        if r.delta is None:
            continue
        yield "singleton bound", r.d, True, r.delta <= r.singleton
        if r.bound is not None:
            yield "coset lower bound", r.d, True, r.delta >= r.bound
        if previous is not None:
            ok = r.delta < previous if previous > 1 else r.delta == 1
            yield "strict decrease", r.d, True, ok
        if r.singleton == 1:
            yield "delta = 1 past plateau", r.d, 1, r.delta
        previous = r.delta


def distance_profile(X, d_max, budget=DEFAULT_BUDGET):
    """`profile_rows` with every distance law asserted.  Budget refusals
    yield a marked row instead of a failure."""
    rows = profile_rows(X, d_max, budget=budget)
    for check, d, expected, actual in distance_laws(rows):
        if actual != expected:
            raise AssertionError(f"{check} fails at d={d}: expected {expected}, got {actual}")
    return rows
