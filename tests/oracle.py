"""Exact linear algebra, evaluation matrices and source-torus enumeration
over GF(q), kept as an independent oracle for the tests.

The package computes every code parameter from characters of X, written on
a grid of |X| cells, never enumerates the source torus, and eliminates only
to put a generator in systematic form for its minimum-distance search;
these routes recompute the same quantities the textbook way: the points
listed one per grid cell through the field tables (`points`), which the
package only counts, and by mapping every source tuple, the Hilbert
function as a sumset over the whole character group (Z/(q-1))^r of the
source torus and as boolean arrays over the grid of X translated by
`np.roll`, the evaluation matrix of all degree-d monomials, its rank by
Gaussian elimination, the dual code as a null space, the minimum distance
by enumerating every message class, the MacWilliams transform by expanding
its polynomials, and the image of an integer matrix over Z/N, the point
map's in particular, by a diagonal (Smith) form (`group_image`), against
which the point grid written from the spanning forest is checked.  The
minimum distance of a high-rate code also comes from its dual,
independently of the package's search: the weight distribution of the
dual's words vanishing at the identity point, enumerated against a span
table (`_class_weights`), gives the whole dual distribution by transitivity
(`_dual_distribution`), and the Krawtchouk recurrence the code's minimum
weight (`_macwilliams_min_weight`).  The ternary standard monomials B_d are
the d-subsets of edges that contain no square-free grevlex leading term,
each term a half of an even Eulerian subgraph found by scanning every edge
subset.
"""

from itertools import combinations, product
from math import comb, gcd

import numpy as np

from conftest import eulerian_subsets_brute
from graphcodes.codes import _CELLS, _count_type
from graphcodes.errors import CapExceeded
from graphcodes.toric import GroupImage

DEFAULT_MONOMIAL_CAP = 10**6
_COLUMN_CELLS = 1 << 23  # cells of the coordinates `points` lists at a time


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


def min_weight_enum(G, F):
    """Minimum weight over the nonzero codewords spanned by G, every
    projective message class (first nonzero coefficient 1) multiplied out
    through the field tables and its nonzero entries counted.  The words of
    one lead row are its sum with every combination of the rows after it:
    the span of the last four of those is built once, and the coefficients
    of the others run in a loop."""
    G = np.asarray(G, dtype=np.int64)
    k, m = G.shape
    add, mul = F.add_table, F.mul_table
    best = m
    for lead in range(k):
        split = max(lead + 1, k - 4)
        outer, inner = G[lead + 1 : split], G[split:]
        span = np.zeros((1, m), dtype=np.int64)
        for row in inner:
            span = add[span[:, None, :], mul[:, row][None, :, :]].reshape(-1, m)
        for coefficients in product(range(F.q), repeat=len(outer)):
            high = G[lead]
            for c, row in zip(coefficients, outer):
                high = add[high, mul[c, row]]
            best = min(best, int(np.count_nonzero(add[span, high], axis=1).min()))
    return best


def macwilliams(B, q, k):
    """Weight distribution A of an [m, k]_q code from the distribution B of
    its dual, expanding (x + (q-1)y)^(m-w) (x - y)^w for every weight w."""
    m = len(B) - 1
    A = [0] * (m + 1)
    for w, Bw in enumerate(B):
        left = [comb(m - w, a) * (q - 1) ** a for a in range(m - w + 1)]
        right = [comb(w, b) * (-1) ** b for b in range(w + 1)]
        for a, la in enumerate(left):
            for b, rb in enumerate(right):
                A[a + b] += Bw * la * rb
    scale = q ** (m - k)
    assert all(a % scale == 0 for a in A)
    return [a // scale for a in A]


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


def from_support(subset, s):
    """The square-free monomial in s variables with 1-based support subset,
    as an exponent tuple."""
    exps = [0] * s
    for i in subset:
        exps[i - 1] = 1
    return tuple(exps)


def grevlex_key(m):
    """Sort key on exponent tuples: ascending order under it is ascending
    grevlex with t_1 > ... > t_s.  A lower degree is smaller; within a degree
    the greater monomial has a negative rightmost nonzero entry in the
    exponent difference."""
    return (sum(m), tuple(-e for e in reversed(m)))


def square_free_leading_terms(G, max_degree):
    """The square-free grevlex leading terms of the ternary Eulerian ideal up
    to max_degree, as edge subsets: for each even Eulerian subgraph C of 2h
    <= 2 * max_degree edges, the greater half of each balanced split, that is
    the key-greater of every h-subset A and C - A."""
    out = set()
    for C in eulerian_subsets_brute(G, even_edge_count_only=True):
        if len(C) <= 2 * max_degree:
            for A in map(frozenset, combinations(sorted(C), len(C) // 2)):
                pair = [from_support(A, G.s), from_support(C - A, G.s)]
                out.add(A if max(pair, key=grevlex_key) == pair[0] else C - A)
    return out


def standard_monomials(G, d):
    """B_d at q = 3: the square-free degree-d monomials that no leading term
    divides; each square t_i^2 is a leading term, and divides every other
    degree-d monomial."""
    leading = square_free_leading_terms(G, d)
    return {from_support(K, G.s)
            for K in map(frozenset, combinations(range(1, G.s + 1), d))
            if not any(A <= K for A in leading)}


def count_degree_monomials(s, d):
    return comb(s + d - 1, d)


def degree_monomials(s, d):
    """All degree-d monomials in s variables, descending grevlex
    (t_1^d first)."""
    out = []
    # Stars and bars: bar positions determine the exponent vector.
    for bars in combinations(range(d + s - 1), s - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + s - 2 - prev)
        out.append(tuple(exps))
    out.sort(key=grevlex_key, reverse=True)
    return out


def digit_product_table(F):
    """(q, q) multiplication table of F from polynomial products: a * b is
    sum_i b_i * (x^i * a) on the base-p digit vectors, where multiplying by
    x shifts the digits up and reduces the carried top digit by
    F.reducing_poly.  The field itself multiplies through the powers of its
    primitive element."""
    q, p, e = F.q, F.p, F.e
    place = p ** np.arange(e)
    digits = np.arange(q)[:, None] // place % p
    shifts = [digits]
    low = np.array(F.reducing_poly[:e])
    for _ in range(e - 1):
        a = shifts[-1]
        up = np.pad(a[:, :-1], ((0, 0), (1, 0)))
        shifts.append((up - a[:, -1:] * low) % p)
    prod = np.einsum("bi,iaj->abj", digits, np.stack(shifts)) % p
    return prod @ place


def discrete_logs(F):
    """(q,) int64 logs of the elements to the primitive element, from
    F.exp_table; entry 0, the zero element, is -1."""
    log = np.full(F.q, -1, dtype=np.int64)
    log[F.exp_table] = np.arange(F.q - 1)
    return log


def normalize_point(coords, F):
    """Scale so the last nonzero coordinate is 1; rejects the zero vector."""
    coords = list(coords)
    last = None
    for i in range(len(coords) - 1, -1, -1):
        if coords[i] != 0:
            last = i
            break
    if last is None:
        raise ValueError("projective point cannot be the zero vector")
    scale = F.inv_table[coords[last]]
    return tuple(int(F.mul_table[c, scale]) for c in coords)


def points(X):
    """The (m, s) uint8 points of X, row i the point of grid cell i in C
    order: its coordinate ratio P_j / P_s is the character
    `point_group.embed`[j] (`ToricSet.values`), and P_s = 1.  The
    coordinates are listed in chunks of about _COLUMN_CELLS cells, so the
    temporaries of `values` stay near one column of K_6/GF(25) and a long
    graph over a small field takes few calls."""
    embed = X.point_group.embed
    listed = np.ones((X.m, X.s), dtype=np.uint8)
    step = max(1, _COLUMN_CELLS // X.m)
    for j in range(0, len(embed), step):
        chunk = embed[j : j + step]
        listed[:, j : j + len(chunk)] = X.values(chunk).T
    return listed


def evaluation_matrix(X, d, cap=DEFAULT_MONOMIAL_CAP):
    """Rows = degree-d monomials (descending grevlex), columns = points of X;
    entry = f(P) / t_1^d(P).  Representative-independent on the torus."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    F = X.F
    q = F.q
    nmon = count_degree_monomials(X.s, d)
    if nmon > cap:
        raise CapExceeded(f"{nmon} monomials needed, cap is {cap}", required=nmon)
    mons = degree_monomials(X.s, d)
    A = np.array(mons, dtype=np.int64).reshape(nmon, X.s)
    logs = discrete_logs(F)[points(X)]  # all coordinates nonzero
    raw = A @ logs.T - d * logs[:, 0][None, :]
    return F.exp_table[raw % (q - 1)].astype(np.int16)


def incidence_rows(G):
    """The exponent matrix B of the source map of G, r rows of s ints: the
    incidence rows of the vertices some edge touches, in the ascending order
    of `G.adjacency()`, but the last (whose coordinate is fixed to 1)."""
    row = {v: k for k, v in enumerate(G.adjacency())}
    incidence = [[0] * G.s for _ in row]
    for k, (u, v) in enumerate(G.edges):
        incidence[row[u]][k] = incidence[row[v]][k] = 1
    return incidence[:-1]


def incidence_point_map(G):
    """The point map of G, l -> ((b_k - b_s) . l)_{k < s}, as s - 1 rows of
    r ints, transposed from the incidence rows: the map whose image
    `parameterize` writes as a grid from the spanning forest."""
    B = incidence_rows(G)
    return [[b[k] - b[-1] for b in B] for k in range(G.s - 1)]


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
    orders = tuple(N // gcd(a, N) for a in pivots)
    section = [[row[i] for i in keep] for row in V]
    embed = []
    for row in A:
        image = [0] * len(keep)
        for a, column in zip(row, section):
            if a:
                image = [x + a * y for x, y in zip(image, column)]
        embed.append(tuple(x // a % d for x, a, d in zip(image, pivots, orders)))
    return GroupImage(orders, tuple(embed))


def source_exponents(X):
    """The (r, s) exponent matrix of X's source map, rebuilt from its graph
    (`incidence_rows`); [I_{s-1} | 0] for the torus of P^{s-1}."""
    if X.graph is None:
        return np.eye(X.s - 1, X.s, dtype=np.int64)
    return np.array(incidence_rows(X.graph), dtype=np.int64)


def source_torus_points(X):
    """The points of X by enumeration: all (q-1)^r tuples of the source
    torus, mapped through the exponent matrix, normalized so the last
    coordinate is 1, deduplicated and sorted."""
    F = X.F
    q1 = F.q - 1
    B = source_exponents(X)
    r = B.shape[0]
    idx = np.arange(q1**r, dtype=np.int64)
    pows = q1 ** np.arange(r - 1, -1, -1, dtype=np.int64)
    logs = (idx[:, None] // pows[None, :]) % q1
    img = logs @ B
    img = (img - img[:, -1:]) % q1
    return np.unique(F.exp_table[img].astype(np.int16), axis=0)


def source_torus_hilbert_function(X):
    """[dim C_X(0), ..., dim C_X(reg)] as a sumset over the whole character
    group (Z/(q-1))^r of the source torus: T_0 = {0}, T_{d+1} the union of
    the translates T_d + (b_k - b_1), until |T_d| stops growing."""
    q1 = X.F.q - 1
    B = source_exponents(X)
    r = B.shape[0]
    zero = (0,) * r
    steps = {tuple(b) for b in ((B[:, 1:] - B[:, :1]) % q1).T.tolist()} - {zero}
    T = np.zeros((q1,) * r, dtype=bool)
    T[zero] = True
    dims = [1]
    while True:
        grown = T.copy()
        for b in steps:
            grown |= np.roll(T, b, tuple(range(r)))
        k = int(np.count_nonzero(grown))
        if k == dims[-1]:
            return dims
        dims.append(k)
        T = grown


def embed_array(group):
    """`GroupImage.embed`, t rows of k ints, as a (t, k) int64 array."""
    return np.array(group.embed, dtype=np.int64).reshape(len(group.embed), len(group.orders))


def grid_sumsets(X):
    """[T_0, ..., T_reg] as boolean arrays over the point grid of X: T_0 =
    {0}, T_{d+1} the union of the `np.roll` translates of T_d by every step
    w_k - w_1, w_j = embed_j the cell of P -> P_j / P_s (w_s = 0), until
    the set stops growing."""
    group = X.point_group
    orders = np.array(group.orders, dtype=np.int64)
    w = np.vstack([embed_array(group), np.zeros_like(orders)])
    axes = tuple(range(len(orders)))
    zero = (0,) * len(axes)
    steps = {tuple(b) for b in ((w - w[0]) % orders).tolist()} - {zero}
    T = np.zeros(group.orders, dtype=bool)
    T[zero] = True
    sets = [T]
    while True:
        grown = T.copy()
        for b in steps:
            grown |= np.roll(T, b, axes)
        if np.array_equal(grown, T):
            return sets
        sets.append(grown)
        T = grown
