"""Exact linear algebra, evaluation matrices and source-torus enumeration
over GF(q), kept as an independent oracle for the tests.

The package computes every code parameter from characters of X, written on
a grid of |X| cells, never enumerates the source torus, and eliminates only
to put a generator in systematic form for its minimum-distance search;
these routes recompute the same quantities the textbook way: the points by
mapping every source tuple, the Hilbert function as a sumset over the whole
character group (Z/(q-1))^r of the source torus and as boolean arrays over
the grid of X translated by `np.roll`, the evaluation matrix of all
degree-d monomials, its rank by Gaussian elimination, the dual code as
a null space, the minimum distance by enumerating every message class, and
the MacWilliams transform by expanding its polynomials.  A nested ear
decomposition is checked by searching every choice of nest intervals.
"""

from itertools import combinations, product
from math import comb

import numpy as np

from graphcodes.errors import CapExceeded, NotADecomposition, NotNested, NotOpen
from graphcodes.graph import EarDecomposition
from graphcodes.monomials import grevlex_key

DEFAULT_MONOMIAL_CAP = 10**6


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
    logs = discrete_logs(F)[X.arr]  # all coordinates nonzero
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
    r ints, transposed from the incidence rows: the matrix `parameterize`
    writes from the edges, built the other way round."""
    B = incidence_rows(G)
    return [[b[k] - b[-1] for b in B] for k in range(G.s - 1)]


def source_exponents(X):
    """The (r, s) exponent matrix of X's source map, rebuilt from its graph
    (`incidence_rows`); [I_{s-1} | 0] for the torus of P^{s-1}."""
    if X.graph is None:
        return np.eye(X.s - 1, X.s, dtype=np.int64)
    return np.array(incidence_rows(X.graph), dtype=np.int64)


def source_torus_points(X):
    """X.arr by enumeration: all (q-1)^r tuples of the source torus, mapped
    through the exponent matrix, normalized so the last coordinate is 1,
    deduplicated and sorted."""
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


def _ear_edges(G, path):
    """Edge indices along a vertex path; raises NotADecomposition on a
    pair that is not an edge of G."""
    index = {}
    for i, (u, v) in enumerate(G.edges, start=1):
        index[(u, v)] = i
        index[(v, u)] = i
    out = []
    for a, b in zip(path, path[1:]):
        ei = index.get((a, b))
        if ei is None:
            raise NotADecomposition(f"({a},{b}) is not an edge of the graph")
        out.append(ei)
    return out


def validate_ear_decomposition(G, ears):
    """`graph.validate_ear_decomposition` by search: every later ear lists
    a nest interval on each earlier ear that holds both its endpoints (both
    arcs on the cycle ear), and the decomposition is nested when some
    choice of one interval per ear leaves the intervals on every ear
    pairwise disjoint or nested.  Tries all the choices, 2^(chords) of them
    on a cycle with chords, so only small inputs."""
    ears = [list(e) for e in ears]
    if not ears:
        raise NotADecomposition("no ears given")

    first = ears[0]
    if len(first) < 4 or first[0] != first[-1]:
        raise NotADecomposition("first ear must be a closed cycle")
    if len(set(first[:-1])) != len(first) - 1:
        raise NotADecomposition("first ear revisits a vertex")

    ear_edges = [_ear_edges(G, e) for e in ears]
    used = [ei for edges in ear_edges for ei in edges]
    if len(used) != len(set(used)) or set(used) != set(range(1, G.s + 1)):
        raise NotADecomposition("ears do not partition the edge set")

    seen_vertices = set(first)
    for idx in range(1, len(ears)):
        path = ears[idx]
        if len(path) < 2 or path[0] == path[-1]:
            raise NotOpen(f"ear {idx + 1} must be an open path with distinct endpoints")
        if len(set(path)) != len(path):
            raise NotOpen(f"ear {idx + 1} revisits a vertex")
        if path[0] not in seen_vertices or path[-1] not in seen_vertices:
            raise NotOpen(f"ear {idx + 1} endpoints must lie on earlier ears")
        internal = path[1:-1]
        if any(v in seen_vertices for v in internal):
            raise NotOpen(f"ear {idx + 1} reuses an internal vertex")
        seen_vertices.update(path)

    # Candidate nest intervals, as (host ear index, frozenset of edge slots).
    candidates = []
    for idx in range(1, len(ears)):
        a, b = ears[idx][0], ears[idx][-1]
        opts = []
        for j in range(idx):
            host = ears[j]
            verts = host[:-1] if j == 0 else host
            if a not in verts or b not in verts:
                continue
            lo, hi = sorted((verts.index(a), verts.index(b)))
            opts.append((j, frozenset(range(lo, hi))))
            if j == 0:
                opts.append((j, frozenset(range(hi, len(verts))) | frozenset(range(0, lo))))
        if not opts:
            raise NotNested(f"ear {idx + 1} determines no nest interval")
        candidates.append(opts)

    def compatible(choice):
        by_host = {}
        for j, interval in choice:
            by_host.setdefault(j, []).append(interval)
        return all(not (A & B) or A <= B or B <= A
                   for intervals in by_host.values()
                   for A, B in combinations(intervals, 2))

    if not any(compatible(choice) for choice in product(*candidates)):
        raise NotNested("nest intervals on a common ear are neither disjoint nor nested")
    epsilon = sum(1 for edges in ear_edges if len(edges) % 2 == 0)
    return EarDecomposition(ears=tuple(tuple(e) for e in ears), epsilon=epsilon)
