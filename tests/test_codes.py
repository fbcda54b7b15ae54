import tracemalloc
from contextlib import contextmanager
from itertools import combinations, product
from math import comb, gcd
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import assert_value_type, two_triangles
from graphcodes import codes
from graphcodes.codes import (
    _bz_messages,
    _bz_min_weight,
    character_grid,
    characters,
    code_distance,
    coset_bound,
    distance_profile,
    dual_basis,
    minimum_distance,
)
from graphcodes.errors import BudgetExceeded, CapExceeded, MonotonicityViolation
from graphcodes.formulas import (
    RegFamily,
    dim_complete_bipartite,
    mindist_complete_bipartite,
    mindist_torus_formula,
    reg_closed_form,
)
from graphcodes.gfq import make_field
from graphcodes.graph import Graph, build_family
from graphcodes.hilbert import code_instance, dimension, hilbert_function, regularity_index
from graphcodes.toric import GroupImage, ToricSet, parameterize, torus_points
from oracle import (
    _class_weights,
    _dual_distribution,
    _macwilliams_min_weight,
    _weight_distribution,
    evaluation_matrix,
    grid_sumsets,
    macwilliams,
    points,
    min_weight_enum,
    null_space,
    rank,
    rref,
)


def test_rref_gf5():
    F = make_field(5)
    M = [[1, 0, 2], [0, 1, 3], [2, 3, 1]]
    R, pivots = rref(M, F)
    assert pivots == [0, 1, 2]
    assert R.tolist() == np.eye(3, dtype=int).tolist()


def test_rref_rank_deficient():
    F = make_field(3)
    M = [[1, 2, 0], [2, 1, 0], [0, 0, 0]]
    R, pivots = rref(M, F)
    assert len(pivots) == 1  # second row is twice the first
    assert R.tolist() == [[1, 2, 0]]


def test_rank_gf4():
    F = make_field(4)
    # Rows (1, a), (a, a^2) are proportional; a is whatever element 2 encodes.
    a = 2
    M = [[1, a], [a, int(F.mul_table[a, a])]]
    assert rank(M, F) == 1


def test_null_space_annihilates():
    F = make_field(5)
    M = np.array([[1, 2, 3, 4], [0, 1, 1, 2]])
    N = null_space(M, F)
    assert N.shape[0] == 2
    for row in N:
        for m in M:
            acc = 0
            for a, b in zip(m, row):
                acc = F.add_table[acc, F.mul_table[a, b]]
            assert acc == 0


def test_dimension_base_cases():
    X = parameterize(build_family("complete_bipartite", [2, 3]), make_field(5))
    assert dimension(X, 0) == 1
    assert dimension(X, 1) == X.s


def test_dimension_c6_ternary_plateau():
    X = parameterize(build_family("cycle", [6]), make_field(3))
    assert dimension(X, 2) == 16  # 2^(s-2)


def test_dimension_invariant_under_edge_reorder():
    G = build_family("cycle", [6])
    H = G.reorder_edges([4, 2, 6, 1, 3, 5])
    F = make_field(4)
    for d in range(4):
        assert dimension(parameterize(G, F), d) == dimension(parameterize(H, F), d)


def test_dimension_and_regularity_list_no_points():
    # Both read the point grid only; the points of X stay unlisted.
    X = parameterize(build_family("complete_bipartite", [3, 3]), make_field(8))
    assert regularity_index(X) == reg_closed_form(RegFamily("complete_bipartite", (3, 3)), 8)
    assert dimension(X, 4) == dim_complete_bipartite(3, 3, 4, 8)
    assert vars(X).keys() == {"F", "s", "point_group", "graph"}


def test_distances_and_dual_bases_list_no_points():
    # Generator rows are characters evaluated on the point grid, so neither
    # route, nor the dual basis, lists the points of X or caches anything.
    X = parameterize(build_family("cycle", [4]), make_field(5))
    assert minimum_distance(X, 1) == 9
    rows = codes.profile_rows(X, 3)
    assert [(r.dim, r.delta) for r in rows] == [(1, 16), (4, 9), (9, 4), (16, 1)]
    assert dual_basis(code_instance(X, 1)).shape == (12, 16)
    assert vars(X).keys() == {"F", "s", "point_group", "graph"}


def test_code_instance_and_profile_row_are_immutable_values():
    X = parameterize(build_family("cycle", [4]), make_field(5))
    assert_value_type(code_instance(X, 2), code_instance(X, 2), "X", "d", "bits", "k")
    # Each computed degree carries its coset bound, here equal to delta.
    assert codes.profile_rows(X, 1) == [codes.ProfileRow(0, 1, 16, 16, None, 16),
                                        codes.ProfileRow(1, 4, 9, 13, None, 9)]
    row = codes.ProfileRow(1, 4, 9, 13)
    assert row.required is None and row.skipped is None and row.bound is None
    assert_value_type(row, codes.ProfileRow(1, 4, 9, 13, None, None),
                      "d", "dim", "delta", "singleton", "required", "bound")
    assert codes.ProfileRow(2, 9, None, 8, 120).skipped == "budget: 120 classes required"


def test_profile_computes_each_coset_bound_once(monkeypatch):
    # `profile_rows` hands each degree's coset bound to `code_distance`,
    # which computes it only when it is not given.
    X = parameterize(build_family("complete_bipartite", [2, 3]), make_field(4))
    calls = []
    real = codes.coset_bound
    monkeypatch.setattr(codes, "coset_bound", lambda inst: calls.append(inst.d) or real(inst))
    rows = codes.profile_rows(X, 3)
    assert calls == [0, 1, 2, 3]
    assert [r.bound for r in rows] == [X.m, *(coset_bound(code_instance(X, d)) for d in (1, 2, 3))]


def test_regularity_torus_p1_gf5():
    assert regularity_index(torus_points(2, make_field(5))) == 3


def test_regularity_c6_gf3():
    assert regularity_index(parameterize(build_family("cycle", [6]), make_field(3))) == 2


def test_regularity_k4_gf3():
    assert regularity_index(parameterize(build_family("complete", [4]), make_field(3))) == 2


def test_mindist_p1_gf5():
    T = torus_points(2, make_field(5))
    assert minimum_distance(T, 1) == 3  # q - 1 - d


def test_mindist_degree_zero_is_length():
    X = parameterize(build_family("cycle", [4]), make_field(3))
    assert minimum_distance(X, 0) == X.m


def test_mindist_budget_refusal():
    X = parameterize(build_family("cycle", [6]), make_field(5))
    with pytest.raises(BudgetExceeded) as exc:
        minimum_distance(X, 1, budget=10)
    # Brouwer-Zimmermann: messages of weight <= 4 of the k = 6 rows, since
    # the translation floor ceil(256 (w + 1) / 6) first passes the Griesmer
    # bound 202 at w = 4; (5^6 - 1) / 4 = 3906 classes before.
    assert exc.value.required == 6 + 15 * 4 + 20 * 4**2 + 15 * 4**3 == 1346


def test_primal_and_dual_routes_agree():
    # Same distances from Brouwer-Zimmermann, from the MacWilliams transform
    # of the character dual's distribution (recovered from its shortened
    # code), from that of the oracle null space, and from the exhaustive
    # search.  The tori are small enough for both sides to be enumerated at
    # every degree.
    for q, s in ((3, 3), (4, 3), (8, 2), (9, 2)):
        F = make_field(q)
        T = torus_points(s, F)
        for d in range(1, regularity_index(T) + 1):
            inst = code_instance(T, d)
            G = characters(T, character_grid(inst))
            primal = _bz_min_weight(G, F)
            assert primal == min_weight_enum(G, F)
            if inst.k < inst.m:
                D = dual_basis(inst)
                assert primal == _macwilliams_min_weight(_dual_distribution(D, F), q, inst.k)
                N = _weight_distribution(null_space(G, F), F)
                assert primal == _macwilliams_min_weight(N, q, inst.k)
            assert primal == minimum_distance(T, d)
    # K_{2,3} over GF(7) at d = 9, k = 210 of m = 216: only the five
    # differences of the six dual characters are enumerated, and the closed
    # form and the oracle null space of the 210 x 216 generator give the
    # same value.
    F = make_field(7)
    X = parameterize(build_family("complete_bipartite", [2, 3]), F)
    inst = code_instance(X, 9)
    assert (inst.k, inst.m) == (210, 216)
    expected = mindist_complete_bipartite(2, 3, 9, 7)
    assert minimum_distance(X, 9) == expected
    N = _weight_distribution(null_space(characters(X, character_grid(inst)), F), F)
    assert _macwilliams_min_weight(N, 7, inst.k) == expected


def _brute_weight_distribution(G, F):
    k, m = G.shape
    dist = [0] * (m + 1)
    for message in product(range(F.q), repeat=k):
        word = [0] * m
        for c, row in zip(message, G.tolist()):
            word = [F.add_table[w, F.mul_table[c, g]] for w, g in zip(word, row)]
        dist[sum(1 for w in word if w)] += 1
    return dist


@st.composite
def generators(draw, max_k=4):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(1, 7))
    G = np.array(draw(st.lists(st.integers(0, q - 1), min_size=k * m, max_size=k * m)),
                 dtype=np.int16).reshape(k, m)
    # A small cell bound forces the recursive high vectors, the batched
    # comparison and the empty span table; the default keeps one table.
    cells = draw(st.sampled_from([1, m, 3 * m, q * m + 1, codes._CELLS]))
    return make_field(q), G, cells


def _long_rows(q, k, L, cells):
    """k rows of length L with no zero entry, alternating between 1 and 2
    for q = 3: single rows weigh L, so the counts pass 255, where an 8-bit
    count would wrap (L = 255 wraps once the message weight is added), or
    2^16 - 1, where a 16-bit one would."""
    G = (np.arange(k)[:, None] + np.arange(L)[None, :]) % (q - 1) + 1
    return make_field(q), G.astype(np.int16), cells


def _scalar_combinations(A, F, t):
    """(support, word) for every combination of t rows of A with
    coefficient 1 on its lowest row and any nonzero one on the others, as
    scalar sums through the add and mul tables."""
    k, L = A.shape
    for support in combinations(range(k), t):
        for tail in product(range(1, F.q), repeat=t - 1):
            word = [0] * L
            for c, i in zip((1, *tail), support):
                word = [F.add_table[x, F.mul_table[c, a]] for x, a in zip(word, A[i])]
            yield support, word


@given(case=generators())
@example(case=_long_rows(2, 4, 300, 1))
@example(case=_long_rows(3, 3, 257, codes._CELLS))
@example(case=_long_rows(5, 3, 256, 600))
@example(case=_long_rows(4, 3, 255, 255))
@example(case=_long_rows(2, 2, 1 << 16, codes._CELLS))
@settings(max_examples=80, deadline=None)
def test_weight_distribution_matches_scalar_brute_force(case):
    F, G, cells = case
    k, m = G.shape
    with patch.object(oracle, "_CELLS", cells):
        blocks = list(_class_weights(G, F))
        assert sum(len(b) for b in blocks) == (F.q**k - 1) // (F.q - 1)
        assert all(len(b) * m <= max(cells, m) for b in blocks)
        assert _weight_distribution(G, F) == _brute_weight_distribution(G, F)


@given(case=generators())
@example(case=_long_rows(3, 4, 300, 0))
@settings(max_examples=40, deadline=None)
def test_exhaustive_oracle_matches_scalar_brute_force(case):
    # The oracle's own enumeration, which shares no code with the kernels,
    # gives the least weight of a nonzero message: 0 when G has dependent
    # rows, which leave more words than the zero message at weight 0.
    F, G, _ = case
    dist = _brute_weight_distribution(G, F)
    assert min_weight_enum(G, F) == min(w for w, n in enumerate(dist) if n > (w == 0))


@given(case=generators(), t=st.integers(1, 4), limit=st.integers(1, 40),
       fixed=st.integers(0, 4))
@example(case=_long_rows(7, 4, 257, 0), t=3, limit=5, fixed=0)
@example(case=_long_rows(7, 4, 257, 0), t=3, limit=5, fixed=2)
@example(case=_long_rows(3, 4, 9, 0), t=3, limit=1, fixed=3)
@settings(max_examples=80, deadline=None)
def test_combinations_build_each_combination_once(case, t, limit, fixed):
    # C(k - j, t - j) (q - 1)^(t - 1) sums whose lowest j = min(fixed, t)
    # rows are 0..j - 1, in blocks of at most `limit` rows with ascending
    # tops, and as a multiset exactly those scalar combinations with their
    # highest rows.
    F, A, _ = case
    k, L = A.shape
    if t > k:
        return
    j = min(fixed, t)
    blocks = list(codes._combinations(A.astype(np.uint8), t, F, limit, j))
    for sums, tops in blocks:
        assert sums.shape == (len(tops), L) and len(tops) <= limit
        assert np.all(np.diff(tops) >= 0)
    built = sorted((int(top), tuple(row)) for sums, tops in blocks
                   for top, row in zip(tops, sums.tolist()))
    assert len(built) == comb(k - j, t - j) * (F.q - 1) ** (t - 1)
    assert built == sorted((support[-1], tuple(word))
                           for support, word in _scalar_combinations(A, F, t)
                           if support[:j] == tuple(range(j)))


def test_large_length_torus_gf64():
    # m = 3969, k = 3: Brouwer-Zimmermann stops after the 3 + 3 * 63
    # messages of weight <= 2, comparing up to four rows at once with the 63
    # multiples of a later row (63 x 3966 cells).
    T = torus_points(3, make_field(64))
    assert minimum_distance(T, 1) == mindist_torus_formula(3, 1, 64)


def test_profile_torus_p2_gf5():
    T = torus_points(3, make_field(5))
    rows = distance_profile(T, 6)
    assert [r.delta for r in rows[1:]] == [12, 8, 4, 3, 2, 1]
    assert rows[0].delta == T.m


def test_profile_singleton_and_plateau():
    X = parameterize(build_family("cycle", [6]), make_field(3))
    rows = distance_profile(X, 4)
    for r in rows:
        assert r.delta <= r.singleton
    reg = regularity_index(X)
    for r in rows:
        if r.d >= reg:
            assert r.delta == 1


def test_profile_mds_p1_gf5():
    T = torus_points(2, make_field(5))
    for r in distance_profile(T, 3)[1:]:
        assert r.delta == r.singleton  # MDS at every degree up to q - 3


@st.composite
def toric_sets(draw, max_source=81, fields=(2, 3, 4, 5, 7, 8, 9)):
    """A toric set from a random simple graph (n <= 5, s <= 6) or a small
    projective torus (s <= 4, s = 1 included), over a field with q in
    `fields`.  Graph edges are drawn among all n vertices, so isolated
    vertices and several components (b0 > 1) occur.  The source torus has
    at most max_source points, which keeps the rank oracle to a fraction
    of a second per example."""
    q = draw(st.sampled_from(fields))
    F = make_field(q)
    top = max(k for k in range(5) if (q - 1) ** k <= max_source)
    if draw(st.booleans()):
        return torus_points(draw(st.integers(1, 1 + min(3, top))), F)
    n = draw(st.integers(2, 1 + top))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.permutations(pairs))[: draw(st.integers(1, min(6, len(pairs))))]
    return parameterize(Graph(n, tuple(edges)), F)


@given(X=toric_sets(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_character_count_matches_rank_oracle(X, data):
    # The character count against the evaluation matrix, at every degree up
    # to the plateau: it is the number of distinct evaluation rows and the
    # exact rank, and the generator's rows are those distinct rows, hence
    # independent and spanning the same code as the full matrix.
    F = X.F
    dims = hilbert_function(X)
    for d, k in enumerate(dims):
        M = evaluation_matrix(X, d)
        distinct = np.unique(M, axis=0)
        assert k == dimension(X, d) == distinct.shape[0] == rank(M, F)
        G = characters(X, character_grid(code_instance(X, d)))
        assert G.shape[0] == k
        assert np.array_equal(np.unique(G, axis=0), distinct)
        assert rank(G, F) == k
        assert rank(np.vstack([G, M]), F) == k
    assert dims[-1] == X.m and dimension(X, len(dims)) == X.m
    if X.graph is not None:
        perm = data.draw(st.permutations(range(1, X.s + 1)))
        H = X.graph.reorder_edges(list(perm))
        assert hilbert_function(parameterize(H, F)) == dims


def _gf_inner_products(A, B, F):
    """A @ B.T over GF(q), summed column by column through the tables."""
    products = F.mul_table[A[:, None, :], B[None, :, :]]
    acc = np.zeros(products.shape[:2], dtype=np.int64)
    for j in range(products.shape[2]):
        acc = F.add_table[acc, products[:, :, j]]
    return acc


@given(X=toric_sets())
@settings(max_examples=60, deadline=None)
def test_character_dual_matches_null_space_oracle(X):
    # At every degree up to the plateau + 1 the m - k characters of the grid
    # outside -T_d, the inverses of those outside T_d, are orthogonal to the
    # k primal characters, both sides have full rank, and they span the
    # oracle null space (so the weight distributions agree; compared
    # directly where enumeration is cheap).  Both generators and the
    # systematic form are field elements, one byte each.
    F = X.F
    for d in range(len(hilbert_function(X)) + 1):
        inst = code_instance(X, d)
        k, m = inst.k, inst.m
        G = characters(X, character_grid(inst))
        assert rank(G, F) == k
        if k == m:
            continue
        D = dual_basis(inst)
        assert G.dtype == D.dtype == codes._systematic(G, F).dtype == np.uint8
        assert D.shape == (m - k, m)
        assert not _gf_inner_products(G, D, F).any()
        assert rank(D, F) == m - k
        N = null_space(G, F)
        assert rank(np.vstack([D, N]), F) == m - k
        if F.q ** (m - k) <= 10**5:
            assert _weight_distribution(D, F) == _weight_distribution(N, F)


_SYSTEMATIC_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 64, 256)


@st.composite
def full_rank_generators(draw):
    """(G, F): the character generator of a random graph's or torus's toric
    set at a degree whose k m cells stay small, or a random full-rank uint8
    matrix, over GF(q) for q in _SYSTEMATIC_FIELDS."""
    if draw(st.booleans()):
        X = draw(toric_sets(max_source=4096, fields=_SYSTEMATIC_FIELDS))
        degrees = [d for d, k in enumerate(hilbert_function(X)) if k <= 40 and k * X.m <= 20000]
        inst = code_instance(X, draw(st.sampled_from(degrees)))
        return characters(X, character_grid(inst)), X.F
    F = make_field(draw(st.sampled_from(_SYSTEMATIC_FIELDS)))
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k, 12))
    cells = draw(st.lists(st.integers(0, F.q - 1), min_size=k * m, max_size=k * m))
    G = np.array(cells, dtype=np.uint8).reshape(k, m)
    assume(rank(G, F) == k)
    return G, F


@given(case=full_rank_generators())
@settings(max_examples=150, deadline=None)
def test_systematic_matches_the_rref_oracle(case):
    # Row r's pivot is the column that the rows 0..r add to the oracle's
    # pivots of rows 0..r - 1.  Together they are the oracle's pivots of G,
    # and the rows of A, ordered by pivot column, are the non-pivot
    # columns of rref(G).
    G, F = case
    k, m = G.shape
    A = codes._systematic(G, F)
    assert A.dtype == np.uint8 and A.shape == (k, m - k) and A.flags.c_contiguous
    pivots = []
    for r in range(k):
        (p,) = set(rref(G[: r + 1], F)[1]) - set(rref(G[:r], F)[1])
        pivots.append(p)
    R, columns = rref(G, F)
    assert sorted(pivots) == columns
    rest = np.setdiff1d(np.arange(m), columns)
    assert np.array_equal(A[np.argsort(pivots)], R[:, rest])


@given(case=full_rank_generators(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_systematic_refuses_a_repeated_row(case, data):
    G, F = case
    r = data.draw(st.integers(0, len(G) - 1))
    at = data.draw(st.integers(0, len(G)))
    with pytest.raises(AssertionError, match="generator rows are dependent"):
        codes._systematic(np.insert(G, at, G[r], axis=0), F)


def test_systematic_memory_per_generator_cell():
    # P_3 over GF(256) at d = 1: 3 x 65,025 cells.  The step updates the k
    # rows through gathers of k m cells, never a (q, m) table of the pivot
    # row's multiples, q / k = 85 bytes a cell here on its own.
    # code_distance builds no generator at this degree, so it is built
    # directly.
    F = make_field(256)
    X = parameterize(build_family("path", [3]), F)
    G = characters(X, character_grid(code_instance(X, 1)))
    assert G.shape == (3, 65025)
    tracemalloc.start()
    A = codes._systematic(G, F)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert A.shape == (3, 65022)
    assert peak <= 16 * G.size, peak / G.size


@contextmanager
def _counting_systematic():
    """Patch `codes._systematic` to record the shape of every generator it
    puts in systematic form, one per search."""
    shapes = []
    real = codes._systematic

    def counting(G, F):
        shapes.append(G.shape)
        return real(G, F)

    with patch.object(codes, "_systematic", counting):
        yield shapes


@contextmanager
def _counting_messages():
    """Patch `codes._message_weights` to record [w, fixed, messages] for
    each weight the search enumerates."""
    calls = []
    real = codes._message_weights

    def counting(A, w, F, tails=None, fixed=0):
        call = [w, fixed, 0]
        calls.append(call)
        for weights in real(A, w, F, tails, fixed):
            call[2] += len(weights)
            yield weights

    with patch.object(codes, "_message_weights", counting):
        yield calls


def _exhaustive_min_weight(X, S):
    """Minimum weight of the code spanned by the characters in S
    (1 <= |S| < m) by exhaustive search over the smaller side: every primal
    class, or the oracle null space's distribution through the textbook
    MacWilliams sum."""
    F = X.F
    G = characters(X, S)
    k, m = G.shape
    if k <= m - k:
        return min_weight_enum(G, F)
    A = macwilliams(_weight_distribution(null_space(G, F), F), F.q, k)
    return next(w for w in range(1, m + 1) if A[w])


def _bits(S):
    """The boolean grid S as the int `CodeInstance.bits` holds: bit i is
    cell i in C order."""
    return int.from_bytes(np.packbits(S.ravel(), bitorder="little").tobytes(), "little")


def _three_columns_searched(D, F):
    """Whether `_dependent_columns` looks for three dependent columns of D
    (the guard it checks before allocating the candidates)."""
    r, m = D.shape
    return (m - 1) * (F.q - 2) * r <= codes.DEFAULT_CELL_CAP


def _primal_messages(k, m, q):
    """The messages the primal side is priced at: a search from the
    Griesmer bound."""
    return _bz_messages(k, m, q, codes._griesmer(k, m, q) + 1)


def _check_distance_routes(X, S):
    """Brouwer-Zimmermann, the dependent columns of the dual basis and the
    oracle's shortened dual on the code spanned by the characters in S
    (1 <= |S| < m), against the exhaustive search over the smaller side
    (`_exhaustive_min_weight`); Brouwer-Zimmermann also with the coset
    bound of S, which it must not pass, and seeded with the weight of the
    lightest row of its systematic generator, a word of the code, as the
    dual side seeds it with a witness.  Each search enumerates at most the
    messages it is priced at.  The dependent columns give the minimum when
    they give anything, and give nothing only when it is at least 4, or at
    least 3 when the guard skipped the three-column search."""
    F = X.F
    q = F.q
    G = characters(X, S)
    k, m = G.shape
    expected = _exhaustive_min_weight(X, S)
    lower = codes._coset_bound(X.point_group.orders, _bits(S))
    assert lower <= expected
    assert _bz_min_weight(G, F, lower) == expected
    with _counting_messages() as calls:
        assert _bz_min_weight(G, F) == expected
    assert sum(n for _, _, n in calls) <= _primal_messages(k, m, q) <= (q**k - 1) // (q - 1)
    seed = 1 + int(np.count_nonzero(codes._systematic(G, F), axis=1).min())
    with _counting_messages() as calls:
        assert _bz_min_weight(G, F, best=seed) == expected
    assert sum(n for _, _, n in calls) <= _bz_messages(k, m, q, seed)
    D = F.inv_table[characters(X, ~S)]
    found = codes._dependent_columns(D, F)
    if found is not None:
        assert found == expected
    else:
        assert expected >= (4 if _three_columns_searched(D, F) else 3)
    if m - k <= k:
        B = _dual_distribution(D, F)
        assert B == _weight_distribution(D, F)
        assert _macwilliams_min_weight(B, q, k) == expected


@given(X=toric_sets(max_source=16, fields=(3, 4, 5, 7, 8, 9)), data=st.data())
@example(X=torus_points(2, make_field(7)), data=None)
@example(X=torus_points(3, make_field(5)), data=None)
@settings(max_examples=60, deadline=None)
def test_distance_routes_match_exhaustive_search(X, data):
    # On sets small enough for the smaller side to be enumerated whole, at
    # every degree below the plateau and for a random set of characters
    # (any set spans a code the translations map to itself):
    # Brouwer-Zimmermann equals the exhaustive search with and without the
    # coset bound, which is at most that minimum, and enumerates at most
    # the messages the budget is checked against, and where the dual is the
    # smaller side its distribution recovered from its shortened code is the
    # full one.  The projective line's last degree has m - k = 1, an empty
    # shortened dual.
    for d in range(len(hilbert_function(X)) - 1):
        _check_distance_routes(X, character_grid(code_instance(X, d)))
    if data is not None and X.m > 1:
        cells = data.draw(st.lists(st.booleans(), min_size=X.m, max_size=X.m)
                          .filter(lambda c: 0 < sum(c) < X.m))
        _check_distance_routes(X, np.array(cells).reshape(X.point_group.orders))


@pytest.mark.parametrize("family, params, q, d, found, delta", [
    ("complete_bipartite", [2, 3], 7, 9, 2, mindist_complete_bipartite(2, 3, 9, 7)),
    ("complete_bipartite", [2, 4], 8, 17, 2, mindist_complete_bipartite(2, 4, 17, 8)),
    ("complete_bipartite", [2, 3], 4, 2, 3, mindist_complete_bipartite(2, 3, 2, 4)),
    ("complete_bipartite", [2, 3], 5, 4, 3, mindist_complete_bipartite(2, 3, 4, 5)),
    ("path", [3], 9, 11, None, mindist_torus_formula(3, 11, 9)),
])
def test_dependent_columns_of_dual_degrees(family, params, q, d, found, delta):
    # Dual-route degrees: a distance of 2 or 3 is read off the columns of
    # the dual basis, and a distance of 4 (P_3/GF(9) at d = 11), which the
    # columns do not give, is the coset bound met by a product witness; no
    # search runs on any of them.
    X = parameterize(build_family(family, params), make_field(q))
    inst = code_instance(X, d)
    k, m = inst.k, inst.m
    classes = (q ** (m - k - 1) - 1) // (q - 1)
    assert _primal_messages(k, m, q) > classes  # `code_distance` takes the dual side
    D = dual_basis(inst)
    assert _three_columns_searched(D, X.F)
    assert codes._dependent_columns(D, X.F) == found
    with _counting_systematic() as searched:
        assert code_distance(inst) == delta
    assert searched == []
    assert (found or 4) == delta


_INNER_ROOTED_P4 = Graph(5, ((1, 2), (1, 3), (2, 4), (3, 5)))


@pytest.mark.parametrize("G, q, d, lower, delta", [
    (build_family("cycle", [5]), 3, 2, 2, 4),
    (_INNER_ROOTED_P4, 4, 3, 3, mindist_torus_formula(4, 3, 4)),
    (_INNER_ROOTED_P4, 7, 12, 3, mindist_torus_formula(4, 12, 7)),
], ids=["C5-GF3-d2", "inner-rooted-P4-GF4-d3", "inner-rooted-P4-GF7-d12"])
def test_seeded_search_ends_the_dual_side(G, q, d, lower, delta):
    # Dual-side degrees whose coset bound, at most 3, is below the distance
    # and whose product witness weighs the distance: C_5 over GF(3), and
    # the 4-edge path with vertex 1 inside it, a tree, so X is the 3-torus
    # (distance 6 and 4).  The columns give nothing and the witness misses
    # the bound, so its weight seeds one search on the primal generator,
    # whose answer is the oracle's MacWilliams minimum of the dual.
    X = parameterize(G, make_field(q))
    inst = code_instance(X, d)
    k, m = inst.k, inst.m
    assert _primal_messages(k, m, q) > (q ** (m - k - 1) - 1) // (q - 1)  # the dual side
    assert coset_bound(inst) == lower
    D = dual_basis(inst)
    assert _macwilliams_min_weight(_dual_distribution(D, X.F), q, k) == delta
    assert codes._dependent_columns(D, X.F) is None
    assert codes._product_witness(inst, lower)[0] == delta > lower
    with _counting_systematic() as searched:
        assert code_distance(inst) == delta
    assert searched == [(k, m)]


def test_seeded_search_is_priced_before_its_generator(monkeypatch):
    # C_5 over GF(3) at d = 2: k = 11 of m = 16.  The dual side's 40 classes
    # pass a budget of 100, the witness weighs 4 against a bound of 2, and
    # the search from 4 needs the 11 + 55 * 2 = 121 messages of weight <= 2,
    # floor(11 * 3 / 16) = 2: refused before the generator is built.  Only
    # the 5-row dual basis the columns read is built.
    X = parameterize(build_family("cycle", [5]), make_field(3))
    inst = code_instance(X, 2)
    assert (inst.k, inst.m) == (11, 16)
    built = _count_builds(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        code_distance(inst, budget=39)
    assert exc.value.required == 40
    assert built == []
    with pytest.raises(BudgetExceeded) as exc:
        code_distance(inst, budget=100)
    assert exc.value.required == _bz_messages(11, 16, 3, 4) == 121
    assert built == [5]
    assert code_distance(inst, budget=121) == 4
    assert built == [5, 5, 11]


def test_three_column_search_is_guarded(monkeypatch):
    # K_{2,3} over GF(4) at d = 2: m = 27, r = 9, so (m - 1)(q - 2) r = 468
    # candidate cells.  Under a cell cap that leaves them out, the search
    # gives nothing, and a product witness of weight 3 meets the coset
    # bound.
    X = parameterize(build_family("complete_bipartite", [2, 3]), make_field(4))
    inst = code_instance(X, 2)
    D = dual_basis(inst)
    assert D.shape == (9, 27)
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 468)
    assert codes._dependent_columns(D, X.F) == 3
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 467)
    assert codes._dependent_columns(D, X.F) is None
    assert code_distance(inst) == mindist_complete_bipartite(2, 3, 2, 4) == 3


def test_restricted_last_weight_matches_exhaustive_search():
    # Brouwer-Zimmermann against the exhaustive search on random sets S of
    # 3 <= k <= min(6, m / 2) characters (any S spans a code the
    # translations map to itself).  Only the last weight W may fix rows
    # 0..j - 1 of a message's support: a j >= 1 passes the stop rule's own
    # test, j = 0, so the search ends after W.  The restriction must fire in
    # some of the codes (about a quarter of such draws, 3 at the least).
    fired = []

    @given(X=toric_sets(fields=(3, 4, 5, 7, 8, 9)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def check(X, data):
        if X.m < 6:
            return
        k = data.draw(st.integers(3, min(6, X.m // 2)))
        cells = np.zeros(X.m, dtype=bool)
        cells[data.draw(st.permutations(range(X.m)))[:k]] = True
        G = characters(X, cells.reshape(X.point_group.orders))
        m = X.m
        with _counting_messages() as calls:
            best = _bz_min_weight(G, X.F)
        assert best == min_weight_enum(G, X.F)
        *before, (w, j, n) = calls
        assert [c[1] for c in before] == [0] * len(before)
        if j:
            assert (w + 1 - j) * m > (k - j) * (best - 1)
            assert n <= comb(k - j, w - j) * (X.F.q - 1) ** (w - 1)
        fired.append(j > 0)

    check()
    assert sum(fired) >= 3, (sum(fired), len(fired))


def test_last_weight_enumerates_only_the_fixed_rows():
    # K_{3,3} over GF(5) at d = 1: k = 9, m = 256.  The minimum word turns
    # up at weight 1 and the stop rule ends the search after weight 5, where
    # (5 + 1 - 2) 256 > (9 - 2) 143 but not for j = 3: the last weight takes
    # only the C(7, 3) 4^4 messages containing rows 0 and 1, not all
    # C(9, 5) 4^4 = 32,256 (41,817 messages in all).
    X = parameterize(build_family("complete_bipartite", [3, 3]), make_field(5))
    G = characters(X, character_grid(code_instance(X, 1)))
    assert G.shape == (9, 256)
    with _counting_messages() as calls:
        assert _bz_min_weight(G, X.F) == mindist_complete_bipartite(3, 3, 1, 5) == 144
    assert calls == [[1, 0, 9], [2, 0, 144], [3, 0, 1344], [4, 0, 8064], [5, 2, 8960]]
    assert sum(n for _, _, n in calls) == 18521
    # C_4 over GF(7) at d = 1 (k = 4, m = 36, b = 25 from weight 1) sits on
    # the boundary at W = 2: (2 + 1 - 1) 36 = (4 - 1) 24, and the rule is
    # strict, so j = 1 is not taken.
    C4 = parameterize(build_family("cycle", [4]), make_field(7))
    G = characters(C4, character_grid(code_instance(C4, 1)))
    with _counting_messages() as calls:
        assert _bz_min_weight(G, C4.F) == mindist_complete_bipartite(2, 2, 1, 7) == 25
    assert calls == [[1, 0, 4], [2, 0, 36]]


def _arc_bound_by_definition(n, P):
    """n less the shortest arc b, ..., b + L - 1 of Z/n holding P t, plus
    1, at its best over the units t mod n, by trying every arc."""
    return max(
        n + 1 - min(L for L in range(1, n + 1) for b in range(n)
                    if all((p * t - b) % n < L for p in P))
        for t in range(1, n) if gcd(t, n) == 1
    )


@given(n=st.integers(2, 30), data=st.data())
@settings(max_examples=200, deadline=None)
def test_arc_bound_matches_its_definition(n, data):
    P = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    assert codes._arc_bound(n, sorted(P)) == _arc_bound_by_definition(n, P)


@given(X=toric_sets(fields=(3, 4, 5, 7, 8, 9)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_coset_bound_of_few_characters_on_larger_grids(X, data):
    # Sets of at most four characters on grids of up to 81 points, several
    # axes deep, against the exhaustive search over their q^3 classes.
    if X.m < 2:
        return
    k = data.draw(st.integers(1, min(4, X.m - 1)))
    cells = np.zeros(X.m, dtype=bool)
    cells[data.draw(st.permutations(range(X.m)))[:k]] = True
    S = cells.reshape(X.point_group.orders)
    lower = codes._coset_bound(X.point_group.orders, _bits(S))
    assert 1 <= lower <= min_weight_enum(characters(X, S), X.F)


def _edge_orders(G):
    """G in its own edge order and in three fixed others: reversed, rotated
    by one, and the odd positions first."""
    s = G.s
    perms = ([*range(s, 0, -1)], [*range(2, s + 1), 1],
             [*range(1, s + 1, 2), *range(2, s + 1, 2)])
    return [G, *(G.reorder_edges(perm) for perm in perms)]


@pytest.mark.parametrize("family, params, q, d, bound, delta", [
    ("complete", [5], 4, 1, 36, 36),
    ("complete_bipartite", [3, 3], 5, 1, 144, mindist_complete_bipartite(3, 3, 1, 5)),
    ("complete", [4], 9, 1, 392, 392),
    ("complete_bipartite", [3, 4], 5, 1, 576, mindist_complete_bipartite(3, 4, 1, 5)),
    ("complete_bipartite", [3, 3], 8, 1, 1764, mindist_complete_bipartite(3, 3, 1, 8)),
    ("complete_bipartite", [3, 3], 9, 1, 3136, mindist_complete_bipartite(3, 3, 1, 9)),
    ("complete", [4], 16, 1, 2940, 2940),
    ("complete", [4], 25, 1, 12696, 12696),
    ("complete", [4], 27, 1, 16250, 16250),
    ("cycle", [4], 7, 3, 9, mindist_complete_bipartite(2, 2, 3, 7)),
    ("cycle", [4], 7, 4, 4, mindist_complete_bipartite(2, 2, 4, 7)),
    # Loose: the minimum words of these codes are not products of a coset
    # count and an arc.
    ("cycle", [6], 5, 1, 144, 186),
    ("cycle", [6], 4, 2, 9, 21),
])
def test_coset_bound_pins(family, params, q, d, bound, delta):
    # The coset bound of T_d, and the distance it bounds, from the closed
    # forms where one applies and from exact runs otherwise.  The bound
    # reads the axes of the point grid, which the edge order does not move.
    for G in _edge_orders(build_family(family, params)):
        X = parameterize(G, make_field(q))
        assert coset_bound(code_instance(X, d)) == bound <= delta


def test_coset_bound_ends_the_search_at_weight_one():
    # On K_{3,3} over GF(5) at d = 1 a weight-1 message reaches the coset
    # bound, 144, so `code_distance` stops after the 9 messages of weight 1
    # in every edge order; without the bound the same search runs to weight
    # 5 (18,521 messages, `test_last_weight_enumerates_only_the_fixed_rows`).
    for G in _edge_orders(build_family("complete_bipartite", [3, 3])):
        X = parameterize(G, make_field(5))
        with _counting_messages() as calls:
            assert code_distance(code_instance(X, 1)) == 144
        assert calls == [[1, 0, 9]]


def test_coset_bound_at_the_griesmer_bound_builds_nothing(monkeypatch):
    # P_3 over GF(256) at d = 1: k = 3, m = 65,025, and the coset bound is
    # the Griesmer bound, 64,770, so the distance is both and no generator
    # is built.  A bound above the Griesmer bound is false, and the search
    # says so.
    X = parameterize(build_family("path", [3]), make_field(256))
    inst = code_instance(X, 1)
    built = _count_builds(monkeypatch)
    assert (inst.k, inst.m) == (3, 65025)
    assert coset_bound(inst) == codes._griesmer(3, 65025, 256) == 64770
    assert code_distance(inst) == mindist_torus_formula(3, 1, 256) == 64770
    assert built == []
    monkeypatch.setattr(codes, "coset_bound", lambda inst: 64771)
    with pytest.raises(AssertionError, match="lower bound"):
        code_distance(inst)
    assert built == [3]


_SWEEP_GRAPHS = [("cycle", [4]), ("cycle", [5]), ("cycle", [6]), ("path", [3]), ("path", [4]),
                 ("complete", [4]), ("complete", [5]), ("complete_bipartite", [1, 3]),
                 ("complete_bipartite", [2, 3]), ("complete_bipartite", [3, 3]),
                 ("complete_bipartite", [2, 4])]


@pytest.mark.parametrize("family, params", _SWEEP_GRAPHS)
def test_dual_side_distances_against_macwilliams(family, params):
    # Every degree below the plateau that takes the dual side within the
    # default budget, q <= 9 and |X| <= 5000: the distance equals the
    # oracle's shortened-dual MacWilliams minimum, or on a torus with more
    # than 10^6 shortened-dual classes (P_4/GF(9) at d = 18 takes seconds)
    # the closed form.  From distance 4 up a product witness meets the coset
    # bound exactly where the bound is the distance; the one miss of the
    # sweep is C_5/GF(3) at d = 2, bound 2 against distance 4, which the
    # search seeded by the witness answers.
    G = build_family(family, params)
    misses = []
    for q in (3, 4, 5, 7, 8, 9):
        X = parameterize(G, make_field(q))
        if X.m > 5000:
            continue
        for d in range(1, len(hilbert_function(X)) - 1):
            inst = code_instance(X, d)
            k, m = inst.k, inst.m
            classes = (q ** (m - k - 1) - 1) // (q - 1)
            if _primal_messages(k, m, q) <= classes or classes > codes.DEFAULT_BUDGET:
                continue
            delta = code_distance(inst)
            if classes > 10**6 and X.m == (q - 1) ** (G.s - 1):
                assert delta == mindist_torus_formula(G.s, d, q)
            else:
                B = _dual_distribution(dual_basis(inst), X.F)
                assert delta == _macwilliams_min_weight(B, q, k)
            lower = coset_bound(inst)
            if delta >= 4 and codes._product_witness(inst, lower)[0] != lower:
                misses.append((q, d, lower, delta))
    assert misses == ([(3, 2, 2, 4)] if (family, params) == ("cycle", [5]) else [])


def _witness_word(X, factors):
    """The values on the listed points of X of the product of the linear
    forms `factors`, each a tuple of (coordinate, coefficient) pairs."""
    add, mul = X.F.add_table, X.F.mul_table
    listed = points(X)
    word = np.ones(X.m, dtype=np.uint8)
    for form in factors:
        value = np.zeros(X.m, dtype=np.uint8)
        for j, c in form:
            value = add[value, mul[c, listed[:, j]]]
        word = mul[word, value]
    return word


@st.composite
def _witness_degrees(draw):
    """(X, d): a toric set of at most 64 source points over q <= 9 and a
    degree d below its plateau."""
    X = draw(toric_sets(max_source=64, fields=(3, 4, 5, 7, 8, 9)))
    dims = hilbert_function(X)
    assume(len(dims) > 2)
    return X, draw(st.integers(1, len(dims) - 2))


def _at(family, params, q, d=1):
    return parameterize(build_family(family, params), make_field(q)), d


@given(case=_witness_degrees())
@example(case=_at("complete_bipartite", [2, 2], 5))
@example(case=_at("complete_bipartite", [2, 3], 7))
@example(case=_at("complete_bipartite", [3, 3], 5))
@example(case=_at("complete", [4], 8))
@example(case=_at("complete", [5], 4))
# A 4-cycle whose second ratio row holds x_e / x_c, not x_c / x_e: its
# factor is written with c and e swapped, or it would vanish on level 1/u.
@example(case=(parameterize(Graph(4, ((2, 4), (1, 2), (1, 3), (3, 4))), make_field(5)), 2))
@settings(max_examples=60, deadline=None)
def test_product_witness_is_a_word_of_the_code(case):
    # The witness, evaluated through the field tables, is nonzero exactly on
    # the points the greedy counted, as many as the weight it claims, has
    # at most d factors and weighs at least the bound; scaled by P_1^-d it
    # lies in the span of the characters T_d, and it weighs at least the
    # exhaustive minimum.
    X, d = case
    inst = code_instance(X, d)
    F = X.F
    lower = coset_bound(inst)
    weight, factors, nonzero = codes._product_witness(inst, lower)
    word = _witness_word(X, factors)
    assert np.array_equal(word != 0, nonzero)
    assert np.count_nonzero(word) == weight >= lower
    assert len(factors) <= d
    G = characters(X, character_grid(inst))
    first = F.inv_table[points(X)[:, 0]]
    scaled = F.mul_table[word, first]
    for _ in range(d - 1):
        scaled = F.mul_table[scaled, first]
    assert rank(np.vstack([G, scaled]), F) == inst.k
    if F.q ** (inst.k - 1) <= 10**5:
        assert weight >= min_weight_enum(G, F)


def test_product_witness_memory_per_label(monkeypatch):
    # K_{3,3} over GF(16) at d = 1: m = 50,625.  With the cap out of the
    # way the witness holds one byte a label, the uint16 cycle keys and
    # blocks of about 2^20 cells; under a cap of 0 it builds nothing and
    # returns the monomial alone, nonzero everywhere.
    X = parameterize(build_family("complete_bipartite", [3, 3]), make_field(16))
    inst = code_instance(X, 1)
    lower = coset_bound(inst)
    X.F.add_table  # the field tables, built on first access, outside the trace
    rows = []
    values = X.values
    monkeypatch.setattr(X, "values", lambda cells: rows.append(len(cells)) or values(cells))
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 0)
    weight, factors, nonzero = codes._product_witness(inst, lower)
    assert (weight, factors) == (X.m, []) and nonzero.all() and len(nonzero) == X.m
    assert rows == []
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 10**12)
    tracemalloc.start()
    weight = codes._product_witness(inst, lower)[0]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert weight == lower == mindist_complete_bipartite(3, 3, 1, 16)
    assert peak <= 16 * rows[0] * X.m, peak / (rows[0] * X.m)


def test_a_word_below_the_bound_is_an_error():
    # The search stops once its best weight reaches the bound, so a bound
    # above the minimum weight is caught when a lighter word turns up
    # first: here weight 1 finds 9 against a bound of 10.
    X = parameterize(build_family("cycle", [4]), make_field(5))
    G = characters(X, character_grid(code_instance(X, 1)))
    assert _bz_min_weight(G, X.F, 9) == _bz_min_weight(G, X.F) == 9
    with pytest.raises(AssertionError, match="lower bound"):
        _bz_min_weight(G, X.F, 10)


def test_macwilliams_transform_must_divide_exactly():
    # B = (2, 4, 7, 7, 8) is no weight distribution: for q = 3, m = 4, k = 1
    # its transform (28, 11, 78, 23, 22) does not divide by 3^3, though the
    # floors (1, 0, 2, 0, 0) start at 1 and sum to q^k.
    with pytest.raises(AssertionError, match="not integral"):
        _macwilliams_min_weight([2, 4, 7, 7, 8], 3, 1)
    assert _macwilliams_min_weight([1, 0, 0, 0, 2], 3, 3) == 2  # zero-sum code, dual to repetition


_CAP = codes.DEFAULT_CELL_CAP


@given(case=generators(max_k=5), w=st.integers(1, 5), cap=st.sampled_from([0, _CAP]),
       fixed=st.integers(0, 4))
@example(case=_long_rows(2, 4, 300, 1), w=1, cap=_CAP, fixed=0)
@example(case=_long_rows(3, 3, 257, codes._CELLS), w=2, cap=_CAP, fixed=0)
@example(case=_long_rows(5, 4, 256, 600), w=3, cap=_CAP, fixed=0)
@example(case=_long_rows(5, 4, 256, 600), w=3, cap=_CAP, fixed=2)
@example(case=_long_rows(4, 3, 255, 255), w=3, cap=_CAP, fixed=0)
@example(case=_long_rows(2, 2, (1 << 16) + 4, codes._CELLS), w=1, cap=_CAP, fixed=0)
@example(case=_long_rows(3, 2, (1 << 16) - 2, codes._CELLS), w=2, cap=_CAP, fixed=0)
@example(case=_long_rows(3, 5, 255, codes._CELLS), w=5, cap=_CAP, fixed=0)
@example(case=_long_rows(3, 5, 255, codes._CELLS), w=5, cap=_CAP, fixed=3)
@example(case=_long_rows(4, 5, 256, 1000), w=4, cap=_CAP, fixed=0)
@example(case=_long_rows(4, 5, 256, 1000), w=4, cap=_CAP, fixed=1)
@example(case=_long_rows(5, 4, 257, 300), w=4, cap=_CAP, fixed=0)
@example(case=_long_rows(3, 5, 257, codes._CELLS), w=5, cap=comb(3, 2) * 2**2 * 257 - 1,
         fixed=0)
@example(case=_long_rows(3, 5, 257, codes._CELLS), w=5, cap=comb(3, 2) * 2**2 * 257 - 1,
         fixed=4)
@settings(max_examples=80, deadline=None)
def test_message_weights_match_scalar_brute_force(case, w, cap, fixed):
    # Every projective message of weight w on [I | A] (first nonzero
    # coordinate 1) whose support contains rows 0..j - 1, as a scalar sum,
    # against the blocked byte comparison: from w = 4 on, prefixes of w - 2
    # rows against the two-row tails when their table fits the cap, and
    # prefixes of w - 1 rows against one-row tails when it does not, in
    # which case nothing of the table's size is allocated (the last
    # examples' table would take 3,084 bytes).  j = min(fixed, w - r) fixes
    # at most the r-row tail's prefix.
    F, A, cells = case
    k, L = A.shape
    if w > k:
        return
    A = A.astype(np.uint8)
    tails = None
    if k >= 4:  # the search builds the table at weight 4
        table = comb(k - 2, 2) * (F.q - 1) ** 2 * L
        tracemalloc.start()
        tails = codes._tails(A, F, cap)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if table > cap:
            assert tails is None and peak < 1 << 10  # a few Python objects, no table
        else:
            assert [len(t) for t in tails] == [0, 0] + [(F.q - 1) ** 2 * (k - 1 - i)
                                                        for i in range(2, k)]
            assert sum(t.size for t in tails) == table <= cap
    j = min(fixed, w - codes._tail_rows(w, tails))
    with patch.object(codes, "_CELLS", cells):
        blocks = list(codes._message_weights(A, w, F, tails, j))
    assert all(len(b) * L <= max(cells, L) for b in blocks)
    expected = [w + sum(1 for x in word if x) for support, word in _scalar_combinations(A, F, w)
                if support[:j] == tuple(range(j))]
    assert len(expected) == comb(k - j, w - j) * (F.q - 1) ** (w - 1)
    assert sorted(int(x) for b in blocks for x in b) == sorted(expected)


def test_griesmer_bound_against_its_definition():
    # The largest d with sum_{i<k} ceil(d / q^i) <= m, by a scan of every d.
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 256):
        for m in range(1, 25):
            for k in range(1, m + 1):
                lengths = [sum(-(-d // q**i) for i in range(k)) for d in range(1, m + 1)]
                expected = max(d for d, n in enumerate(lengths, 1) if n <= m)
                assert codes._griesmer(k, m, q) == expected
    assert codes._griesmer(6, 256, 5) == 202
    assert codes._griesmer(3, 65025, 256) == mindist_torus_formula(3, 1, 256)


def test_distance_frontier():
    # C_4 over GF(7) at d = 2, 3 and K_{4,4} over GF(3) at d = 1, against
    # the closed form.  The smaller exhaustive side needs 6.7e6 to 5.5e12
    # classes.  d = 3 exceeds the default budget only because its
    # Griesmer-based count (4.2e9 messages) is far above the 20896
    # Brouwer-Zimmermann enumerates before the translation floor stops it.
    C4 = parameterize(build_family("cycle", [4]), make_field(7))
    assert minimum_distance(C4, 2) == mindist_complete_bipartite(2, 2, 2, 7) == 16
    with pytest.raises(BudgetExceeded) as exc:
        minimum_distance(C4, 3)
    bound = exc.value.required
    assert bound == _primal_messages(16, 36, 7) and 4 * 10**9 < bound < 5 * 10**9
    assert minimum_distance(C4, 3, budget=bound) == mindist_complete_bipartite(2, 2, 3, 7) == 9
    K44 = parameterize(build_family("complete_bipartite", [4, 4]), make_field(3))
    assert minimum_distance(K44, 1) == mindist_complete_bipartite(4, 4, 1, 3) == 16


def _count_builds(monkeypatch):
    """Record the row count of every matrix `codes.characters` builds."""
    built = []
    real = codes.characters

    def counted(X, S):
        rows = real(X, S)
        built.append(rows.shape[0])
        return rows

    monkeypatch.setattr(codes, "characters", counted)
    return built


def test_generator_cap_refuses_before_allocation(monkeypatch):
    # d = 1 takes the primal side; the cap counts its k x m cells and is
    # checked before anything is built.
    X = parameterize(build_family("complete_bipartite", [2, 3]), make_field(7))
    k = dimension(X, 1)
    assert 2 * k <= X.m
    built = _count_builds(monkeypatch)
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", k * X.m - 1)
    with pytest.raises(CapExceeded) as exc:
        minimum_distance(X, 1)
    assert exc.value.required == k * X.m
    assert built == []
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", k * X.m)
    assert minimum_distance(X, 1) == mindist_complete_bipartite(2, 3, 1, 7)
    assert built == [k]


def test_refusal_builds_nothing(monkeypatch):
    # K4 over GF(4) at d = 2: k = 19 of m = 27, so the dual side (8 rows)
    # is the cheaper one; the budget refuses it from k and m.
    X = parameterize(build_family("complete", [4]), make_field(4))
    built = _count_builds(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        minimum_distance(X, 2, budget=2000)
    # Its shortened code, the words vanishing at the identity point, has 7
    # rows: (4^7 - 1) / 3 = 5461 classes (21845 for the full dual).
    assert exc.value.required == 5461
    assert built == []
    # The cap is checked first, on the 8 x 27 dual generator.
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 8 * 27 - 1)
    with pytest.raises(CapExceeded) as exc:
        minimum_distance(X, 2, budget=2000)
    assert exc.value.required == 8 * 27
    assert built == []
    # At the plateau the distance is 1, with no matrix at all.
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 0)
    assert minimum_distance(X, regularity_index(X)) == 1
    assert built == []


def test_cap_leaves_the_side_that_fits(monkeypatch):
    # C4 over GF(5) at d = 2: k = 9 of m = 16.  Brouwer-Zimmermann (1497
    # messages, 9 x 16 cells) is cheaper than the shortened dual (3906
    # classes, 7 x 16 cells).  A cap between the two generators leaves the
    # dual, and a cap below both refuses, naming the smaller generator.
    # On the dual side a product witness meets the coset bound, 4, so no
    # dual generator is built: the witness calls show the side taken.
    X = parameterize(build_family("cycle", [4]), make_field(5))
    default = codes.DEFAULT_CELL_CAP
    built = _count_builds(monkeypatch)
    witnesses = []
    real = codes._product_witness

    def witness(inst, lower):
        witnesses.append(lower)
        return real(inst, lower)

    monkeypatch.setattr(codes, "_product_witness", witness)
    with pytest.raises(BudgetExceeded) as exc:
        minimum_distance(X, 2, budget=0)
    assert exc.value.required == 1497
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 9 * 16 - 1)
    with pytest.raises(BudgetExceeded) as exc:
        minimum_distance(X, 2, budget=0)
    assert exc.value.required == (5**6 - 1) // 4 == 3906
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 7 * 16 - 1)
    with pytest.raises(CapExceeded) as exc:
        minimum_distance(X, 2)
    assert exc.value.required == 7 * 16
    assert built == []
    expected = mindist_complete_bipartite(2, 2, 2, 5)
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", 9 * 16 - 1)
    dual = minimum_distance(X, 2)
    monkeypatch.setattr(codes, "DEFAULT_CELL_CAP", default)
    assert dual == minimum_distance(X, 2) == expected == 4
    assert built == [9]
    assert witnesses == [4]


def test_stalled_hilbert_function_is_a_violation():
    # Every point listed twice: the point grid gains an axis of order 2 that
    # moves no point, so m = 8 while X has 4 points and 4 characters.  No
    # character moves along the new axis, so the character set fills 4 of
    # the 8 cells, stalls below m, and the iteration says so.
    T = torus_points(2, make_field(5))
    P = T.point_group
    twice = GroupImage((2, *P.orders), tuple((0, *row) for row in P.embed))
    X = ToricSet(T.F, T.s, twice)
    assert X.m == 8 and np.array_equal(np.unique(points(X), axis=0), np.unique(points(T), axis=0))
    with pytest.raises(MonotonicityViolation):
        regularity_index(X)


@pytest.mark.parametrize("X", [
    parameterize(build_family("complete", [4]), make_field(2)),
    torus_points(1, make_field(5)),
    parameterize(build_family("path", [2]), make_field(2)),
], ids=["K4-GF2", "torus1-GF5", "P2-GF2"])
def test_dual_of_a_one_point_set_is_empty(X):
    # One point, a grid with no axes: its one character is in T_0, so the
    # dual of C_X(0), the full code, has no characters and its generator no
    # rows.
    inst = code_instance(X, 0)
    assert X.m == 1 and X.point_group.orders == ()
    assert characters(X, character_grid(inst)).tolist() == [[1]]
    assert dual_basis(inst).shape == (0, 1)
    assert minimum_distance(X, 0) == 1


def test_regularity_k5_gf7_baseline():
    # Past 1.7 GB and unfinished after ten minutes through the evaluation
    # matrix; the sumset stays on the 6^4-cell character grid.
    X = parameterize(build_family("complete", [5]), make_field(7))
    assert regularity_index(X) == reg_closed_form(RegFamily("complete", (5,)), 7) == 10


def test_dimension_k33_gf8_baseline():
    # d = 9 alone took 227 s through the evaluation matrix (24310 x 2401).
    X = parameterize(build_family("complete_bipartite", [3, 3]), make_field(8))
    dims = hilbert_function(X)
    assert dims == [dim_complete_bipartite(3, 3, d, 8) for d in range(len(dims))]
    assert dims[-1] == X.m and dimension(X, 9) == dims[9]


@pytest.mark.parametrize("X", [
    parameterize(build_family("complete", [5]), make_field(7)),
    parameterize(build_family("complete_bipartite", [3, 3]), make_field(8)),
    parameterize(two_triangles(), make_field(5)),
    torus_points(3, make_field(16)),
    parameterize(build_family("complete", [4]), make_field(2)),
], ids=["K5-GF7", "K33-GF8", "two-triangles-GF5", "torus3-GF16", "K4-GF2"])
def test_bitset_sumsets_match_the_rolled_grid(X):
    # The int bitsets against np.roll on the boolean grid, at every degree
    # up to one past the plateau, on grids of 1 to 2401 cells: the grid of
    # two triangles over GF(5) is 4^4 x 2, and K4 over GF(2) has no axis.
    sets = grid_sumsets(X)
    assert sets[-1].all() and len(sets) - 1 == regularity_index(X)
    for d in range(len(sets) + 1):
        inst = code_instance(X, d)
        expected = sets[min(d, len(sets) - 1)]
        assert character_grid(inst).shape == expected.shape and character_grid(inst).dtype == bool
        assert np.array_equal(character_grid(inst), expected) and inst.k == np.count_nonzero(expected)


def test_degrees_past_the_plateau_cost_the_plateau():
    # The sumset stops at the plateau, so a degree far past it returns at
    # once: the code is the full space, of distance 1.
    X = parameterize(build_family("cycle", [4]), make_field(3))
    assert dimension(X, 10**12) == X.m
    assert minimum_distance(X, 10**12) == 1
    assert character_grid(code_instance(X, 10**12)).all()
