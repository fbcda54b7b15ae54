from itertools import combinations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcodes import codes
from graphcodes.codes import (
    _class_weights,
    _macwilliams_min_weight,
    _min_weight_enum,
    _weight_distribution,
    characters,
    code_instance,
    dimension,
    distance_profile,
    hilbert_function,
    minimum_distance,
    regularity_index,
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
from graphcodes.toric import GroupImage, ToricSet, parameterize, torus_points
from oracle import evaluation_matrix, null_space, rank, rref


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
    M = [[1, a], [a, F.mul(a, a)]]
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
                acc = F.add(acc, F.mul(int(a), int(b)))
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
    assert not {"_listing", "_cells"} & set(vars(X))


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
    assert exc.value.required == (5**6 - 1) // 4


def test_primal_and_dual_routes_agree():
    # Same distances whether computed by message enumeration, by the
    # MacWilliams transform of the character dual's distribution, or by that
    # of the oracle null space.  The tori are small enough for both sides to
    # be enumerated at every degree.
    for q, s in ((3, 3), (4, 3), (8, 2), (9, 2)):
        F = make_field(q)
        T = torus_points(s, F)
        for d in range(1, regularity_index(T) + 1):
            inst = code_instance(T, d)
            G = characters(T, inst.T)
            primal = _min_weight_enum(G, F)
            if inst.k < inst.m:
                D = characters(T, inst.dual())
                assert primal == _macwilliams_min_weight(D, F, inst.k)
                assert primal == _macwilliams_min_weight(null_space(G, F), F, inst.k)
            assert primal == minimum_distance(T, d)
    # K_{2,3} over GF(7) at d = 9, k = 210 of m = 216: only the six-row
    # character dual is enumerated, and the closed form and the oracle null
    # space of the 210 x 216 generator give the same value.
    F = make_field(7)
    X = parameterize(build_family("complete_bipartite", [2, 3]), F)
    inst = code_instance(X, 9)
    assert (inst.k, inst.m) == (210, 216)
    expected = mindist_complete_bipartite(2, 3, 9, 7)
    assert minimum_distance(X, 9) == expected
    N = null_space(characters(X, inst.T), F)
    assert _macwilliams_min_weight(N, F, inst.k) == expected


def _brute_weight_distribution(G, F):
    k, m = G.shape
    dist = [0] * (m + 1)
    for message in product(range(F.q), repeat=k):
        word = [0] * m
        for c, row in zip(message, G.tolist()):
            word = [F.add(w, F.mul(c, g)) for w, g in zip(word, row)]
        dist[sum(1 for w in word if w)] += 1
    return dist


@st.composite
def generators(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7))
    G = np.array(draw(st.lists(st.integers(0, q - 1), min_size=k * m, max_size=k * m)),
                 dtype=np.int16).reshape(k, m)
    # A small cell bound forces the recursive high vectors, the batched
    # comparison and the empty span table; the default keeps one table.
    cells = draw(st.sampled_from([1, m, 3 * m, q * m + 1, codes._CELLS]))
    return make_field(q), G, cells


@given(case=generators())
@settings(max_examples=80, deadline=None)
def test_weight_distribution_matches_scalar_brute_force(case):
    F, G, cells = case
    k, m = G.shape
    with patch.object(codes, "_CELLS", cells):
        blocks = list(_class_weights(G, F))
        assert sum(len(b) for b in blocks) == (F.q**k - 1) // (F.q - 1)
        assert all(len(b) * m <= max(cells, m) for b in blocks)
        assert _weight_distribution(G, F) == _brute_weight_distribution(G, F)


def test_large_length_torus_gf64():
    # m = 3969, k = 3: the span table covers only the last generator row
    # (64 x 3969 cells), so the search batches high vectors, four per
    # comparison.
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
def toric_sets(draw, max_source=81):
    """A toric set from a random simple graph (n <= 5, s <= 6) or a small
    projective torus (s <= 4, s = 1 included), over a field with q in
    {2, 3, 4, 5, 7, 8, 9}.  Graph edges are drawn among all n vertices, so
    isolated vertices and several components (b0 > 1) occur.  The source
    torus has at most max_source points, which keeps the rank oracle to a
    fraction of a second per example."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
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
        G = characters(X, code_instance(X, d).T)
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
    # outside -T_d are orthogonal to the k primal characters, both sides
    # have full rank, and they span the oracle null space (so the weight
    # distributions agree; compared directly where enumeration is cheap).
    F = X.F
    for d in range(len(hilbert_function(X)) + 1):
        inst = code_instance(X, d)
        k, m = inst.k, inst.m
        G = characters(X, inst.T)
        assert rank(G, F) == k
        if k == m:
            continue
        D = characters(X, inst.dual())
        assert D.shape == (m - k, m)
        assert not _gf_inner_products(G, D, F).any()
        assert rank(D, F) == m - k
        N = null_space(G, F)
        assert rank(np.vstack([D, N]), F) == m - k
        if F.q ** (m - k) <= 10**5:
            assert _weight_distribution(D, F) == _weight_distribution(N, F)


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
    with pytest.raises(CapExceeded) as exc:
        minimum_distance(X, 1, cap=k * X.m - 1)
    assert exc.value.required == k * X.m
    assert built == []
    assert minimum_distance(X, 1, cap=k * X.m) == mindist_complete_bipartite(2, 3, 1, 7)
    assert built == [k]


def test_refusal_builds_nothing(monkeypatch):
    # K4 over GF(4) at d = 2: k = 19 of m = 27, so the dual side (8 rows,
    # 21845 classes) is the smaller one; the budget refuses it from k and m.
    X = parameterize(build_family("complete", [4]), make_field(4))
    built = _count_builds(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        minimum_distance(X, 2, budget=2000)
    assert exc.value.required == 21845
    assert built == []
    # The cap is checked first, on the 8 x 27 dual generator.
    with pytest.raises(CapExceeded) as exc:
        minimum_distance(X, 2, budget=2000, cap=8 * 27 - 1)
    assert exc.value.required == 8 * 27
    assert built == []
    # At the plateau the distance is 1, with no matrix at all.
    assert minimum_distance(X, regularity_index(X), cap=0) == 1
    assert built == []


def test_stalled_hilbert_function_is_a_violation():
    # Every point listed twice: the point grid gains an axis of order 2 that
    # moves no point, so m = 8 while X has 4 points and 4 characters.  No
    # character moves along the new axis, so the character set fills 4 of
    # the 8 cells, stalls below m, and the iteration says so.
    T = torus_points(2, make_field(5))
    P = T.point_group
    twice = GroupImage((2, *P.orders), np.hstack([np.zeros_like(P.embed[:, :1]), P.embed]))
    X = ToricSet(T.F, T.exponents, twice)
    assert X.m == 8 and np.array_equal(np.unique(X.arr, axis=0), T.arr)
    with pytest.raises(MonotonicityViolation):
        regularity_index(X)


@pytest.mark.parametrize("X", [
    parameterize(build_family("complete", [4]), make_field(2)),
    torus_points(1, make_field(5)),
    parameterize(build_family("path", [2]), make_field(2)),
], ids=["K4-GF2", "torus1-GF5", "P2-GF2"])
def test_dual_of_a_one_point_set_is_empty(X):
    # One point, a grid with no axes: -0 = 0, so the dual of C_X(0), the
    # full code, has no characters and its generator no rows.
    inst = code_instance(X, 0)
    assert X.m == 1 and X.point_group.orders == ()
    assert characters(X, inst.T).tolist() == [[1]]
    assert characters(X, inst.dual()).shape == (0, 1)
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
