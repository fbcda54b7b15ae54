import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_value_type, double_the_grid, toric_points_brute, two_triangles
from graphcodes import toric
from graphcodes.codes import characters
from graphcodes.errors import CapExceeded
from graphcodes.gfq import make_field
from graphcodes.graph import Graph, build_family, summarize
from graphcodes.hilbert import hilbert_function
from graphcodes.toric import (GroupImage, ToricSet, count_points, expected_length, parameterize,
                             torus_points)
from oracle import (degree_monomials, embed_array, evaluation_matrix, group_image,
                    incidence_point_map, normalize_point, points,
                    source_torus_hilbert_function, source_torus_points)


def test_group_image_is_an_immutable_value():
    F = make_field(5)
    image = parameterize(build_family("cycle", [4]), F).point_group
    assert repr(image) == f"GroupImage(orders={image.orders!r}, embed={image.embed!r})"
    assert_value_type(image, parameterize(build_family("cycle", [4]), F).point_group,
                      "orders", "embed")


def test_torus_points_p1_gf3():
    T = torus_points(2, make_field(3))
    assert points(T).tolist() == [[1, 1], [2, 1]]


def test_torus_points_single_coordinate():
    for q in (3, 5, 9):
        assert points(torus_points(1, make_field(q))).tolist() == [[1]]


def test_torus_points_count():
    assert torus_points(3, make_field(4)).m == 9


def test_torus_cap():
    with pytest.raises(CapExceeded):
        torus_points(5, make_field(5), cap=10)


def test_cap_counts_points_before_allocation():
    # K_{4,4} over GF(16): 15^7 source tuples, 15^6 points, over the default
    # cap.  The refusal comes from the closed-form length, before the
    # group is computed, with no array of that size (or of any size near it)
    # allocated first.
    G, F = build_family("complete_bipartite", [4, 4]), make_field(16)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as exc:
            parameterize(G, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.required == 15**6
    assert peak < 10**6


def test_cap_is_checked_before_the_exponent_rows():
    # C_4000 over GF(3) has 2^3998 points, and its point map alone is
    # 3999 x 3999 list cells (about 122 MiB); the identity rows of the torus
    # of P^3999 are as many.  Both are refused from the closed-form length
    # before any row is built.
    F = make_field(3)
    for build, required in ((lambda: parameterize(build_family("cycle", [4000]), F), 2**3998),
                            (lambda: torus_points(4000, F), 2**3999)):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.required == required
        assert peak < 16 * 2**20


def test_gf2_builds_no_exponent_rows():
    # Over GF(2) X is one point whatever the graph, so the cap bounds no
    # rows: the point map of P_3000 has 2999 x 3000 cells, and the torus of
    # P^2999 as many identity cells.  No rows are built, and the form of
    # none is the empty grid, the image of any rows over Z/1.
    F = make_field(2)
    start = time.perf_counter()
    X = parameterize(build_family("path", [3000]), F)
    T = torus_points(3000, F)
    assert time.perf_counter() - start < 1
    assert X.m == T.m == 1
    assert X.point_group == T.point_group == GroupImage((), ((),) * 2999)
    assert group_image([[1, 0, 2], [0, 1, 1]], 1) == GroupImage((), ((), ()))
    assert points(X).tolist() == [[1] * 3000]


def test_gf2_reads_no_graph_structure(monkeypatch):
    # Over GF(2) the length formula gives 1 for every graph, so the graph
    # is not walked and no grid is written: the empty grid keeps one empty
    # embedding row per coordinate ratio, and the cap is still checked
    # against the one point.
    def forbidden(*args):
        raise AssertionError("called over GF(2)")

    for name in ("summarize", "_forest", "_point_grid"):
        monkeypatch.setattr(toric, name, forbidden)
    F = make_field(2)
    X = parameterize(build_family("path", [100000]), F)
    assert X.m == 1 and X.point_group == GroupImage((), ((),) * 99999)
    assert torus_points(5, F).point_group == GroupImage((), ((),) * 4)
    with pytest.raises(CapExceeded) as exc:
        parameterize(build_family("cycle", [5]), F, cap=0)
    assert exc.value.required == 1


@st.composite
def graphs_in_any_edge_order(draw):
    """A graph of one to three components, each an odd or even cycle, a
    path, or random edges among up to four vertices, plus up to two
    isolated vertices, with its vertices relabeled and its edges in a
    random order."""
    parts, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cycle", "path", "random"]))
        if kind == "cycle":
            size = draw(st.integers(3, 6))
            edges = [(i, (i + 1) % size) for i in range(size)]
        elif kind == "path":
            size = draw(st.integers(2, 4))
            edges = [(i, i + 1) for i in range(size - 1)]
        else:
            size = draw(st.integers(2, 4))
            pairs = list(combinations(range(size), 2))
            edges = draw(st.permutations(pairs))[: draw(st.integers(1, len(pairs)))]
        parts += [(n + u, n + v) for u, v in edges]
        n += size
    n += draw(st.integers(0, 2))
    label = draw(st.permutations(range(1, n + 1)))
    edges = draw(st.permutations([(label[u], label[v]) for u, v in parts]))
    return Graph(n, tuple(edges))


@given(G=graphs_in_any_edge_order(), q=st.sampled_from([3, 4, 5, 7, 8, 9]))
@settings(max_examples=150, deadline=None)
def test_point_map_from_the_edges_matches_the_incidence_rows(G, q):
    # `parameterize` writes the grid from the spanning forest; the oracle
    # takes the Smith form of the point map transposed from the incidence
    # rows.  With U the grid's generators (column i of `embed` times
    # e_i = (q - 1) / d_i) and P the point map, the images of P, U and both
    # side by side have one order, the grid's: U is one-to-one, and onto
    # the image of P.  The cap is lifted: nothing of size |X| is built.
    F = make_field(q)
    X = parameterize(G, F, cap=float("inf"))
    orders = X.point_group.orders
    U = [[a * ((q - 1) // d) for a, d in zip(w, orders)] for w in X.point_group.embed]
    P = incidence_point_map(G)
    sizes = {group_image(A, q - 1).size for A in ([p + u for p, u in zip(P, U)], P, U)}
    assert sizes == {X.m} and X.m == expected_length(summarize(G), F)


def test_torus_grid_is_the_image_of_the_identity(monkeypatch):
    # The torus of P^{s-1} is its own grid: `torus_points` writes
    # (Z/(q-1))^(s-1) with identity rows (the empty grid over GF(2)), which is
    # what the Smith form of the identity gives, and walks no graph.
    images = {(q, s): group_image([[int(i == j) for j in range(s - 1)] for i in range(s - 1)],
                                  q - 1)
              for q in (2, 3, 4, 5, 7, 8, 9, 256) for s in range(1, 7)}

    def forbidden(*args):
        raise AssertionError("called for the torus")

    for name in ("summarize", "_forest", "_point_grid"):
        monkeypatch.setattr(toric, name, forbidden)
    for (q, s), image in images.items():
        T = torus_points(s, make_field(q), cap=float("inf"))
        assert T.point_group == image and T.m == (q - 1) ** (s - 1)


@pytest.mark.parametrize(
    "G,q,count",
    [
        (build_family("cycle", [3]), 3, 4),
        (build_family("cycle", [4]), 3, 4),
        (build_family("complete_bipartite", [2, 3]), 3, 8),
        (two_triangles(), 3, 16),
    ],
)
def test_parameterize_counts(G, q, count):
    F = make_field(q)
    X = parameterize(G, F)
    assert X.m == count
    assert set(map(tuple, points(X).tolist())) == toric_points_brute(G, F)


def test_tree_gives_full_torus():
    F = make_field(5)
    X = parameterize(build_family("path", [2]), F)
    assert X.m == 4
    assert np.array_equal(points(X), points(torus_points(2, F)))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize(
    "G",
    [
        build_family("cycle", [6]),
        build_family("complete", [4]),
        build_family("complete_bipartite", [3, 3]),
        two_triangles(),
    ],
)
def test_length_formula_against_enumeration(G, q):
    F = make_field(q)
    # parameterize itself asserts the count; also check the closed form.
    X = parameterize(G, F)
    assert X.m == expected_length(summarize(G), F)


def test_expected_length_hexagon_gf5():
    assert expected_length(summarize(build_family("cycle", [6])), make_field(5)) == 256


def test_expected_length_two_triangles():
    assert expected_length(summarize(two_triangles()), make_field(3)) == 16


def test_evaluation_matrix_degree_zero():
    X = parameterize(build_family("cycle", [4]), make_field(3))
    M = evaluation_matrix(X, 0)
    assert M.shape == (1, 4)
    assert np.all(M == 1)


def test_evaluation_matrix_p1_gf3():
    T = torus_points(2, make_field(3))
    M = evaluation_matrix(T, 1)
    assert M.tolist() == [[1, 1], [1, 2]]


def test_evaluation_matrix_row_count():
    X = parameterize(build_family("cycle", [6]), make_field(3))
    assert evaluation_matrix(X, 1).shape == (6, X.m)


def test_evaluation_representative_independent():
    # Recompute one column from a rescaled representative by hand.
    F = make_field(5)
    X = parameterize(build_family("cycle", [4]), F)
    M = evaluation_matrix(X, 2)
    mul = F.mul_table
    col = 1
    scaled = mul[points(X)[col], 3]
    for row, mon in enumerate(degree_monomials(X.s, 2)):
        num = 1
        for i, e in enumerate(mon):
            for _ in range(e):
                num = mul[num, scaled[i]]
        den = mul[scaled[0], scaled[0]]
        assert mul[num, F.inv_table[den]] == M[row, col]


def test_toric_set_closed_under_pointwise_product():
    F = make_field(3)
    X = parameterize(build_family("cycle", [6]), F)
    pts = set(map(tuple, points(X).tolist()))
    for a in pts:
        for b in pts:
            prod = tuple(int(F.mul_table[x, y]) for x, y in zip(a, b))
            assert normalize_point(prod, F) in pts


def test_normalize_point_general_position():
    F = make_field(5)
    assert normalize_point((3, 0, 2, 0), F) == (4, 0, 1, 0)


@pytest.mark.parametrize("X", [
    parameterize(build_family("complete", [4]), make_field(8)),
    parameterize(two_triangles(), make_field(5)),
    parameterize(build_family("path", [3]), make_field(9)),
    torus_points(3, make_field(7)),
    torus_points(1, make_field(4)),
], ids=["K4-GF8", "two-triangles-GF5", "P3-GF9", "torus3-GF7", "torus1-GF4"])
def test_grid_cells_are_the_coordinate_ratio_characters(X):
    # The grid of X is isomorphic to its dual: the cell w_j = embed_j is the
    # character P -> P_j / P_s.  At grid cell i in C order, the cell of row i
    # of the listing, w_j e gives the log of P_j / P_s, the ratio taken through the
    # field tables, and its generator row is that ratio at every point.
    F, q1 = X.F, X.F.q - 1
    grid = X.point_group
    e = np.array([q1 // d for d in grid.orders], dtype=np.int64)
    w = embed_array(grid)
    assert np.all((0 <= w) & (w < np.array(grid.orders, dtype=np.int64)))
    cells = np.indices(grid.orders).reshape(len(grid.orders), X.m).T.tolist()  # C order
    listed = points(X)
    assert len(listed) == len(cells) == X.m
    for j in range(X.s - 1):
        onehot = np.zeros(grid.orders, dtype=bool)
        onehot[tuple(w[j])] = True
        row = characters(X, onehot)[0].tolist()
        for point, cell, value in zip(listed, cells, row):
            ratio = F.mul_table[point[j], F.inv_table[point[-1]]]
            assert F.exp_table[int(w[j] * e @ cell) % q1] == ratio
            assert value == ratio


@st.composite
def source_maps(draw):
    """A toric set over GF(q), q in {2, 3, 4, 5, 7, 8, 9}, from a random
    graph on n <= 5 vertices with edges drawn among all of them (so isolated
    vertices and b0 > 1 occur), a random tree, or a projective torus."""
    F = make_field(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    kind = draw(st.sampled_from(["graph", "tree", "torus"]))
    if kind == "torus":
        return torus_points(draw(st.integers(1, 5)), F)
    n = draw(st.integers(2, 5))
    if kind == "tree":
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    else:
        pairs = list(combinations(range(1, n + 1), 2))
        edges = draw(st.permutations(pairs))[: draw(st.integers(1, len(pairs)))]
    return parameterize(Graph(n, tuple(edges)), F)


@given(X=source_maps())
@settings(max_examples=150, deadline=None)
def test_group_points_match_source_torus_enumeration(X):
    # The points listed from the group, one per cell, against the points
    # found by mapping every source tuple; the Hilbert function over the
    # point grid against the sumset over the whole source character group.
    F, q1 = X.F, X.F.q - 1
    listed = points(X)
    assert listed.dtype == np.uint8 and listed.shape == (X.m, X.s)
    assert np.array_equal(np.unique(listed, axis=0), source_torus_points(X))
    if X.graph is None:
        assert X.m == q1 ** (X.s - 1)
    else:
        assert X.m == expected_length(summarize(X.graph), F)
        assert set(map(tuple, listed.tolist())) == toric_points_brute(X.graph, F)
    # Row i of the listing is the image of grid cell i in C order, and the m cells of
    # the grid are m distinct characters of X.
    orders = X.point_group.orders
    cells = np.indices(orders).reshape(len(orders), X.m)
    e = np.array([q1 // d for d in orders], dtype=np.int64)
    assert np.array_equal(F.exp_table[embed_array(X.point_group) * e @ cells % q1],
                          listed[:, :-1].T)
    grid = characters(X, np.ones(X.point_group.orders, dtype=bool))
    assert len({tuple(row) for row in grid.tolist()}) == X.m
    assert hilbert_function(X) == source_torus_hilbert_function(X)


@given(N=st.integers(1, 12), t=st.integers(0, 3), c=st.integers(0, 3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_group_image_against_enumeration(N, t, c, data):
    # Any integer matrix, not only point maps: the grid has one cell per
    # element of the image, entry i of each row of `embed` is a cell
    # coordinate in [0, d_i), and `embed` scaled by e_i = N / d_i maps the
    # cells one-to-one onto exactly the image.
    A = np.array(data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=c, max_size=c),
                                    min_size=t, max_size=t)), dtype=np.int64).reshape(t, c)
    image = group_image(A.tolist(), N)
    assert all(d > 1 for d in image.orders)
    sources = np.indices((N,) * c).reshape(c, N**c)
    expected = {tuple(col) for col in (A @ sources % N).T.tolist()}
    assert image.size == len(expected)
    cells = np.indices(image.orders).reshape(len(image.orders), image.size)
    assert len(image.embed) == t
    assert all(len(row) == len(image.orders) for row in image.embed)
    assert all(type(a) is int and 0 <= a < d
               for row in image.embed for a, d in zip(row, image.orders))
    e = np.array([N // d for d in image.orders], dtype=np.int64)
    embedded = [tuple(col) for col in (embed_array(image) * e @ cells % N).T.tolist()]
    assert len(set(embedded)) == image.size
    assert set(embedded) == expected




@pytest.mark.parametrize("family, params, q", [("cycle", [6], 5), ("path", [2], 256)])
def test_count_points_counts_strict_steps(monkeypatch, family, params, q):
    # The count is the number of distinct listed points on the true grid,
    # and on a faulty one whose doubled embedding keeps the grid order: the
    # 256 cells of C_6/GF(5), on axes of order 4, map onto 16 points, while
    # 2 is a unit mod 255 and the doubled grid of P_2/GF(256) is still
    # one-to-one.
    G, F = build_family(family, params), make_field(q)
    X = parameterize(G, F)
    assert count_points(X) == len(np.unique(points(X), axis=0)) == X.m
    double_the_grid(monkeypatch)
    faulty = parameterize(G, F)
    assert faulty.m == X.m
    assert count_points(faulty) == len(np.unique(points(faulty), axis=0)) == {5: 16, 256: 255}[q]


@st.composite
def group_images(draw):
    """A ToricSet over GF(q), q <= 16, on a grid of up to three axes, each
    of an order dividing q - 1, with up to four `embed` rows drawn at
    random: injective or not, and not necessarily the image of a graph."""
    F = make_field(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16])))
    N = F.q - 1
    divisors = [d for d in range(2, N + 1) if N % d == 0]
    orders = tuple(draw(st.lists(st.sampled_from(divisors), max_size=3))) if divisors else ()
    embed = draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in orders)), max_size=4))
    return ToricSet(F, len(embed) + 1, GroupImage(orders, tuple(embed)))


@given(X=group_images())
@settings(max_examples=200, deadline=None)
def test_count_points_is_the_number_of_distinct_listed_points(X):
    assert count_points(X) == len(np.unique(points(X), axis=0))


def test_count_points_reads_no_row_of_a_one_point_grid(monkeypatch):
    # Over GF(2) the grid has one cell, the kernel is cell 0 before any row
    # is read, and the 99,999 empty rows of P_100000 cost no zero set.
    # Elsewhere at most one zero set is built per row.
    calls = []
    real = toric._zero_set
    monkeypatch.setattr(toric, "_zero_set", lambda *args: calls.append(args) or real(*args))
    X = parameterize(build_family("path", [100000]), make_field(2))
    assert count_points(X) == 1 and calls == []
    X = parameterize(build_family("complete", [4]), make_field(5))
    assert count_points(X) == X.m and 0 < len(calls) <= len(X.point_group.embed)
