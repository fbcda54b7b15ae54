import numpy as np
import pytest

from conftest import toric_points_brute, two_triangles
from graphcodes.errors import CapExceeded
from graphcodes.gfq import make_field
from graphcodes.graph import build_family, summarize
from graphcodes.toric import expected_length, parameterize, torus_points
from oracle import degree_monomials, evaluation_matrix, normalize_point


def test_torus_points_p1_gf3():
    T = torus_points(2, make_field(3))
    assert T.points == [(1, 1), (2, 1)]


def test_torus_points_single_coordinate():
    for q in (3, 5, 9):
        assert torus_points(1, make_field(q)).points == [(1,)]


def test_torus_points_count():
    assert torus_points(3, make_field(4)).m == 9


def test_torus_cap():
    with pytest.raises(CapExceeded):
        torus_points(5, make_field(5), cap=10)


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
    assert set(map(tuple, X.points)) == toric_points_brute(G, F)


def test_tree_gives_full_torus():
    F = make_field(5)
    X = parameterize(build_family("path", [2]), F)
    assert X.m == 4
    assert X.points == torus_points(2, F).points


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
    col = 1
    point = X.points[col]
    scaled = tuple(F.mul(c, 3) for c in point)
    for row, mon in enumerate(degree_monomials(X.s, 2)):
        num = 1
        for i, e in enumerate(mon):
            num = F.mul(num, F.pow(scaled[i], e))
        den = F.pow(scaled[0], 2)
        assert F.div(num, den) == M[row, col]


def test_toric_set_closed_under_pointwise_product():
    F = make_field(3)
    X = parameterize(build_family("cycle", [6]), F)
    pts = set(map(tuple, X.points))
    for a in pts:
        for b in pts:
            prod = tuple(F.mul(x, y) for x, y in zip(a, b))
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
def test_source_map_reaches_every_point(X):
    # Each point is phi of its recorded preimage: the coordinates t^{b_k}
    # computed by hand from the preimage logs, normalized by the last one.
    F = X.F
    assert X.preimage_logs.shape == (X.m, X.exponents.shape[0])
    for point, logs in zip(X.points, X.preimage_logs.tolist()):
        t = [F.exp_table[l] for l in logs]
        image = []
        for column in X.exponents.T.tolist():
            value = 1
            for ti, e in zip(t, column):
                value = F.mul(value, F.pow(int(ti), e))
            image.append(value)
        assert normalize_point(image, F) == point
