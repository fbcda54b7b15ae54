import time
from math import comb

import pytest

from conftest import assert_value_type
from graphcodes.errors import InvalidParams, UnsupportedFamily
from graphcodes.formulas import (
    RegFamily,
    dim_complete_bipartite,
    dim_even_cycle_ternary,
    k_formula,
    mindist_bipartite_bounds,
    mindist_complete_bipartite,
    mindist_nonbipartite_lower,
    mindist_torus_formula,
    mu_closed_form,
    reg_closed_form,
    reg_nested_ears,
    reg_parallel,
)


def test_k_formula_degree_zero():
    for s in (1, 2, 5):
        for q in (3, 5, 9):
            assert k_formula(s, 0, q) == 1


def test_k_formula_small_values():
    assert k_formula(2, 1, 5) == 2
    assert k_formula(3, 1, 5) == 3


def test_k_formula_sums_only_the_nonzero_terms():
    # Terms past j = s - 1 vanish, so a huge degree costs s terms.
    start = time.perf_counter()
    assert k_formula(5, 10**9, 7) == 6**4
    assert time.perf_counter() - start < 1
    for q in (3, 4, 5, 7, 8, 9, 16):
        for s in range(1, 8):
            for d in range(80):
                full = sum((-1) ** j * comb(s - 1, j) * comb(s - 1 + d - (q - 1) * j, s - 1)
                           for j in range((s - 1 + d) // (q - 1) + 1))
                assert k_formula(s, d, q) == full


@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("q", [3, 4, 5])
def test_k_formula_plateau_and_monotone(s, q):
    reg = (s - 1) * (q - 2)
    values = [k_formula(s, d, q) for d in range(reg + 3)]
    for d in range(1, reg + 1):
        assert values[d] > values[d - 1]
    assert values[reg] == (q - 1) ** (s - 1)
    assert values[reg + 1] == values[reg] == values[reg + 2]


def test_dim_complete_bipartite_values():
    assert dim_complete_bipartite(2, 3, 1, 5) == 6
    assert dim_complete_bipartite(4, 7, 0, 9) == 1
    # Plateau is the number of points of X for K_{3,3}.
    assert dim_complete_bipartite(3, 3, 50, 5) == 256


def test_dim_even_cycle_ternary():
    assert dim_even_cycle_ternary(3, 2) == 16
    assert dim_even_cycle_ternary(3, 1) == 6
    assert dim_even_cycle_ternary(2, 0) == 1
    assert dim_even_cycle_ternary(4, 100) == 2**6


def test_reg_closed_form_rows():
    assert reg_closed_form(RegFamily("torus", (2,)), 5) == 3
    assert reg_closed_form(RegFamily("complete_bipartite", (3, 3)), 5) == 6
    assert reg_closed_form(RegFamily("complete", (4,)), 3) == 2
    assert reg_closed_form(RegFamily("even_cycle", (4,)), 3) == 3
    assert reg_closed_form(RegFamily("complete_multipartite", (2, 2, 2)), 3) == 3


def test_closed_forms_are_exact_past_float_precision():
    # At n = 2^60 + 2, (n - 1) / 2 as a float rounds 2^59 + 1/2 down to 2^59
    # before the ceiling; the exact ceiling is 2^59 + 1.
    n = 2**60 + 2
    assert reg_closed_form(RegFamily("complete", (n,)), 3) == 2**59 + 1
    parts = (2**59, 2**59, 2)  # n vertices, each part below the ceiling
    assert reg_closed_form(RegFamily("complete_multipartite", parts), 3) == 2**59 + 1
    assert mu_closed_form("complete", (n,)) == 2**59 + 2
    assert mu_closed_form("complete_multipartite", parts) == 2**59 + 2


def test_reg_family_constraints():
    for tag, params, message in [
        ("torus", (0,), "family parameters must be positive"),
        ("complete", (3,), "the complete-graph row requires n > 3"),
        ("complete_multipartite", (2, 2), "the multipartite row requires r > 2 parts"),
        ("complete_multipartite", (1, 1, 1), "the multipartite row requires n > 3"),
    ]:
        with pytest.raises(InvalidParams) as exc:
            RegFamily(tag, params)
        assert str(exc.value) == message


def test_reg_family_is_an_immutable_value():
    family = RegFamily("complete", (5,))
    assert repr(family) == "RegFamily(tag='complete', params=(5,))"
    assert_value_type(family, RegFamily(tag="complete", params=(5,)), "tag", "params")


def test_reg_parallel_branches():
    assert reg_parallel([2, 2, 2], 3) == 2
    assert reg_parallel([3, 3], 3) == 2
    assert reg_parallel([2, 3], 3) == 4  # the graph is C_5
    # One even path among several odd ones.
    assert reg_parallel([2, 3, 3], 3) == (2 + 1 + 1) * 1
    # More evens than one, exactly one odd: the brute-force value.
    assert reg_parallel([2, 4, 3], 3) == (1 + 2 + 3 - 1) * 1
    # More evens than one, several odds.
    assert reg_parallel([2, 4, 3, 5], 3) == (1 + 2 + 1 + 2) * 1
    with pytest.raises(InvalidParams):
        reg_parallel([1, 1, 2], 3)


def test_reg_parallel_input_order_free():
    assert reg_parallel([3, 2], 3) == reg_parallel([2, 3], 3)
    assert reg_parallel([5, 2, 4, 3], 5) == reg_parallel([2, 3, 4, 5], 5)


def test_reg_parallel_of_two_paths_is_the_cycle_row():
    # r = 2 is the cycle C_l, whatever the split [a, l - a].
    for l in range(3, 11):
        for q in (3, 4, 5, 7):
            (value,) = {reg_parallel([a, l - a], q) for a in range(1, l)}
            if l % 2 == 0:
                assert value == reg_closed_form(RegFamily("even_cycle", (l // 2,)), q)
            else:
                assert value == (l - 1) * (q - 2)  # the torus row: C_l has |X| = (q-1)^(l-1)


def test_reg_nested_ears():
    for q in (3, 4, 5):
        assert reg_nested_ears(4, 1, q) == q - 2  # C_4 as a single ear
        assert reg_nested_ears(5, 2, q) == 2 * (q - 2)  # parallel (2,2,2)
    with pytest.raises(InvalidParams):
        reg_nested_ears(4, 2, 3)


def test_mindist_torus_values():
    assert mindist_torus_formula(3, 1, 5) == 12
    assert mindist_torus_formula(3, 6, 5) == 1
    assert mindist_torus_formula(2, 2, 5) == 2  # q - 1 - d on P^1


def test_mindist_torus_strictly_decreasing():
    for s in (2, 3, 4):
        for q in (3, 4, 5, 7):
            values = [mindist_torus_formula(s, d, q) for d in range(1, (q - 2) * (s - 1) + 2)]
            for a, b in zip(values, values[1:]):
                assert b < a or a == b == 1


def test_mindist_complete_bipartite_values():
    assert mindist_complete_bipartite(3, 3, 1, 5) == 144
    assert mindist_complete_bipartite(2, 3, 1, 5) == 36
    d_flat = reg_closed_form(RegFamily("complete_bipartite", (2, 3)), 5)
    assert mindist_complete_bipartite(2, 3, d_flat, 5) == 1


def test_mindist_bipartite_bounds_hexagon():
    assert mindist_bipartite_bounds(3, 3, 1, 5) == (144, 192)


def test_mindist_bounds_ordering_grid():
    for a in range(2, 5):
        for b in range(2, 5):
            for q in (3, 4, 5, 7):
                reg = (max(a, b) - 1) * (q - 2)
                for d in range(1, reg + 1):
                    lo, hi = mindist_bipartite_bounds(a, b, d, q)
                    assert lo <= hi


def test_mindist_nonbipartite_lower():
    assert mindist_nonbipartite_lower(3, 1, 5) == 8
    assert mindist_nonbipartite_lower(3, 50, 5) == 1


def test_mu_closed_form_rows():
    assert mu_closed_form("complete_bipartite", (3, 3)) == 3
    assert mu_closed_form("complete", (4,)) == 3
    assert mu_closed_form("complete_multipartite", (2, 2, 2)) == 4
    assert mu_closed_form("parallel", (2, 2, 2)) == 3
    assert mu_closed_form("parallel", (3, 3)) == 3
    assert mu_closed_form("nested_ears", (5, 2)) == 3
    with pytest.raises(UnsupportedFamily):
        mu_closed_form("parallel", (2, 3))
    with pytest.raises(UnsupportedFamily):
        mu_closed_form("wheel", (5,))
