"""Acceptance suite: one test per criterion, one pass/fail line each.

Each criterion recomputes its targets from scratch and checks them against
the closed forms or against independently computed values.  Sub-cases whose
brute-force distance enumeration exceeds the class budget are reported as
skipped notes; everything that runs must match exactly.
"""

import time
from contextlib import contextmanager

import pytest

from conftest import support, two_triangles
from graphcodes.codes import distance_profile, minimum_distance
from graphcodes.errors import BudgetExceeded, UnsupportedFamily
from graphcodes.eulerian3 import dim_ternary, enumerate_Jd, max_parity_join
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
from graphcodes.gfq import make_field
from graphcodes.graph import build_family, summarize
from graphcodes.hilbert import dimension, regularity_index
from graphcodes.toric import expected_length, parameterize, torus_points
from oracle import standard_monomials


@contextmanager
def criterion(num, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} ({name}): PASS ({elapsed:.1f}s)")
    assert elapsed < limit_seconds


def suite_graphs():
    graphs = []
    for k in (1, 2, 3, 4):
        graphs.append((f"P_{k + 1}", build_family("path", [k])))
    for l in range(3, 9):
        graphs.append((f"C_{l}", build_family("cycle", [l])))
    for n in (4, 5):
        graphs.append((f"K_{n}", build_family("complete", [n])))
    for a, b in ((2, 2), (2, 3), (3, 3)):
        graphs.append((f"K_{a},{b}", build_family("complete_bipartite", [a, b])))
    graphs.append(("K_2,2,2", build_family("complete_multipartite", [2, 2, 2])))
    graphs.append(("Pc(2,2,2)", build_family("parallel_composition", [2, 2, 2])))
    graphs.append(("Pc(2,3)", build_family("parallel_composition", [2, 3])))
    graphs.append(("2xC_3", two_triangles()))
    return graphs


def test_criterion_01_length_theorem():
    with criterion(1, "length theorem", 30):
        for _, G in suite_graphs():
            summary = summarize(G)
            for q in (3, 4, 5, 7, 8, 9):
                F = make_field(q)
                # parameterize itself raises LengthMismatch on disagreement.
                assert parameterize(G, F).m == expected_length(summary, F)


def test_criterion_02_hexagon_golden_values():
    with criterion(2, "hexagon golden values", 10):
        X = parameterize(build_family("cycle", [6]), make_field(5))
        assert X.m == 256
        k = dimension(X, 1)
        assert X.m - k + 1 == 251
        lo, hi = mindist_bipartite_bounds(3, 3, 1, 5)
        assert (lo, hi) == (144, 192)
        assert lo <= minimum_distance(X, 1) <= hi


def test_criterion_03_torus_dimension():
    with criterion(3, "torus dimension", 60):
        for s in (2, 3, 4):
            for q in (3, 4, 5):
                T = torus_points(s, make_field(q))
                reg = (s - 1) * (q - 2)
                for d in range(reg + 2):
                    assert dimension(T, d) == k_formula(s, d, q)
                assert dimension(T, reg) == (q - 1) ** (s - 1)
                assert regularity_index(T) == reg


def test_criterion_04_complete_bipartite():
    skipped = []
    with criterion(4, "complete bipartite dim/delta/reg", 300):
        for a, b in ((2, 2), (2, 3), (3, 3)):
            G = build_family("complete_bipartite", [a, b])
            for q in (3, 5):
                X = parameterize(G, make_field(q))
                reg = (max(a, b) - 1) * (q - 2)
                assert regularity_index(X) == reg
                for d in range(reg + 1):
                    assert dimension(X, d) == dim_complete_bipartite(a, b, d, q)
                for d in range(1, reg + 1):
                    try:
                        delta = minimum_distance(X, d)
                    except BudgetExceeded as exc:
                        skipped.append(f"K_{a},{b} q={q} d={d} "
                                       f"(needs {exc.required} classes)")
                        continue
                    assert delta == mindist_complete_bipartite(a, b, d, q)
    for note in skipped:
        print(f"  skipped delta: {note}")


def test_criterion_05_ternary_even_cycle():
    with criterion(5, "ternary even cycle dimension", 30):
        for l in (2, 3, 4):
            G = build_family("cycle", [2 * l])
            X = parameterize(G, make_field(3))
            reg = l - 1
            for d in range(reg + 2):
                assert dimension(X, d) == dim_even_cycle_ternary(l, d)
            assert dimension(X, reg) == 2 ** (2 * l - 2)


def test_criterion_06_ternary_bijection():
    with criterion(6, "ternary bijection B_d <-> J_d", 60):
        for _, G in suite_graphs():
            for d in range(G.s + 1):
                image = {support(m) for m in standard_monomials(G, d)}
                assert image == enumerate_Jd(G, d)


def test_criterion_07_ternary_dimension_and_regularity():
    mu_rows = {
        "K_2,2": ("complete_bipartite", (2, 2)),
        "K_2,3": ("complete_bipartite", (2, 3)),
        "K_3,3": ("complete_bipartite", (3, 3)),
        "K_4": ("complete", (4,)),
        "K_5": ("complete", (5,)),
        "K_2,2,2": ("complete_multipartite", (2, 2, 2)),
        "Pc(2,2,2)": ("parallel", (2, 2, 2)),
        "C_4": ("parallel", (2, 2)),
        "C_6": ("parallel", (3, 3)),
    }
    with criterion(7, "ternary dimension and regularity", 120):
        F = make_field(3)
        for name, G in suite_graphs():
            X = parameterize(G, F)
            reg = regularity_index(X)
            for d in range(reg + 2):
                assert dim_ternary(G, d) == dimension(X, d)
            mu, witness = max_parity_join(G)
            assert mu - 1 == reg
            assert len(witness) == mu
            if name in mu_rows:
                tag, params = mu_rows[name]
                assert mu == mu_closed_form(tag, params)
        with pytest.raises(UnsupportedFamily):
            mu_closed_form("parallel", (2, 3))  # mixed parity has no row


def test_criterion_08_regularity_table():
    with criterion(8, "regularity table", 180):
        for s in (2, 3, 4):
            for q in (3, 4, 5):
                T = torus_points(s, make_field(q))
                expect = reg_closed_form(RegFamily("torus", (s,)), q)
                assert regularity_index(T) == expect
        for a, b in ((2, 2), (2, 3), (3, 3)):
            G = build_family("complete_bipartite", [a, b])
            for q in (3, 4, 5):
                X = parameterize(G, make_field(q))
                expect = reg_closed_form(RegFamily("complete_bipartite", (a, b)), q)
                assert regularity_index(X) == expect
        for n in (4, 5):
            X = parameterize(build_family("complete", [n]), make_field(3))
            expect = reg_closed_form(RegFamily("complete", (n,)), 3)
            assert regularity_index(X) == expect
        for l in range(4, 9):
            X = parameterize(build_family("cycle", [l]), make_field(3))
            if l % 2 == 0:
                expect = reg_closed_form(RegFamily("even_cycle", (l // 2,)), 3)
            else:
                # Odd cycles over GF(3) parameterize the full torus.
                assert X.m == 2 ** (l - 1)
                expect = reg_closed_form(RegFamily("torus", (l,)), 3)
            assert regularity_index(X) == expect
        X = parameterize(build_family("complete_multipartite", [2, 2, 2]), make_field(3))
        expect = reg_closed_form(RegFamily("complete_multipartite", (2, 2, 2)), 3)
        assert regularity_index(X) == expect
        for ks in ((2, 2), (2, 2, 2), (3, 3), (2, 3)):
            G = build_family("parallel_composition", list(ks))
            X = parameterize(G, make_field(3))
            assert reg_parallel(list(ks), 3) == regularity_index(X)
        # Nested ear decompositions: the two worked cases.  C_4 is a single
        # ear, of even length (epsilon = 1); Pc(2,2,2) is the cycle 1-3-2-4-1
        # and the ear 1-5-2, both even (epsilon = 2).
        c4 = build_family("cycle", [4])
        for q in (3, 4, 5):
            assert reg_nested_ears(4, 1, q) == q - 2
        assert reg_nested_ears(4, 1, 3) == regularity_index(
            parameterize(c4, make_field(3)))
        pc = build_family("parallel_composition", [2, 2, 2])
        for q in (3, 4, 5):
            assert reg_nested_ears(5, 2, q) == 2 * (q - 2)
            assert reg_nested_ears(5, 2, q) == reg_closed_form(
                RegFamily("complete_bipartite", (2, 3)), q)
        assert reg_nested_ears(5, 2, 3) == regularity_index(
            parameterize(pc, make_field(3)))


def test_criterion_09_minimum_distance_laws():
    skipped = []
    with criterion(9, "minimum-distance laws", 300):
        # Profile laws and the torus closed formula.
        for s in (2, 3):
            for q in (3, 5):
                T = torus_points(s, make_field(q))
                reg = regularity_index(T)
                rows = distance_profile(T, reg + 1)
                for r in rows:
                    assert r.delta <= r.singleton
                    if r.d >= reg:
                        assert r.delta == 1
                deltas = [r.delta for r in rows[1:]]
                for a, b in zip(deltas, deltas[1:]):
                    assert b < a or a == b == 1
                for d in range(1, reg + 2):
                    assert rows[d].delta == mindist_torus_formula(s, d, q)
        # Subgraph lemma: larger graph, same |X|, smaller distance.
        F = make_field(3)
        tree = parameterize(build_family("path", [5]), F)  # spanning tree of C_6
        hexagon = parameterize(build_family("cycle", [6]), F)
        k33 = parameterize(build_family("complete_bipartite", [3, 3]), F)
        assert tree.m == hexagon.m == k33.m
        for d in range(1, 5):
            assert minimum_distance(hexagon, d) <= minimum_distance(tree, d)
        for d in range(1, 3):
            assert minimum_distance(k33, d) <= minimum_distance(hexagon, d)
        # Non-bipartite lower bound via the torus of P^{n-1}.
        for n, family, params in ((3, "cycle", [3]), (4, "complete", [4])):
            G = build_family(family, params)
            for q in (3, 5):
                X = parameterize(G, make_field(q))
                reg = regularity_index(X)
                checked = 0
                for d in range(1, reg + 1):
                    try:
                        delta = minimum_distance(X, d)
                    except BudgetExceeded as exc:
                        skipped.append(f"{family}{tuple(params)} q={q} d={d} "
                                       f"(needs {exc.required} classes)")
                        continue
                    assert mindist_nonbipartite_lower(n, d, q) <= delta
                    checked += 1
                assert checked > 0
    for note in skipped:
        print(f"  skipped delta: {note}")


def test_criterion_10_determinism_and_invariance():
    with criterion(10, "determinism and invariance", 60):
        G = build_family("cycle", [6])
        F = make_field(5)
        perms = ([4, 2, 6, 1, 3, 5], [6, 5, 4, 3, 2, 1])
        base = None
        for H in (G, G, *(G.reorder_edges(p) for p in perms)):
            X = parameterize(H, F)
            result = (X.m, dimension(X, 1), regularity_index(X),
                      minimum_distance(X, 1))
            if base is None:
                base = result
            assert result == base
        K = build_family("complete_bipartite", [2, 3])
        F3 = make_field(3)
        runs = {(parameterize(K, F3).m,
                 dimension(parameterize(K, F3), 2),
                 minimum_distance(parameterize(K, F3), 1))
                for _ in range(3)}
        assert len(runs) == 1
