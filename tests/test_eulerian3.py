import io
import json
import os
import tempfile
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eulerian_subsets_brute, parity_join_brute, support, two_triangles
from graphcodes import eulerian3
from graphcodes.cli import run_command
from graphcodes.errors import CapExceeded
from graphcodes.eulerian3 import dim_ternary, dims_ternary, enumerate_Jd, max_parity_join
from graphcodes.formulas import k_formula
from graphcodes.gfq import make_field
from graphcodes.graph import Graph, build_family, format_graph, summarize
from graphcodes.hilbert import dimension, regularity_index
from graphcodes.toric import expected_length, parameterize
from oracle import from_support, grevlex_key, square_free_leading_terms, standard_monomials


def test_grevlex_examples():
    assert grevlex_key((1, 1, 0, 0)) > grevlex_key((0, 0, 1, 1))  # t1t2 > t3t4
    assert grevlex_key((2, 0, 0, 0)) > grevlex_key((1, 1, 0, 0))  # t1^2 > t1t2
    assert grevlex_key((0, 0, 0, 1)) < grevlex_key((2, 0, 0, 0))  # lower degree first
    assert grevlex_key((1, 0, 2)) == grevlex_key((1, 0, 2))


def test_grevlex_is_total_on_distinct():
    # grevlex_key against the definition: the lower degree is the smaller,
    # and within a degree the greater is the monomial whose exponent
    # difference has a negative rightmost nonzero entry.
    for a, b in combinations(product(range(3), repeat=3), 2):
        diff = [x - y for x, y in zip(a, b) if x != y]
        a_greater = sum(a) > sum(b) if sum(a) != sum(b) else diff[-1] < 0
        assert (grevlex_key(a) > grevlex_key(b)) == a_greater


def test_leading_half_avoids_last_variable():
    # For coprime square-free same-degree monomials, the grevlex-greater
    # half is the one without the largest variable of the combined support.
    for s in range(2, 9):
        for d in range(1, s // 2 + 1):
            for sup_a in combinations(range(1, s + 1), d):
                rest = [i for i in range(1, s + 1) if i not in sup_a]
                for sup_b in combinations(rest, d):
                    a = from_support(frozenset(sup_a), s)
                    b = from_support(frozenset(sup_b), s)
                    last = max(sup_a + sup_b)
                    expect_a_greater = last in sup_b
                    assert (grevlex_key(a) > grevlex_key(b)) == expect_a_greater


def test_leading_terms_c4():
    # Beside the squares t_i^2, the grevlex-greater half of each balanced
    # split of the 4-cycle: the three halves without its last edge.
    G = build_family("cycle", [4])
    assert square_free_leading_terms(G, 2) == {
        frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})
    }


def test_leading_terms_triangle_squares_only():
    assert square_free_leading_terms(build_family("cycle", [3]), 5) == set()


def test_leading_terms_tree_squares_only():
    assert square_free_leading_terms(build_family("path", [4]), 4) == set()


def test_standard_monomials_base_cases():
    for G in (build_family("cycle", [4]), build_family("complete", [4])):
        assert standard_monomials(G, 0) == {(0,) * G.s}
        assert {support(m) for m in standard_monomials(G, 1)} == {
            frozenset({i}) for i in range(1, G.s + 1)
        }


def test_standard_monomials_c4_degree2():
    G = build_family("cycle", [4])
    assert {support(m) for m in standard_monomials(G, 2)} == {
        frozenset({1, 4}), frozenset({2, 4}), frozenset({3, 4})
    }


def walk_against_brute_force(G):
    """J_d from the last-edge condition over all d-subsets, mu and its
    witness over all subsets, and the size of the full walk from the length
    of X at q = 3."""
    evens = eulerian_subsets_brute(G, even_edge_count_only=True)
    subsets = [frozenset(c) for r in range(G.s + 1)
               for c in combinations(range(1, G.s + 1), r)]
    joins = [J for J in subsets if parity_join_brute(G, J, evens)]
    anchored = [J for J in joins
                if all(max(C) in J for C in evens if len(J & C) == len(C) // 2)]
    for d in range(G.s + 1):
        assert enumerate_Jd(G, d) == {J for J in anchored if len(J) == d}
    mu, witness = max_parity_join(G)
    assert mu == max(map(len, joins)) == len(witness) and witness in anchored
    summary = summarize(G)
    m = eulerian3._length(summary)
    assert m == expected_length(summary, make_field(3))
    free, members = eulerian3._walk(G, G.s)
    assert len(free) == G.s - len(frozenset().union(*evens))
    assert sum(1 for _ in members) == 2 * m >> len(free) == len(anchored) >> len(free)


@pytest.mark.parametrize(
    "G",
    [
        build_family("cycle", [4]),
        build_family("cycle", [6]),
        build_family("complete", [4]),
        build_family("complete_bipartite", [2, 3]),
        two_triangles(),
    ],
)
def test_parity_join_matches_brute_force(G):
    # The graphs the random ones below do not reach: C_6 and two triangles
    # have more than five vertices.
    walk_against_brute_force(G)


def test_Jd_c4():
    G = build_family("cycle", [4])
    assert enumerate_Jd(G, 1) == {frozenset({i}) for i in range(1, 5)}
    assert enumerate_Jd(G, 2) == {
        frozenset({1, 4}), frozenset({2, 4}), frozenset({3, 4})
    }
    assert enumerate_Jd(G, 3) == set()
    assert enumerate_Jd(G, 0) == {frozenset()}
    assert enumerate_Jd(G, -1) == set()


def test_dim_ternary_examples():
    assert dim_ternary(build_family("cycle", [4]), 2) == 4
    assert dim_ternary(build_family("cycle", [6]), 2) == 16
    assert dim_ternary(build_family("cycle", [3]), 2) == 4


def test_dim_ternary_no_even_eulerian_matches_binomials():
    # Without even Eulerian subgraphs every subset is a parity join.
    for G in (build_family("path", [4]), build_family("cycle", [5])):
        s = G.s
        for d in range(s + 2):
            expected = sum(comb(s, d - 2 * i) for i in range(d // 2 + 1))
            assert dim_ternary(G, d) == expected == k_formula(s, d, 3)


def test_dim_ternary_far_past_the_edge_count():
    # J_e is empty for e > s, so a huge degree counts only the degrees
    # e <= s of its parity and returns at once.
    for G in (build_family("cycle", [4]), build_family("complete", [4])):
        for d in (10**12, 10**12 + 1):
            top = max(e for e in range(G.s + 1) if e % 2 == d % 2)
            assert dim_ternary(G, d) == dim_ternary(G, top)


def test_max_parity_join_examples():
    mu, witness = max_parity_join(build_family("cycle", [4]))
    assert mu == 2 and len(witness) == 2
    assert max_parity_join(build_family("complete", [4]))[0] == 3
    tree = build_family("path", [5])
    assert max_parity_join(tree) == (5, frozenset(range(1, 6)))


@pytest.mark.parametrize(
    "G",
    [
        build_family("cycle", [4]),
        build_family("cycle", [6]),
        build_family("complete", [4]),
        build_family("complete_bipartite", [2, 3]),
        two_triangles(),
    ],
)
def test_bijection_support_map(G):
    # The Groebner side, B_d by brute force, against the listed J_d.
    for d in range(G.s + 1):
        image = {support(m) for m in standard_monomials(G, d)}
        assert image == enumerate_Jd(G, d)


def test_dim_ternary_matches_rank():
    F = make_field(3)
    for G in (build_family("cycle", [6]), build_family("complete", [4])):
        X = parameterize(G, F)
        reg = regularity_index(X)
        for d in range(reg + 2):
            assert dim_ternary(G, d) == dimension(X, d)


def test_dim_ternary_edge_order_invariant():
    G = build_family("cycle", [6])
    H = G.reorder_edges([2, 5, 1, 6, 3, 4])
    for d in range(7):
        assert dim_ternary(G, d) == dim_ternary(H, d)
    K = build_family("complete", [4])
    L = K.reorder_edges([6, 5, 4, 3, 2, 1])
    for d in range(7):
        assert dim_ternary(K, d) == dim_ternary(L, d)


def test_reg_ternary_matches_bruteforce():
    F = make_field(3)
    for G in (build_family("cycle", [6]), build_family("complete", [4]), two_triangles()):
        X = parameterize(G, F)
        assert max_parity_join(G)[0] - 1 == regularity_index(X)


@st.composite
def small_graphs(draw):
    """A graph on n <= 5 vertices with edges drawn among all of them (so
    isolated vertices and b0 > 1 occur), or a random tree, in a random edge
    order."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        edges = draw(st.permutations([(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]))
    else:
        pairs = list(combinations(range(1, n + 1), 2))
        edges = draw(st.permutations(pairs))[: draw(st.integers(1, len(pairs)))]
    return Graph(n, tuple(edges))


@given(G=small_graphs())
@settings(max_examples=100, deadline=None)
def test_ternary_theory_on_random_graphs(G):
    # The parity-join side against the Hilbert function at q = 3, and the
    # Groebner side of the B_d <-> J_d map.
    X = parameterize(G, make_field(3))
    reg = regularity_index(X)
    for d in range(reg + 2):
        assert dim_ternary(G, d) == dimension(X, d)
    assert max_parity_join(G)[0] - 1 == reg
    for d in range(G.s + 1):
        assert {support(m) for m in standard_monomials(G, d)} == enumerate_Jd(G, d)


@given(G=small_graphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_ternary_basis_is_b_d_in_descending_grevlex(G, data):
    # `ternary basis --json` under a random --seed-order, at every degree
    # through s + 1, against B_d by brute force sorted by the oracle's key.
    perm = data.draw(st.permutations(range(1, G.s + 1)))
    H = G.reorder_edges(perm)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.txt")
        with open(path, "w") as fh:
            fh.write(format_graph(G))
        for d in range(G.s + 2):
            out = io.StringIO()
            assert run_command(["ternary", "basis", "--graph", path, "--d", str(d), "--json",
                                "--seed-order", ",".join(map(str, perm))], out) == 0
            mons = sorted(standard_monomials(H, d), key=grevlex_key, reverse=True)
            expected = ["*".join(f"t{i}" for i, e in enumerate(m, 1) if e) or "1"
                        for m in mons]
            assert json.loads(out.getvalue())["basis"] == expected


@given(G=small_graphs())
@settings(max_examples=100, deadline=None)
def test_walk_against_brute_force(G):
    walk_against_brute_force(G)


def test_scans_refuse_before_they_start(monkeypatch):
    # The walk is refused before it starts when min(2m >> f, subsets of at
    # most d constrained edges) exceeds the cap: C_4 has m = 4 and no free
    # edge, so 8 members at d = 2 and 1 + 4 at d = 1.
    G = build_family("cycle", [4])
    monkeypatch.setattr(eulerian3, "DEFAULT_SEARCH_CAP", 7)
    for call in (enumerate_Jd, dim_ternary):
        with pytest.raises(CapExceeded) as exc:
            call(G, 2)
        assert exc.value.required == 8
    assert enumerate_Jd(G, 1) == {frozenset({i}) for i in range(1, 5)}
    assert dim_ternary(G, 1) == 4
    # P_4 walks the empty set only, but lists C(4, 2) sets of free edges;
    # its dimension is counted, not listed.
    P = build_family("path", [4])
    monkeypatch.setattr(eulerian3, "DEFAULT_SEARCH_CAP", 5)
    with pytest.raises(CapExceeded) as exc:
        enumerate_Jd(P, 2)
    assert exc.value.required == comb(4, 2)
    assert dim_ternary(P, 2) == 1 + comb(4, 2)
    # K_5 walks at most 2m = 32 members and lists J_2 within a cap of 40.
    K = build_family("complete", [5])
    monkeypatch.setattr(eulerian3, "DEFAULT_SEARCH_CAP", 40)
    assert len(enumerate_Jd(K, 2)) == dim_ternary(K, 2) - 1


def test_max_parity_join_counts_nodes_against_the_cap(monkeypatch):
    # K_4 has m = 8 and no free edge: the full walk visits 2m = 16 members,
    # and a cap below that refuses it before it starts.
    G = build_family("complete", [4])
    monkeypatch.setattr(eulerian3, "DEFAULT_SEARCH_CAP", 15)
    with pytest.raises(CapExceeded) as exc:
        max_parity_join(G)
    assert exc.value.required == 16
    monkeypatch.setattr(eulerian3, "DEFAULT_SEARCH_CAP", 16)
    assert max_parity_join(G)[0] == 3


def test_max_parity_join_bound_cut():
    # A tree has only free edges: the walk visits the empty set, and the
    # witness is every edge.  Otherwise it is the first deepest member of J
    # in preorder, with the free edges.
    G = build_family("path", [40])
    assert max_parity_join(G) == (40, frozenset(range(1, 41)))
    mu, witness = max_parity_join(build_family("complete", [6]))
    assert (mu, sorted(witness)) == (4, [1, 12, 14, 15])
    assert frozenset(witness) in enumerate_Jd(build_family("complete", [6]), 4)


@given(G=small_graphs())
@settings(max_examples=60, deadline=None)
def test_dims_ternary_is_every_degree_of_one_walk(G):
    # Every degree up to past s from one walk: each entry is the
    # single-degree count, the stacked count of the listed J_e and the
    # Hilbert function.
    X = parameterize(G, make_field(3))
    d_max = G.s + 3
    dims = dims_ternary(G, d_max)
    sizes = [len(enumerate_Jd(G, e)) for e in range(d_max + 1)]
    assert len(dims) == d_max + 1
    for d, k in enumerate(dims):
        assert k == dim_ternary(G, d) == sum(sizes[d::-2]) == dimension(X, d)
