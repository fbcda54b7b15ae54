import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_value_type, eulerian_subsets_brute, two_triangles
from graphcodes import eulerian3, graph
from graphcodes.errors import CapExceeded, InvalidParams
from graphcodes.graph import (
    Graph,
    build_family,
    complete_multipartite_parts,
    eulerian_masks,
    format_graph,
    mask_subset,
    parallel_paths,
    parse_graph,
    summarize,
)


def test_graph_validation():
    for n, edges, message in [
        (0, ((1, 2),), "vertex count must be positive"),
        (3, (), "at least one edge is required"),
        (2, ((1, 3),), "edge (1,3) has endpoints outside 1..2"),
        (3, ((1, 1),), "loop at vertex 1"),
        (3, ((1, 2), (2, 1)), "duplicate edge (2,1)"),
    ]:
        with pytest.raises(InvalidParams) as exc:
            Graph(n, edges)
        assert str(exc.value) == message


def test_graph_types_are_immutable_values():
    G = build_family("path", [2])
    assert repr(G) == "Graph(n=3, edges=((1, 2), (2, 3)))"
    assert_value_type(G, Graph(3, [[1, 2], [2, 3]]), "n", "edges")
    assert G != Graph(3, ((2, 3), (1, 2)))  # the edge order is part of the value
    assert_value_type(summarize(G), summarize(build_family("path", [2])),
                      "n", "s", "b0", "bipartite", "gamma")


def test_summarize_c4(c4):
    s = summarize(c4)
    assert (s.n, s.s, s.b0, s.bipartite, s.gamma) == (4, 4, 1, True, 0)


def test_summarize_triangle():
    s = summarize(build_family("cycle", [3]))
    assert (s.n, s.s, s.b0, s.bipartite, s.gamma) == (3, 3, 1, False, 1)


def test_summarize_two_triangles():
    s = summarize(two_triangles())
    assert (s.n, s.s, s.b0, s.gamma) == (6, 6, 2, 2)


def test_summarize_edge_order_invariant(c6):
    perm = [3, 1, 6, 2, 5, 4]
    assert summarize(c6) == summarize(c6.reorder_edges(perm))


def test_reorder_edges_keeps_the_checked_edges(c6):
    perm = [3, 1, 6, 2, 5, 4]
    assert c6.reorder_edges(perm) == Graph(6, tuple(c6.edges[p - 1] for p in perm))
    assert type(c6.reorder_edges(perm)) is Graph
    for bad in ([1, 2, 3, 4, 5], [1, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]):
        with pytest.raises(InvalidParams, match="not a permutation"):
            c6.reorder_edges(bad)


@pytest.mark.parametrize("family, grid", [
    ("path", [[k] for k in range(1, 8)]),
    ("cycle", [[l] for l in range(3, 9)]),
    ("complete", [[n] for n in range(2, 8)]),
    ("complete_bipartite", [[a, b] for a in range(1, 5) for b in range(1, 5)]),
    ("complete_multipartite", [[1, 1], [1, 2], [2, 2, 1], [1, 1, 1, 1], [3, 1, 2]]),
    ("parallel_composition", [[1, 2], [2, 2], [1, 2, 3], [3, 3, 3], [2, 4, 1, 5]]),
])
def test_families_are_the_checked_graphs(family, grid):
    # build_family skips Graph's edge checks; the checked graph is the same.
    for params in grid:
        G = build_family(family, params)
        assert type(G) is Graph and G == Graph(G.n, G.edges), (family, params)
        assert all(type(e) is tuple for e in G.edges)


def test_summarize_memory_is_linear_in_depth():
    # A path of 20,000 edges is one tree of depth 20,000: a mask of the tree
    # path to every vertex alone would hold about 25 MB.
    G = build_family("path", [20000])
    tracemalloc.start()
    try:
        s = summarize(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.n, s.b0, s.bipartite) == (20001, 1, True)
    assert peak < 12 * 2**20, peak


def eulerian_subsets(G):
    """eulerian_masks as edge subsets, in its order."""
    return [mask_subset(m) for m in eulerian_masks(G)]


def even_subsets(G):
    """The elements with an even number of edges, which the ternary theory
    keeps (`eulerian3._evens`), as edge subsets in its order."""
    evens = eulerian3._evens(G)
    assert all(2 * h == C.bit_count() for C, h in evens)
    return [mask_subset(C) for C, _ in evens]


def test_cycle_basis_tree_empty():
    assert eulerian_masks(build_family("path", [4])) == []


def test_cycle_basis_c4(c4):
    assert eulerian_subsets(c4) == [frozenset({1, 2, 3, 4})]


def test_cycle_basis_k4_even_degrees(k4):
    elements = eulerian_subsets(k4)
    assert len(elements) == 2**3 - 1  # s - n + b0 = 6 - 4 + 1
    for cyc in elements:
        deg = {}
        for i in cyc:
            u, v = k4.edges[i - 1]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert all(d % 2 == 0 for d in deg.values())


@pytest.mark.parametrize(
    "G",
    [
        build_family("cycle", [4]),
        build_family("cycle", [3]),
        build_family("complete", [4]),
        build_family("complete", [5]),
        build_family("complete_bipartite", [2, 3]),
        two_triangles(),
    ],
)
def test_enumerate_eulerian_matches_brute_force(G):
    assert set(eulerian_subsets(G)) == set(eulerian_subsets_brute(G))
    assert set(even_subsets(G)) == set(eulerian_subsets_brute(G, even_edge_count_only=True))


def test_enumerate_eulerian_examples(c4, k4):
    assert even_subsets(c4) == [frozenset({1, 2, 3, 4})]
    assert even_subsets(build_family("cycle", [3])) == []
    evens = even_subsets(k4)
    assert len(evens) == 3
    assert all(len(C) == 4 for C in evens)


def test_enumerate_eulerian_cap(k4, monkeypatch):
    monkeypatch.setattr(graph, "DEFAULT_CYCLE_CAP", 4)
    with pytest.raises(CapExceeded) as exc:
        eulerian_masks(k4)
    assert exc.value.required == 8
    monkeypatch.setattr(graph, "DEFAULT_CYCLE_CAP", 8)
    assert len(eulerian_masks(k4)) == 7


def test_family_cycle():
    G = build_family("cycle", [4])
    assert G.n == 4
    assert G.edges == ((1, 2), (2, 3), (3, 4), (4, 1))


def test_family_complete_bipartite():
    G = build_family("complete_bipartite", [2, 3])
    assert (G.n, G.s) == (5, 6)


def test_family_parallel_is_k23():
    G = build_family("parallel_composition", [2, 2, 2])
    assert (G.n, G.s) == (5, 6)
    deg = {v: 0 for v in range(1, 6)}
    for u, v in G.edges:
        deg[u] += 1
        deg[v] += 1
    assert sorted(deg.values()) == [2, 2, 2, 3, 3]
    assert complete_multipartite_parts(G) == (2, 3)


def test_family_invalid():
    with pytest.raises(InvalidParams):
        build_family("parallel_composition", [1, 1, 2])
    with pytest.raises(InvalidParams):
        build_family("cycle", [2])


@given(
    n=st.integers(min_value=2, max_value=6),
    picks=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_cycle_space_dimension_property(n, picks):
    edges = []
    seen = set()
    for a, b in picks:
        u, v = a % n + 1, b % n + 1
        if u == v or frozenset((u, v)) in seen:
            continue
        seen.add(frozenset((u, v)))
        edges.append((u, v))
    if not edges:
        return
    G = Graph(n, tuple(edges))
    s = summarize(G)
    all_elems = eulerian_subsets(G)
    assert len(all_elems) == 2 ** (G.s - G.n + s.b0) - 1
    assert set(all_elems) == set(eulerian_subsets_brute(G))


def test_graph_file_round_trip(c6):
    text = format_graph(c6)
    assert parse_graph(text) == c6
    with_comments = "# hexagon\n" + text
    assert parse_graph(with_comments) == c6


_tokens = st.one_of(st.sampled_from(["x", "#", "1.5", "-1", "0", "", "\t"]),
                   st.integers(-2, 6).map(str))
_graph_texts = st.one_of(
    st.text(),
    st.lists(st.lists(_tokens, max_size=4).map(" ".join), max_size=6).map("\n".join),
)


@given(text=_graph_texts)
@settings(max_examples=300, deadline=None)
def test_parse_graph_parses_or_refuses(text):
    # Any text is a graph, a grammar error (ValueError) or a well-formed
    # file that is no simple graph (InvalidParams); nothing else escapes.
    try:
        G = parse_graph(text)
    except (ValueError, InvalidParams):
        return
    assert parse_graph(format_graph(G)) == G


def test_recognizers(c6, k4):
    assert parallel_paths(c6) == [1, 5]
    assert parallel_paths(build_family("cycle", [5])) == [1, 4]
    assert complete_multipartite_parts(k4) == (1, 1, 1, 1)
    assert complete_multipartite_parts(build_family("complete_bipartite", [3, 2])) == (2, 3)
    assert complete_multipartite_parts(build_family("complete_multipartite", [2, 2, 2])) == (2, 2, 2)
    assert complete_multipartite_parts(build_family("path", [1])) == (1, 1)
    assert complete_multipartite_parts(c6) is None


def _relabel(draw, G):
    """G with its vertices relabelled, the ends of each edge swapped at
    random and the edges shuffled."""
    label = draw(st.permutations(range(1, G.n + 1)))
    edges = [(label[u - 1], label[v - 1])[::draw(st.sampled_from([1, -1]))]
             for u, v in G.edges]
    return Graph(G.n, tuple(draw(st.permutations(edges))))


@st.composite
def relabelled_compositions(draw):
    """Path lengths and their parallel composition, 3 to 5 paths of lengths
    1 to 6 (at most one of length 1), relabelled."""
    ks = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5)
              .filter(lambda ks: ks.count(1) <= 1))
    return ks, _relabel(draw, build_family("parallel_composition", ks))


@given(case=relabelled_compositions())
@settings(max_examples=200, deadline=None)
def test_parallel_paths_reads_the_lengths(case):
    ks, G = case
    assert parallel_paths(G) == sorted(ks)


@st.composite
def relabelled_cycles(draw):
    """A cycle C_l, 3 <= l <= 12, relabelled."""
    return _relabel(draw, build_family("cycle", [draw(st.integers(3, 12))]))


@given(G=relabelled_cycles())
@settings(max_examples=100, deadline=None)
def test_parallel_paths_reads_a_cycle_as_two_paths(G):
    # No vertex has degree 3: the first edge is one path, the rest the other.
    assert parallel_paths(G) == [1, G.n - 1]


def test_parallel_paths_refuses_other_graphs(k4):
    theta = build_family("parallel_composition", [2, 2, 3])  # hubs 1 and 2
    n = theta.n
    for G in (
        k4,  # four hubs
        two_triangles(),  # two cycles, no hub
        Graph(4, ((1, 2), (2, 3), (3, 1))),  # a triangle and an isolated vertex
        Graph(5, ((1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1))),  # one hub
        Graph(n + 1, theta.edges + ((1, n + 1),)),  # a pendant edge at a hub
        Graph(n + 1, theta.edges + ((3, n + 1),)),  # a pendant edge inside a path
        Graph(n + 1, theta.edges),  # an isolated vertex
        Graph(n + 2, theta.edges + ((1, n + 1), (n + 1, n + 2), (n + 2, 1))),  # a loop at a hub
        Graph(n + 3, theta.edges + ((n + 1, n + 2), (n + 2, n + 3), (n + 3, n + 1))),  # a triangle apart
    ):
        assert parallel_paths(G) is None, G


def _multipartite_by_complement(G):
    """Part sizes when the complement of G is a disjoint union of r >= 2
    cliques, else None: the closed complement neighbourhoods must be equal
    or disjoint, and are then the cliques."""
    present = {frozenset(e) for e in G.edges}
    closed = [frozenset(u for u in range(1, G.n + 1) if frozenset((u, v)) not in present)
              for v in range(1, G.n + 1)]  # v itself included
    if any(a != b and a & b for a in closed for b in closed):
        return None
    parts = set(closed)
    return tuple(sorted(map(len, parts))) if len(parts) >= 2 else None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))))


@st.composite
def near_multipartite_graphs(draw):
    """A complete multipartite graph of 2 to 4 parts of 1 to 3 vertices,
    relabelled, unchanged or with one edge removed or added inside a part."""
    parts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    G = _relabel(draw, build_family("complete_multipartite", parts))
    present = {frozenset(e) for e in G.edges}
    missing = [e for e in combinations(range(1, G.n + 1), 2) if frozenset(e) not in present]
    change = draw(st.sampled_from(["none", "remove", "add"] if missing else ["none", "remove"]))
    edges = list(G.edges)
    if change == "remove" and len(edges) > 1:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif change == "add":
        edges.append(draw(st.sampled_from(missing)))
    return Graph(G.n, tuple(edges))


@given(G=st.one_of(small_graphs(), near_multipartite_graphs()))
@example(G=build_family("complete_multipartite", [1, 2, 3]))
@example(G=build_family("complete", [3]))
@example(G=build_family("complete_bipartite", [1, 4]))
@example(G=Graph(4, ((1, 2), (1, 3), (2, 3))))  # K_3 and an isolated vertex
@example(G=Graph(6, ((1, 2),)))  # four isolated vertices
@settings(max_examples=300, deadline=None)
def test_complete_multipartite_matches_complement_cliques(G):
    # Neighbourhood classes against the definition: the complement is a
    # disjoint union of cliques, the parts; None otherwise.
    assert complete_multipartite_parts(G) == _multipartite_by_complement(G)


_FAMILY_PARAMS = {
    "path": [[k] for k in range(1, 7)],
    "cycle": [[l] for l in range(3, 9)],
    "complete": [[n] for n in range(2, 7)],
    "complete_bipartite": [[a, b] for a in range(1, 4) for b in range(1, 5)],
    "complete_multipartite": [[1, 1], [1, 2, 3], [2, 2, 2], [1, 1, 1, 1], [3, 1, 2, 1], [2, 2, 2, 2]],
    "parallel_composition": [[1, 2], [2, 2], [1, 2, 2], [2, 2, 2], [2, 2, 3], [2, 2, 2, 2], [3, 3, 3]],
}


@pytest.mark.parametrize("family", sorted(_FAMILY_PARAMS))
def test_complete_multipartite_parts_of_every_family(family):
    # Every built-in family, the degree refusal included, against the
    # definition: K_{1,1} = P_1, C_4 = K_{2,2}, P_2 = K_{1,2} and
    # Pc(2, .., 2) = K_{2,r} are multipartite; other paths, cycles and
    # compositions are not.
    for params in _FAMILY_PARAMS[family]:
        G = build_family(family, params)
        assert complete_multipartite_parts(G) == _multipartite_by_complement(G), (family, params)


def test_complete_multipartite_refuses_a_long_cycle_from_degrees(monkeypatch):
    # Every vertex of C_200000 has degree 2, and 200000 is no multiple of
    # the part size n - 2 it would need: refused before any adjacency.
    G = build_family("cycle", [200000])

    def no_adjacency(self):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(Graph, "adjacency", no_adjacency)
    assert complete_multipartite_parts(G) is None
