import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import assert_value_type, eulerian_subsets_brute, two_triangles
from graphcodes import eulerian3, graph
from graphcodes.errors import (
    CapExceeded,
    GraphCodesError,
    InvalidParams,
    NotADecomposition,
    NotNested,
    NotOpen,
)
from graphcodes.graph import (
    Graph,
    build_family,
    complete_multipartite_parts,
    eulerian_masks,
    format_graph,
    is_even_cycle,
    mask_subset,
    parse_graph,
    summarize,
    validate_ear_decomposition,
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


def test_graph_types_are_immutable_values(c4):
    G = build_family("path", [2])
    assert repr(G) == "Graph(n=3, edges=((1, 2), (2, 3)))"
    assert_value_type(G, Graph(3, [[1, 2], [2, 3]]), "n", "edges")
    assert G != Graph(3, ((2, 3), (1, 2)))  # the edge order is part of the value
    assert_value_type(summarize(G), summarize(build_family("path", [2])),
                      "n", "s", "b0", "bipartite", "gamma")
    ears = [[1, 2, 3, 4, 1]]
    assert_value_type(validate_ear_decomposition(c4, ears), validate_ear_decomposition(c4, ears),
                      "ears", "epsilon")


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


def test_ear_decomposition_single_cycle(c4):
    dec = validate_ear_decomposition(c4, [[1, 2, 3, 4, 1]])
    assert dec.epsilon == 1


def test_ear_decomposition_parallel():
    G = build_family("parallel_composition", [2, 2, 2])
    # Paths are 1-3-2, 1-4-2, 1-5-2; first ear is the cycle through two of them.
    dec = validate_ear_decomposition(G, [[1, 3, 2, 4, 1], [1, 5, 2]])
    assert dec.epsilon == 2


def test_ear_decomposition_not_partition(c4):
    with pytest.raises(NotADecomposition):
        validate_ear_decomposition(c4, [[1, 2, 3, 4, 1], [1, 2]])


def test_ear_decomposition_not_open():
    G = build_family("parallel_composition", [2, 2, 2])
    # Second ear ends on its own fresh vertex.
    with pytest.raises(NotOpen):
        validate_ear_decomposition(G, [[1, 3, 2, 4, 1], [1, 5], [5, 2]])


def test_ear_decomposition_nest_interval_required():
    # Theta graph plus an ear whose endpoints sit on two different ears.
    G = Graph(
        6,
        (
            (1, 3), (3, 2),  # path A
            (1, 4), (4, 2),  # path B
            (1, 5), (5, 2),  # path C
            (3, 6), (6, 5),  # ear between internals of A and C
        ),
    )
    with pytest.raises(NotNested):
        validate_ear_decomposition(
            G, [[1, 3, 2, 4, 1], [1, 5, 2], [3, 6, 5]]
        )


def _cycle_with_chords(length, chords):
    """The cycle 1, ..., length with the given chords, and its ears: the
    cycle, then each chord as an ear of one edge."""
    cycle = [(i, i + 1) for i in range(1, length)] + [(length, 1)]
    ears = [list(range(1, length + 1)) + [1]] + [list(chord) for chord in chords]
    return Graph(length, tuple(cycle + chords)), ears


def test_ear_decomposition_crossing_chords_are_not_nested():
    # Two crossing chords and 20 chords that cross nothing, 74 edges: each
    # of the 2^22 choices of arcs crosses on its first two intervals, which
    # one pass over the intervals finds.
    chords = [(1, 3), (2, 4)] + [(i, i + 2) for i in range(6, 46, 2)]
    G, ears = _cycle_with_chords(52, chords)
    assert G.s == 74
    start = time.perf_counter()
    with pytest.raises(NotNested, match="neither disjoint nor nested"):
        validate_ear_decomposition(G, ears)
    assert time.perf_counter() - start < 0.1


def test_ear_decomposition_found_early_passes_the_cap():
    # 40 chords that cross nothing, each with two arcs to choose from.
    G, ears = _cycle_with_chords(84, [(i, i + 2) for i in range(2, 82, 2)])
    assert validate_ear_decomposition(G, ears).epsilon == 1


def test_ear_decomposition_thousand_chords():
    # 1,000 chords that cross nothing, on a cycle of 2,004: one interval
    # each, and one sorted pass over them.
    G, ears = _cycle_with_chords(2004, [(i, i + 2) for i in range(2, 2002, 2)])
    assert G.s == 3004
    start = time.perf_counter()
    assert validate_ear_decomposition(G, ears).epsilon == 1
    assert time.perf_counter() - start < 0.2


@st.composite
def ear_lists(draw):
    """A graph and a list of vertex paths for it: a cycle, then ears between
    earlier vertices, often the endpoints of an earlier ear (an ear with
    several hosts), and at times an edit that makes the list no
    decomposition: a swap of two ears, a dropped ear or an ear cut in two."""
    length = draw(st.integers(3, 7))
    ears = [list(range(1, length + 1)) + [1]]
    edges = {frozenset(e) for e in zip(ears[0], ears[0][1:])}
    n = length
    for _ in range(draw(st.integers(0, 6))):
        if len(ears) > 1 and draw(st.booleans()):
            host = ears[draw(st.integers(1, len(ears) - 1))]
            a, b = host[0], host[-1]
        else:
            a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        path = [a, *range(n + 1, n + 1 + draw(st.integers(0, 3))), b]
        pairs = {frozenset(e) for e in zip(path, path[1:])}
        if pairs & edges:
            continue
        edges |= pairs
        n = max(n, *path)
        ears.append(path)
    G = Graph(n, tuple(sorted(tuple(sorted(e)) for e in edges)))
    edit = draw(st.sampled_from(["none", "none", "swap", "drop", "cut"]))
    if len(ears) > 1 and edit != "none":
        i = draw(st.integers(1, len(ears) - 1))
        if edit == "swap":
            j = draw(st.integers(0, len(ears) - 1))
            ears[i], ears[j] = ears[j], ears[i]
        elif edit == "drop":
            del ears[i]
        elif len(ears[i]) > 2:
            k = draw(st.integers(1, len(ears[i]) - 2))
            ears[i:i + 1] = [ears[i][:k + 1], ears[i][k:]]
    return G, ears


def _outcome(validate, G, ears):
    try:
        return validate(G, ears)
    except GraphCodesError as exc:
        return type(exc), str(exc)


@given(case=ear_lists())
@example(case=_cycle_with_chords(6, [(1, 3), (2, 4)]))  # crossing chords
@example(case=_cycle_with_chords(8, [(1, 5), (2, 4), (6, 8), (5, 8)]))  # nested arcs
@example(case=(build_family("parallel_composition", [2, 2, 2, 2]),
               [[1, 3, 2, 4, 1], [1, 5, 2], [1, 6, 2]]))  # hosts: the cycle and ear 2
@example(case=(Graph(6, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 3), (2, 6), (6, 4))),
               [[1, 2, 3, 4, 1], [1, 5, 3], [2, 6, 4]]))  # the two ears cross on the cycle
@settings(max_examples=400, deadline=None)
def test_ear_decomposition_matches_search(case):
    # The forced intervals against every choice of intervals: the same
    # decomposition, or the same exception and message.
    G, ears = case
    assert _outcome(validate_ear_decomposition, G, ears) == \
        _outcome(oracle.validate_ear_decomposition, G, ears)


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
    assert is_even_cycle(c6) == 3
    assert is_even_cycle(build_family("cycle", [5])) is None
    assert complete_multipartite_parts(k4) == (1, 1, 1, 1)
    assert complete_multipartite_parts(build_family("complete_bipartite", [3, 2])) == (2, 3)
    assert complete_multipartite_parts(build_family("complete_multipartite", [2, 2, 2])) == (2, 2, 2)
    assert complete_multipartite_parts(build_family("path", [1])) == (1, 1)
    assert complete_multipartite_parts(c6) is None


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


@given(G=small_graphs())
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
