import io
import json
import random
import time
import tracemalloc
from itertools import combinations_with_replacement
from math import comb

import pytest

from conftest import double_the_grid
from graphcodes import codes, eulerian3, formulas, hilbert, toric
from graphcodes import graph as graphmod
from graphcodes.cli import run_command
from graphcodes.eulerian3 import dim_ternary
from graphcodes.formulas import k_formula
from graphcodes.gfq import make_field
from graphcodes.graph import build_family, parse_graph, summarize
from graphcodes.toric import expected_length, parameterize
from graphcodes.verify import verify


def run(argv):
    out = io.StringIO()
    status = run_command(argv, out=out)
    return status, out.getvalue()


def test_length_hexagon_gf5():
    status, text = run(["length", "--family", "cycle", "--params", "6", "--q", "5"])
    assert status == 0
    assert text.strip() == "256"


def test_length_past_the_source_torus():
    # 242^3 source tuples were refused at the default cap; X has 242^2 points.
    status, text = run(["length", "--family", "cycle", "--params", "4", "--q", "243",
                        "--json"])
    assert status == 0
    assert json.loads(text)["length"] == 242**2


def test_length_counts_distinct_points(monkeypatch):
    # A faulty grid whose embedding is doubled keeps the group order, but
    # its 256 cells, on axes of order 4, map onto 16 points: the length
    # subcommand refuses it, and verify fails its length row and stops
    # there, since the Hilbert function of the grid stalls at 16.
    double_the_grid(monkeypatch)
    status, text = run(["length", "--family", "cycle", "--params", "6", "--q", "5",
                        "--json"])
    assert status == 1
    assert json.loads(text)["error"] == {
        "type": "LengthMismatch",
        "message": "counted 16 distinct points but the length formula gives 256",
    }
    report = verify(build_family("cycle", [6]), 5, 1)
    assert not report["ok"] and report["regularity"] is None
    assert report["rows"] == [{"check": "length", "expected": 256, "actual": 16,
                               "status": "FAIL"}]


def test_dim_hexagon_ternary():
    status, text = run(
        ["dim", "--family", "cycle", "--params", "6", "--q", "3", "--d", "2"]
    )
    assert status == 0
    assert text.strip() == "16"


def test_mindist_hexagon_within_paper_bounds():
    status, text = run(
        ["mindist", "--family", "cycle", "--params", "6", "--q", "5", "--d", "1"]
    )
    assert status == 0
    assert 144 <= int(text.strip()) <= 192


def test_reg_and_ternary_agree():
    status, text = run(["reg", "--family", "cycle", "--params", "6", "--q", "3"])
    assert (status, text.strip()) == (0, "2")
    status, text = run(
        ["ternary", "reg", "--family", "cycle", "--params", "6", "--json"]
    )
    assert status == 0
    assert json.loads(text)["reg"] == 2


def test_ternary_joins_and_basis():
    status, text = run(
        ["ternary", "joins", "--family", "cycle", "--params", "4", "--d", "2", "--json"]
    )
    assert status == 0
    assert json.loads(text)["joins"] == [[1, 4], [2, 4], [3, 4]]
    status, text = run(
        ["ternary", "basis", "--family", "cycle", "--params", "4", "--d", "2"]
    )
    assert status == 0
    assert set(text.split()) == {"t1*t4", "t2*t4", "t3*t4"}


def test_ternary_reg_witness_k6():
    # The first deepest member of J in depth-first preorder.
    status, text = run(["ternary", "reg", "--family", "complete", "--params", "6", "--json"])
    assert status == 0
    payload = json.loads(text)
    assert (payload["mu"], payload["reg"], payload["witness"]) == (4, 3, [1, 12, 14, 15])


@pytest.mark.parametrize("op, required", [
    ("dim", k_formula(40, 20, 3)),
    ("joins", comb(40, 20)),
    ("basis", comb(40, 20)),
])
def test_ternary_scans_refused_before_they_start(op, required):
    # A path has only free edges: the walk visits the empty set, the
    # dimension counts the sets of free edges, and a listing of C(40, 20)
    # of them is refused before it starts.
    status, text = run(["ternary", op, "--family", "path", "--params", "40",
                        "--d", "20", "--json"])
    if op == "dim":
        assert (status, json.loads(text)["dim"]) == (0, required)
        return
    assert status == 3
    error = json.loads(text)["error"]
    assert (error["type"], error["required"]) == ("CapExceeded", required)


@pytest.mark.parametrize("argv, value", [
    (["ternary", "dim", "--d", "4"], 64),
    (["ternary", "dim", "--d", "5"], 64),
    (["ternary", "basis", "--d", "4"], None),
    (["verify", "--q", "3", "--dmax", "4"], True),
])
def test_ternary_theory_on_k7(argv, value):
    # At most 2|X| = 128 members of J; the subset scans refused these.
    status, text = run(argv + ["--family", "complete", "--params", "7", "--json"])
    assert status == 0
    payload = json.loads(text)
    if argv[1] == "dim":
        assert payload["dim"] == value
    elif argv[1] == "basis":
        assert len(payload["basis"]) == dim_ternary(build_family("complete", [7]), 4) \
            - dim_ternary(build_family("complete", [7]), 2)
    else:
        assert payload["ok"] is value


def test_ternary_reg_refused_from_the_length_of_x():
    # C_40 has |X| = 2^38 and no free edge, so the walk needs 2^39 members:
    # refused before it starts.
    start = time.perf_counter()
    status, text = run(["ternary", "reg", "--family", "cycle", "--params", "40", "--json"])
    assert time.perf_counter() - start < 1
    assert status == 3
    assert json.loads(text)["error"]["required"] == 2**39


def test_ternary_reg_path_past_the_search_cap():
    # 2^40 subsets, but the bound cut ends the search after the first descent.
    status, text = run(["ternary", "reg", "--family", "path", "--params", "40", "--json"])
    assert status == 0
    assert json.loads(text)["mu"] == 40


def test_family_emits_parseable_graph(tmp_path):
    status, text = run(["family", "--family", "complete_bipartite", "--params", "2", "3"])
    assert status == 0
    G = parse_graph(text)
    assert (G.n, G.s) == (5, 6)
    # And the file feeds back into other commands.
    path = tmp_path / "k23.graph"
    path.write_text(text)
    status, text = run(["length", "--graph", str(path), "--q", "3"])
    assert (status, text.strip()) == (0, "8")


def test_summarize_output():
    status, text = run(["summarize", "--family", "cycle", "--params", "5", "--json"])
    assert status == 0
    data = json.loads(text)
    assert data["schema"] == 1
    assert (data["b0"], data["bipartite"], data["gamma"]) == (1, False, 1)


def test_budget_refusal_exit_code():
    status, text = run(
        ["mindist", "--family", "cycle", "--params", "6", "--q", "5",
         "--d", "1", "--budget", "10"]
    )
    assert status == 3
    assert "required" in text


@pytest.mark.parametrize("argv, status, plain, error", [
    (["length", "--family", "cycle", "--params", "3", "--q", "257"], 1,
     "error: UnsupportedField: q = 257 exceeds the supported maximum 256\n",
     {"type": "UnsupportedField", "message": "q = 257 exceeds the supported maximum 256"}),
    (["dim", "--family", "cycle", "--params", "4", "--q", "3", "--d", "-1"], 2,
     "usage error: --d must be non-negative\n",
     {"type": "UsageError", "message": "--d must be non-negative"}),
    (["mindist", "--family", "cycle", "--params", "6", "--q", "5", "--d", "1",
      "--budget", "10"], 3,
     "refused: 1346 message classes required, budget is 10 (required: 1346)\n",
     {"type": "BudgetExceeded", "message": "1346 message classes required, budget is 10",
      "required": 1346}),
])
def test_errors_as_text_and_json(argv, status, plain, error):
    assert run(argv) == (status, plain)
    json_status, text = run(argv + ["--json"])
    assert json_status == status
    assert json.loads(text) == {"schema": 1, "error": error}


def test_generator_cap_is_a_refusal():
    # C3 over GF(256) at d = 20: 231 characters on 65025 points, past the
    # default generator cap, refused before the search or any allocation.
    X = parameterize(build_family("cycle", [3]), make_field(256))
    required = hilbert.dimension(X, 20) * X.m
    assert required > codes.DEFAULT_CELL_CAP
    status, text = run(["mindist", "--family", "cycle", "--params", "3",
                        "--q", "256", "--d", "20", "--json"])
    assert status == 3
    assert json.loads(text)["error"] == {
        "type": "CapExceeded", "required": required,
        "message": f"generator needs {required} cells, cap is {codes.DEFAULT_CELL_CAP}",
    }


def test_verify_generator_cap_is_a_refusal(monkeypatch):
    # C3 over GF(256) with a budget of 10 classes: d = 1..16 are skipped by
    # the budget, and d = 17 (171 characters on 65025 points) exceeds the
    # default generator cap, which stops verify with exit 3.  Nothing is
    # built for any of these degrees.
    X = parameterize(build_family("cycle", [3]), make_field(256))
    required = hilbert.dimension(X, 17) * X.m
    assert hilbert.dimension(X, 16) * X.m <= codes.DEFAULT_CELL_CAP < required
    builds = []
    monkeypatch.setattr(codes, "characters", lambda *args: builds.append(args))
    status, text = run(["verify", "--family", "cycle", "--params", "3",
                        "--q", "256", "--dmax", "17", "--budget", "10", "--json"])
    assert status == 3 and builds == []
    assert json.loads(text)["error"] == {
        "type": "CapExceeded", "required": required,
        "message": f"generator needs {required} cells, cap is {codes.DEFAULT_CELL_CAP}",
    }
    report = verify(build_family("cycle", [3]), 256, 16, budget=10)
    assert report["schema"] == 1 and report["ok"] and builds == []
    # Brouwer-Zimmermann's message counts, each below the (256^k - 1) / 255
    # classes of an exhaustive search; d = 1 needs the 3 + 3 * 255 messages
    # of weight <= 2.
    needed = []
    for d in range(1, 17):
        k = hilbert.dimension(X, d)
        needed.append(codes._bz_messages(k, X.m, 256, codes._griesmer(k, X.m, 256) + 1))
    assert needed[0] == 768
    assert all(n < (256 ** hilbert.dimension(X, d) - 1) // 255 for d, n in enumerate(needed, 1))
    assert [r["status"] for r in report["rows"] if r["check"] == "mindist brute force"] == [
        f"SKIPPED(requires {n})" for n in needed
    ]


def test_usage_errors():
    status, _ = run(["dim", "--family", "cycle", "--params", "6", "--q", "3"])  # no --d
    assert status == 2
    status, text = run(["dim", "--q", "3", "--d", "1"])  # no graph source
    assert status == 2


@pytest.mark.parametrize("argv", [
    ["dim", "--family", "cycle", "--params", "4", "--q", "3", "--d", "-1"],
    ["length", "--family", "cycle", "--params", "4", "--q", "3", "--seed-order", "a,b"],
    ["length", "--graph", "/nonexistent/graph.txt", "--q", "3"],
    ["length", "--graph", "{bad_header}", "--q", "3"],
    ["length", "--graph", "{one_token_header}", "--q", "3"],
    ["length", "--graph", "{empty}", "--q", "3"],
    ["length", "--graph", "{edge_count}", "--q", "3"],
    ["length", "--graph", "{three_token_edge}", "--q", "3"],
    ["ternary", "dim", "--family", "cycle", "--params", "4", "--d", "-1"],
    ["profile", "--family", "cycle", "--params", "4", "--q", "3", "--dmax", "-1"],
    ["verify", "--family", "cycle", "--params", "4", "--q", "3", "--dmax", "-1"],
    ["length", "--family", "cycle", "--params", "4", "--q", "3", "--cap", "-1"],
    ["mindist", "--family", "cycle", "--params", "4", "--q", "3", "--d", "1",
     "--budget", "-1"],
    ["length", "--family", "cycle", "--params", "4", "--q", "3", "--seed-order", "1,1,2,3"],
])
def test_bad_input_is_a_usage_error(argv, tmp_path):
    # Every grammar error in a graph file is a usage error.
    files = {
        "bad_header": "3 x\n1 2\n",
        "one_token_header": "3\n1 2\n",
        "empty": "# nothing but a comment\n",
        "edge_count": "3 2\n1 2\n",
        "three_token_edge": "3 1\n1 2 3\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.graph"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    status, text = run(argv)
    assert status == 2
    assert text.startswith("usage error: ")


@pytest.mark.parametrize("text", ["3 1\n2 2\n", "3 2\n1 2\n2 1\n", "3 1\n1 4\n"],
                         ids=["loop", "duplicate", "out-of-range"])
def test_graph_file_that_is_no_simple_graph_is_an_error(text, tmp_path):
    # Well-formed files that are not simple graphs stay InvalidParams (exit 1).
    path = tmp_path / "bad.graph"
    path.write_text(text)
    status, out = run(["length", "--graph", str(path), "--q", "3"])
    assert status == 1
    assert out.startswith("error: InvalidParams: ")


def test_seed_order_invariance():
    base = ["--family", "cycle", "--params", "6", "--q", "3"]
    perm = ["--seed-order", "4,2,6,1,3,5"]
    for cmd, extra in (
        (["length"], []),
        (["dim"], ["--d", "2"]),
        (["reg"], []),
        (["mindist"], ["--d", "1"]),
    ):
        _, a = run(cmd + base + extra)
        _, b = run(cmd + base + extra + perm)
        assert a == b


def test_repeated_runs_identical():
    argv = ["profile", "--family", "cycle", "--params", "4", "--q", "5",
            "--dmax", "3", "--json"]
    assert run(argv) == run(argv)


def test_mindist_invariant_under_repeat_and_reorder():
    argv = ["mindist", "--family", "cycle", "--params", "6", "--q", "5", "--d", "1"]
    first = run(argv)
    assert first == (0, "186\n")
    assert run(argv) == first
    assert run(argv + ["--seed-order", "6,5,4,3,2,1"]) == first


@pytest.mark.parametrize("family, params, message", [
    ("cycle", [], "cycle takes 1 parameter, got 0"),
    ("path", [2, 3], "path takes 1 parameter, got 2"),
    ("complete", [], "complete takes 1 parameter, got 0"),
    ("complete_bipartite", [2], "complete_bipartite takes 2 parameters, got 1"),
    ("complete_multipartite", [2], "complete_multipartite takes at least 2 parameters, got 1"),
    ("parallel_composition", [], "parallel_composition takes at least 2 parameters, got 0"),
])
def test_family_names_the_parameter_count(family, params, message):
    argv = ["length", "--family", family, "--q", "3"]
    if params:
        argv += ["--params", *map(str, params)]
    assert run(argv) == (2, f"usage error: {message}\n")


def test_verify_builds_one_code_per_degree(monkeypatch):
    # A degree builds at most one matrix, the side it enumerates, and none
    # when it is refused, when k = m, or at d = 0 (k = 1, distance m).
    degrees, builds = [], []
    real_distance, real_characters = codes.code_distance, codes.characters

    def distance(inst, **kwargs):
        degrees.append(inst.d)
        return real_distance(inst, **kwargs)

    def characters(X, S):
        builds.append(degrees[-1])
        return real_characters(X, S)

    monkeypatch.setattr(codes, "code_distance", distance)
    monkeypatch.setattr(codes, "characters", characters)
    report = verify(build_family("cycle", [6]), 3, 4)
    assert report["ok"] and report["regularity"] == 2
    assert degrees == [0, 1, 2, 3, 4] and builds == [1]
    degrees.clear()
    builds.clear()
    report = verify(build_family("cycle", [6]), 5, 1, budget=10)
    assert report["ok"] and degrees == [0, 1] and builds == []
    degrees.clear()
    X = parameterize(build_family("complete_bipartite", [2, 3]), make_field(4))
    assert hilbert.hilbert_function(X) == [1, 6, 18, 24, 27]
    assert len(codes.distance_profile(X, 3)) == 4
    assert degrees == [0, 1, 2, 3] and builds == [1, 2, 3]


@pytest.mark.parametrize("d_max", [0, 2, 6])
def test_profile_and_verify_take_one_sumset_pass(monkeypatch, d_max):
    # The profile reads every degree from one pass of the sumset.  Verify
    # reads the regularity index from the same pass when d_max reaches the
    # plateau (reg = 2 here), and adds a second pass only when it does not.
    starts = []
    real_sumsets = hilbert._sumsets

    def sumsets(X):
        starts.append(X.m)
        return real_sumsets(X)

    monkeypatch.setattr(hilbert, "_sumsets", sumsets)
    X = parameterize(build_family("cycle", [6]), make_field(3))
    dims = [1, 6, 16, 16, 16, 16, 16]
    assert [r.dim for r in codes.distance_profile(X, d_max)] == dims[: d_max + 1]
    assert len(starts) == 1
    starts.clear()
    assert verify(build_family("cycle", [6]), 3, d_max)["ok"]
    assert len(starts) == (1 if d_max >= 2 else 2)


@pytest.mark.parametrize("d_max", [0, 3, 40])
def test_verify_walks_j_twice_at_any_dmax(monkeypatch, d_max):
    # At q = 3 the ternary dimension of every degree comes from one walk of
    # J up to d_max, and the maximum parity join from one more.
    walks = []
    real_walk = eulerian3._walk

    def walk(G, d):
        walks.append(d)
        return real_walk(G, d)

    monkeypatch.setattr(eulerian3, "_walk", walk)
    assert verify(build_family("cycle", [6]), 3, d_max)["ok"]
    assert sorted(walks) == sorted([d_max, 6])


def test_planted_law_violation_fails(monkeypatch):
    # The torus of P^1 over GF(5) is MDS at d = 1: delta = 3 = m - k + 1.
    # One more breaks the Singleton bound and the decrease from delta(0) = 4.
    real_distance = codes.code_distance

    def distance(inst, **kwargs):
        return real_distance(inst, **kwargs) + (inst.d == 1)

    monkeypatch.setattr(codes, "code_distance", distance)
    G = build_family("path", [2])
    report = verify(G, 5, 3)
    assert not report["ok"]
    assert {(r["check"], r["d"]) for r in report["rows"] if r["status"] == "FAIL"} == {
        ("singleton bound", 1), ("strict decrease", 1), ("mindist torus formula", 1),
    }
    status, text = run(["verify", "--family", "path", "--params", "2", "--q", "5",
                        "--dmax", "3"])
    assert status == 1 and text.endswith("FAILED (length=4, reg=3)\n")
    with pytest.raises(AssertionError, match="singleton bound fails at d=1"):
        codes.distance_profile(parameterize(G, make_field(5)), 3)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("source", ["family", "file"])
def test_verify_one_edge_graphs(q, source, tmp_path):
    # s = 1: X is the one point of the torus of P^0, where the minimum
    # distance closed form is not defined.
    if source == "family":
        graph = ["--family", "path", "--params", "1"]
    else:
        path = tmp_path / "one-edge.graph"
        path.write_text("3 1\n1 2\n")
        graph = ["--graph", str(path)]
    status, text = run(["verify", *graph, "--q", str(q), "--dmax", "2", "--json"])
    assert status == 0
    report = json.loads(text)
    assert report["ok"] is True and report["length"] == 1


def test_untouched_vertices_are_counted_not_stored(tmp_path):
    # 10^7 vertices and one edge: every vertex but two is a component of its
    # own, which no subcommand stores or scans.
    path = tmp_path / "sparse.graph"
    path.write_text("10000000 1\n1 2\n")
    cases = [
        (["summarize"], "b0", 9_999_999),
        (["length", "--q", "5"], "length", 1),
        (["reg", "--q", "5"], "reg", 0),
        (["ternary", "dim", "--d", "1"], "dim", 1),
        (["verify", "--q", "3", "--dmax", "1"], "ok", True),
    ]
    tracemalloc.start()
    try:
        for argv, key, value in cases:
            status, text = run(argv + ["--graph", str(path), "--json"])
            assert (status, json.loads(text)[key]) == (0, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_verify_json_round_trips():
    status, text = run(
        ["verify", "--family", "complete_bipartite", "--params", "2", "3",
         "--q", "3", "--dmax", "3", "--json"]
    )
    assert status == 0
    report = json.loads(text)
    assert report == json.loads(json.dumps(report))
    assert report["ok"] is True
    assert all(r["status"] != "FAIL" for r in report["rows"])


def test_verify_k3_nonbipartite_rows():
    report = verify(build_family("cycle", [3]), 5, 3)
    checks = {r["check"] for r in report["rows"]}
    assert "non-bipartite lower bound" in checks
    assert report["ok"]


def test_verify_checks_every_parallel_composition():
    # Every composition of 2 to 4 paths of lengths 1 to 5 (at most one of
    # length 1) with |X| <= 10^4 over GF(q), q <= 7, each under a seeded edge
    # order.  Two paths are the cycle C_l, which parallel_paths reads as
    # lengths 1 and l - 1 whatever the split.  The rows checked here read
    # only the regularity index, so d_max = 0.
    start = time.perf_counter()
    cases = 0
    for r in (2, 3, 4):
        for ks in combinations_with_replacement(range(1, 6), r):
            if ks.count(1) > 1:
                continue
            G = build_family("parallel_composition", list(ks))
            uniform = len({k % 2 for k in ks}) == 1
            for q in (2, 3, 4, 5, 7):
                if expected_length(summarize(G), make_field(q)) > 10**4:
                    continue
                perm = random.Random(repr((ks, q))).sample(range(1, G.s + 1), G.s)
                report = verify(G.reorder_edges(perm), q, 0)
                assert report["ok"], (ks, q)
                checks = [row["check"] for row in report["rows"]]
                assert checks.count("reg parallel composition") == (q > 2)
                assert checks.count("reg nested ears") == (q > 2 and uniform)
                assert checks.count("mu parallel") == checks.count("mu nested ears") == \
                    (q == 3 and uniform)
                cases += 1
    assert cases == 296
    assert time.perf_counter() - start < 2


def test_verify_bipartite_bounds_read_the_sides(monkeypatch):
    # The two sides of a connected bipartite graph come from the coloring of
    # verify's one forest pass; the bounds need both of size at least 2.
    sides = []
    real_bounds = formulas.mindist_bipartite_bounds

    def bounds(a, b, d, q):
        sides.append((a, b))
        return real_bounds(a, b, d, q)

    monkeypatch.setattr(formulas, "mindist_bipartite_bounds", bounds)
    for family, params, expected in (("path", [4], [(3, 2)] * 2),
                                     ("complete_bipartite", [1, 3], [])):
        report = verify(build_family(family, params), 5, 2)
        rows = [row["status"] for row in report["rows"] if row["check"] == "bipartite bounds"]
        assert report["ok"] and sides == expected and rows == ["PASS"] * len(expected)
        sides.clear()


def test_verify_walks_the_graph_twice(monkeypatch):
    # Once for verify's own reading of the graph, once in parameterize.
    # verify's walk and `parallel_paths` share one adjacency, so over GF(2),
    # where parameterize walks nothing, a cycle's adjacency is built once.
    calls = []
    real_forest = graphmod._forest

    def forest(G, adj=None):
        calls.append(G.s)
        return real_forest(G, adj)

    monkeypatch.setattr(graphmod, "_forest", forest)
    monkeypatch.setattr(toric, "_forest", forest)
    assert verify(build_family("complete_bipartite", [2, 3]), 4, 2)["ok"]
    assert calls == [6, 6]
    built = []
    real_adjacency = graphmod.Graph.adjacency

    def adjacency(G):
        built.append(G.s)
        return real_adjacency(G)

    monkeypatch.setattr(graphmod.Graph, "adjacency", adjacency)
    assert verify(build_family("cycle", [8]), 2, 0)["ok"]
    assert built == [8]


def test_verify_mu_rows_of_the_complete_families():
    for family, params, check in (("complete", [4], "mu complete"),
                                  ("complete_bipartite", [1, 3], "mu complete bipartite"),
                                  ("complete_bipartite", [3, 3], "mu complete bipartite"),
                                  ("complete_multipartite", [1, 1, 2], "mu complete multipartite"),
                                  ("complete_multipartite", [2, 2, 2], "mu complete multipartite")):
        G = build_family(family, params)
        rows = [row for row in verify(G, 3, 1)["rows"] if row["check"] == check]
        assert [row["status"] for row in rows] == ["PASS"]
        assert not any(row["check"].startswith("mu ") for row in verify(G, 4, 1)["rows"])
    for G in (build_family("complete", [3]), build_family("complete_multipartite", [1, 1, 1])):
        assert not any(row["check"].startswith("mu ") for row in verify(G, 3, 1)["rows"])


def test_verify_skips_over_budget_rows():
    report = verify(build_family("cycle", [6]), 5, 1, budget=10)
    skipped = [r for r in report["rows"] if r["status"].startswith("SKIPPED")]
    assert skipped
    assert report["ok"]  # skipped is not a failure
