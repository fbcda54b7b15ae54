"""The benchmark's workloads, their jobs and the correctness gate.

Every job names a graph family, a field and a degree.  Its expected answer is
a closed form from ``graphcodes.formulas`` where one applies (a callable that
takes the formulas module) and otherwise the value the package computed when
the benchmark was defined, pinned here.  Every expected answer is independent
of the edge ordering, so any seed-drawn edge permutation must reproduce it.

Each workload has an odd number of jobs, so that with whole passes the
median latency is the median of one job's samples instead of a value
interpolated across the gap between a fast and a slow job.  Why each
workload exists, and which layer metrics it should move, is in NOTES.md
next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    op: str  # "reg", "dim", "mindist" in process; any CLI subcommand for CLI jobs
    family: str
    params: tuple
    expected: object  # pinned value, or callable(formulas) -> value
    q: int | None = None
    d: int | None = None  # the degree; --dmax for profile and verify
    extra: tuple = ()  # further CLI arguments


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool  # jobs run as cold CLI processes instead of in this process
    jobs: tuple

    @property
    def fields(self):
        return sorted({j.q for j in self.jobs if j.q is not None})


def _reg(tag, params, q):
    return lambda fm: fm.reg_closed_form(fm.RegFamily(tag, params), q)


HILBERT = Workload("hilbert", False, (
    Job("reg K4 GF(8)", "reg", "complete", (4,), _reg("complete", (4,), 8), q=8),
    Job("reg K2,3 GF(7)", "reg", "complete_bipartite", (2, 3),
        _reg("complete_bipartite", (2, 3), 7), q=7),
    Job("reg C4 GF(16)", "reg", "cycle", (4,), _reg("even_cycle", (2,), 16), q=16),
    Job("reg K3,3 GF(5)", "reg", "complete_bipartite", (3, 3),
        _reg("complete_bipartite", (3, 3), 5), q=5),
    Job("dim K3,3 GF(8) d=4", "dim", "complete_bipartite", (3, 3),
        lambda fm: fm.dim_complete_bipartite(3, 3, 4, 8), q=8, d=4),
    Job("dim K4 GF(9) d=8", "dim", "complete", (4,), 442, q=9, d=8),
    Job("reg C6 GF(5)", "reg", "cycle", (6,), _reg("even_cycle", (3,), 5), q=5),
))

DISTANCE = Workload("distance", False, (
    # Primal enumeration: non-prime fields take the table-gather path,
    # prime fields the float-matmul path.
    Job("mindist K5 GF(4) d=1", "mindist", "complete", (5,), 36, q=4, d=1),
    Job("mindist K3,3 GF(5) d=1", "mindist", "complete_bipartite", (3, 3),
        lambda fm: fm.mindist_complete_bipartite(3, 3, 1, 5), q=5, d=1),
    Job("mindist K4 GF(9) d=1", "mindist", "complete", (4,), 392, q=9, d=1),
    Job("mindist C6 GF(5) d=1", "mindist", "cycle", (6,), 186, q=5, d=1),
    # Near the plateau the dual is smaller: weight enumeration plus MacWilliams.
    Job("mindist K2,3 GF(4) d=2", "mindist", "complete_bipartite", (2, 3),
        lambda fm: fm.mindist_complete_bipartite(2, 3, 2, 4), q=4, d=2),
    Job("mindist P3 GF(9) d=11", "mindist", "path", (3,),
        lambda fm: fm.mindist_torus_formula(3, 11, 9), q=9, d=11),
    Job("mindist K2,3 GF(7) d=9", "mindist", "complete_bipartite", (2, 3),
        lambda fm: fm.mindist_complete_bipartite(2, 3, 9, 7), q=7, d=9),
))

CLI_MIX = Workload("cli_mix", True, (
    Job("summarize K5", "summarize", "complete", (5,), [1, False, 1]),
    Job("length C4 GF(64)", "length", "cycle", (4,), 63**2, q=64),
    Job("length C4 GF(81)", "length", "cycle", (4,), 80**2, q=81),
    Job("length C4 GF(125)", "length", "cycle", (4,), 124**2, q=125),
    Job("length C4 GF(128)", "length", "cycle", (4,), 127**2, q=128),
    # C4 over GF(243) and GF(256) needs more torus tuples than the default cap.
    Job("length C3 GF(243)", "length", "cycle", (3,), 242**2, q=243),
    Job("length C3 GF(256)", "length", "cycle", (3,), 255**2, q=256),
    Job("length P2 GF(256)", "length", "path", (2,), 255, q=256),
    Job("dim K2,3 GF(7) d=3", "dim", "complete_bipartite", (2, 3),
        lambda fm: fm.dim_complete_bipartite(2, 3, 3, 7), q=7, d=3),
    Job("dim C6 GF(3) d=2", "dim", "cycle", (6,),
        lambda fm: fm.dim_even_cycle_ternary(3, 2), q=3, d=2),
    Job("reg C6 GF(5)", "reg", "cycle", (6,), _reg("even_cycle", (3,), 5), q=5),
    Job("reg K4 GF(7)", "reg", "complete", (4,), _reg("complete", (4,), 7), q=7),
    Job("mindist C6 GF(5) d=1", "mindist", "cycle", (6,), 186, q=5, d=1),
    Job("profile C4 GF(5)", "profile", "cycle", (4,),
        [[1, 16], [4, 9], [9, 4], [16, 1]], q=5, d=3),
    # A small budget refuses d=2 after its generator is built.
    Job("profile K4 GF(4) budget", "profile", "complete", (4,),
        [[1, 27], [6, 12], [19, None], [27, 1]], q=4, d=3,
        extra=("--budget", "2000")),
    Job("ternary dim K4 d=2", "ternary dim", "complete", (4,), 8, d=2),
    Job("ternary reg K6", "ternary reg", "complete", (6,),
        lambda fm: fm.mu_closed_form("complete", (6,))),
    Job("ternary joins C4 d=2", "ternary joins", "cycle", (4,), 3, d=2),
    Job("ternary basis C6 d=2", "ternary basis", "cycle", (6,), 15, d=2),
    Job("family K2,3", "family", "complete_bipartite", (2, 3), [5, 6]),
    Job("verify C6 GF(3)", "verify", "cycle", (6,),
        lambda fm: [True, fm.reg_closed_form(fm.RegFamily("even_cycle", (3,)), 3)],
        q=3, d=3),
    Job("verify K4 GF(5)", "verify", "complete", (4,),
        lambda fm: [True, fm.reg_closed_form(fm.RegFamily("complete", (4,)), 5)],
        q=5, d=3),
    Job("verify K2,3 GF(4)", "verify", "complete_bipartite", (2, 3),
        lambda fm: [True, fm.reg_closed_form(fm.RegFamily("complete_bipartite", (2, 3)), 4)],
        q=4, d=3),
))

WORKLOADS = {w.name: w for w in (HILBERT, DISTANCE, CLI_MIX)}


def expected_value(job, formulas):
    return job.expected(formulas) if callable(job.expected) else job.expected


def gate(job, answer, formulas):
    """True when the job's answer equals its closed form or pinned value."""
    return answer == expected_value(job, formulas)


def run_in_process(job, perm, gc):
    """Answer of an in-process job, calling the package through module
    attributes so that installed trace wrappers see every call."""
    G = gc.graph.build_family(job.family, list(job.params)).reorder_edges(perm)
    X = gc.toric.parameterize(G, gc.gfq.make_field(job.q))
    if job.op == "reg":
        return gc.codes.regularity_index(X)
    if job.op == "dim":
        return gc.codes.dimension(X, job.d)
    if job.op == "mindist":
        return gc.codes.minimum_distance(X, job.d)
    raise ValueError(f"no in-process operation {job.op!r}")


def cli_args(job, perm):
    """CLI arguments (no program name) for a job under an edge permutation."""
    args = job.op.split() + ["--family", job.family, "--params", *map(str, job.params),
                             "--seed-order", ",".join(map(str, perm))]
    if job.q is not None:
        args += ["--q", str(job.q)]
    if job.d is not None:
        args += ["--dmax" if job.op in ("profile", "verify") else "--d", str(job.d)]
    args += list(job.extra)
    if job.op != "family":  # family always prints the graph file format
        args.append("--json")
    return args


_ANSWERS = {
    "summarize": lambda p: [p["b0"], p["bipartite"], p["gamma"]],
    "length": lambda p: p["length"],
    "dim": lambda p: p["dim"],
    "reg": lambda p: p["reg"],
    "mindist": lambda p: p["mindist"],
    "profile": lambda p: [[r["dim"], r["delta"]] for r in p["rows"]],
    "ternary dim": lambda p: p["dim"],
    "ternary reg": lambda p: p["mu"],
    # Join sets, bases and witnesses depend on the edge order; their sizes do not.
    "ternary joins": lambda p: len(p["joins"]),
    "ternary basis": lambda p: len(p["basis"]),
    "verify": lambda p: [p["ok"], p["regularity"]],
}


def cli_answer(job, stdout):
    """The order-independent answer in a CLI job's standard output."""
    if job.op == "family":
        return [int(x) for x in stdout.split("\n", 1)[0].split()]
    return _ANSWERS[job.op](json.loads(stdout))
