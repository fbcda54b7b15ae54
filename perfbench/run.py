"""graphcodes benchmark: one closed-loop client runs a workload's jobs for a
fixed time, checks every answer and reports end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {hilbert,distance,cli_mix}
                             [--seed N] [--seconds S] [--trace 0|1]

The seed fixes the job order of every pass and a random edge permutation for
every job.  Passes repeat until the time is used up.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the object holds
the per-layer metrics instead.  The lines before it are a readable report
and the environment the numbers were taken in.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from tracer import LAYER_UNITS, SPANS_TAG, Tracer, coverage, layer_metrics, new_span  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, cli_answer, cli_args, expected_value, gate, run_in_process)

# Set-up is timed in fresh processes: at least SETUP_MIN_REPS of them and
# until SETUP_BUDGET_S is spent, since one import varies by tens of percent.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_BUDGET_S = 4.0
# Three samples of a job give its fastest time a good chance to land in a
# quiet moment of a shared host, and the latency percentiles keep their
# place among the jobs from three passes on; tracing needs one untraced and
# one traced pass.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
JOB_TIMEOUT_S = 120
COVERAGE_FLOOR = 0.9

# Set-up as a user pays it: a fresh interpreter imports the package and
# builds every field the workload uses.
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
import graphcodes
for q in sys.argv[1:]:
    graphcodes.make_field(int(q))
print(time.perf_counter() - t)
"""

# What the installed ``graphcodes`` console script runs.
CLI_CODE = "from graphcodes.cli import main; main()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "job_ref_p50": "ref",
    "job_ref_p90": "ref",
}
# Printed in the report next to the metrics above; the *_ref metrics are
# these divided by reference_ms.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "job_ms_p50": "ms", "job_ms_p90": "ms",
             "reference_ms": "ms"}
TRACE_UNITS = dict(LAYER_UNITS, **{"trace.coverage_min": "ratio", "trace.overhead_s": "s"})


def percentile(samples, p):
    """The p-th percentile (0..100), interpolating between closest ranks."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, beyond=10):
    """Highest percentile with at least ``beyond`` of n samples above it,
    or None when there are too few samples."""
    return 100 * (n - beyond) / n if n > beyond else None


@dataclass
class Sample:
    job: str
    wall: float
    cpu: float
    ok: bool
    spans: list | None = None
    ref: float | None = None  # reference_seconds() just before the job


_REF_ROWS = numpy.random.default_rng(0).integers(0, 7, size=(60, 600))


def reference_seconds():
    """Time of a fixed computation that does not touch graphcodes: row
    updates mod 7 in numpy (no BLAS, one thread) and a pure-Python loop.
    Other tenants of a shared host slow it and the jobs alike."""
    t0 = time.perf_counter()
    M = _REF_ROWS.copy()
    for r in range(len(M)):
        M = (M + (r + 1) * M[r]) % 7
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - t0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _check(job, answer, formulas):
    if gate(job, answer, formulas):
        return True
    print(f"wrong answer for {job.name}: {answer!r}, expected "
          f"{expected_value(job, formulas)!r}", file=sys.stderr)
    return False


def run_api_job(job, perm, gc, tracer):
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        ok = _check(job, run_in_process(job, perm, gc), gc.formulas)
    except Exception:  # a job failure is counted, the run goes on
        traceback.print_exc()
        ok = False
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Sample(job.name, wall, cpu, ok, tracer.take() if tracer else None)


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_cli_job(job, perm, gc, tracer):
    args = cli_args(job, perm)
    c0 = _children_cpu()
    t0 = time.perf_counter()
    if tracer:
        argv = [sys.executable, str(HERE / "cli_child.py"), repr(t0), *args]
    else:
        argv = [sys.executable, "-c", CLI_CODE, *args]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              env=_child_env(), timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    wall, cpu = time.perf_counter() - t0, _children_cpu() - c0
    if proc is None or proc.returncode != 0:
        if proc is None:
            detail = "timed out"
        else:
            err = "\n".join(ln for ln in proc.stderr.splitlines() if not ln.startswith(SPANS_TAG))
            detail = f"exit {proc.returncode}: {(proc.stdout + err)[-300:]}"
        print(f"{job.name} failed, {detail}", file=sys.stderr)
        return Sample(job.name, wall, cpu, False, [] if tracer else None)
    try:
        ok = _check(job, cli_answer(job, proc.stdout), gc.formulas)
    except (ValueError, KeyError, IndexError) as exc:
        print(f"{job.name}: unreadable output ({exc})", file=sys.stderr)
        ok = False
    spans = None
    if tracer:
        tagged = [ln for ln in proc.stderr.splitlines() if ln.startswith(SPANS_TAG)]
        spans = json.loads(tagged[-1][len(SPANS_TAG):]) if tagged else []
        if spans:
            # Interpreter teardown and exit, up to this process reaping it.
            last = max(s["end"] for s in spans if s["parent"] < 0)
            spans.append(new_span("cli.exit", last, t0 + wall))
    return Sample(job.name, wall, cpu, ok, spans)


def run_pass(workload, rng, gc, tracer):
    jobs = list(workload.jobs)
    rng.shuffle(jobs)
    run = run_cli_job if workload.cli else run_api_job
    samples = []
    for job in jobs:
        s = gc.graph.build_family(job.family, list(job.params)).s
        perm = rng.sample(range(1, s + 1), s)
        ref = reference_seconds()
        sample = run(job, perm, gc, tracer)
        sample.ref = ref
        samples.append(sample)
    return samples


def setup_seconds(workload):
    """Median set-up time over fresh processes."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
            len(times) < SETUP_MAX_REPS and time.perf_counter() - start < SETUP_BUDGET_S):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, workload.fields)],
                              capture_output=True, text=True, cwd=ROOT, env=_child_env(),
                              timeout=JOB_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(workload, seed, seconds, trace, gc):
    """Run whole passes until the time is used, but at least the minimum.
    Returns a list of (traced, samples)."""
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        # Untraced and traced passes in the order U T T U, so that drift and
        # the cold first pass do not fall on one side of the overhead.
        traced = trace and len(passes) % 4 in (1, 2)
        restore = tracer.install() if traced and not workload.cli else None
        try:
            samples = run_pass(workload, rng, gc, tracer if traced else None)
        finally:
            if restore:
                restore()
        passes.append((traced, samples))
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(s.wall for s in p) for _, p in passes)
        # Stop when another pass would likely end more than half a pass late.
        enough = len(passes) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if enough and elapsed + typical / 2 > seconds:
            return passes


def job_minima(passes, attr):
    """Each job's fastest time across passes."""
    by_job = defaultdict(list)
    for samples in passes:
        for s in samples:
            by_job[s.job].append(getattr(s, attr))
    return [min(v) for v in by_job.values()]


def median_ref(passes):
    return statistics.median(s.ref for p in passes for s in p)


def end_to_end(workload, passes, setup_s):
    """The result's metrics and the raw times they are made from.

    A pass's jobs are a fixed mix, so one pass is the sum of per-job times.
    Other tenants of a shared host only ever slow a job down, by up to a
    factor of two for seconds or minutes at a time, so each job's fastest
    time is the steadiest estimate of what the program itself costs.  What
    is left of the host's drift between runs is divided out: every time is
    also given in multiples of the run's median reference_seconds()."""
    latencies = [1000 * s.wall for p in passes for s in p]
    ref_ms = 1000 * median_ref(passes)
    raw = {
        "wall_s": sum(job_minima(passes, "wall")),
        "cpu_s": sum(job_minima(passes, "cpu")),
        "job_ms_p50": percentile(latencies, 50),
        "job_ms_p90": percentile(latencies, 90),
        "reference_ms": ref_ms,
    }
    who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "wall_ref": 1000 * raw["wall_s"] / ref_ms,
        "cpu_ref": 1000 * raw["cpu_s"] / ref_ms,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "job_ref_p50": raw["job_ms_p50"] / ref_ms,
        "job_ref_p90": raw["job_ms_p90"] / ref_ms,
    }
    return metrics, raw


def per_layer(workload, untraced, traced):
    """Median over traced passes of each layer metric, plus the lowest
    per-job span coverage and the tracing overhead."""
    per_pass = [layer_metrics([(i if workload.cli else "process", s.spans)
                               for i, s in enumerate(p)]) for p in traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in LAYER_UNITS}
    out["trace.coverage_min"] = min(coverage(s.spans, s.wall) for p in traced for s in p)
    # Each side in multiples of its own reference time, so that the host's
    # drift between traced and untraced passes does not count as overhead.
    def in_ref(passes):
        return sum(job_minima(passes, "wall")) / median_ref(passes)

    out["trace.overhead_s"] = (in_ref(traced) - in_ref(untraced)) * median_ref(untraced + traced)
    return out


def environment(gc):
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "worker_count": gc.codes.worker_count() if hasattr(gc.codes, "worker_count") else None,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "GRAPHCODES_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
    }


def import_package():
    """Import graphcodes from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphcodes" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import graphcodes
    from graphcodes import cli, codes, formulas, gfq, graph, toric  # noqa: F401

    if Path(graphcodes.__file__).resolve().parent != SRC / "graphcodes":
        raise SystemExit(f"perfbench: imported graphcodes from {graphcodes.__file__}")
    return graphcodes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gc = import_package()
    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(workload)
    for q in workload.fields:  # fill the field cache before timing
        gc.gfq.make_field(q)
    passes = measure(workload, args.seed, args.seconds, bool(args.trace), gc)

    samples = [s for _, p in passes for s in p]
    failed = sum(not s.ok for s in samples)
    untraced = [p for traced, p in passes if not traced]
    print(f"workload {workload.name}, seed {args.seed}, {len(passes)} passes "
          f"({len(untraced)} untraced), {len(samples)} jobs, {failed} failed, "
          f"fail_ratio {failed / len(samples):.4f}")
    print("environment " + json.dumps(environment(gc), sort_keys=True))
    if args.trace:
        metrics = per_layer(workload, untraced, [p for traced, p in passes if traced])
        units = TRACE_UNITS
        verdict = "PASS" if metrics["trace.coverage_min"] >= COVERAGE_FLOOR else "FAIL"
        print(f"span coverage check (every job >= {COVERAGE_FLOOR:.0%} of wall): {verdict}")
    else:
        metrics, raw = end_to_end(workload, untraced, setup_s)
        units = END_TO_END_UNITS
        for name, value in raw.items():
            print(f"  {name:32s} {value:14.4f} {RAW_UNITS[name]}")
        latencies = [1000 * s.wall for p in untraced for s in p]
        tail = tail_percentile(len(latencies))
        print(f"job latency samples: {len(latencies)}; highest percentile with ten samples "
              f"beyond it: " + (f"p{tail:.1f} = {percentile(latencies, tail):.1f} ms"
                                if tail else "none"))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
