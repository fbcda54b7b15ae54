"""Command-line front end.

Subcommands: summarize, length, dim, reg, mindist, profile,
ternary {dim,reg,joins,basis}, family, verify.  Graphs come from a file
(--graph) or a built-in family (--family/--params); --seed-order permutes
the edge ordering.  Human-readable output by default, stable JSON with
--json (top-level "schema": 1).

Exit codes: 0 ok, 1 verify found a FAIL or a domain error, 2 usage error,
3 a cap or budget refused the computation (the required amount is printed).
Under --json an error is printed as {"schema": 1, "error": {"type", "message"}},
plus "required" for a refusal.

Each handler imports what it computes with.  Only the subcommands that
build a generator (mindist, profile, verify) import numpy and build the
GF(q) tables; length counts the points of X from the kernel of its point
map (`toric.count_points`), and dim and reg count characters over the
group of X (`hilbert`), all in exact ints from q alone, and summarize,
family and ternary need no field.  The ternary theory (`eulerian3`) is
imported by the ternary and verify handlers only; `ternary basis` prints
B_d from its supports J_d.  The package itself loads neither the
data-class module nor `inspect`, so the subcommands without numpy, which
imports `inspect`, load neither.  The console script (`main`) also keeps
OpenBLAS to one thread, since the package does no float linear algebra.

A cold process pays about 50-60 ms for an empty interpreter and about
70-90 ms more for `import numpy`.  Interpreter shutdown would then run full
garbage collections over every tracked object, 15-22 ms for a process that
imported numpy and 6-10 ms for one that did not, so `main` freezes the
collector once the answer is printed and the final collections skip every
live object.  `run_command`, the in-process API, leaves the collector as it
is: a long-lived caller needs its cycles collected.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import graph as graphmod
from .errors import (
    DEFAULT_BUDGET,
    DEFAULT_POINT_CAP,
    SCHEMA,
    GraphCodesError,
    InvalidParams,
    LengthMismatch,
    ResourceRefused,
)


def _add_graph_args(p):
    p.add_argument("--graph", help="graph file (header 'n s', then edge lines)")
    p.add_argument("--family", help="family name (path, cycle, complete, "
                   "complete_bipartite, complete_multipartite, parallel_composition)")
    p.add_argument("--params", type=int, nargs="+", default=[], help="family parameters")
    p.add_argument("--seed-order", help="comma-separated permutation of 1..s "
                   "applied to the edge ordering")


def _add_common(p, q=False, d=False, dmax=False, budget=False, cap=False):
    _add_graph_args(p)
    if q:
        p.add_argument("--q", type=int, required=True, help="field size (prime power <= 256)")
    if d:
        p.add_argument("--d", type=int, required=True, help="degree")
    if dmax:
        p.add_argument("--dmax", type=int, required=True, help="maximum degree")
    if budget:
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="distance search budget in message classes: "
                       "Brouwer-Zimmermann messages or shortened-dual classes")
    if cap:
        p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP,
                       help="cap on |X|, the points of the toric set (checked "
                       "before anything of that size is allocated)")
    p.add_argument("--json", action="store_true", dest="as_json")


def _load_graph(args):
    if args.graph and args.family:
        raise UsageError("--graph and --family are mutually exclusive")
    if args.graph:
        with open(args.graph) as fh:
            G = graphmod.parse_graph(fh.read())
    elif args.family:
        G = graphmod.build_family(args.family, args.params)
    else:
        raise UsageError("one of --graph or --family is required")
    if args.seed_order:
        perm = [int(x) for x in args.seed_order.split(",")]
        try:
            G = G.reorder_edges(perm)
        except InvalidParams as exc:  # the permutation is command-line input
            raise UsageError(str(exc)) from exc
    return G


class UsageError(GraphCodesError):
    pass


def _graph_ident(G, args):
    if args.graph:
        return {"file": args.graph, "n": G.n, "s": G.s}
    return {"family": args.family, "params": list(args.params), "n": G.n, "s": G.s}


def _parameterize(G, args):
    from .gfq import make_field
    from .toric import parameterize

    return parameterize(G, make_field(args.q), cap=args.cap)


# Subcommand handlers take the graph and the arguments and return
# (exit_status, payload, text); `run_command` prints the text, or under
# --json the payload with "schema", "graph" and "q" added.


def _cmd_summarize(G, args):
    summary = graphmod.summarize(G)
    payload = {"n": summary.n, "s": summary.s, "b0": summary.b0,
               "bipartite": summary.bipartite, "gamma": summary.gamma}
    return 0, payload, " ".join(f"{key}={value}" for key, value in payload.items())


def _cmd_length(G, args):
    from . import toric

    # `parameterize` has checked the group order X.m against the length
    # formula, so the points the grid maps onto are counted against X.m.
    X = _parameterize(G, args)
    length = toric.count_points(X)
    if length != X.m:
        raise LengthMismatch(
            f"counted {length} distinct points but the length formula gives {X.m}"
        )
    return 0, {"length": length, "degenerate": X.degenerate}, str(length)


def _cmd_dim(G, args):
    from . import hilbert

    value = hilbert.dimension(_parameterize(G, args), args.d)
    return 0, {"d": args.d, "dim": value}, str(value)


def _cmd_reg(G, args):
    from . import hilbert

    value = hilbert.regularity_index(_parameterize(G, args))
    return 0, {"reg": value}, str(value)


def _cmd_mindist(G, args):
    from . import codes

    value = codes.minimum_distance(_parameterize(G, args), args.d, budget=args.budget)
    return 0, {"d": args.d, "mindist": value}, str(value)


def _cmd_profile(G, args):
    from . import codes

    X = _parameterize(G, args)
    rows = codes.distance_profile(X, args.dmax, budget=args.budget)
    payload = {"length": X.m,
               "rows": [{"d": r.d, "dim": r.dim, "delta": r.delta,
                         "singleton": r.singleton, "skipped": r.skipped}
                        for r in rows]}
    lines = [f"{'d':>3} {'dim':>6} {'delta':>8} {'singleton':>10}"]
    for r in rows:
        delta = r.delta if r.delta is not None else f"SKIPPED({r.skipped})"
        lines.append(f"{r.d:>3} {r.dim:>6} {delta!s:>8} {r.singleton:>10}")
    return 0, payload, "\n".join(lines)


def _cmd_ternary(G, args):
    from . import eulerian3

    if args.ternary_op == "dim":
        value = eulerian3.dim_ternary(G, args.d)
        payload = {"dim": value}
        human = str(value)
    elif args.ternary_op == "reg":
        mu, witness = eulerian3.max_parity_join(G)
        payload = {"mu": mu, "reg": mu - 1, "witness": sorted(witness)}
        human = f"reg={mu - 1} mu={mu} witness={sorted(witness)}"
    elif args.ternary_op == "joins":
        joins = sorted(sorted(j) for j in eulerian3.enumerate_Jd(G, args.d))
        payload = {"d": args.d, "joins": joins}
        human = "\n".join(" ".join(str(i) for i in j) or "(empty)" for j in joins) or "(none)"
    else:  # basis
        # B_d by its supports J_d (see `eulerian3`), as square-free monomials
        # in descending grevlex: of two of one degree the greater lacks the
        # last variable where they differ, so it has the smaller edge mask.
        supports = sorted(eulerian3.enumerate_Jd(G, args.d),
                          key=lambda J: sum(1 << i for i in J))
        mons = ["*".join(f"t{i}" for i in sorted(J)) or "1" for J in supports]
        payload = {"d": args.d, "basis": mons}
        human = "\n".join(mons) or "(none)"
    payload["q"] = 3
    return 0, payload, human


def _cmd_family(G, args):
    if not args.family:
        raise UsageError("--family is required")
    return 0, None, graphmod.format_graph(G).rstrip("\n")


def _cmd_verify(G, args):
    from .verify import verify

    report = verify(G, args.q, args.dmax, budget=args.budget, cap=args.cap)
    lines = []
    for r in report["rows"]:
        d = f" d={r['d']}" if "d" in r else ""
        if r["status"].startswith("SKIPPED"):
            lines.append(f"{r['status']:>8} {r['check']}{d}")
        else:
            lines.append(f"{r['status']:>8} {r['check']}{d} "
                         f"expected={r['expected']} actual={r['actual']}")
    lines.append(f"{'OK' if report['ok'] else 'FAILED'} "
                 f"(length={report['length']}, reg={report['regularity']})")
    return (0 if report["ok"] else 1), report, "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphcodes",
        description="Parameterized linear codes over graphs: parameters by "
                    "exact brute force, closed-form formulas, and cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="components, bipartiteness, gamma")
    _add_common(p)
    p.set_defaults(handler=_cmd_summarize)

    p = sub.add_parser("length", help="|X|: its distinct points, counted from the "
                       "kernel of the point map of its grid against the formula")
    _add_common(p, q=True, cap=True)
    p.set_defaults(handler=_cmd_length)

    p = sub.add_parser("dim", help="dim C_X(d) by counting distinct characters")
    _add_common(p, q=True, d=True, cap=True)
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("reg", help="index of regularity (Hilbert plateau)")
    _add_common(p, q=True, cap=True)
    p.set_defaults(handler=_cmd_reg)

    p = sub.add_parser("mindist", help="exact minimum distance")
    _add_common(p, q=True, d=True, budget=True, cap=True)
    p.set_defaults(handler=_cmd_mindist)

    p = sub.add_parser("profile", help="per-degree dim/delta/singleton profile")
    _add_common(p, q=True, dmax=True, budget=True, cap=True)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("ternary", help="ternary (q=3) combinatorics")
    p.add_argument("ternary_op", choices=["dim", "reg", "joins", "basis"])
    _add_common(p)
    p.add_argument("--d", type=int, default=0, help="degree")
    p.set_defaults(handler=_cmd_ternary)

    p = sub.add_parser("family", help="emit a built family as a graph file")
    _add_graph_args(p)
    p.set_defaults(handler=_cmd_family, as_json=False)

    p = sub.add_parser("verify", help="formula-vs-brute-force verification harness")
    _add_common(p, q=True, dmax=True, budget=True, cap=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run_command(argv, out=None):
    """Dispatch argv (no program name); returns the exit status."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        for name in ("d", "dmax", "budget", "cap"):
            if getattr(args, name, 0) < 0:
                raise UsageError(f"--{name} must be non-negative")
        G = _load_graph(args)
        status, payload, text = args.handler(G, args)
    except ResourceRefused as exc:
        return _fail(args, out, 3, exc, f"refused: {exc} (required: {exc.required})")
    except (UsageError, ValueError, OSError) as exc:
        return _fail(args, out, 2, exc, f"usage error: {exc}")
    except GraphCodesError as exc:
        return _fail(args, out, 1, exc, f"error: {type(exc).__name__}: {exc}")
    if args.as_json:
        payload.update(schema=SCHEMA, graph=_graph_ident(G, args))
        if "q" in args:
            payload["q"] = args.q
        text = json.dumps(payload, sort_keys=True)
    out.write(text + "\n")
    return status


def _fail(args, out, status, exc, text):
    """Report exc as text, or as a schema-1 JSON error object under --json."""
    if getattr(args, "as_json", False):
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ResourceRefused):
            error["required"] = exc.required
        text = json.dumps({"schema": SCHEMA, "error": error}, sort_keys=True)
    out.write(text + "\n")
    return status


def main():
    # numpy's import starts an OpenBLAS thread pool that the package, which
    # does no float linear algebra, never uses.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = run_command(sys.argv[1:])
    # The answer is printed: shutdown's full collections would only walk the
    # live objects (about 21.6K with numpy, 5-7 ms a pass), and frozen ones
    # are skipped.  Unlike os._exit, atexit handlers and the flushes still run.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
