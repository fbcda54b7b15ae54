"""Verification harness: recompute every parameter by brute force, attach
every applicable closed form, and mark each row PASS / FAIL /
SKIPPED(reason).

Dims and distances for d = 0..d_max come from one profile pass
(`codes.profile_rows`), which also gives the regularity index when it
reaches the plateau dim = |X|; only a d_max below it takes a second pass
(`hilbert.hilbert_function`).  The distance laws come from the list every
profile obeys (`codes.distance_laws`); a degree refused by the budget or the
generator cell cap builds nothing.

The graph is read from one `graph._forest` pass (components, parity and
sides) and one `graph.parallel_paths` call, which reads a cycle C_l as two
paths of lengths 1 and l - 1 (every r = 2 row is the same for any split);
both walk one `Graph.adjacency`.
"""

from __future__ import annotations

from . import codes, eulerian3, formulas, graph as graphmod, toric
from .errors import DEFAULT_BUDGET, DEFAULT_POINT_CAP, SCHEMA
from .gfq import make_field
from .hilbert import hilbert_function


def _row(check, expected, actual, d=None):
    status = "PASS" if expected == actual else "FAIL"
    row = {"check": check, "expected": expected, "actual": actual, "status": status}
    if d is not None:
        row["d"] = d
    return row


def _skip(check, reason, d=None):
    row = {"check": check, "status": f"SKIPPED({reason})"}
    if d is not None:
        row["d"] = d
    return row


def verify(G, q, d_max, budget=DEFAULT_BUDGET, cap=DEFAULT_POINT_CAP):
    """Cross-check every applicable closed form against brute force.  A
    degree whose distance search exceeds the budget becomes a SKIPPED row;
    one whose generator exceeds the cell cap raises CapExceeded.  A failed
    length row, a point grid that does not map one-to-one onto X, ends the
    report with regularity None: every later row would be about the grid,
    whose Hilbert function cannot reach its order."""
    F = make_field(q)
    rows = []
    adj = G.adjacency()  # shared by the forest and the parallel paths
    forest = graphmod._forest(G, adj)
    summary = graphmod.summarize(G, forest)
    X = toric.parameterize(G, F, cap=cap)  # asserts the group order itself
    length = toric.count_points(X)
    rows.append(_row("length", toric.expected_length(summary, F), length))
    if length != X.m:  # the grid is not one-to-one onto X, so no later row is about X
        return _report(q, d_max, X, None, rows)

    s = G.s
    is_torus = X.m == (q - 1) ** (s - 1)
    sizes = graphmod.complete_multipartite_parts(G) or ()
    kab = sizes if len(sizes) == 2 else None
    n_complete = len(sizes) if len(sizes) > 3 and max(sizes) == 1 else None
    multiparts = sizes if len(sizes) > 2 and G.n > 3 else None
    ks = graphmod.parallel_paths(G, adj)  # [1, l - 1] on a cycle C_l
    half_cycle = s // 2 if ks and len(ks) == 2 and s % 2 == 0 else None
    epsilon = None  # even ears, when the paths share one parity (bipartite)
    if ks and len({k % 2 for k in ks}) == 1:
        # Nested by construction: the cycle through two paths, then each
        # other path as an ear between the two hubs.
        epsilon = len(ks) - 1 if ks[0] % 2 == 0 else 1
    connected = summary.b0 == 1
    ones = sum(forest[0].values())  # connected: every vertex is colored
    sides = (G.n - ones, ones) if connected and summary.bipartite else None

    profile = codes.profile_rows(X, d_max, budget=budget)
    ternary = eulerian3.dims_ternary(G, d_max) if q == 3 else None
    dims = [r.dim for r in profile]
    if X.m not in dims:  # the plateau lies past d_max
        dims = hilbert_function(X)
    reg = dims.index(X.m)

    for r in profile:
        d = r.d
        if is_torus and q >= 3:
            rows.append(_row("dim torus formula", formulas.k_formula(s, d, q),
                             r.dim, d=d))
        if kab and q >= 3:
            a, b = kab
            rows.append(_row("dim complete bipartite",
                             formulas.dim_complete_bipartite(a, b, d, q),
                             r.dim, d=d))
        if half_cycle and q == 3:
            rows.append(_row("dim even cycle ternary",
                             formulas.dim_even_cycle_ternary(half_cycle, d),
                             r.dim, d=d))
        if q == 3:
            rows.append(_row("dim ternary parity joins",
                             ternary[d], r.dim, d=d))
        delta = r.delta
        if delta is None:
            rows.append(_skip("mindist brute force", f"requires {r.required}", d=d))
            continue
        if d == 0:  # the closed forms below start at degree 1
            continue
        if is_torus and q >= 3 and s >= 2:
            rows.append(_row("mindist torus formula",
                             formulas.mindist_torus_formula(s, d, q), delta, d=d))
        if kab and q >= 3 and min(kab) >= 2:
            a, b = kab
            rows.append(_row("mindist complete bipartite",
                             formulas.mindist_complete_bipartite(a, b, d, q),
                             delta, d=d))
        if sides and q >= 3:
            a, b = sides
            if min(a, b) >= 2:
                lo, hi = formulas.mindist_bipartite_bounds(a, b, d, q)
                rows.append(_row("bipartite bounds", True, lo <= delta <= hi, d=d))
        if connected and not summary.bipartite and q >= 3:
            lo = formulas.mindist_nonbipartite_lower(G.n, d, q)
            rows.append(_row("non-bipartite lower bound", True, lo <= delta, d=d))
    rows += [_row(check, expected, actual, d=d)
             for check, d, expected, actual in codes.distance_laws(profile)]

    rows.append(_row("hilbert plateau value", X.m, dims[reg]))
    if q >= 3:
        if is_torus:
            rows.append(_row("reg torus",
                             formulas.reg_closed_form(formulas.RegFamily("torus", (s,)), q), reg))
        if kab:
            rows.append(_row("reg complete bipartite",
                             formulas.reg_closed_form(formulas.RegFamily("complete_bipartite", kab), q), reg))
        if n_complete:
            rows.append(_row("reg complete",
                             formulas.reg_closed_form(formulas.RegFamily("complete", (n_complete,)), q), reg))
        if half_cycle:
            rows.append(_row("reg even cycle",
                             formulas.reg_closed_form(formulas.RegFamily("even_cycle", (half_cycle,)), q), reg))
        if multiparts:
            rows.append(_row("reg complete multipartite",
                             formulas.reg_closed_form(formulas.RegFamily("complete_multipartite", multiparts), q), reg))
        if ks:
            rows.append(_row("reg parallel composition", formulas.reg_parallel(ks, q), reg))
        if epsilon:
            rows.append(_row("reg nested ears",
                             formulas.reg_nested_ears(G.n, epsilon, q), reg))
    if q == 3:
        mu, _ = eulerian3.max_parity_join(G)
        rows.append(_row("reg ternary (mu - 1)", mu - 1, reg))
        if n_complete:
            rows.append(_row("mu complete",
                             formulas.mu_closed_form("complete", (n_complete,)), mu))
        if kab:
            rows.append(_row("mu complete bipartite",
                             formulas.mu_closed_form("complete_bipartite", kab), mu))
        if multiparts:
            rows.append(_row("mu complete multipartite",
                             formulas.mu_closed_form("complete_multipartite", multiparts), mu))
        if epsilon:
            rows.append(_row("mu parallel", formulas.mu_closed_form("parallel", ks), mu))
            rows.append(_row("mu nested ears",
                             formulas.mu_closed_form("nested_ears", (G.n, epsilon)), mu))

    return _report(q, d_max, X, reg, rows)


def _report(q, d_max, X, reg, rows):
    failed = any(r["status"] == "FAIL" for r in rows)
    return {"schema": SCHEMA, "q": q, "d_max": d_max, "length": X.m,
            "regularity": reg, "degenerate": X.degenerate,
            "rows": rows, "ok": not failed}
