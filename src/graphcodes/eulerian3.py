"""The ternary (q = 3) combinatorial theory.

Standard monomials of the Artinian quotient, parity joins, the sets J_d of
"anchored" parity joins, the combinatorial dimension formula, and the
maximum parity join (whose cardinality minus one is the ternary
regularity).  Everything is driven by the even-edge-count elements of the
cycle space, and the "last edge" of such a subgraph is the one with the
largest index in the fixed edge ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceeded
from .graph import enumerate_eulerian
from .monomials import divides, from_support, grevlex_less, squarefree_monomials

DEFAULT_CYCLE_CAP = 1 << 20
DEFAULT_SEARCH_CAP = 1 << 24


def _even_eulerian(G, cap):
    """Even-edge-count Eulerian subgraphs, as edge subsets."""
    return enumerate_eulerian(G, even_edge_count_only=True, cap=cap)


def eulerian_leading_terms(G, max_degree, cap=DEFAULT_CYCLE_CAP):
    """Leading terms of the Groebner basis of the Artinian-reduced ideal,
    up to max_degree: every square t_i^2, plus the grevlex-greater half of
    every balanced split of every even Eulerian subgraph."""
    s = G.s
    out = set()
    if max_degree >= 2:
        for i in range(s):
            exps = [0] * s
            exps[i] = 2
            out.add(tuple(exps))
    for C in _even_eulerian(G, cap):
        h = len(C) // 2
        if h > max_degree:
            continue
        edges = sorted(C)
        for half in combinations(edges, h):
            alpha = from_support(frozenset(half), s)
            beta = from_support(C - frozenset(half), s)
            out.add(alpha if grevlex_less(beta, alpha) else beta)
    return out


def standard_monomials(G, d, cap=DEFAULT_CYCLE_CAP):
    """B_d: degree-d monomials divisible by no leading term.  Only
    square-free candidates can survive the squares, and only Eulerian
    halves can reject those."""
    if d < 0:
        return set()
    s = G.s
    if d > s:
        return set()
    halves = [
        m for m in eulerian_leading_terms(G, d, cap=cap) if all(e <= 1 for e in m)
    ]
    out = set()
    for m in squarefree_monomials(s, d):
        if not any(divides(lt, m) for lt in halves):
            out.add(m)
    return out


@dataclass(frozen=True)
class ParityJoinCertificate:
    J: frozenset
    is_parity_join: bool
    witnesses: tuple  # (edge subset C, |J & C|, |C| // 2) per even Eulerian C
    violating: frozenset | None

    def __bool__(self):
        return self.is_parity_join


def is_parity_join(G, J, cap=DEFAULT_CYCLE_CAP):
    """Certificate for the parity-join condition |J & C| <= |C|/2 over all
    even-edge Eulerian subgraphs C."""
    J = frozenset(J)
    witnesses = []
    violating = None
    for C in _even_eulerian(G, cap):
        hit = len(J & C)
        witnesses.append((C, hit, len(C) // 2))
        if violating is None and hit > len(C) // 2:
            violating = C
    return ParityJoinCertificate(
        J=J,
        is_parity_join=violating is None,
        witnesses=tuple(witnesses),
        violating=violating,
    )


def _passes(J, evens):
    """Parity join that contains the last edge of every tightly-met even
    Eulerian subgraph."""
    for C, half, last in evens:
        hit = len(J & C)
        if hit > half:
            return False
        if hit == half and last not in J:
            return False
    return True


def _even_data(G, cap):
    return [(C, len(C) // 2, max(C)) for C in _even_eulerian(G, cap)]


def enumerate_Jd(G, d, cap=DEFAULT_CYCLE_CAP):
    """J_d: size-d parity joins containing the last edge of every even
    Eulerian subgraph they meet in exactly half its edges."""
    if d < 0:
        return set()
    if d > G.s:
        return set()
    evens = _even_data(G, cap)
    return {
        frozenset(c)
        for c in combinations(range(1, G.s + 1), d)
        if _passes(frozenset(c), evens)
    }


def dim_ternary(G, d, cap=DEFAULT_CYCLE_CAP):
    """Ternary code dimension as the stacked count of J_{d-2i}."""
    total = 0
    while d >= 0:
        total += len(enumerate_Jd(G, d, cap=cap))
        d -= 2
    return total


def max_parity_join(G, cap=DEFAULT_CYCLE_CAP, search_cap=DEFAULT_SEARCH_CAP):
    """(mu, witness): the maximum parity-join cardinality and one maximum
    parity join.  Depth-first over edge subsets with monotone pruning:
    supersets of a violator are never visited."""
    evens = [(C, len(C) // 2) for C in _even_eulerian(G, cap)]
    s = G.s
    best = (0, frozenset())
    nodes = 0

    def violated(J):
        return any(len(J & C) > half for C, half in evens)

    def extend(J, start):
        nonlocal best, nodes
        if len(J) > best[0]:
            best = (len(J), frozenset(J))
        for i in range(start, s + 1):
            nodes += 1
            if nodes > search_cap:
                raise CapExceeded(
                    f"subset search exceeded {search_cap} nodes", required=nodes
                )
            J.add(i)
            if not violated(J):
                extend(J, i + 1)
            J.remove(i)

    extend(set(), 1)
    return best


def reg_ternary(G, cap=DEFAULT_CYCLE_CAP, search_cap=DEFAULT_SEARCH_CAP):
    """Ternary regularity: maximum parity-join cardinality minus one."""
    mu, _ = max_parity_join(G, cap=cap, search_cap=search_cap)
    return mu - 1
