"""The ternary (q = 3) combinatorial theory.

Standard monomials of the Artinian quotient, parity joins, the sets J_d of
"anchored" parity joins, the combinatorial dimension formula, and the
maximum parity join (whose cardinality minus one is the ternary
regularity).  Everything is driven by the even-edge-count elements of the
cycle space, and the "last edge" of such a subgraph is the one with the
largest index in the fixed edge ordering.

Edge subsets are int masks inside the module (see `graph.eulerian_masks`)
and frozensets at its surface.  Each public call enumerates the cycle space
once.  A scan over the subsets of one size is checked against
DEFAULT_SEARCH_CAP before it starts; the maximum parity-join search counts
its nodes against the same cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import CapExceeded
from .graph import eulerian_masks, mask_subset, subset_mask
from .monomials import divides, grevlex_less, squarefree_monomials

DEFAULT_CYCLE_CAP = 1 << 20
DEFAULT_SEARCH_CAP = 1 << 24


def _evens(G):
    """(C, |C|/2, last-edge bit) for every even-edge Eulerian subgraph C."""
    return [
        (C, C.bit_count() // 2, 1 << (C.bit_length() - 1))
        for C in eulerian_masks(G, even_edge_count_only=True, cap=DEFAULT_CYCLE_CAP)
    ]


def _check_scan(work):
    """Refuse a scan of work = candidates x (constraints per candidate + 1)."""
    if work > DEFAULT_SEARCH_CAP:
        raise CapExceeded(
            f"subset scan needs {work} checks, cap is {DEFAULT_SEARCH_CAP}",
            required=work,
        )


def _halves(evens, s, max_degree):
    """Grevlex-greater half of every balanced split of every even Eulerian
    subgraph of at most 2 * max_degree edges, as exponent tuples."""
    out = set()
    for C, h, _ in _relevant(evens, max_degree):
        bits = [1 << i for i in range(s) if C >> i & 1]
        for half in combinations(bits, h):
            A = sum(half)
            alpha = tuple(A >> i & 1 for i in range(s))
            beta = tuple((C ^ A) >> i & 1 for i in range(s))
            out.add(alpha if grevlex_less(beta, alpha) else beta)
    return out


def eulerian_leading_terms(G, max_degree):
    """Leading terms of the Groebner basis of the Artinian-reduced ideal,
    up to max_degree: every square t_i^2, plus the grevlex-greater half of
    every balanced split of every even Eulerian subgraph."""
    s = G.s
    out = _halves(_evens(G), s, max_degree)
    if max_degree >= 2:
        out.update(tuple(2 if j == i else 0 for j in range(s)) for i in range(s))
    return out


def standard_monomials(G, d):
    """B_d: degree-d monomials divisible by no leading term.  Only
    square-free candidates can survive the squares, and only Eulerian
    halves can reject those."""
    s = G.s
    if d < 0 or d > s:
        return set()
    evens = _evens(G)
    splits = sum(comb(2 * h, h) // 2 for _, h, _ in _relevant(evens, d))
    _check_scan(comb(s, d) * (splits + 1))
    halves = _halves(evens, s, d)
    return {
        m for m in squarefree_monomials(s, d)
        if not any(divides(lt, m) for lt in halves)
    }


@dataclass(frozen=True)
class ParityJoinCertificate:
    J: frozenset
    violating: frozenset | None  # first even Eulerian C with |J & C| > |C|/2

    def __bool__(self):
        return self.violating is None


def is_parity_join(G, J):
    """Certificate for the parity-join condition |J & C| <= |C|/2 over all
    even-edge Eulerian subgraphs C."""
    J = frozenset(J)
    mask = subset_mask(J)
    violating = next(
        (C for C, half, _ in _evens(G) if (mask & C).bit_count() > half), None
    )
    return ParityJoinCertificate(
        J=J, violating=None if violating is None else mask_subset(violating)
    )


def _in_Jd(J, evens):
    """Parity join that contains the last edge of every tightly-met even
    Eulerian subgraph."""
    for C, half, last in evens:
        hit = (J & C).bit_count()
        if hit > half or hit == half and not J & last:
            return False
    return True


def _relevant(evens, d):
    """The even Eulerian subgraphs d edges can meet in half their edges."""
    return [x for x in evens if x[1] <= d]


def _Jd_work(evens, s, d):
    return comb(s, d) * (len(_relevant(evens, d)) + 1)


def _Jd(evens, s, d):
    evens = _relevant(evens, d)
    bits = [1 << i for i in range(s)]
    return [J for J in map(sum, combinations(bits, d)) if _in_Jd(J, evens)]


def enumerate_Jd(G, d):
    """J_d: size-d parity joins containing the last edge of every even
    Eulerian subgraph they meet in exactly half its edges."""
    if d < 0:
        return set()
    evens = _evens(G)
    _check_scan(_Jd_work(evens, G.s, d))
    return {mask_subset(J) for J in _Jd(evens, G.s, d)}


def dim_ternary(G, d):
    """Ternary code dimension as the stacked count of J_{d-2i}.  J_e is
    empty for e > s (no e-subset of s edges), so the count starts at the
    largest degree e <= s with e = d (mod 2)."""
    if d < 0:
        return 0
    evens = _evens(G)
    top = d if d <= G.s else G.s - (G.s - d) % 2
    degrees = range(top, -1, -2)
    _check_scan(sum(_Jd_work(evens, G.s, e) for e in degrees))
    return sum(len(_Jd(evens, G.s, e)) for e in degrees)


def max_parity_join(G):
    """(mu, witness): the maximum parity-join cardinality and the first
    maximum parity join in depth-first preorder over edge subsets.

    Supersets of a violator are never visited, and a branch stops once the
    edges left cannot lift it above the best size found so far (which keeps
    the witness, since only a strictly larger join replaces it).  Adding
    edge i can only break the even Eulerian subgraphs through i."""
    s = G.s
    evens = _evens(G)
    through = [[(C, h) for C, h, _ in evens if C >> i & 1] for i in range(s)]
    best, witness, nodes = 0, 0, 0
    stack = [[0, 0, 0]]  # frames [J, |J|, next edge to try (0-based)]
    while stack:
        frame = stack[-1]
        J, size, i = frame
        if size + s - i <= best:
            stack.pop()
            continue
        frame[2] = i + 1
        nodes += 1
        if nodes > DEFAULT_SEARCH_CAP:
            raise CapExceeded(
                f"subset search exceeded {DEFAULT_SEARCH_CAP} nodes", required=nodes
            )
        K = J | 1 << i
        if all((K & C).bit_count() <= h for C, h in through[i]):
            if size + 1 > best:
                best, witness = size + 1, K
            stack.append([K, size + 1, i + 1])
    return best, mask_subset(witness)


def reg_ternary(G):
    """Ternary regularity: maximum parity-join cardinality minus one."""
    mu, _ = max_parity_join(G)
    return mu - 1
