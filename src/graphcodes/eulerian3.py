"""The ternary (q = 3) combinatorial theory.

Standard monomials of the Artinian quotient, parity joins, the sets J_d of
"anchored" parity joins, the combinatorial dimension formula, and the
maximum parity join (whose cardinality minus one is the ternary
regularity), all from the even-edge-count elements of the cycle space; the
"last edge" of such a subgraph is its largest index in the edge ordering.

Edge subsets are int masks inside the module and frozensets at its surface.
J, the union of the J_d, and the square-free standard monomials are closed
under subsets, so one depth-first walk lists either, growing a member one
higher edge at a time.  The f free edges, in no even Eulerian subgraph,
constrain nothing and are added back by the callers.  |J| = 2|X|, as the
dimension reaches |X| at both parities: the walk's bound 2|X| >> f, every
listing and the Groebner halves are checked against DEFAULT_SEARCH_CAP first.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb

from .errors import CapExceeded
from .graph import eulerian_masks, mask_subset, summarize
from .monomials import from_support

DEFAULT_SEARCH_CAP = 1 << 24


def _evens(G):
    """(C, |C|/2) for every even-edge Eulerian subgraph C."""
    return [(C, C.bit_count() // 2) for C in eulerian_masks(G) if C.bit_count() % 2 == 0]


def _refuse(required, what):
    if required > DEFAULT_SEARCH_CAP:
        raise CapExceeded(f"{required} {what} exceed the cap of {DEFAULT_SEARCH_CAP}",
                          required=required)


def _edges(mask):
    """0-based indices of the edges in mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _length(summary):
    """|X| at q = 3, 2^(n - b0 - [bipartite]), without a field."""
    return 1 << summary.n - summary.b0 - summary.bipartite


def _anchored(evens, depth):
    """Rules of J: K meets C in at most |C|/2 edges, and in fewer unless K
    holds the last edge of C; that is, K meets C without its last edge in
    fewer than |C|/2."""
    return [(C ^ 1 << (C.bit_length() - 1), h - 1) for C, h in evens]


def _halves(evens, depth):
    """Rules of B, (A, |A| - 1): no leading term A divides K.  A is the
    grevlex-greater half of a balanced split of an even Eulerian subgraph C
    of at most 2 * depth edges; of two square-free monomials of one degree
    the greater lacks the last variable where they differ, so A is a half
    without the last edge of C."""
    relevant = [(C, h) for C, h in evens if h <= depth]
    _refuse(sum(comb(2 * h - 1, h) for _, h in relevant), "Groebner halves")
    return {(sum(A), h - 1) for C, h in relevant
            for A in combinations([1 << i for i in _edges(C)[:-1]], h)}


def _walk(G, d, rules_of):
    """(free, members): the free edges as bits, and the members of the family
    with at most d other edges, as (mask, size) in depth-first preorder from
    the empty set.  rules_of(evens, depth) lists (mask, limit): a member meets
    mask in at most limit edges, which can fail only once its top edge is
    past the first limit edges of mask."""
    evens = _evens(G)
    tied = 0
    for C, _ in evens:
        tied |= C
    edges = _edges(tied)
    free = [1 << i for i in range(G.s) if not tied >> i & 1]
    depth = min(d, len(edges))
    bound = min(2 * _length(summarize(G)) >> len(free),
                sum(comb(len(edges), e) for e in range(depth + 1)))
    _refuse(bound, "walk members")
    rules = [[] for _ in range(G.s)]
    for mask, limit in rules_of(evens, depth):
        if limit < depth:  # else |K & mask| <= |K| <= depth is within it
            for i in _edges(mask)[limit:]:
                rules[i].append((mask, limit))
    return free, _members(edges, rules, depth, bound)


def _members(edges, rules, depth, bound):
    """Yield the walked members in preorder.  The children of a member one
    edge short of the depth are leaves: they are yielded as they are found,
    never pushed on the stack."""
    steps = [(1 << e, rules[e]) for e in edges]  # the bit and the rules of each edge
    stack = [(0, 0, 0)]  # (member, size, position in edges of its next edge)
    visited = 0
    while stack:
        J, size, p = stack.pop()
        visited += 1
        assert visited <= bound, "more members than the dimension formula allows"
        yield J, size
        if size == depth:
            continue
        leaves = size + 1 == depth
        children = []
        for r, (bit, checks) in enumerate(steps[p:], p + 1):
            K = J | bit
            for mask, limit in checks:
                if (K & mask).bit_count() > limit:
                    break
            else:
                if leaves:
                    visited += 1
                    assert visited <= bound, "more members than the dimension formula allows"
                    yield K, depth
                else:
                    children.append((K, size + 1, r))
        stack += reversed(children)


def _listing(G, d, rules_of):
    """Every d-edge set of the family, as masks: a walked member of k edges
    with d - k free edges.  Refused before listing past the search cap."""
    free, members = _walk(G, d, rules_of)
    members = [(K, k) for K, k in members if k >= d - len(free)]
    _refuse(sum(comb(len(free), d - k) for _, k in members), "listed sets")
    return [K | sum(S) for K, k in members for S in combinations(free, d - k)]


def standard_monomials(G, d):
    """B_d: degree-d monomials divisible by no leading term.  Only
    square-free ones survive the squares, and only Eulerian halves can
    reject those."""
    if not 0 <= d <= G.s:
        return set()
    return {from_support(mask_subset(M), G.s) for M in _listing(G, d, _halves)}


def enumerate_Jd(G, d):
    """J_d: size-d parity joins containing the last edge of every even
    Eulerian subgraph they meet in exactly half its edges."""
    if not 0 <= d <= G.s:
        return set()
    return {mask_subset(J) for J in _listing(G, d, _anchored)}


def dims_ternary(G, d_max):
    """[dim C_X(0), ..., dim C_X(d_max)] at q = 3 from one walk, each the
    stacked count of J_{d-2i}: a walked member of k edges with j free edges
    lies in J_{k+j}, counted when k + j <= d has the parity of d.  With
    S(r) the sum of C(f, j) over the j <= r of the parity of r, so that
    S(r) = S(r - 2) + C(f, r), the dimension is sum_k N_k S(d - k) over the
    N_k walked members of k edges.  J_e is empty for e > s, so past s the
    dimension repeats with period 2."""
    free, members = _walk(G, d_max, _anchored)
    f = len(free)
    sizes = Counter(k for _, k in members)
    stacked, dims = [], []  # S(0), S(1), ... and the dimensions
    for d in range(d_max + 1):
        if d > G.s:
            dims.append(dims[d - 2] if d >= 2 else 0)
            continue
        stacked.append((stacked[d - 2] if d >= 2 else 0) + comb(f, d))
        dims.append(sum(n * stacked[d - k] for k, n in sizes.items() if k <= d))
    return dims


def dim_ternary(G, d):
    """Ternary code dimension at degree d: the entry of `dims_ternary` at
    the largest degree e <= min(d, s) of the parity of d, which has the
    same value."""
    e = d if d <= G.s else G.s - (d - G.s) % 2
    return dims_ternary(G, e)[e] if e >= 0 else 0


def max_parity_join(G):
    """(mu, witness): the maximum parity-join cardinality and a maximum
    parity join.  J_mu is the deepest nonempty J_e (J_{reg+1} is nonempty,
    J_e empty past it), so mu and the witness are the first deepest walked
    member in preorder with every free edge."""
    free, members = _walk(G, G.s, _anchored)
    deepest, size = max(members, key=lambda member: member[1])
    return size + len(free), mask_subset(deepest | sum(free))
