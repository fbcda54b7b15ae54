"""The ternary (q = 3) combinatorial theory.

Parity joins, the sets J_d of "anchored" parity joins, the combinatorial
dimension formula, and the maximum parity join (whose cardinality minus one
is the ternary regularity), all from the even-edge-count elements of the
cycle space; the "last edge" of such a subgraph is its largest index in the
edge ordering.

J_d is also the set of supports of B_d, the degree-d standard monomials of
the Artinian quotient under grevlex with t_1 > ... > t_s, so one listing
serves both.  Only square-free monomials survive the squares among the
leading terms, and only the even Eulerian subgraphs reject those.  Let C be
one with |C| = 2h and last edge c, and C' = C - c.  Its square-free leading
terms are the grevlex-greater halves of its balanced splits, and of two
square-free monomials of one degree the greater lacks the last variable
where they differ, so they are exactly the h-subsets of C'.  A set K
contains one of them iff |K & C'| >= h, so K avoids them all iff
|K & C'| <= h - 1: K meets C in at most h edges, and in fewer unless K holds
c, which is the rule of J for C.  The square-free part of B_d therefore has
exactly the supports J_d.

Edge subsets are int masks inside the module and frozensets at its surface.
J, the union of the J_d, is closed under subsets, so one depth-first walk
lists it, growing a member one higher edge at a time.  The f free edges, in
no even Eulerian subgraph, constrain nothing and are added back by the
callers.  |J| = 2|X|, as the dimension reaches |X| at both parities: the
walk's bound 2|X| >> f and every listing are checked against
DEFAULT_SEARCH_CAP first.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb

from .errors import CapExceeded
from .graph import eulerian_masks, mask_subset, summarize

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


def _walk(G, d):
    """(free, members): the free edges as bits, and the members of J with at
    most d other edges, as (mask, size) in depth-first preorder from the
    empty set.  Each even Eulerian subgraph C of 2h edges gives the rule
    |K & C'| <= h - 1, which can fail only once the top edge of K is past
    the first h - 1 edges of C'."""
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
    for C, h in evens:
        if h <= depth:  # else |K & C'| <= |K| <= depth <= h - 1
            rest = C ^ 1 << (C.bit_length() - 1)
            for i in _edges(rest)[h - 1:]:
                rules[i].append((rest, h - 1))
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


def enumerate_Jd(G, d):
    """J_d: size-d parity joins containing the last edge of every even
    Eulerian subgraph they meet in exactly half its edges, each a walked
    member of k edges with d - k free edges.  Refused before listing past
    the search cap."""
    if not 0 <= d <= G.s:
        return set()
    free, members = _walk(G, d)
    members = [(K, k) for K, k in members if k >= d - len(free)]
    _refuse(sum(comb(len(free), d - k) for _, k in members), "listed sets")
    return {mask_subset(K | sum(S))
            for K, k in members for S in combinations(free, d - k)}


def dims_ternary(G, d_max):
    """[dim C_X(0), ..., dim C_X(d_max)] at q = 3 from one walk, each the
    stacked count of J_{d-2i}: a walked member of k edges with j free edges
    lies in J_{k+j}, counted when k + j <= d has the parity of d.  With
    S(r) the sum of C(f, j) over the j <= r of the parity of r, so that
    S(r) = S(r - 2) + C(f, r), the dimension is sum_k N_k S(d - k) over the
    N_k walked members of k edges.  J_e is empty for e > s, so past s the
    dimension repeats with period 2."""
    free, members = _walk(G, d_max)
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
    free, members = _walk(G, G.s)
    deepest, size = max(members, key=lambda member: member[1])
    return size + len(free), mask_subset(deepest | sum(free))
