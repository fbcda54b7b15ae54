"""Simple graphs with a significant edge ordering.

Vertices are 1..n and edges e_1..e_s are an ordered sequence of unordered
pairs; the ordering is part of the value (the ternary theory singles out the
"last" edge).  An edge subset is an int mask with bit i - 1 standing for
edge i: the cycle space is exposed as masks (`eulerian_masks`), and
`mask_subset` turns a mask into the frozenset of its 1-based edge indices.

Graph text format (shared with the CLI): a header line "n s", then s lines
"u v" (edge order = file order); blank lines and lines starting with "#" are
ignored.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from itertools import chain

from .errors import DEFAULT_CYCLE_CAP, CapExceeded, InvalidParams


class Graph(namedtuple("Graph", "n edges")):
    __slots__ = ()

    def __new__(cls, n, edges):
        if n < 1:
            raise InvalidParams("vertex count must be positive")
        if len(edges) < 1:
            raise InvalidParams("at least one edge is required")
        seen = set()
        norm = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidParams(f"edge ({u},{v}) has endpoints outside 1..{n}")
            if u == v:
                raise InvalidParams(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidParams(f"duplicate edge ({u},{v})")
            seen.add(key)
            norm.append((u, v))
        return super().__new__(cls, n, tuple(norm))

    @property
    def s(self):
        return len(self.edges)

    def adjacency(self):
        """vertex -> list of (neighbor, edge index), ascending by vertex, for
        the vertices some edge touches; a vertex no edge touches has no
        entry, so the size follows s, not n."""
        adj = {}
        for i, (u, v) in enumerate(self.edges, start=1):
            adj.setdefault(u, []).append((v, i))
            adj.setdefault(v, []).append((u, i))
        return dict(sorted(adj.items()))

    def reorder_edges(self, perm):
        """New graph with edge ordering permuted; perm is a 1-based
        permutation, new edge i = old edge perm[i-1].  The edges are this
        graph's, already checked, so they are not checked again."""
        if sorted(perm) != list(range(1, self.s + 1)):
            raise InvalidParams("seed-order is not a permutation of 1..s")
        return Graph._make((self.n, tuple(self.edges[p - 1] for p in perm)))


class GraphSummary(namedtuple("GraphSummary", "n s b0 bipartite gamma")):
    __slots__ = ()


def _forest(G, adj=None):
    """One breadth-first pass over every component of G that has an edge,
    over `adj`, G.adjacency() unless the caller has it already.

    Returns (color, parent, odd): color[v] is the depth parity of v,
    parent[v] the link (u, i) from v to its parent u over tree edge i, None
    at the root of a component, and odd[k] whether component k has an edge
    between equal colors (an odd cycle).  Only the vertices some edge
    touches are keys of color; each of the G.n - len(color) others is a
    component of its own, counted, not stored.  Component k is rooted at
    its least vertex, and color and parent list it whole before k + 1.
    """
    adj = G.adjacency() if adj is None else adj
    color, parent, odd = {}, {}, []
    for start in adj:
        if start in color:
            continue
        color[start], parent[start] = 0, None
        odd.append(False)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, ei in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = (u, ei)
                    queue.append(v)
                elif color[v] == color[u]:
                    odd[-1] = True
    return color, parent, odd


def summarize(G, forest=None):
    """Components, per-component 2-colorability, gamma; `forest`: _forest(G)."""
    color, _, odd = forest or _forest(G)
    gamma = sum(odd)
    return GraphSummary(n=G.n, s=G.s, b0=len(odd) + G.n - len(color),
                        bipartite=(gamma == 0), gamma=gamma)


def mask_subset(mask):
    """Int mask -> edge subset."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def eulerian_masks(G):
    """All nonempty elements of the cycle space as masks, ascending: the
    Eulerian subgraphs, even degree at every vertex.  The basis is the
    fundamental cycles of the spanning forest, one per non-tree edge; its
    span, of size 2^(s - n + b0), is checked against DEFAULT_CYCLE_CAP
    before any cycle is built.  A cycle is its edge and the tree paths of
    its two ends up to the root, which cancel above their meeting point.
    The span is built by doubling over the basis, which is independent, so
    every element appears once."""
    _, parent, _ = _forest(G)
    chords = [(i, u, v) for i, (u, v) in enumerate(G.edges, start=1)
              if parent[u] != (v, i) and parent[v] != (u, i)]
    total = 1 << len(chords)
    if total > DEFAULT_CYCLE_CAP:
        raise CapExceeded(f"cycle space has {total} elements, cap is {DEFAULT_CYCLE_CAP}",
                          required=total)
    space = [0]
    for i, u, v in chords:
        b = 1 << i - 1
        for w in (u, v):
            while parent[w]:
                w, ei = parent[w]
                b ^= 1 << ei - 1
        space += [x ^ b for x in space]
    space.sort()
    return space[1:]


# Family constructors.  Vertex numbering and edge ordering are fixed:
#   path(k):       vertices 1..k+1, edges (i, i+1) for i = 1..k.
#   cycle(l):      vertices 1..l, edges (1,2), ..., (l-1,l), (l,1).
#   complete(n):   edges (u,v), u < v, in lexicographic order.
#   complete_bipartite(a, b): parts {1..a} and {a+1..a+b}; edges (i, a+j)
#       ordered by i, then j.
#   complete_multipartite(a_1..a_r): parts are consecutive vertex blocks;
#       edges (u,v), u < v with u,v in different parts, lexicographic.
#   parallel_composition(k_1..k_r): hubs are vertices 1 and 2; path i of
#       length k_i gets fresh internal vertices in argument order and its
#       edges are listed hub-1 to hub-2, path by path.


# Parameter counts of the built-in families: (fewest, most or None).
_ARITY = {
    "path": (1, 1),
    "cycle": (1, 1),
    "complete": (1, 1),
    "complete_bipartite": (2, 2),
    "complete_multipartite": (2, None),
    "parallel_composition": (2, None),
}


def build_family(family, params):
    params = list(params)
    if family not in _ARITY:
        raise InvalidParams(f"unknown family {family!r}")
    lo, hi = _ARITY[family]
    if len(params) < lo or (hi is not None and len(params) > hi):
        wanted = f"{lo}" if lo == hi else f"at least {lo}"
        noun = "parameter" if wanted == "1" else "parameters"
        raise ValueError(f"{family} takes {wanted} {noun}, got {len(params)}")
    if any(p < 1 for p in params):
        raise InvalidParams("family parameters must be positive")
    if family == "path":
        (k,) = params
        n, edges = k + 1, [(i, i + 1) for i in range(1, k + 1)]
    elif family == "cycle":
        (l,) = params
        if l < 3:
            raise InvalidParams("cycle length must be at least 3")
        n, edges = l, [(i, i + 1) for i in range(1, l)] + [(l, 1)]
    elif family == "complete":
        (n,) = params
        if n < 2:
            raise InvalidParams("complete graph needs at least 2 vertices")
        edges = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    elif family == "complete_bipartite":
        a, b = params
        n, edges = a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    elif family == "complete_multipartite":
        n = sum(params)
        part = {}
        v = 1
        for idx, a in enumerate(params):
            for _ in range(a):
                part[v] = idx
                v += 1
        edges = [
            (u, w)
            for u in range(1, n)
            for w in range(u + 1, n + 1)
            if part[u] != part[w]
        ]
        if not edges:
            raise InvalidParams("graph would have no edges")
    else:  # parallel_composition
        ks = params
        if sum(1 for k in ks if k == 1) > 1:
            raise InvalidParams("two paths of length 1 would create a multi-edge")
        edges = []
        next_v = 3
        for k in ks:
            if k == 1:
                edges.append((1, 2))
                continue
            chain = [1] + list(range(next_v, next_v + k - 1)) + [2]
            next_v += k - 1
            edges.extend((chain[i], chain[i + 1]) for i in range(k))
        n = next_v - 1
    # Simple by construction, so the edges are not checked again (Graph._make).
    return Graph._make((n, tuple(edges)))


def parse_graph(text):
    """The graph of a file "n s" followed by s lines "u v" (# starts a
    comment).  A grammar error raises ValueError; a well-formed file that
    is not a simple graph raises InvalidParams from Graph."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError('header must be "n s"')
    n, s = int(header[0]), int(header[1])
    if len(lines) - 1 != s:
        raise ValueError(f"expected {s} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, tuple(edges))


def format_graph(G):
    out = [f"{G.n} {G.s}"]
    out.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(out) + "\n"


# Structure recognizers used by the verification harness.


def complete_multipartite_parts(G):
    """Ascending part sizes if G is complete multipartite, else None: K_n
    has n parts of one vertex, K_{a,b} two parts.

    Holds iff every vertex is joined to exactly the vertices outside its
    class, the vertices with the same neighbourhood; the classes are then
    the parts, at least two as G has an edge.  A vertex of degree d then
    lies in a part of n - d vertices, so the vertices of degree d number a
    multiple of n - d: degrees alone, counted as in `parallel_paths`, refuse
    most graphs (a long cycle among them) before the adjacency is built.  A
    vertex no edge touches fails, as its class is not all of V."""
    degree = Counter(chain.from_iterable(G.edges))
    if len(degree) < G.n:
        return None
    if any(count % (G.n - d) for d, count in Counter(degree.values()).items()):
        return None
    adj = G.adjacency()
    everyone = frozenset(adj)
    classes = {}
    for v, edges in adj.items():
        classes.setdefault(frozenset(u for u, _ in edges), set()).add(v)
    if any(N != everyone - part for N, part in classes.items()):
        return None
    return tuple(sorted(len(part) for part in classes.values()))


def parallel_paths(G, adj=None):
    """Ascending path lengths if G is a parallel composition of paths, else
    None: exactly two hubs (vertices of degree at least 3), every other
    vertex of degree 2, and the paths from one hub, which end at the other,
    cover every vertex.  A cycle (r = 2) has no vertex of degree 3, so its
    hubs are the ends of the first edge: C_l reads [1, l - 1].  The paths
    are walked over `adj`, G.adjacency() unless the caller has it already."""
    degree = Counter(chain.from_iterable(G.edges))  # no sort, unlike adjacency
    hubs = [v for v, d in degree.items() if d >= 3] or list(G.edges[0])
    if len(hubs) != 2 or min(degree.values()) < 2:
        return None
    adj = G.adjacency() if adj is None else adj
    a, b = hubs
    ks = []
    for v, _ in adj[a]:
        prev, k = a, 1
        while len(adj[v]) == 2 and v != b:
            (x, _), (y, _) = adj[v]
            prev, v = v, y if x == prev else x
            k += 1
        if v != b:
            return None
        ks.append(k)
    if 2 + sum(k - 1 for k in ks) != G.n:
        return None
    return sorted(ks)
