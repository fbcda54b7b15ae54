"""Shared brute-force oracles, deliberately independent of the library's
own enumeration paths."""

from itertools import combinations, product

import pytest

from graphcodes import toric
from graphcodes.graph import Graph, build_family


def support(m):
    """1-based variable indices with nonzero exponent, as a frozenset."""
    return frozenset(i + 1 for i, e in enumerate(m) if e)


def eulerian_subsets_brute(G, even_edge_count_only=False):
    """All nonempty edge subsets inducing even degree everywhere, found by
    scanning all 2^s subsets and checking vertex degrees directly."""
    out = []
    for r in range(1, G.s + 1):
        for combo in combinations(range(1, G.s + 1), r):
            deg = {}
            for i in combo:
                u, v = G.edges[i - 1]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if all(d % 2 == 0 for d in deg.values()):
                if even_edge_count_only and r % 2:
                    continue
                out.append(frozenset(combo))
    return out


def parity_join_brute(G, J, evens=None):
    if evens is None:
        evens = eulerian_subsets_brute(G, even_edge_count_only=True)
    return all(len(frozenset(J) & C) <= len(C) // 2 for C in evens)


def toric_points_brute(G, F):
    """Toric set by plain python enumeration: map every torus tuple through
    the edge monomials, normalize by the last coordinate, deduplicate."""
    q = F.q
    nonzero = list(range(1, q))
    points = set()
    for tail in product(nonzero, repeat=G.n - 1):
        x = tail + (1,)
        img = tuple(int(F.mul_table[x[u - 1], x[v - 1]]) for u, v in G.edges)
        scale = F.inv_table[img[-1]]
        points.add(tuple(int(F.mul_table[c, scale]) for c in img))
    return points


def assert_value_type(a, b, *fields):
    """a and b, built apart, are equal and hash alike, and assigning any of
    the named fields raises AttributeError."""
    assert a == b and a is not b
    assert hash(a) == hash(b)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))


def double_the_grid(monkeypatch):
    """Patch `toric._point_grid` to double every `embed` entry: the grid
    keeps its order, which `parameterize` checks, but maps onto fewer
    points where 2 is no unit modulo an axis order."""
    real = toric._point_grid

    def doubled(*args):
        P = real(*args)
        return toric.GroupImage(P.orders, tuple(tuple(2 * a % d for a, d in zip(w, P.orders))
                                                for w in P.embed))

    monkeypatch.setattr(toric, "_point_grid", doubled)


def two_triangles():
    return Graph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)))


@pytest.fixture
def c4():
    return build_family("cycle", [4])


@pytest.fixture
def c6():
    return build_family("cycle", [6])


@pytest.fixture
def k4():
    return build_family("complete", [4])
