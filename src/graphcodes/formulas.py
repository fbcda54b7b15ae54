"""Closed-form parameter formulas, as pure big-integer functions.

Binomial convention throughout: C(a, b) = 0 whenever a < b or b < 0, which
is what truncates the inclusion-exclusion sums.  No floating point.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import InvalidParams, UnsupportedFamily


def _binom(a, b):
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def k_formula(s, d, q):
    """Dimension of the degree-d code on the torus of P^{s-1} over GF(q)."""
    if s < 1 or d < 0 or q < 3:
        raise InvalidParams("need s >= 1, d >= 0, q >= 3")
    # Only j <= s - 1 has C(s - 1, j) != 0.
    top = min(s - 1, (s - 1 + d) // (q - 1))
    return sum((-1) ** j * comb(s - 1, j) * comb(s - 1 + d - (q - 1) * j, s - 1)
               for j in range(top + 1))


def dim_complete_bipartite(a, b, d, q):
    return k_formula(a, d, q) * k_formula(b, d, q)


def dim_even_cycle_ternary(l, d):
    """Ternary code dimension for the cycle of length 2l."""
    if l < 2 or d < 0:
        raise InvalidParams("need l >= 2, d >= 0")
    s = 2 * l
    if d >= l - 1:
        return 2 ** (s - 2)
    return sum(_binom(s, d - 2 * i) for i in range(d // 2 + 1))


class RegFamily(namedtuple("RegFamily", "tag params")):
    """A row of the regularity table; tag is torus, complete_bipartite,
    complete, even_cycle or complete_multipartite."""

    __slots__ = ()

    def __new__(cls, tag, params):
        if any(p < 1 for p in params):
            raise InvalidParams("family parameters must be positive")
        if tag == "complete" and params[0] <= 3:
            raise InvalidParams("the complete-graph row requires n > 3")
        if tag == "complete_multipartite":
            if len(params) <= 2:
                raise InvalidParams("the multipartite row requires r > 2 parts")
            if sum(params) <= 3:
                raise InvalidParams("the multipartite row requires n > 3")
        return super().__new__(cls, tag, params)


def reg_closed_form(family, q):
    """Known regularity values, per family tag."""
    if q < 3:
        raise InvalidParams("q >= 3 required")
    tag, params = family.tag, family.params
    if tag == "torus":
        (s,) = params
        return (s - 1) * (q - 2)
    if tag == "complete_bipartite":
        a, b = params
        return (max(a, b) - 1) * (q - 2)
    if tag == "complete":
        (n,) = params
        return ((n - 1) * (q - 2) + 1) // 2
    if tag == "even_cycle":
        (l,) = params
        return (l - 1) * (q - 2)
    if tag == "complete_multipartite":
        n = sum(params)
        return max(*(a * (q - 2) for a in params), ((n - 1) * (q - 2) + 1) // 2)
    raise UnsupportedFamily(f"no regularity formula for {tag!r}")


def reg_parallel(ks, q):
    """Regularity for a parallel composition of paths of lengths ks.

    r = 2 is a cycle, and the value does not depend on the split.
    The branch of one odd path and at least two even ones, (sum of k/2 over
    the even paths + the odd length - 1)(q - 2), is checked by brute force:
    it equals the regularity index on every such composition of 3 or 4
    paths of lengths 1 to 5 over GF(3), GF(4), GF(5) and GF(7) with
    |X| <= 3 * 10^6."""
    ks = list(ks)
    if len(ks) < 2 or q < 3:
        raise InvalidParams("need r >= 2 paths and q >= 3")
    if any(k < 1 for k in ks):
        raise InvalidParams("path lengths must be positive")
    if sum(1 for k in ks if k == 1) > 1:
        raise InvalidParams("two paths of length 1 would create a multi-edge")
    evens = sorted((k for k in ks if k % 2 == 0), reverse=True)
    odds = sorted((k for k in ks if k % 2 == 1), reverse=True)
    ks = evens + odds
    r = len(ks)
    l = len(evens)
    if l == 0:  # bipartite, all lengths odd
        return sum(k // 2 for k in ks) * (q - 2)
    if l == r:  # bipartite, all lengths even
        return (sum(k // 2 for k in ks) - 1) * (q - 2)
    if l == 1 and r == 2:
        return (ks[0] + ks[1] - 1) * (q - 2)
    if l == 1:
        return (ks[0] + sum(k // 2 for k in ks[1:])) * (q - 2)
    if r == l + 1:
        return (sum(k // 2 for k in evens) + ks[l] - 1) * (q - 2)
    return (sum(k // 2 for k in evens) + sum(k // 2 for k in odds)) * (q - 2)


def reg_nested_ears(n_vertices, epsilon, q):
    """Regularity of a bipartite graph from a nested ear decomposition with
    epsilon even-length ears."""
    if q < 3:
        raise InvalidParams("q >= 3 required")
    if (n_vertices + epsilon - 3) % 2 or n_vertices + epsilon - 3 < 0:
        raise InvalidParams("n + epsilon - 3 must be even and non-negative")
    return (n_vertices + epsilon - 3) // 2 * (q - 2)


def mindist_torus_formula(s, d, q):
    """Minimum distance of the degree-d code on the torus of P^{s-1}."""
    if s < 2 or d < 1 or q < 3:
        raise InvalidParams("need s >= 2, d >= 1, q >= 3")
    if d >= (q - 2) * (s - 1):
        return 1
    k = (d - 1) // (q - 2)
    l = d - k * (q - 2)
    return (q - 1) ** (s - (k + 2)) * (q - 1 - l)


def mindist_complete_bipartite(a, b, d, q):
    if a < 2 or b < 2:
        raise InvalidParams("parts of size >= 2 required")
    return mindist_torus_formula(a, d, q) * mindist_torus_formula(b, d, q)


def mindist_bipartite_bounds(a, b, d, q):
    """(lower, upper) bounds for a connected bipartite graph with parts of
    sizes a and b; the lower bound is attained by the complete bipartite
    graph itself."""
    lower = mindist_torus_formula(a, d, q) * mindist_torus_formula(b, d, q)
    upper = mindist_torus_formula(a + b - 1, d, q)
    return lower, upper


def mindist_nonbipartite_lower(n_vertices, d, q):
    """Lower bound delta_X(d) >= delta_T(2d) for a connected non-bipartite
    graph on n_vertices, with T the torus of P^{n_vertices - 1}."""
    return mindist_torus_formula(n_vertices, 2 * d, q)


def mu_closed_form(tag, params):
    """Maximum parity-join cardinality for the families with a known value.

    Tags: complete_bipartite (a, b); complete (n,); complete_multipartite
    (a_1..a_r); parallel (k_1..k_r, uniform parity); nested_ears
    (n_vertices, epsilon)."""
    params = tuple(params)
    if tag == "complete_bipartite":
        a, b = params
        return max(a, b)
    if tag == "complete":
        (n,) = params
        if n <= 3:
            raise UnsupportedFamily("the complete-graph row requires n > 3")
        return n // 2 + 1  # ceil((n - 1) / 2) + 1
    if tag == "complete_multipartite":
        if len(params) <= 2:
            raise UnsupportedFamily("the multipartite row requires r > 2 parts")
        n = sum(params)
        if n <= 3:
            raise UnsupportedFamily("the multipartite row requires n > 3")
        return max(*params, n // 2) + 1  # n // 2 = ceil((n - 1) / 2)
    if tag == "parallel":
        if all(k % 2 == 0 for k in params):
            return sum(k // 2 for k in params)
        if all(k % 2 == 1 for k in params):
            return sum(k // 2 for k in params) + 1
        raise UnsupportedFamily("parallel row needs uniform path-length parity")
    if tag == "nested_ears":
        n_vertices, epsilon = params
        if (n_vertices + epsilon - 1) % 2:
            raise UnsupportedFamily("n + epsilon - 1 must be even")
        return (n_vertices + epsilon - 1) // 2
    raise UnsupportedFamily(f"no parity-join formula for {tag!r}")
