"""Monomials as exponent tuples, under grevlex with t_1 > ... > t_s.

Ties between equal-degree monomials are broken by the rightmost nonzero
entry of the exponent difference: if it is negative the first monomial is
the larger.  Within a fixed degree, descending grevlex coincides with
ascending lexicographic order of the reversed exponent tuple.
"""

from __future__ import annotations

from itertools import combinations


def support(m):
    """1-based variable indices with nonzero exponent, as a frozenset."""
    return frozenset(i + 1 for i, e in enumerate(m) if e)


def from_support(subset, s):
    exps = [0] * s
    for i in subset:
        exps[i - 1] = 1
    return tuple(exps)


def grevlex_cmp(m1, m2):
    """-1, 0 or 1 according to m1 < m2, m1 == m2, m1 > m2."""
    d1, d2 = sum(m1), sum(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    for a, b in zip(reversed(m1), reversed(m2)):
        if a != b:
            return 1 if a < b else -1
    return 0


def grevlex_key(m):
    """Sort key: ascending order under this key is ascending grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def squarefree_monomials(s, d):
    """Square-free degree-d monomials, descending grevlex."""
    if d > s:
        return []
    out = [from_support(frozenset(c), s) for c in combinations(range(1, s + 1), d)]
    out.sort(key=grevlex_key, reverse=True)
    return out


def format_monomial(m):
    if not any(m):
        return "1"
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"t{i}")
        elif e > 1:
            parts.append(f"t{i}^{e}")
    return "*".join(parts)
