"""Monomials as exponent tuples, under grevlex with t_1 > ... > t_s.

Ties between equal-degree monomials are broken by the rightmost nonzero
entry of the exponent difference: if it is negative the first monomial is
the larger.  Within a fixed degree, descending grevlex coincides with
ascending lexicographic order of the reversed exponent tuple.
"""

from __future__ import annotations


def from_support(subset, s):
    exps = [0] * s
    for i in subset:
        exps[i - 1] = 1
    return tuple(exps)


def grevlex_key(m):
    """Sort key: ascending order under this key is ascending grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


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
