"""Parameterized linear codes over graphs: evaluation codes on projective
toric sets parameterized by graph edges over GF(q), their parameters by
exact brute force, the known closed-form formulas, and cross-verification
of the two.

The graph and error names are imported with the package.  The names from
`codes`, `gfq`, `hilbert` and `toric` are imported on first access
(PEP 562), so a program loads only the modules it uses.  numpy comes with
`codes` (the generator and the distance search), and with `gfq` and `toric`
only when a field's tables are first read or characters are evaluated on
the grid of X (`ToricSet.values`): a program that uses only graphs, or
only length, dimension and regularity (`toric.count_points`, `hilbert`),
never loads it.  The value types are namedtuples, so the
import path loads neither the standard library's data-class module nor
the `inspect` that module imports."""

import importlib

from .errors import (
    BudgetExceeded,
    CapExceeded,
    GraphCodesError,
    InvalidParams,
    LengthMismatch,
    MonotonicityViolation,
    NotAPrimePower,
    UnsupportedFamily,
    UnsupportedField,
)
from .graph import (
    Graph,
    GraphSummary,
    build_family,
    parse_graph,
    summarize,
)

# Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "CodeInstance": "hilbert",
    "dimension": "hilbert",
    "distance_profile": "codes",
    "minimum_distance": "codes",
    "regularity_index": "hilbert",
    "FieldSpec": "gfq",
    "make_field": "gfq",
    "ToricSet": "toric",
    "expected_length": "toric",
    "parameterize": "toric",
    "torus_points": "toric",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "CodeInstance",
    "FieldSpec",
    "Graph",
    "GraphCodesError",
    "GraphSummary",
    "InvalidParams",
    "LengthMismatch",
    "MonotonicityViolation",
    "NotAPrimePower",
    "ToricSet",
    "UnsupportedFamily",
    "UnsupportedField",
    "build_family",
    "dimension",
    "distance_profile",
    "expected_length",
    "make_field",
    "minimum_distance",
    "parameterize",
    "parse_graph",
    "regularity_index",
    "summarize",
    "torus_points",
]

__version__ = "0.1.0"
