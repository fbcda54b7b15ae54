"""Parameterized linear codes over graphs: evaluation codes on projective
toric sets parameterized by graph edges over GF(q), their parameters by
exact brute force, the known closed-form formulas, and cross-verification
of the two."""

from .codes import (
    CodeInstance,
    dimension,
    distance_profile,
    minimum_distance,
    regularity_index,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    DivisionByZero,
    GraphCodesError,
    InvalidParams,
    LengthMismatch,
    MonotonicityViolation,
    NotADecomposition,
    NotAPrimePower,
    NotNested,
    NotOpen,
    UnsupportedFamily,
    UnsupportedField,
)
from .gfq import FieldSpec, make_field
from .graph import (
    Graph,
    GraphSummary,
    build_family,
    cycle_space_basis,
    enumerate_eulerian,
    parse_graph,
    summarize,
    validate_ear_decomposition,
)
from .toric import ToricSet, expected_length, parameterize, torus_points

__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "CodeInstance",
    "DivisionByZero",
    "FieldSpec",
    "Graph",
    "GraphCodesError",
    "GraphSummary",
    "InvalidParams",
    "LengthMismatch",
    "MonotonicityViolation",
    "NotADecomposition",
    "NotAPrimePower",
    "NotNested",
    "NotOpen",
    "ToricSet",
    "UnsupportedFamily",
    "UnsupportedField",
    "build_family",
    "cycle_space_basis",
    "dimension",
    "distance_profile",
    "enumerate_eulerian",
    "expected_length",
    "make_field",
    "minimum_distance",
    "parameterize",
    "parse_graph",
    "regularity_index",
    "summarize",
    "torus_points",
    "validate_ear_decomposition",
]

__version__ = "0.1.0"
