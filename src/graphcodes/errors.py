"""Exception types shared across the package, the default resource limits
they enforce and the version of the CLI's JSON output.  Imports nothing,
so the command line can set up its options without numpy."""

SCHEMA = 1  # version of the CLI's JSON output


class GraphCodesError(Exception):
    pass


class NotAPrimePower(GraphCodesError):
    pass


class UnsupportedField(GraphCodesError):
    """A field size above the largest supported q (256)."""


class InvalidParams(GraphCodesError):
    pass


class UnsupportedFamily(GraphCodesError):
    pass


class LengthMismatch(GraphCodesError):
    """Internal consistency failure: the group order of X, or the number of
    distinct points its grid maps onto (`toric.count_points`), disagrees
    with the closed-form length.  Indicates a bug, never swallowed."""


class MonotonicityViolation(GraphCodesError):
    """Hilbert function failed to increase strictly before its plateau."""


DEFAULT_BUDGET = 5 * 10**7  # message classes of one distance search
DEFAULT_POINT_CAP = 10**7  # points of X
DEFAULT_CYCLE_CAP = 1 << 20  # elements of the cycle space listed


class ResourceRefused(GraphCodesError):
    """Base for refusals of exponential work; carries the required amount."""

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


class CapExceeded(ResourceRefused):
    pass


class BudgetExceeded(ResourceRefused):
    pass
