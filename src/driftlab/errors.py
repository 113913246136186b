"""Shared exception types. All derive from DriftlabError, and those for
malformed input (expression text, scenario data, coefficients out of range)
are ValueErrors as well."""

__all__ = ["CoefficientOverflowError", "DriftlabError", "ExprSyntaxError",
           "GridTooLargeError", "NonMetzlerError", "NotIrreducibleError",
           "ScenarioFormatError", "ScheduleError"]


class DriftlabError(Exception):
    """Base for all package-specific failures."""


class ExprSyntaxError(DriftlabError, ValueError):
    """Raised on malformed expression text; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__("%s (byte %d)" % (message, offset))
        self.offset = offset


class ScenarioFormatError(DriftlabError, ValueError):
    """Malformed scenario data (bad JSON shape, bad component spec, ...)."""


class CoefficientOverflowError(DriftlabError, ValueError):
    """Fields too large for their operator coefficients to be finite floats."""


class GridTooLargeError(DriftlabError):
    """A call's grid-sized float arrays would pass operator.py's byte budget:
    assemble's diag and off, or every row a solve or sweep holds at once
    (operator._check_memory)."""


class NonMetzlerError(DriftlabError):
    """Operator has negative off-diagonal entries; no positivity structure."""


class NotIrreducibleError(DriftlabError):
    """Operator stencil graph is not certified strongly connected."""


class ScheduleError(DriftlabError):
    """An eps schedule eigen_sweep or extrapolate_limit cannot take.

    eigen_sweep refuses a schedule that is not a sequence of real numbers
    (text, a set or a dict is not one), or not positive and finite, or not
    strictly decreasing. extrapolate_limit refuses a sweep with fewer than
    three certified entries, or whose certified eps are not strictly
    decreasing, or whose last three eps have two ratios that differ by more
    than 1%."""
