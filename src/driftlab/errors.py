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
    """Epsilon schedule does not meet the required shape (geometric, decreasing)."""
