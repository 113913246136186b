"""Shared exception types, grouped by how the CLI reports them."""

__all__ = ["DriftlabError", "ExprSyntaxError", "GridTooLargeError", "NonMetzlerError",
           "NotIrreducibleError", "ScenarioFormatError", "ScheduleError"]


class DriftlabError(Exception):
    """Base for all package-specific failures."""


class ExprSyntaxError(DriftlabError, ValueError):
    """Raised on malformed expression text; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__("%s (byte %d)" % (message, offset))
        self.offset = offset


class ScenarioFormatError(DriftlabError, ValueError):
    """Malformed scenario data (bad JSON shape, bad component spec, ...)."""


class GridTooLargeError(DriftlabError):
    """Grid or solver workspace exceeds a fixed memory guard."""


class NonMetzlerError(DriftlabError):
    """Operator has negative off-diagonal entries; no positivity structure."""


class NotIrreducibleError(DriftlabError):
    """Operator stencil graph is not certified strongly connected."""


class ScheduleError(DriftlabError):
    """Epsilon schedule does not meet the required shape (geometric, decreasing)."""
