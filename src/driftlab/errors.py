"""Shared exception types, grouped by how the CLI reports them."""


class DriftlabError(Exception):
    """Base for all package-specific failures."""


class GridTooLargeError(DriftlabError):
    """Grid or solver workspace exceeds a fixed memory guard."""


class NonMetzlerError(DriftlabError):
    """Operator has negative off-diagonal entries; no positivity structure."""


class NotIrreducibleError(DriftlabError):
    """Operator stencil graph is not certified strongly connected."""


class ScheduleError(DriftlabError):
    """Epsilon schedule does not meet the required shape (geometric, decreasing)."""
