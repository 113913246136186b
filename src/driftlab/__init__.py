"""driftlab: principal eigenpairs of small-diffusion advection operators on
flat tori, followed down an eps schedule toward their eps -> 0 limit."""

__version__ = "0.1.0"

from .expr import TrigExpr, ExprSyntaxError, parse_expr, trig_monomial

__all__ = [
    "__version__",
    "TrigExpr",
    "ExprSyntaxError",
    "parse_expr",
    "trig_monomial",
]
