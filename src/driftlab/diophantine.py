"""Irrationality and small-divisor checks for constant torus flows.

A declared invariant torus of the flow (k1, k2) needs k1/k2 irrational and,
as the paper's Diophantine hypothesis, |m.k| >= C*(m1^2 + m2^2)^(-alpha) for
every nonzero integer frequency m = (m1, m2). Scenario validation checks the
ratio by its continued fraction and the declared (C, alpha) on a finite
frequency range.
"""
from __future__ import annotations

import math

import numpy as np

from .expr import _is_int, _is_real

__all__ = [
    "continued_fraction",
    "is_irrational",
    "check_declared_bound",
]


def continued_fraction(x, max_terms=40):
    """Partial quotients of x from float arithmetic.

    Terminates early when the remainder is exhausted (rational within float
    precision). Useful to ~35 terms for well-behaved irrationals. x must be
    a finite real number and max_terms an integer >= 1, else ValueError.
    """
    _check_count(max_terms, "max_terms")
    if not _is_real(x):
        raise ValueError("continued_fraction needs a real x, got %r" % (x,))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("continued_fraction needs a finite x, got %r" % x)
    out = []
    for _ in range(max_terms):
        a = math.floor(x)
        out.append(int(a))
        frac = x - a
        if frac <= 1e-12 * max(1.0, abs(a)):
            break
        x = 1.0 / frac
        if x > 1e14:  # remainder at float noise level: treat as terminated
            break
    return out


def is_irrational(x, depth=20):
    """True when x is finite and its continued fraction reaches `depth` terms
    without terminating; working-precision proxy for irrationality. x must
    be a real number and depth an integer >= 1, else ValueError."""
    _check_count(depth, "depth")
    if not _is_real(x):
        raise ValueError("is_irrational needs a real x, got %r" % (x,))
    return math.isfinite(x) and len(continued_fraction(x, max_terms=depth)) >= depth


def _check_count(value, name):
    if not (_is_int(value) and value >= 1):
        raise ValueError("%s must be an integer >= 1, got %r" % (name, value))


def _divisor_grid(k, M):
    """|m|^2 and |m.k| for every integer m with 0 < |m| <= M.

    A product past the float range is inf; where two such products of
    opposite signs meet, |m.k| is nan, which the bound check fails."""
    k1, k2 = float(k[0]), float(k[1])
    m = np.arange(-M, M + 1)
    M1, M2 = np.meshgrid(m, m, indexing="ij")
    r2 = M1**2 + M2**2
    mask = (r2 > 0) & (r2 <= M * M)
    with np.errstate(over="ignore", invalid="ignore"):
        divs = np.abs(M1 * k1 + M2 * k2)
    return r2[mask], divs[mask]


def check_declared_bound(k, M, C, alpha):
    """Verify |m.k| >= C*(m1^2+m2^2)^(-alpha) for all 0 < |m| <= M.

    Returns (ok, margin) with margin = min |m.k|*(m1^2+m2^2)^alpha / C. k
    must hold two real numbers, M be an integer >= 1 and C and alpha real
    numbers, else ValueError. The hypothesis needs C > 0, so any other C
    fails with margin 0; a NaN alpha gives a NaN margin, which fails.
    """
    if not (isinstance(k, (list, tuple, np.ndarray)) and len(k) == 2
            and all(map(_is_real, k))):
        raise ValueError("k must be two real numbers, got %r" % (k,))
    _check_count(M, "M")
    for value, name in ((C, "C"), (alpha, "alpha")):
        if not _is_real(value):
            raise ValueError("%s must be a real number, got %r" % (name, value))
    if not C > 0:
        return False, 0.0
    r2, divs = _divisor_grid(k, M)
    # a weight or product past the float range is inf, which keeps its order;
    # a zero or nan divisor gives 0 whatever its weight, also an infinite one
    with np.errstate(over="ignore"):
        scaled = np.multiply(divs, r2 ** float(alpha), out=np.zeros_like(divs),
                             where=divs > 0)
    margin = float(np.min(scaled) / float(C))
    return margin >= 1.0, margin
