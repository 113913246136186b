"""Small-divisor bounds and irrationality checks for constant torus flows.

The transport solve divides by m.k = m1*k1 + m2*k2; these helpers quantify
how small those divisors get on a frequency range and fit the decaying bound
|m.k| >= C * (m1^2 + m2^2)^(-alpha).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "continued_fraction",
    "is_irrational",
    "min_divisor",
    "divisor_records",
    "fit_divisor_bound",
    "check_declared_bound",
]


def continued_fraction(x, max_terms=40):
    """Partial quotients of x from float arithmetic.

    Terminates early when the remainder is exhausted (rational within float
    precision). Useful to ~35 terms for well-behaved irrationals.
    """
    x = float(x)
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
    """True when the continued fraction of x reaches `depth` terms without
    terminating; working-precision proxy for irrationality."""
    return len(continued_fraction(x, max_terms=depth)) >= depth


def _divisor_grid(k, M):
    k1, k2 = float(k[0]), float(k[1])
    m = np.arange(-M, M + 1)
    M1, M2 = np.meshgrid(m, m, indexing="ij")
    r2 = M1**2 + M2**2
    mask = (r2 > 0) & (r2 <= M * M)
    divs = np.abs(M1 * k1 + M2 * k2)
    return M1[mask], M2[mask], r2[mask], divs[mask]


def min_divisor(k, M):
    """Brute-force minimum of |m.k| over 0 < m1^2 + m2^2 <= M^2.

    Returns ((m1, m2), value); ties resolved by smallest radius, then
    lexicographically.
    """
    M1, M2, r2, divs = _divisor_grid(k, M)
    vmin = divs.min()
    at = np.flatnonzero(divs == vmin)
    order = np.lexsort((M2[at], M1[at], r2[at]))
    i = at[order[0]]
    return (int(M1[i]), int(M2[i])), float(vmin)


def divisor_records(k, M):
    """Running minima of |m.k| by increasing radius: the frequency pairs that
    set a new record small divisor. Returns list of ((m1,m2), r2, value)."""
    M1, M2, r2, divs = _divisor_grid(k, M)
    order = np.lexsort((np.abs(M2), np.abs(M1), divs, r2))
    records = []
    best = math.inf
    for i in order:
        if divs[i] < best:
            best = float(divs[i])
            records.append(((int(M1[i]), int(M2[i])), int(r2[i]), best))
    return records


@dataclass(frozen=True)
class DivisorBound:
    C: float
    alpha: float
    worst_m: tuple
    worst_value: float


def fit_divisor_bound(k, M):
    """Least-squares fit of log|m.k| ~ log C - alpha*log(m1^2+m2^2) through
    the record divisors, with C lowered so the bound holds on the whole range."""
    records = [(m, r2, v) for m, r2, v in divisor_records(k, M) if r2 > 1]
    worst_m, worst_v = min_divisor(k, M)
    if len(records) < 2:
        return DivisorBound(worst_v, 0.0, worst_m, worst_v)
    lr = np.log([r2 for _, r2, _ in records])
    lv = np.log([v for _, _, v in records])
    alpha = -float(np.polyfit(lr, lv, 1)[0])
    alpha = max(alpha, 0.0)
    _, _, r2a, divs = _divisor_grid(k, M)
    C = float(np.min(divs * r2a**alpha))
    return DivisorBound(C, alpha, worst_m, worst_v)


def check_declared_bound(k, M, C, alpha):
    """Verify |m.k| >= C*(m1^2+m2^2)^(-alpha) for all 0 < |m| <= M.

    Returns (ok, margin) with margin = min |m.k|*(m1^2+m2^2)^alpha / C.
    """
    _, _, r2, divs = _divisor_grid(k, M)
    margin = float(np.min(divs * r2**float(alpha)) / float(C))
    return margin >= 1.0, margin
