"""Principal eigenpair of Metzler stencil operators by shifted power
iteration, with a certified sup-norm residual.

The iteration runs on B = I + tau*(A - s*I) with s = min diag(A) - 1 and
tau = 0.9 / max(diag(A) - s): B is nonnegative and irreducible whenever A is
Metzler with positive neighbor couplings, so the iteration converges to the
positive Perron vector from the constant start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonMetzlerError, NotIrreducibleError, ScheduleError
from .operator import Grid, assemble

__all__ = [
    "EigenPair",
    "SweepEntry",
    "ExtrapolationResult",
    "principal_eigenpair",
    "eigen_sweep",
    "extrapolate_limit",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200000


@dataclass
class EigenPair:
    lam: float
    u: np.ndarray  # strictly positive, sum(u^2)*h^dim = 1
    residual: float  # sup|A u - lam u| / sup|u|
    iterations: int
    certified: bool
    lam_aitken: float = math.nan  # diagnostic acceleration of the lam sequence


def principal_eigenpair(op, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, x0=None):
    """Leading eigenvalue and positive eigenfunction of a Metzler operator.

    Returns a certified pair when the relative sup-norm residual reaches tol
    within max_iter iterations; otherwise the best iterate, flagged.
    """
    if not op.is_metzler:
        raise NonMetzlerError(
            "off-diagonal entries reach %g < 0 (scheme %r at this resolution)"
            % (op.min_offdiag, op.scheme))
    if not op.is_irreducible:
        raise NotIrreducibleError(
            "zero neighbor couplings: Perron structure not certified")
    if not tol > 0:
        raise ValueError("tol must be positive")
    size = op.grid.size
    diag = op.diag
    s = float(diag.min()) - 1.0
    tau = 0.9 / float(diag.max() - s)

    if x0 is None:
        x = np.full(size, 1.0 / math.sqrt(size))
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (size,):
            raise ValueError("x0 has wrong length")
        x = x / math.sqrt(np.sum(x * x))
    y = np.empty_like(x)

    lam = 0.0
    res = math.inf
    lam_hist = []
    it = 0
    for it in range(1, max_iter + 1):
        op.apply(x, out=y)
        lam = float(np.sum(x * y))  # Rayleigh ratio, x has unit L2 norm
        res = float(np.max(np.abs(y - lam * x)) / np.max(np.abs(x)))
        if res <= tol:
            break
        lam_hist.append(lam)
        if len(lam_hist) > 3:
            lam_hist.pop(0)
        z = x + tau * (y - s * x)
        x = z / math.sqrt(np.sum(z * z))

    lam_acc = math.nan
    if len(lam_hist) == 3:
        d1 = lam_hist[1] - lam_hist[0]
        d2 = lam_hist[2] - lam_hist[1]
        if d2 - d1 != 0.0:
            lam_acc = lam_hist[2] - d2 * d2 / (d2 - d1)

    h = op.grid.h
    norm = math.sqrt(np.sum(x * x) * h**op.grid.dim)
    u = x / norm
    certified = res <= tol and float(u.min()) > 0.0
    return EigenPair(lam=lam, u=u, residual=res, iterations=it,
                     certified=certified, lam_aitken=lam_acc)


@dataclass
class SweepEntry:
    eps: float
    pair: EigenPair = None
    error: str = ""

    @property
    def ok(self):
        return self.pair is not None and self.pair.certified

    @property
    def lam(self):
        return self.pair.lam if self.pair is not None else math.nan


def eigen_sweep(scenario, n, eps_list, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                scheme="upwind", warm_start=True, allow_large=False):
    """One certified eigenpair per eps, warm-starting down the schedule.

    Per-entry failures are recorded on the entry, not raised, so one bad
    epsilon does not abort the rest of the sweep.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ScheduleError("eps schedule must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ScheduleError("eps schedule must be strictly decreasing")
    grid = Grid(scenario.dim, n)
    entries = []
    x0 = None
    for eps in eps_list:
        try:
            op = assemble(scenario, grid, eps, scheme=scheme, allow_large=allow_large)
            pair = principal_eigenpair(op, tol=tol, max_iter=max_iter, x0=x0)
            entries.append(SweepEntry(eps=eps, pair=pair))
            if warm_start:
                x0 = pair.u
        except Exception as exc:  # per-entry propagation
            entries.append(SweepEntry(eps=eps, error="%s: %s" % (type(exc).__name__, exc)))
    return entries


@dataclass(frozen=True)
class ExtrapolationResult:
    lambda0: float
    error: float  # magnitude of the applied correction
    p: float  # fitted order


def extrapolate_limit(sweep):
    """Richardson limit of lam_eps = lam0 + a*eps^p on a geometric schedule.

    Accepts SweepEntry lists or (eps, lam) pairs; needs >= 3 entries with a
    ratio constant to 1%. Fitted from the last three points. Sweep entries
    without a certified pair are left out.
    """
    data = []
    for item in sweep:
        if isinstance(item, SweepEntry):
            if not item.ok:
                continue
            data.append((item.eps, item.pair.lam))
        else:
            e, l = item
            data.append((float(e), float(l)))
    if len(data) < 3:
        raise ScheduleError("need at least 3 sweep points to extrapolate")
    eps = np.array([e for e, _ in data])
    lam = np.array([l for _, l in data])
    r = eps[1:] / eps[:-1]
    if np.any(np.abs(r / r[0] - 1.0) > 0.01):
        raise ScheduleError("eps schedule is not geometric (ratio varies > 1%)")
    ratio = float(r[-1])
    d1 = lam[-2] - lam[-3]
    d2 = lam[-1] - lam[-2]
    if d1 == 0.0 and d2 == 0.0:
        return ExtrapolationResult(float(lam[-1]), 0.0, math.nan)
    if d1 == 0.0:
        return ExtrapolationResult(float(lam[-1]), abs(float(d2)), math.nan)
    q = d2 / d1
    if not 0.0 < q < 1.0:
        # non-contracting differences: no model fit, report last value
        return ExtrapolationResult(float(lam[-1]), abs(float(d2)), math.nan)
    p = math.log(q) / math.log(ratio)
    corr = d2 * q / (1.0 - q)
    return ExtrapolationResult(float(lam[-1] + corr), abs(float(corr)), float(p))
