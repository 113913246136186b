"""Principal eigenpair of Metzler stencil operators by thick-restart
Arnoldi, certified by a Collatz-Wielandt bracket.

The Krylov basis holds KRYLOV_DIM vectors. After each cycle the rightmost
Ritz pair of the projected matrix gives lam and u, and one operator apply
gives the bracket [min (Au)_i/u_i, max (Au)_i/u_i]. For a Metzler,
irreducible A and any u > 0 that bracket contains the Perron eigenvalue, so
its width bounds the error of lam. Between cycles the basis is cut back to
the span of the KEEP rightmost Ritz vectors, in place (Stewart's
Krylov-Schur restart, with an orthonormalized real basis of Ritz vectors in
place of the Schur vectors). A run whose bracket stalls is repeated once in
the diagonal gauge of its u, where the Perron vector is near 1 everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError, NonMetzlerError, NotIrreducibleError, ScheduleError
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

# Krylov basis size, and Ritz vectors kept across a restart
KRYLOV_DIM = 30
KEEP = 10
# give up, uncertified, after this many cycles without a narrower bracket
STALL_CYCLES = 10
# refuse to allocate a Krylov basis of (KRYLOV_DIM + 1) float64 rows larger than this
BASIS_MAX_BYTES = 2**30


@dataclass
class EigenPair:
    lam: float
    u: np.ndarray  # positive when certified, sum(u^2)*h^dim = 1
    residual: float  # sup|A u - lam u| / sup|u|
    iterations: int  # operator applies made by the solver
    certified: bool
    lam_lo: float  # Collatz-Wielandt bracket at u: min (Au)_i/u_i
    lam_hi: float  # max (Au)_i/u_i; both infinite unless u > 0


def principal_eigenpair(op, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, x0=None):
    """Leading eigenvalue and positive eigenfunction of a Metzler operator.

    Certified means u > 0, lam_lo <= lam <= lam_hi, and the bracket
    [lam_lo, lam_hi] is at most tol*max(1, |lam|) wide. `iterations` counts
    every op.apply call, at most max_iter of them. A run ends when they run
    out, or when STALL_CYCLES cycles in a row improve neither the bracket
    width nor, at equal width, the residual. A Ritz vector is accurate in
    norm, not entry by entry, so where u spans many decades a stalled
    bracket is rounding in u's small entries. A run that stalls at a
    positive u is followed by one more run in the gauge of that u: Arnoldi
    on D^-1 A D with D = diag(u), applied as op.apply(u*v)/u, whose Perron
    vector is near 1 in every entry. The iterate with the narrowest bracket
    (without one, the smallest residual) is returned, flagged uncertified
    unless its bracket meets tol.
    """
    if not op.is_metzler:
        raise NonMetzlerError(
            "off-diagonal entries reach %g < 0" % op.min_offdiag)
    if not op.is_irreducible:
        raise NotIrreducibleError(
            "zero neighbor couplings: Perron structure not certified")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 2:
        raise ValueError("max_iter must allow one Arnoldi step and one check")
    size = op.grid.size
    m = KRYLOV_DIM
    if (m + 1) * size * 8 > BASIS_MAX_BYTES:
        raise GridTooLargeError(
            "Krylov basis of %d x %d floats exceeds %d bytes"
            % (m + 1, size, BASIS_MAX_BYTES))
    if x0 is None:
        x = np.ones(size)
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (size,):
            raise ValueError("x0 has wrong length")

    V = np.empty((m + 1, size))  # rows are the orthonormal basis vectors
    with np.errstate(over="ignore", under="ignore"):
        squares = np.sum(x * x)
    if not np.finfo(float).tiny <= squares < math.inf:
        # zero, not finite, or a squared norm that over- or underflowed:
        # only the last is a valid start, once scaled by max|x|
        scale = np.max(np.abs(x))
        if not 0.0 < scale < math.inf:
            raise ValueError("x0 must be finite and nonzero")
        x = x / scale
        squares = np.sum(x * x)
    V[0] = x / math.sqrt(squares)
    best, calls, stalled = _arnoldi(op, V, None, tol, max_iter)
    lam, u, residual, certified, lo, hi = best
    if stalled and not certified and lo > -math.inf and max_iter - calls >= 2:
        V[0] = 1.0 / math.sqrt(size)
        gauged, more, _ = _arnoldi(op, V, u, tol, max_iter - calls)
        calls += more
        best = min(best, gauged, key=_rank)

    lam, u, residual, certified, lo, hi = best
    u = u / math.sqrt(np.sum(u * u) * op.grid.h**op.grid.dim)
    return EigenPair(lam=lam, u=u, residual=residual, iterations=calls,
                     certified=certified, lam_lo=lo, lam_hi=hi)


def _arnoldi(op, V, gauge, tol, max_calls):
    """One thick-restart Arnoldi run from the unit vector V[0], on op or,
    with a positive gauge u, on diag(u)^-1 op diag(u).

    Returns (the best iterate (lam, u, residual, certified, lo, hi) by
    _rank, op.apply calls made, whether it stopped on a stall). u and its
    bracket are always op's, so a gauge changes only the basis.
    """
    m = V.shape[0] - 1
    H = np.zeros((m + 1, m))  # A V[:j].T = V[:j+1].T H[:j+1, :j]
    scaled = None if gauge is None else np.empty_like(gauge)
    j = 0  # basis vectors with their column of H
    calls = 0
    best = None
    stale = 0
    roundoff = np.finfo(float).eps
    while True:
        invariant = False
        for _ in range(min(m - j, max_calls - calls - 1)):
            if gauge is None:
                w = op.apply(V[j], out=V[j + 1])  # the next basis row, made in place
            else:
                w = op.apply(np.multiply(gauge, V[j], out=scaled), out=V[j + 1])
                w /= gauge
            calls += 1
            basis = V[:j + 1]
            h = basis @ w
            w -= h @ basis
            dh = basis @ w  # classical Gram-Schmidt, once more
            w -= dh @ basis
            H[:j + 1, j] = h + dh
            beta = math.sqrt(np.sum(w * w))
            H[j + 1, j] = beta
            j += 1
            if beta <= roundoff * math.sqrt(np.sum(H[:j, j - 1] ** 2)):
                invariant = True  # the Ritz values of H[:j, :j] are exact
                break
            w /= beta

        theta, Y = np.linalg.eig(H[:j, :j])
        order = np.argsort(-theta.real)
        lam = float(theta[order[0]].real)
        u = Y[:, order[0]].real @ V[:j]
        if gauge is not None:
            u *= gauge
        if np.sum(u) < 0:
            u = -u
        au = op.apply(u)
        calls += 1
        residual = float(np.max(np.abs(au - lam * u)) / np.max(np.abs(u)))
        lo, hi = -math.inf, math.inf
        if u.min() > 0.0:
            ratio = au / u
            lo, hi = float(ratio.min()), float(ratio.max())
            # the Perron value lies in [lo, hi], so moving lam there only helps
            lam = min(max(lam, lo), hi)
        certified = hi - lo <= tol * max(1.0, abs(lam))
        iterate = (lam, u, residual, certified, lo, hi)
        if best is None or _rank(iterate) < _rank(best):
            best, stale = iterate, 0
        else:
            stale += 1  # neither bracket nor residual improves: rounding
        if certified or invariant or stale == STALL_CYCLES or max_calls - calls < 2:
            return best, calls, stale == STALL_CYCLES
        if j == m:
            j = _restart(V, H, theta, Y, order)


def _rank(iterate):
    """Order of iterates: narrower bracket first, then smaller residual."""
    lam, u, residual, certified, lo, hi = iterate
    return hi - lo, residual


def _restart(V, H, theta, Y, order):
    """Cut the Arnoldi relation back to the KEEP rightmost Ritz vectors.

    A complex pair enters once, as the real and imaginary parts of its member
    with imag > 0: that real basis spans the same H-invariant subspace, which
    keeps the relation exact. Returns the new basis size.
    """
    m = H.shape[1]
    cols = []
    for i in order:
        if theta[i].imag > 0:
            cols += [Y[:, i].real, Y[:, i].imag]
        elif theta[i].imag == 0:
            cols.append(Y[:, i].real)
        if len(cols) >= KEEP:
            break
    Q, _ = np.linalg.qr(np.array(cols).T)
    k = Q.shape[1]
    coupling = H[m, m - 1] * Q[m - 1]
    projected = Q.T @ H[:m, :m] @ Q
    V[:k] = Q.T @ V[:m]
    V[k] = V[m]
    H[:] = 0.0
    H[:k, :k] = projected
    H[k, :k] = coupling
    return k


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


def eigen_sweep(scenario, n, eps_list, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """One certified eigenpair per eps, each solve started from the previous
    entry's eigenfunction.

    Per-entry failures are recorded on the entry, not raised, so one bad
    epsilon does not abort the rest of the sweep.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ScheduleError("eps schedule must be positive and finite")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ScheduleError("eps schedule must be strictly decreasing")
    grid = Grid(scenario.dim, n)
    entries = []
    x0 = None
    for eps in eps_list:
        try:
            op = assemble(scenario, grid, eps)
            pair = principal_eigenpair(op, tol=tol, max_iter=max_iter, x0=x0)
            entries.append(SweepEntry(eps=eps, pair=pair))
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

    Takes eigen_sweep's SweepEntry list; entries without a certified pair
    are left out. Needs >= 3 certified entries, eps strictly decreasing with
    a ratio constant to 1%. Fitted from the last three points.
    """
    data = [(item.eps, item.pair.lam) for item in sweep if item.ok]
    if len(data) < 3:
        raise ScheduleError("need at least 3 sweep points to extrapolate")
    eps = np.array([e for e, _ in data])
    lam = np.array([l for _, l in data])
    if np.any(eps[1:] >= eps[:-1]):
        raise ScheduleError("eps schedule must be strictly decreasing")
    r = eps[1:] / eps[:-1]
    if np.any(np.abs(r / r[0] - 1.0) > 0.01):
        raise ScheduleError("eps schedule is not geometric (ratio varies > 1%)")
    ratio = float(r[-1])
    d1 = lam[-2] - lam[-3]
    d2 = lam[-1] - lam[-2]
    q = d2 / d1 if d1 != 0.0 else math.nan
    if not 0.0 < q < 1.0:
        # non-contracting differences: no model fit, report last value
        return ExtrapolationResult(float(lam[-1]), abs(float(d2)), math.nan)
    p = math.log(q) / math.log(ratio)
    corr = d2 * q / (1.0 - q)
    return ExtrapolationResult(float(lam[-1] + corr), abs(float(corr)), float(p))
