"""Principal eigenpair of Metzler stencil operators by thick-restart
Arnoldi, certified by a Collatz-Wielandt bracket.

One Arnoldi loop grows a basis of KRYLOV_DIM vectors by one map, step, and
cuts it back between cycles to the span of the KEEP rightmost Ritz vectors,
in place (Stewart's Krylov-Schur restart, with an orthonormalized real basis
of Ritz vectors in place of the Schur vectors). After each cycle, and on a
1D grid also after its EARLY_STEPS-th step, one apply of A at the rightmost
Ritz vector u gives lam (A's Rayleigh quotient), the residual and the
bracket [min (Au)_i/u_i, max (Au)_i/u_i] (_certify). For
a Metzler, irreducible A and any u > 0 that bracket contains the Perron
eigenvalue, so its width bounds the error of lam.

The step is any map with A's Perron vector as its dominant eigenvector;
SparseOperator._perron_step checks that the bracket holds for A, guards the
memory, and gives A itself or, on a 1D grid, a shifted inverse with a wide
gap. The solver reads the operator only through that, apply and grid. A run
whose bracket stalls restarts once, in the same loop, with step the gauge
v -> step(u*v)/u of its best u, whose Perron vector is ~1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DriftlabError, ScheduleError
from .expr import _is_int, _is_real, _real_array
from .operator import BLOCK_ROWS, Grid, _check_memory, _line_aligned_empty, assemble

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
# on a 1D grid, one more check after this many steps of each cycle: the
# shifted inverse's gap certifies most solves in 4 or 5
EARLY_STEPS = 6


@dataclass
class EigenPair:
    lam: float  # (u @ Au)/(u @ u): the u^2-weighted mean of the ratios (Au)_i/u_i
    u: np.ndarray  # positive when certified, sum(u^2)*h^dim = 1
    residual: float  # sup|A u - lam u| / sup|u|
    iterations: int  # steps (1D: solves, else applies) plus certifying applies
    certified: bool
    lam_lo: float  # Collatz-Wielandt bracket at u: min (Au)_i/u_i
    lam_hi: float  # max (Au)_i/u_i; both infinite unless u > 0


def principal_eigenpair(op, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, x0=None):
    """Leading eigenvalue and positive eigenfunction of a Metzler operator.

    Certified means u > 0, lam_lo <= lam <= lam_hi, and the bracket [lam_lo,
    lam_hi] is at most tol*max(1, |lam|) wide, for 0 < tol < inf. Arnoldi
    iterates the step op._perron_step gives, any map with A's Perron vector:
    op.apply on a 2D or 3D grid, on a 1D grid a solve with (sigma - A).
    lam, the residual and the bracket come from one apply of A at u. x0,
    N real numbers as _real_array reads them, finite and not all zero, is
    checked before the step is made, and so before the step's checks of op.
    `iterations` counts the steps and the one op.apply per _certify, at most
    max_iter of them. Each cycle ends in a check. On a 1D grid, whose
    shifted inverse converges in a few solves, the rightmost Ritz vector is
    also checked after the cycle's EARLY_STEPS-th solve, where the budget
    leaves room for the cycle's own check. That check ends the run if it
    certifies and is dropped if not: a solve it does not certify takes the
    same steps, each check costing one apply of the budget. 2D and 3D
    solves check only at a cycle's end, where a check inside the cycle
    would move where they stop, and so their bits. A run ends when the
    budget runs out, or when STALL_CYCLES cycles in a row improve neither
    the bracket width nor, at equal width, the residual. A Ritz vector is
    accurate in norm, not entry by entry, so where u spans many decades a
    stalled bracket is rounding in u's small entries. The first stall at a
    positive u therefore restarts the run, once, with step the gauge D^-1
    step D, D = diag(u), applied as step(u*v)/u: its Perron vector is near
    1 in every entry, and its Ritz vectors times D are certified with A.
    The iterate with the narrowest bracket (without one, the smallest
    residual) is returned, flagged uncertified unless its bracket meets
    tol. Beside op the solve holds at most _solve_floats(op.grid)
    grid-sized floats, among them the basis, its rows on cache lines, and
    a scratch row for Gram-Schmidt's products, plus a 1D step's factor;
    _perron_step counts both and raises GridTooLargeError before any step
    if they pass the byte budget.
    """
    _check_budget(tol, max_iter)
    size = op.grid.size
    x = np.ones(size) if x0 is None else _real_array(x0, "x0")
    if x.shape != (size,):
        raise ValueError("x0 has wrong length")
    top = float(np.max(np.abs(x)))
    if not 0.0 < top < math.inf:
        raise ValueError("x0 must be finite and nonzero")
    m = KRYLOV_DIM
    base = op._perron_step(_solve_floats(op.grid))

    V = _line_aligned_empty(m + 1, size)  # rows are the orthonormal basis vectors
    # an exact power-of-two scaling to max|x| in [1/2, 1): the squared norm
    # neither over- nor underflows, and the unit vector is that of x0. It is
    # made in V[0], so the solve keeps no row of x0 beside the basis
    x = np.ldexp(x, -math.frexp(top)[1], out=V[0])
    x /= math.sqrt(np.sum(x * x))
    scratch = _line_aligned_empty(size)  # Gram-Schmidt's products, in place
    H = np.zeros((m + 1, m))  # step(V[:j].T) = V[:j+1].T H[:j+1, :j]
    step = base
    gauge = 1.0  # D: a Ritz vector of step times D is one of A
    early = op.grid.dim == 1  # the shifted inverse's wide gap
    j = 0  # basis vectors with their column of H
    calls = 0
    best, stale = None, 0
    roundoff = np.finfo(float).eps
    while True:
        invariant = done = False
        first = j
        while j < m and calls < max_iter - 1:
            w = step(V[j], out=V[j + 1])  # the next basis row, made in place
            calls += 1
            basis = V[:j + 1]
            h = basis @ w
            w -= np.matmul(h, basis, out=scratch)
            dh = basis @ w  # classical Gram-Schmidt, once more
            w -= np.matmul(dh, basis, out=scratch)
            h += dh
            H[:j + 1, j] = h
            beta = math.sqrt(np.add.reduce(np.multiply(w, w, out=scratch)))
            H[j + 1, j] = beta
            j += 1
            if beta <= roundoff * math.sqrt(h @ h):
                invariant = True  # the Ritz values of H[:j, :j] are exact
                break
            w /= beta
            if early and j - first == EARLY_STEPS and calls < max_iter - 1:
                # one check inside the cycle, kept only if it certifies, and
                # made only where the cycle's own check still fits after it
                pair = _certify(op, _ritz(H, V, j, gauge)[3], tol)
                calls += 1
                if pair.certified:
                    best = pair
                    done = True
                    break
                del pair

        if done:
            break
        theta, Y, order, u = _ritz(H, V, j, gauge)
        pair = _certify(op, u, tol)
        calls += 1
        if best is None or _rank(pair) < _rank(best):
            best, stale = pair, 0
        else:
            stale += 1  # neither bracket nor residual improves: rounding
        if pair.certified or max_iter - calls < 2:
            break
        del u, pair  # of this cycle's rows, only best's is kept
        if stale == STALL_CYCLES and step is base and best.lam_lo > -math.inf:
            # restart from the constant vector in the gauge of the best u; a
            # stale H would move lam and the bracket in the last digits
            gauge = best.u
            def step(v, out):
                return np.divide(base(gauge * v, out=out), gauge, out=out)
            V[0] = 1.0 / math.sqrt(size)
            H[:] = 0.0
            j = stale = 0
        elif invariant or stale == STALL_CYCLES:
            break
        elif j == m:
            j = _restart(V, H, theta, Y, order)

    u = best.u / math.sqrt(np.sum(best.u * best.u) * op.grid.h**op.grid.dim)
    return replace(best, u=u, iterations=calls)


def _ritz(H, V, j, gauge):
    """The eigenpairs (theta, Y) of H[:j, :j], the order of decreasing real
    part, and the rightmost Ritz vector of A: the real part of that
    eigenvector of H applied to the basis V[:j], times the gauge D."""
    theta, Y = np.linalg.eig(H[:j, :j])
    order = np.argsort(-theta.real)
    u = Y[:, order[0]].real @ V[:j]
    u *= gauge
    return theta, Y, order, u


def _certify(op, u, tol):
    """u checked against op by one op.apply: u's sign fixed in place, lam =
    (u @ Au) / (u @ u), the residual and the Collatz-Wielandt bracket. For
    u > 0, lam is a u^2-weighted mean of the bracket's ratios, so it lies
    inside. Beside u it makes two grid rows: Au and one scratch row."""
    if np.sum(u) < 0:
        np.negative(u, out=u)
    au = op.apply(u)
    lam = float(u @ au) / float(u @ u)
    row = lam * u  # the scratch row: Au - lam u, |u|, then the ratios
    np.subtract(au, row, out=row)
    misfit = np.max(np.abs(row, out=row))
    residual = float(misfit / np.max(np.abs(u, out=row)))
    lo, hi = -math.inf, math.inf
    if u.min() > 0.0:
        np.divide(au, u, out=row)
        lo, hi = float(row.min()), float(row.max())
        lam = min(max(lam, lo), hi)  # the rounding of the mean
    return EigenPair(lam=lam, u=u, residual=residual, iterations=1,
                     certified=hi - lo <= tol * max(1.0, abs(lam)),
                     lam_lo=lo, lam_hi=hi)


def _solve_floats(grid):
    """The grid-sized floats a solve on grid holds at most, one term per
    array; _perron_step adds what a 1D step's factor holds. The Gram-Schmidt
    scratch row lives as long as the basis, and a 1D cycle's early check
    holds the rows of a check at a cycle's end."""
    size = grid.size
    return ((KRYLOV_DIM + 1) * size  # the basis V
            + size  # the Gram-Schmidt scratch row
            + (KEEP + 1) * min(size, BLOCK_ROWS)  # a block of _restart's product
            + 3 * size  # _certify's u, Au and scratch row
            + 2 * size)  # the best pair's u and the gauge


def _check_budget(tol, max_iter):
    if not _is_real(tol):
        raise ValueError("tol must be a real number, got %r" % (tol,))
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if not _is_int(max_iter):
        raise ValueError("max_iter must be an integer, got %r" % (max_iter,))
    if max_iter < 2:
        raise ValueError("max_iter must allow one Arnoldi step and one check")


def _rank(pair):
    """Order of iterates: narrower bracket first, then smaller residual."""
    return pair.lam_hi - pair.lam_lo, pair.residual


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
    # V[:k] = Q.T @ V[:m] in place, in column blocks of equal width, at most
    # BLOCK_ROWS, so the product is one block, not a second basis. A block
    # one column wide would go through gemv, not gemm, and could round its
    # column differently from the whole product; equal widths avoid it
    size = V.shape[1]
    blocks = -(-size // BLOCK_ROWS)
    width = -(-size // blocks)
    for c in range(0, size, width):
        block = V[:, c:c + width]
        block[:k] = Q.T @ block[:m]
        block[k] = block[m]
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


def eigen_sweep(scenario, n, eps_list, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """One certified eigenpair per eps, each solve started from the previous
    entry's eigenfunction.

    A bad budget, schedule or grid raises before any assembly. The grid is
    refused by _check_memory when one solve (_solve_floats, plus a 1D step's
    factor), the operator it runs on and the u of each entry finished
    before the last solve would pass the byte budget. A DriftlabError or
    ValueError (numpy's LinAlgError is one) of one entry is recorded on it,
    not raised; any other error, such as a field that is not a TrigExpr,
    propagates.
    """
    _check_budget(tol, max_iter)
    # text would be read a character at a time, a set in hash order and a
    # dict by its keys
    if not isinstance(eps_list, (str, bytes, set, frozenset, dict)):
        try:
            eps_list = list(eps_list)
        except TypeError:  # not iterable: a bare number, None, a 0-d array
            pass
    if not isinstance(eps_list, list):
        raise ScheduleError("eps schedule must be a sequence of numbers, got %r"
                            % (eps_list,))
    for e in eps_list:
        if not _is_real(e):
            raise ScheduleError("eps must be a real number, got %r" % (e,))
    eps_list = [float(e) for e in eps_list]
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ScheduleError("eps schedule must be positive and finite")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ScheduleError("eps schedule must be strictly decreasing")
    grid = Grid(scenario.dim, n)
    # a solve, the operator it runs on, and the u of each entry finished
    # before the last solve
    _check_memory(grid, _solve_floats(grid)
                  + (1 + 2 * grid.dim + len(eps_list) - 1) * grid.size)
    entries = []
    x0 = None
    for eps in eps_list:
        try:
            op = assemble(scenario, grid, eps)
            pair = principal_eigenpair(op, tol=tol, max_iter=max_iter, x0=x0)
            entries.append(SweepEntry(eps=eps, pair=pair))
            x0 = pair.u
        except (DriftlabError, ValueError) as exc:
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
    are left out. Needs >= 3 certified entries, eps strictly decreasing.
    Fitted from the last three points, whose two eps ratios must agree to 1%.
    """
    data = [(item.eps, item.pair.lam) for item in sweep if item.ok]
    if len(data) < 3:
        raise ScheduleError("need at least 3 sweep points to extrapolate")
    eps = np.array([e for e, _ in data])
    lam = np.array([l for _, l in data])
    if np.any(eps[1:] >= eps[:-1]):
        raise ScheduleError("eps schedule must be strictly decreasing")
    r = eps[-2:] / eps[-3:-1]
    if abs(r[1] / r[0] - 1.0) > 0.01:
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
