"""Finite-difference assembly of eps*Lap + b.grad + c on uniform periodic grids.

The operator is stored in stencil form: a diagonal and, for each of the 2*dim
periodic neighbours x + h*e_a and x - h*e_a, one coefficient per row. Rows are
numbered row-major on the (n,)*dim grid, so a neighbour along axis a sits
n**(dim-1-a) rows away in flat memory except where it wraps around the torus;
no row index map is stored. The mat-vec multiplies each neighbour's
coefficients by x read at that flat shift, fixes the wrapped rows through a
grid view, and sums the neighbour terms in a fixed order, so its result is
deterministic. Assembly samples each field straight into the output arrays
with TrigExpr.on_grid, c into the diagonal and b_a into the x - h*e_a
coefficients, and builds the stencil there in place, after a check that
bounds every coefficient from the fields' harmonics. Upwind advection keeps
every off-diagonal entry nonnegative for any eps and h, which is what gives
the discrete operator a real simple leading eigenvalue with a positive
eigenvector.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientOverflowError, GridTooLargeError
from .expr import grid_angles

TWO_PI = 2.0 * math.pi

# refuse grids with more rows than this
MAX_GRID_SIZE = 2**24

# assemble requires its a-priori coefficient bound times this to be finite
OVERFLOW_MARGIN = 1.0 + 2.0**-20

__all__ = ["Grid", "SparseOperator", "assemble"]


@dataclass(frozen=True)
class Grid:
    dim: int
    n: int

    def __post_init__(self):
        for v in (self.dim, self.n):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError("grid dim and n must be integers, got %r" % (v,))
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.n < 8:
            raise ValueError("need at least 8 points per axis")

    @property
    def h(self):
        return TWO_PI / self.n

    @property
    def size(self):
        return self.n**self.dim

    def axis(self):
        return grid_angles(self.n)

    def coord_arrays(self):
        """dim arrays of length size: coordinates of every grid point, row-major."""
        mesh = np.meshgrid(*([self.axis()] * self.dim), indexing="ij")
        return [m.ravel() for m in mesh]

    def open_mesh(self):
        """dim broadcastable axis arrays, the a-th of shape (n,) along axis a
        and 1 elsewhere; fields evaluated on them have shape (n,)*dim."""
        return np.meshgrid(*([self.axis()] * self.dim), indexing="ij", sparse=True)


class SparseOperator:
    """Stencil-form sparse matrix on a periodic grid.

    Row r is diag[r]*x[r] + sum_k off[k, r]*x[r_k], where r_k is the row of
    the x + h*e_a neighbour for k = 2a and of the x - h*e_a neighbour for
    k = 2a + 1, rows numbered row-major on the (n,)*dim grid. apply forms
    each neighbour term in one scratch row: a multiply over the contiguous
    rows at flat stride n**(dim-1-a), then one over the n**(dim-1) rows
    that wrap around axis a, which overwrites the rows the flat shift got
    wrong. It adds the terms to out in the order k = 0, 1, ..., so each row
    sees the same products summed in the same order for any out and x. The
    scratch row is the operator's own, made by the first apply, so apply is
    not safe to call from two threads at once on one operator.
    """

    def __init__(self, grid, diag, off):
        self.grid = grid
        self.diag = diag  # (N,)
        self.off = off  # (2*dim, N) neighbour coefficients
        self.min_offdiag = float(off.min())
        self._shifts = _shift_plan(grid, off)
        self._term = None  # apply's scratch row

    @property
    def is_metzler(self):
        return self.min_offdiag >= 0.0

    @property
    def is_irreducible(self):
        # strictly positive couplings to all 2*dim periodic neighbors make the
        # stencil graph strongly connected; weaker cases are not certified
        return self.min_offdiag > 0.0

    def apply(self, x, out=None):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.grid.size,):
            raise ValueError("vector length %d, expected %d" % (x.size, self.grid.size))
        if out is None:
            out = _line_aligned_empty(self.grid.size)
        elif np.may_share_memory(out, x):
            raise ValueError("out must not overlap x")
        np.multiply(self.diag, x, out=out)
        shape = (self.grid.n,) * self.grid.dim
        grid_x = x.reshape(shape)
        if self._term is None:
            self._term = _line_aligned_empty(self.grid.size)
        term = self._term
        grid_term = term.reshape(shape)
        for off, wrap_off, dst, src, wrap_dst, wrap_src in self._shifts:
            np.multiply(off, x[src], out=term[dst])
            np.multiply(wrap_off, grid_x[wrap_src], out=grid_term[wrap_dst])
            out += term
        return out


def _line_aligned_empty(size):
    """An uninitialised float row of length size whose first element starts
    a 64-byte cache line. numpy allocates at 16-byte alignment, and its
    multiply into an output that does not start a line ran at about half
    speed (32,768 rows: 22 vs 11 us on an AVX-512 Xeon)."""
    buf = np.empty(size + 7)
    lead = -(ctypes.addressof(ctypes.c_char.from_buffer(buf)) // 8) % 8
    return buf[lead:lead + size]


def _shift_plan(grid, off):
    """Per neighbour k, the operands (off[k, dst], wrap_off, dst, src,
    wrap_dst, wrap_src) of apply.

    Along axis a the x + h*e_a neighbour (k = 2a) of a row is st =
    n**(dim-1-a) rows on and the x - h*e_a neighbour (k = 2a + 1) st rows
    back, so the flat slices dst and src pair each row with its neighbour,
    except on the face of axis a that wraps around the torus. On the
    (n,)*dim grid, wrap_dst indexes that face, wrap_off is off[k] there and
    wrap_src the opposite face, which holds its periodic neighbours. Like
    min_offdiag, the views of off assume it is not replaced."""
    n, dim, size = grid.n, grid.dim, grid.size
    grid_off = off.reshape((2 * dim,) + (n,) * dim)

    def face(a, i):
        return (slice(None),) * a + (i, Ellipsis)

    plan = []
    for a in range(dim):
        st = n ** (dim - 1 - a)
        for k, dst, src, wrap_dst, wrap_src in (
                (2 * a, slice(0, size - st), slice(st, size), face(a, n - 1), face(a, 0)),
                (2 * a + 1, slice(st, size), slice(0, size - st), face(a, 0), face(a, n - 1))):
            plan.append((off[k, dst], grid_off[k][wrap_dst], dst, src, wrap_dst, wrap_src))
    return plan


def assemble(scenario, grid, eps):
    """Discrete eps*Lap + b.grad + c in stencil form, with upwind differences
    for the drift."""
    if grid.dim != scenario.dim:
        raise ValueError("grid dim %d != scenario dim %d" % (grid.dim, scenario.dim))
    if grid.size > MAX_GRID_SIZE:
        raise GridTooLargeError(
            "grid has %d rows (> %d)" % (grid.size, MAX_GRID_SIZE))
    n, dim, h = grid.n, grid.dim, grid.h
    lap = eps / (h * h)
    # the diagonal holds -2*dim*lap, so that must not overflow either
    if not 0.0 < 2 * dim * lap < math.inf:
        raise ValueError("eps/h^2 = %r must be finite and positive" % lap)
    # |f| <= sum |a_m| bounds every diag and off entry by this sum of bounds;
    # the margin covers the rounding of the sums that form each sample
    bound = (scenario.c.abs_sum(dim) + 2 * dim * lap
             + sum(b.abs_sum(dim) for b in scenario.b) / h)
    if not math.isfinite(bound * OVERFLOW_MARGIN):
        raise CoefficientOverflowError(
            "c and b/h reach %r, past the float range" % bound)
    # every array below is built in place in diag or off
    diag = scenario.c.on_grid(n, dim)
    diag += -2.0 * dim * lap
    off = np.empty((2 * dim, grid.size))
    for a, b in enumerate(scenario.b):
        ba = b.on_grid(n, dim, out=off[2 * a + 1])
        bp = np.maximum(ba, 0.0, out=off[2 * a])
        bm = np.maximum(np.negative(ba, out=ba), 0.0, out=ba)
        bp /= h
        bm /= h
        # one of bp, bm is 0 in each row, so this is exactly diag - (bp + bm)/h
        diag -= bp
        diag -= bm
        bp += lap
        bm += lap
    return SparseOperator(grid, diag, off)
