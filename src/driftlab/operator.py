"""Finite-difference assembly of eps*Lap + b.grad + c on uniform periodic grids.

The operator is stored in stencil form: a diagonal and, for each of the 2*dim
periodic neighbours x + h*e_a and x - h*e_a, one coefficient per row. The
neighbours are fixed periodic shifts of the (n,)*dim grid array, so no row
index map is stored: the mat-vec copies each shift by slices and sums the
neighbour terms in that fixed order, so its result is deterministic. Upwind
advection keeps every off-diagonal entry nonnegative for any eps and h, which
is what gives the discrete operator a real simple leading eigenvalue with a
positive eigenvector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError

TWO_PI = 2.0 * math.pi

# refuse grids with more rows than this
MAX_GRID_SIZE = 2**24

__all__ = ["Grid", "SparseOperator", "assemble"]


@dataclass(frozen=True)
class Grid:
    dim: int
    n: int

    def __post_init__(self):
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
        return TWO_PI * np.arange(self.n) / self.n

    def coord_arrays(self):
        """dim arrays of length size: coordinates of every grid point, row-major."""
        mesh = np.meshgrid(*([self.axis()] * self.dim), indexing="ij")
        return [m.ravel() for m in mesh]

    def open_mesh(self):
        """dim broadcastable axis arrays, the a-th of shape (n,) along axis a
        and 1 elsewhere; fields evaluated on them have shape (n,)*dim."""
        return np.meshgrid(*([self.axis()] * self.dim), indexing="ij", sparse=True)

    def flat_index(self, multi):
        return int(np.ravel_multi_index([m % self.n for m in multi], (self.n,) * self.dim))


class SparseOperator:
    """Stencil-form sparse matrix on a periodic grid.

    Row r is diag[r]*x[r] + sum_k off[k, r]*x[r_k], where r_k is the row of
    the x + h*e_a neighbour for k = 2a and of the x - h*e_a neighbour for
    k = 2a + 1, rows numbered row-major on the (n,)*dim grid.
    """

    def __init__(self, grid, diag, off):
        self.grid = grid
        self.diag = diag  # (N,)
        self.off = off  # (2*dim, N) neighbour coefficients
        self.min_offdiag = float(off.min())
        self._shifts = _shift_slices(grid)

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
        out = np.multiply(self.diag, x, out=out)
        grid_x = x.reshape((self.grid.n,) * self.grid.dim)
        shifted = np.empty(grid_x.shape)
        flat = shifted.reshape(-1)
        for off, pairs in zip(self.off, self._shifts):
            for dst, src in pairs:
                shifted[dst] = grid_x[src]
            out += np.multiply(flat, off, out=flat)
        return out

    def to_dense(self):
        grid = self.grid
        idx = np.arange(grid.size).reshape((grid.n,) * grid.dim)
        rows = idx.ravel()
        dense = np.diag(self.diag)
        for a in range(grid.dim):
            for k, step in ((2 * a, -1), (2 * a + 1, 1)):  # x + h*e_a, x - h*e_a
                dense[rows, np.roll(idx, step, axis=a).ravel()] += self.off[k]
        return dense


def _shift_slices(grid):
    """Per neighbour k, the (destination, source) slice pairs that copy the
    value at x + h*e_a (k = 2a) or x - h*e_a (k = 2a + 1) to x, periodically."""
    n, dim = grid.n, grid.dim

    def along(a, lo, hi):
        return (slice(None),) * a + (slice(lo, hi),) + (slice(None),) * (dim - a - 1)

    shifts = []
    for a in range(dim):
        shifts.append(((along(a, 0, n - 1), along(a, 1, n)),
                       (along(a, n - 1, n), along(a, 0, 1))))
        shifts.append(((along(a, 1, n), along(a, 0, n - 1)),
                       (along(a, 0, 1), along(a, n - 1, n))))
    return shifts


def assemble(scenario, grid, eps):
    """Discrete eps*Lap + b.grad + c in stencil form, with upwind differences
    for the drift."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if grid.dim != scenario.dim:
        raise ValueError("grid dim %d != scenario dim %d" % (grid.dim, scenario.dim))
    if grid.size > MAX_GRID_SIZE:
        raise GridTooLargeError(
            "grid has %d rows (> %d)" % (grid.size, MAX_GRID_SIZE))
    mesh = grid.open_mesh()
    drift = [_field(b, mesh) for b in scenario.b]
    h = grid.h
    lap = eps / (h * h)
    diag = np.full(grid.size, -2.0 * grid.dim * lap) + _field(scenario.c, mesh)
    off = np.empty((2 * grid.dim, grid.size))
    for a, ba in enumerate(drift):
        bp = np.maximum(ba, 0.0)
        bm = np.maximum(-ba, 0.0)
        off[2 * a] = lap + bp / h
        off[2 * a + 1] = lap + bm / h
        diag -= (bp + bm) / h
    return SparseOperator(grid, diag, off)


def _field(expr, mesh):
    """Samples of expr on the open mesh, flattened row-major."""
    return np.asarray(expr(*mesh), dtype=float).ravel()
