"""Finite-difference assembly of eps*Lap + b.grad + c on uniform periodic grids.

The operator is stored in stencil form: a diagonal and, for each of the 2*dim
periodic neighbours x + h*e_a and x - h*e_a, a row-index map and one
coefficient per row. The mat-vec sums the neighbour terms in that fixed
order, so its result is deterministic. Upwind advection keeps every
off-diagonal entry nonnegative for any eps and h, which is what gives the
discrete operator a real simple leading eigenvalue with a positive
eigenvector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError

TWO_PI = 2.0 * math.pi

# refuse grids with more rows than this
MAX_GRID_SIZE = 2**24

__all__ = ["Grid", "SparseOperator", "assemble", "assemble_gauged"]


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

    def flat_index(self, multi):
        return int(np.ravel_multi_index([m % self.n for m in multi], (self.n,) * self.dim))


class SparseOperator:
    """Stencil-form sparse matrix on a periodic grid.

    Row r is diag[r]*x[r] + sum_k off[k, r]*x[nbr[k, r]], where nbr[2a] and
    nbr[2a+1] map each row to its x + h*e_a and x - h*e_a neighbours.
    """

    def __init__(self, grid, diag, nbr, off):
        self.grid = grid
        self.diag = diag  # (N,)
        self.nbr = nbr  # (2*dim, N) row indices
        self.off = off  # (2*dim, N) neighbour coefficients
        self.min_offdiag = float(off.min())

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
        for nbr, off in zip(self.nbr, self.off):
            out += off * x[nbr]
        return out

    def to_dense(self):
        rows = np.arange(self.grid.size)
        dense = np.diag(self.diag)
        for nbr, off in zip(self.nbr, self.off):
            dense[rows, nbr] += off
        return dense


def _neighbor_indices(grid):
    """(2*dim, N) row indices of x + h*e_a and x - h*e_a, axis by axis."""
    idx = np.arange(grid.size).reshape((grid.n,) * grid.dim)
    maps = []
    for a in range(grid.dim):
        maps.append(np.roll(idx, -1, axis=a).ravel())  # index of x + h*e_a
        maps.append(np.roll(idx, +1, axis=a).ravel())  # index of x - h*e_a
    return np.stack(maps)


def _assemble_core(grid, diffusion, drift, pot):
    """A = diffusion*D2 + U(drift)*D1 + diag(pot) in stencil form, with
    upwind differences for the drift."""
    h = grid.h
    lap = diffusion / (h * h)
    diag = np.full(grid.size, -2.0 * grid.dim * lap) + pot
    off = np.empty((2 * grid.dim, grid.size))
    for a, ba in enumerate(drift):
        bp = np.maximum(ba, 0.0)
        bm = np.maximum(-ba, 0.0)
        off[2 * a] = lap + bp / h
        off[2 * a + 1] = lap + bm / h
        diag -= (bp + bm) / h
    return SparseOperator(grid, diag, _neighbor_indices(grid), off)


def _check_inputs(scenario, grid, eps):
    if not eps > 0:
        raise ValueError("eps must be positive")
    if grid.dim != scenario.dim:
        raise ValueError("grid dim %d != scenario dim %d" % (grid.dim, scenario.dim))
    if grid.size > MAX_GRID_SIZE:
        raise GridTooLargeError(
            "grid has %d rows (> %d)" % (grid.size, MAX_GRID_SIZE))


def assemble(scenario, grid, eps):
    """Discrete eps*Lap + b.grad + c with upwind advection."""
    _check_inputs(scenario, grid, eps)
    coords = grid.coord_arrays()
    drift = [np.asarray(scenario.b[i](*coords), dtype=float) for i in range(grid.dim)]
    pot = np.asarray(scenario.c(*coords), dtype=float)
    return _assemble_core(grid, eps, drift, pot)


def assemble_gauged(scenario, grid, eps):
    """Transformed operator eps^2*Lap + eps*(Omega,grad) + c_eps with
    Omega = b + grad L and c_eps = eps*(c + Lap L/2) + Psi_L,
    Psi_L = (|grad L|^2 + 2*(grad L, b))/4.

    Conjugation identity: exp(-L/2eps) * eps*(eps*Lap + b.grad + c) applied to
    exp(L/2eps)*w equals this operator applied to w, for smooth w.
    """
    _check_inputs(scenario, grid, eps)
    coords = grid.coord_arrays()
    b, gL, psi = _gauge_fields(scenario, coords)
    drift = [eps * (b[i] + gL[i]) for i in range(grid.dim)]
    pot = eps * (np.asarray(scenario.c(*coords), dtype=float)
                 + 0.5 * np.asarray(scenario.lap_L(*coords), dtype=float)
                 ) + psi
    return _assemble_core(grid, eps * eps, drift, pot)


def gauge_weight(scenario, grid):
    """Samples of Psi_L = (|grad L|^2 + 2(grad L, b))/4 on the grid."""
    return _gauge_fields(scenario, grid.coord_arrays())[2]


def _gauge_fields(scenario, coords):
    """Samples of b, grad L and Psi_L at coords, each field evaluated once."""
    b = [np.asarray(f(*coords), dtype=float) for f in scenario.b]
    gL = [np.asarray(f(*coords), dtype=float) for f in scenario.grad_L]
    return b, gL, 0.25 * sum(g * g + 2.0 * g * bi for g, bi in zip(gL, b))
