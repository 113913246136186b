"""Finite-difference assembly of eps*Lap + b.grad + c on uniform periodic grids.

The operator is stored in stencil form: a diagonal and, for each of the 2*dim
periodic neighbours x + h*e_a and x - h*e_a, one coefficient per row. Rows are
numbered row-major on the (n,)*dim grid, so a neighbour along axis a sits
n**(dim-1-a) rows away in flat memory except where it wraps around the torus;
no row index map is stored.

Assembly first checks a bound on every coefficient from the fields'
harmonics. Then it samples the whole of c into the diagonal and of each b_a
into the x - h*e_a coefficients (TrigExpr.on_grid), and builds the upwind
stencil there in place. That pass and the mat-vec walk the grid in the same
blocks of whole axis-0 slabs, at most BLOCK_ROWS rows each (_slab_blocks),
so that a block's rows stay in cache while either works on them. The
mat-vec, in each block, multiplies each neighbour's coefficients by x
read at that flat shift, fixes the wrapped rows through a grid view, and
sums the neighbour terms in a fixed order, so its result is deterministic
and does not depend on the blocks. Upwind advection keeps every off-diagonal
entry nonnegative for any eps and h, which is what gives the discrete
operator a real simple leading eigenvalue with a positive eigenvector. Every
operator, assembled or built from arrays, checks that on its off array:
min_offdiag is the least entry there, read each time it is asked for.

On a 1D grid the stencil is a periodic tridiagonal matrix, and for sigma
above every row sum sigma - A is a nonsingular M-matrix. The operator
factors it by odd-even cyclic reduction (Hockney, J. ACM 12, 1965), with no
pivoting, so that the eigensolver can iterate the step (sigma - A)^-1.
_perron_step hands the solver its step, any map with A's Perron vector,
after the checks that keep the solver's bracket valid and its memory in budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CoefficientOverflowError, GridTooLargeError, NonMetzlerError,
                     NotIrreducibleError)
from .expr import _check_row, _dim, _is_int, _is_real, _real_array, grid_angles

# bytes of the grid-sized float arrays one call may allocate (_check_memory)
MAX_BYTES = 2**30

# assemble requires its a-priori coefficient bound times this to be finite
OVERFLOW_MARGIN = 1.0 + 2.0**-20

# assemble and apply walk the grid in blocks of whole axis-0 slabs of at most
# this many rows (one slab when a slab is longer): 256 KB per float row, so a
# block of the rows either one works on stays in a 2 MB L2 cache
BLOCK_ROWS = 2**15

# a factor of sigma - A halves a 1D grid's rows by cyclic reduction down to
# at most this many, and solves those by their dense inverse. Each halving
# costs a solve about ten numpy calls, and each doubling of this costs the
# factor's inverse eight times the work: at 512 rows a solve took 53 us down
# to 64 rows against 107 us down to 4, and the factor 0.3 ms against 1.0 ms
# down to 128
DIRECT_ROWS = 64

__all__ = ["Grid", "SparseOperator", "assemble"]


@dataclass(frozen=True)
class Grid:
    dim: int
    n: int

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 8):
            raise ValueError("grid n must be an integer >= 8, got %r" % (self.n,))
        # a numpy integer would wrap around in n**dim
        object.__setattr__(self, "dim", _dim(self.dim))
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self):
        return math.tau / self.n

    @property
    def size(self):
        return self.n**self.dim

    def coord_arrays(self):
        """dim arrays of length size: coordinates of every grid point, row-major."""
        mesh = np.meshgrid(*([grid_angles(self.n)] * self.dim), indexing="ij")
        return [m.ravel() for m in mesh]


class SparseOperator:
    """Stencil-form sparse matrix on a periodic grid.

    Row r is diag[r]*x[r] + sum_k off[k, r]*x[r_k], where r_k is the row of
    the x + h*e_a neighbour for k = 2a and of the x - h*e_a neighbour for
    k = 2a + 1, rows numbered row-major on the (n,)*dim grid.

    diag must be a C-contiguous float64 array of shape (N,) and off one of
    shape (2*dim, N), N the grid's size. min_offdiag, the least entry of
    off, is what is_metzler and _perron_step read. It is read from off each
    time, so an edit of off in place is seen.

    apply walks the grid in the blocks of _slab_blocks, the blocks assemble
    builds it in: whole axis-0 slabs, at most BLOCK_ROWS rows each unless
    one slab is longer. In each block it writes diag*x to out, then
    forms each neighbour term in a block-sized scratch: a multiply over the
    block's rows at flat stride n**(dim-1-a), which reads x across the block
    edge along axis 0, then one over the block's rows that wrap around axis
    a, which overwrites the rows the flat shift got wrong. It adds the terms
    to the block of out in the order k = 0, 1, ..., so each row sees the
    same products summed in the same order for any out, x and blocks. The
    scratch and the views of diag, off and the scratch that each block uses
    are made once, with the operator, so apply is not safe to call from two
    threads at once on one operator. The views see edits of diag and off in
    place; grid, diag, off and _plan cannot be rebound once the operator is
    built, so the arrays apply reads are the ones _perron_step checks.
    """

    def __init__(self, grid, diag, off):
        _check_row(diag, (grid.size,), "diag")
        _check_row(off, (2 * grid.dim, grid.size), "off")
        self.__dict__.update(grid=grid,
                             diag=diag,  # (N,)
                             off=off,  # (2*dim, N) neighbour coefficients
                             _plan=_block_plan(grid, diag, off))

    def __setattr__(self, name, value):
        if name in ("grid", "diag", "off", "_plan"):
            raise AttributeError("SparseOperator.%s cannot be rebound" % name)
        super().__setattr__(name, value)

    @property
    def min_offdiag(self):
        return float(self.off.min())

    @property
    def is_metzler(self):
        return self.min_offdiag >= 0.0

    def apply(self, x, out=None):
        """A x, into out if given (a C-contiguous float64 array of shape (N,)
        that overlaps neither x nor the stencil), else into a new row. x is
        N real numbers as _real_array reads them, else ValueError."""
        size = self.grid.size
        x = _real_array(x, "x")
        if x.shape != (size,):
            raise ValueError("vector length %d, expected %d" % (x.size, size))
        if out is None:
            out = _line_aligned_empty(size)
        else:
            _check_row(out, (size,), "out")
            if np.may_share_memory(out, x):
                raise ValueError("out must not overlap x")
            if np.may_share_memory(out, self.diag) or np.may_share_memory(out, self.off):
                raise ValueError("out must not overlap the operator's diag or off")
        grid_x = x.reshape((self.grid.n,) * self.grid.dim)
        for rows, diag, term, terms in self._plan:
            block = out[rows]
            np.multiply(diag, x[rows], out=block)
            for off, dst, src, wraps in terms:
                np.multiply(off, x[src], out=dst)
                for wrap_off, wrap_dst, wrap_src in wraps:
                    np.multiply(wrap_off, grid_x[wrap_src], out=wrap_dst)
                block += term
        return out

    def _perron_step(self, floats):
        """The map step(v, out) that an eigensolver holding `floats`
        grid-sized floats of its own (eigen._solve_floats) iterates: any map
        whose dominant eigenvector is A's Perron vector, apply on a 2D or 3D
        grid and on a 1D grid a solve with sigma - A. It first raises the
        typed error of an entry that is not finite, a negative coupling or a
        zero one, where the Collatz-Wielandt bracket would not hold, then
        GridTooLargeError from _check_memory, which adds to `floats` what a
        1D step's factor holds."""
        for entries in (self.diag, self.off):
            if not (math.isfinite(entries.min()) and math.isfinite(entries.max())):
                raise CoefficientOverflowError("operator entries must be finite")
        least = self.min_offdiag
        if least < 0.0:
            raise NonMetzlerError("off-diagonal entries reach %g < 0" % least)
        # strictly positive couplings to all 2*dim periodic neighbors make the
        # stencil graph strongly connected; weaker cases are not certified
        if least == 0.0:
            raise NotIrreducibleError(
                "zero neighbor couplings: Perron structure not certified")
        _check_memory(self.grid, floats)
        if self.grid.dim > 1:
            return self.apply
        # the Perron value of a Metzler A is at most its largest row sum; the
        # margin is far above the rounding of the sums and of the factor's
        # eliminations, a few ulps of the largest absolute row sum
        couplings = self.off.sum(0)
        hi = float(np.max(self.diag + couplings))  # the largest row sum
        scale = float(np.max(np.abs(self.diag) + couplings))
        sigma = hi + max(2.0**-20 * max(1.0, abs(hi)), 2.0**-40 * scale)
        return _CyclicFactor(self.diag, self.off, sigma).solve


def _check_memory(grid, solve=None):
    """The one memory rule: GridTooLargeError unless the grid-sized floats a
    call on grid is about to hold fit MAX_BYTES. Without `solve` that is
    assemble's diag and off, (1 + 2*dim)*N; with it, the `solve` floats an
    eigensolver holds (eigen._solve_floats: its basis, the restart's block,
    the rows it certifies, keeps and gauges with, and for eigen_sweep also
    its operator and finished entries) plus, on a 1D grid, the factor of
    its step (_CyclicFactor.floats)."""
    floats = ((1 + 2 * grid.dim) * grid.size if solve is None else
              solve + (_CyclicFactor.floats(grid.size) if grid.dim == 1 else 0))
    if floats * 8 > MAX_BYTES:
        raise GridTooLargeError("%d floats on %r exceed %d bytes" % (floats, grid, MAX_BYTES))


def _line_aligned_empty(*shape):
    """An uninitialised C-contiguous float64 array of this shape whose first
    element starts a 64-byte cache line, so that each row of a 2D shape
    starts one too when its length is a multiple of 8. numpy allocates at
    16-byte alignment, and its multiply into an output that does not start
    a line ran at about half speed (32,768 rows: 22 vs 11 us on an AVX-512
    Xeon); a product basis @ w of 21 rows of 4,096 took 9.4 us with the
    rows on lines and 13.8 us with them 16 or 48 bytes past one (a 2-vCPU
    Xeon, one BLAS thread)."""
    size = math.prod(shape)
    buf = np.empty(size + 7)
    lead = -(buf.__array_interface__["data"][0] // 8) % 8
    return buf[lead:lead + size].reshape(shape)


def _slab_blocks(grid):
    """The blocks that assemble and apply walk the grid in: (i0, i1) for the
    axis-0 slabs i0 <= i < i1, at most BLOCK_ROWS rows per block unless one
    slab is longer, every block but the last of the same length."""
    n = grid.n
    per_block = max(1, BLOCK_ROWS // (grid.size // n))
    return [(i0, min(i0 + per_block, n)) for i0 in range(0, n, per_block)]


def _block_plan(grid, diag, off):
    """Per block of whole axis-0 slabs, the operands (rows, diag[rows], term,
    terms) of apply: term is the block's length of one scratch row that all
    blocks share, and terms holds (off[k, dst rows], dst, src, wraps) for
    each neighbour k.

    Along axis a the x + h*e_a neighbour (k = 2a) of a row is st =
    n**(dim-1-a) rows on and the x - h*e_a neighbour (k = 2a + 1) st rows
    back. dst is the view of the block's scratch term whose rows have their
    neighbour at that flat shift in x, and src the slice of x that holds
    those neighbours; it may reach past the block. Some of those rows sit
    on the face of axis a that wraps around the torus; wraps holds, for the
    part of that face inside the block, (off[k] there, the term's rows
    there, the index of the opposite face in the (n,)*dim grid view of x),
    and apply writes it after dst, so it overwrites them. Along axis 0 a
    block meets the wrapping face only if it holds the first or last slab."""
    n, dim, size = grid.n, grid.dim, grid.size
    slab = size // n
    blocks = _slab_blocks(grid)
    # the first block is the longest
    scratch = _line_aligned_empty(blocks[0][1] * slab)
    grid_off = off.reshape((2 * dim,) + (n,) * dim)
    plan = []
    for i0, i1 in blocks:
        lo, hi = i0 * slab, i1 * slab
        term = scratch[:hi - lo]
        grid_term = term.reshape((i1 - i0,) + (n,) * (dim - 1))
        terms = []
        for a in range(dim):
            st = n ** (dim - 1 - a)
            for k, step, edge, across in ((2 * a, st, n - 1, 0),
                                          (2 * a + 1, -st, 0, n - 1)):
                # the block's rows r with r + step inside the grid
                r0, r1 = max(lo, -step), min(hi, size - step)
                if a > 0:
                    lead = (slice(None),) * (a - 1)
                    faces = [((slice(None),) + lead + (edge, Ellipsis),
                              (slice(i0, i1),) + lead + (across, Ellipsis))]
                elif i0 <= edge < i1:
                    faces = [((edge - i0, Ellipsis), (across, Ellipsis))]
                else:
                    faces = []
                wraps = tuple((grid_off[k][i0:i1][dst], grid_term[dst], src)
                              for dst, src in faces)
                terms.append((off[k, r0:r1], term[r0 - lo:r1 - lo],
                              slice(r0 + step, r1 + step), wraps))
        plan.append((slice(lo, hi), diag[lo:hi], term, terms))
    return plan


def _halvings(n):
    """(m, k, e) for each cyclic reduction level of an n-row factor: m rows,
    of which the k at even indices are kept and the e at odd ones
    eliminated. The levels stop at DIRECT_ROWS rows or fewer."""
    levels = []
    while n > DIRECT_ROWS:
        levels.append((n, (n + 1) // 2, n // 2))
        n = (n + 1) // 2
    return levels


class _CyclicFactor:
    """sigma - A for a 1D operator A, by odd-even cyclic reduction.

    Row r of M = sigma - A is a_r x_{r-1} + d_r x_r + c_r x_{r+1}, indices
    mod m, with d = sigma - diag, c = -off[0] and a = -off[1]. Each level
    eliminates the odd rows: x_i = (f_i - a_i x_{i-1} - c_i x_{i+1}) / d_i.
    What is left, the even rows, is periodic tridiagonal again. When m is
    odd, rows m - 1 and 0 are both kept and stay coupled directly, as the
    last and first rows of the next level. For sigma above every row sum, M
    is strictly diagonally dominant by rows with d > 0 and a, c <= 0, and
    each level keeps that, so no pivot is needed. The last level, at most
    DIRECT_ROWS rows, is solved by its dense inverse.

    Per level the factor keeps alpha and gamma, which carry the rhs of the
    neighbours of each kept row into it, and 1/d, a/d and c/d of the
    eliminated rows, for the back substitution. A level's rhs sits in a
    buffer of m + 2 floats with one wrapped entry at each end, so that each
    neighbour of a kept or eliminated row is a strided slice: f_i is buf[i +
    1], buf[0] is f_{m-1} and buf[m + 1] is f_0. Where m is odd, the
    coefficients that would carry a kept row's rhs into its kept neighbour
    are 0. A solve then makes about ten numpy calls per level. The buffers
    belong to the factor, so solve is not safe to call from two threads at
    once on one factor.
    """

    def __init__(self, diag, off, sigma):
        d, c, a = sigma - diag, -off[0], -off[1]
        n = d.size
        self.buffers = [np.empty(n + 2)]
        self.scratch = np.empty((n + 1) // 2)
        self.levels = []
        for m, k, e in _halvings(n):
            ap, dp, cp = (np.concatenate((x[-1:], x, x[:1])) for x in (a, d, c))
            # a kept row 2i has its left neighbour at padded index 2i and its
            # right one at 2i + 2
            alpha = a[0::2] / dp[0:2 * k:2]
            gamma = c[0::2] / dp[2:2 * k + 2:2]
            if m % 2:
                alpha[0] = gamma[-1] = 0.0
            a_next = -alpha * ap[0:2 * k:2]
            c_next = -gamma * cp[2:2 * k + 2:2]
            d_next = d[0::2] - alpha * cp[0:2 * k:2] - gamma * ap[2:2 * k + 2:2]
            if m % 2:
                a_next[0], c_next[-1] = a[0], c[m - 1]
            inv = 1.0 / d[1::2]
            self.levels.append((m, k, e, alpha, gamma, inv, a[1::2] * inv, c[1::2] * inv))
            self.buffers.append(np.empty(k + 2))
            a, d, c = a_next, d_next, c_next
        m = d.size
        dense = np.diag(d)
        rows = np.arange(m)
        np.add.at(dense, (rows, (rows + 1) % m), c)
        np.add.at(dense, (rows, (rows - 1) % m), a)
        self.inverse = np.linalg.inv(dense)

    @staticmethod
    def floats(n):
        """Floats held by the factor of an n-row operator: the level
        buffers, the scratch, the five coefficient rows per level and the
        dense inverse."""
        levels = _halvings(n)
        direct = levels[-1][1] if levels else n
        return (n + 2 + (n + 1) // 2 + direct * direct
                + sum(k + 2 + 2 * k + 3 * e for _, k, e in levels))

    def solve(self, v, out):
        buffers, scratch = self.buffers, self.scratch
        n = v.size
        buf = buffers[0]
        buf[1:n + 1] = v
        for (m, k, e, alpha, gamma, _, _, _), below in zip(self.levels, buffers[1:]):
            buf[0], buf[m + 1] = buf[m], buf[1]
            rhs, t = below[1:k + 1], scratch[:k]
            np.multiply(alpha, buf[0:2 * k:2], out=t)
            np.subtract(buf[1:2 * k:2], t, out=rhs)
            np.multiply(gamma, buf[2:2 * k + 2:2], out=t)
            rhs -= t
            buf = below
        m = self.inverse.shape[0]
        buf[1:m + 1] = self.inverse @ buf[1:m + 1]
        for (m, k, e, _, _, inv, a_inv, c_inv), buf, below in zip(
                reversed(self.levels), reversed(buffers[:-1]), reversed(buffers[1:])):
            buf[1:2 * k:2] = below[1:k + 1]  # the kept rows' x
            buf[m + 1] = buf[1]
            x, t = buf[2:2 * e + 1:2], scratch[:e]
            x *= inv
            np.multiply(a_inv, buf[1:2 * e:2], out=t)
            x -= t
            np.multiply(c_inv, buf[3:2 * e + 2:2], out=t)
            x -= t
        out[:] = buffers[0][1:n + 1]
        return out


def assemble(scenario, grid, eps):
    """Discrete eps*Lap + b.grad + c in stencil form, with upwind differences
    for the drift; _check_memory counts diag and off before any sampling."""
    if grid.dim != scenario.dim:
        raise ValueError("grid dim %d != scenario dim %d" % (grid.dim, scenario.dim))
    if not _is_real(eps):
        raise ValueError("eps must be a real number, got %r" % (eps,))
    _check_memory(grid)
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
    # the samples go straight into diag and off, each row on a cache line
    # where N is a multiple of 8, then the stencil is built over them one
    # block at a time
    diag = scenario.c.on_grid(n, dim, out=_line_aligned_empty(grid.size))
    off = _line_aligned_empty(2 * dim, grid.size)
    for a, b in enumerate(scenario.b):
        b.on_grid(n, dim, out=off[2 * a + 1])
    slab = grid.size // n
    for i0, i1 in _slab_blocks(grid):
        rows = slice(i0 * slab, i1 * slab)
        block = diag[rows]
        block += -2.0 * dim * lap
        for a in range(dim):
            # with t = b/h, max(t, 0) is max(b, 0)/h and max(-t, 0) is
            # max(-b, 0)/h exactly; one of the two is 0 in each row
            up, t = off[2 * a, rows], off[2 * a + 1, rows]
            t /= h
            np.maximum(t, 0.0, out=up)
            block -= up
            up += lap
            np.maximum(np.negative(t, out=t), 0.0, out=t)
            block -= t
            t += lap
    return SparseOperator(grid, diag, off)
