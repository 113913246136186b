import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import SINK_3D, bare_scenario, sparse_mesh, to_dense
from driftlab import operator
from driftlab.errors import CoefficientOverflowError, GridTooLargeError
from driftlab.expr import TrigExpr, grid_angles, parse_expr
from driftlab.operator import Grid, SparseOperator, assemble
from driftlab.scenario import (
    BUILTIN_NAMES,
    builtin_scenario,
    scenario_from_dict,
)


def flat_index(g, multi):
    """Row of the grid point with index tuple multi, taken mod n per axis."""
    return int(np.ravel_multi_index([m % g.n for m in multi], (g.n,) * g.dim))


class TestGrid:
    def test_minimum_points(self):
        with pytest.raises(ValueError):
            Grid(1, 4)

    @pytest.mark.parametrize("dim, n", [(2, 64.0), (2.0, 64), (True, 8), (1, True),
                                        (2, "64"), (2, np.float64(64))],
                             ids=["n-float", "dim-float", "dim-bool", "n-bool", "n-str",
                                  "n-numpy-float"])
    def test_non_integer_rejected(self, dim, n):
        with pytest.raises(ValueError, match="must be an integer"):
            Grid(dim, n)

    def test_numpy_integers_accepted(self):
        g = Grid(np.int64(2), np.int32(16))
        assert g.size == 256 and g.h == Grid(2, 16).h

    def test_spacing(self):
        g = Grid(1, 16)
        assert g.h == pytest.approx(2 * math.pi / 16)
        assert g.size == 16
        assert Grid(3, 16).size == 4096


@pytest.mark.parametrize("make, match", [
    (lambda: Grid(0, 8), "dim must be an integer in 1..3"),
    (lambda: Grid(4, 8), "dim must be an integer in 1..3"),
    (lambda: assemble(builtin_scenario("mixed"), Grid(1, 8), 0.1),
     "grid dim 1 != scenario dim 2"),
], ids=["grid-dim-0", "grid-dim-4", "assemble-dim-mismatch"])
def test_dimension_errors(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def bits(a):
    """The float64 bit patterns of a, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def all_fields(s):
    """Every field a scenario carries: b, c, L, grad L and Db."""
    return [*s.b, s.c, s.L, *s.grad_L, *(f for row in s.db for f in row)]


FIELD_CASES = [builtin_scenario(n) for n in BUILTIN_NAMES] + [scenario_from_dict(SINK_3D)]


class TestOpenMesh:
    @pytest.mark.parametrize("s", FIELD_CASES, ids=[s.name for s in FIELD_CASES])
    def test_fields_equal_flat_evaluation_bitwise(self, s):
        g = Grid(s.dim, 16)
        mesh, flat = sparse_mesh(g), g.coord_arrays()
        extra = [TrigExpr()]
        if s.dim >= 2:
            extra.append(parse_expr("sin(x1 - 2*x2) + 3"))
        if s.dim == 3:
            extra.append(parse_expr("0.5*cos(x1 + x2 - x3)*sin(3*x3 + 0.25) - 1"))
        for f in all_fields(s) + extra:
            values = f(*mesh)
            assert values.shape == (16,) * s.dim, str(f)
            np.testing.assert_array_equal(bits(values.ravel()), bits(f(*flat)), str(f))

    def test_assembly_evaluates_factors_on_axes(self, monkeypatch):
        # assembly runs sin and cos on each axis's frequency tables, a few
        # times n points, not on the n^2 grid points
        n = 256
        sizes = []
        for name in ("sin", "cos"):
            def counting(x, _ufunc=getattr(np, name), **kwargs):
                sizes.append(np.size(x))
                return _ufunc(x, **kwargs)

            monkeypatch.setattr(np, name, counting)
        assemble(builtin_scenario("mixed"), Grid(2, n), 0.1)
        assert sizes and max(sizes) <= 8 * n


EXTRA_FIELDS = [parse_expr("sin(x1 - 2*x2) + 3"),
                parse_expr("0.5*cos(x1 + x2 - x3)*sin(3*x3 + 0.25) - 1"),
                parse_expr("0.5 + 0.5*cos(x1) - 0.25*sin(3*x1 + 1)"),
                TrigExpr(), TrigExpr.constant(-2.5)]


def assert_on_grid_matches_pointwise(f, dim, n):
    """on_grid against __call__ at the flat grid coordinates, to 8 rounding
    errors of sum |a_m|, the bound on |f| that the harmonics give."""
    g = Grid(dim, n)
    want = f(*g.coord_arrays())
    got = f.on_grid(n, dim)
    assert got.shape == want.shape == (g.size,)
    tol = 8 * np.finfo(float).eps * f.abs_sum(dim)
    assert np.max(np.abs(got - want)) <= tol, (str(f), dim, n)


class TestOnGrid:
    @pytest.mark.parametrize("n", [8, 9, 33])
    @pytest.mark.parametrize("fields", [all_fields(s) for s in FIELD_CASES] + [EXTRA_FIELDS],
                             ids=[s.name for s in FIELD_CASES] + ["extra"])
    def test_matches_pointwise(self, fields, n):
        for f in fields:
            for dim in range(max(f.nvars, 1), 4):
                assert_on_grid_matches_pointwise(f, dim, n)

    @pytest.mark.parametrize("dim, n", [(1, 33), (1, 2**15 + 3), (2, 9), (3, 9)])
    def test_out_receives_the_samples(self, dim, n):
        # out selects where the samples go, not what they are
        for f in [parse_expr("sin(x1 - 2*x2) + 3"), parse_expr("cos(x1)")]:
            if f.nvars > dim:
                continue
            out = np.full(n**dim, np.nan)
            assert f.on_grid(n, dim, out=out) is out
            np.testing.assert_array_equal(bits(out), bits(f.on_grid(n, dim)), str(f))

    @pytest.mark.parametrize("n", [1, 2, 8, 33, 4097])
    def test_1d_is_pointwise_bitwise(self, n):
        # a 1D grid is only points: on_grid(n, 1) is __call__ at its angles
        fields = [f for s in FIELD_CASES for f in all_fields(s) if f.nvars <= 1]
        fields += [parse_expr("0.5 + 0.5*cos(x1) - 0.25*sin(3*x1 + 1)"), TrigExpr()]
        for f in fields:
            np.testing.assert_array_equal(bits(f.on_grid(n, 1)), bits(f(grid_angles(n))),
                                          str(f))

    def test_one_point_grid_is_the_origin(self):
        # one point has one row of weights and one table column
        for f in [parse_expr("cos(x1) + 0.5*sin(2*x2)"), *EXTRA_FIELDS]:
            for dim in range(max(f.nvars, 1), 4):
                got = f.on_grid(1, dim)
                tol = 8 * np.finfo(float).eps * f.abs_sum(dim)
                assert got.shape == (1,) and abs(got[0] - f(*[0.0] * dim)) <= tol, str(f)

    def test_numpy_integer_sizes_accepted(self):
        f = parse_expr("sin(x1 - 2*x2) + 3")
        got = f.on_grid(np.int64(9), np.int32(2))
        np.testing.assert_array_equal(bits(got), bits(f.on_grid(9, 2)))

    def test_abs_sum(self):
        assert parse_expr("3*cos(x1) - 2*sin(x1 + x2) + 0.5").abs_sum(2) == 5.5
        assert TrigExpr().abs_sum(1) == 0.0


def gather_apply(op, x):
    """Reference mat-vec: gathers each neighbour by its flat_index row."""
    g = op.grid
    out = op.diag * x
    for a in range(g.dim):
        for k, step in ((2 * a, 1), (2 * a + 1, -1)):
            nbr = np.empty(g.size, dtype=np.int64)
            for r in range(g.size):
                multi = list(np.unravel_index(r, (g.n,) * g.dim))
                multi[a] += step
                nbr[r] = flat_index(g, multi)
            out += op.off[k] * x[nbr]
    return out


def assert_apply_matches_gather(op):
    x = np.random.default_rng(4).standard_normal(op.grid.size)
    want = gather_apply(op, x)
    np.testing.assert_array_equal(bits(op.apply(x)), bits(want))
    out = np.empty_like(x)
    assert op.apply(x, out=out) is out
    np.testing.assert_array_equal(bits(out), bits(want))


def reference_assemble(s, g, eps):
    """Reference assembly: the stencil formulas with a new array per step,
    from the same field samples as assemble."""
    h = g.h
    lap = eps / (h * h)
    diag = np.full(g.size, -2.0 * g.dim * lap) + s.c.on_grid(g.n, g.dim)
    off = np.empty((2 * g.dim, g.size))
    for a, b in enumerate(s.b):
        ba = b.on_grid(g.n, g.dim)
        bp = np.maximum(ba, 0.0)
        bm = np.maximum(-ba, 0.0)
        off[2 * a] = lap + bp / h
        off[2 * a + 1] = lap + bm / h
        diag -= (bp + bm) / h
    return diag, off


class TestHeldHarmonics:
    @pytest.mark.parametrize("fields", [all_fields(s) for s in FIELD_CASES] + [EXTRA_FIELDS],
                             ids=[s.name for s in FIELD_CASES] + ["extra"])
    def test_match_pointwise(self, fields):
        """Holding some axes at random values and summing the held harmonics
        at random free coordinates gives __call__ at the full point, to 8
        rounding errors of sum |a_m|."""
        rng = np.random.default_rng(19)
        for f in fields:
            for dim in range(max(f.nvars, 1), 4):
                tol = 8 * np.finfo(float).eps * f.abs_sum(dim)
                for held_axes in itertools.product((False, True), repeat=dim):
                    fixed = [(a, rng.uniform(0, 2 * math.pi))
                             for a in range(dim) if held_axes[a]]
                    held = f.hold(fixed).harmonics(dim)
                    assert all(len(m) == dim and not any(m[a] for a, _ in fixed)
                               for m in held)
                    free = rng.uniform(0, 2 * math.pi, dim)
                    point = free.copy()
                    for a, x in fixed:
                        point[a] = x
                    value = sum(c * cmath.exp(1j * np.dot(m, free)) for m, c in held.items())
                    assert abs(value - f(*point)) <= tol, (str(f), dim, fixed)


class TestAssembleStencil:
    @pytest.mark.parametrize("n", [8, 9, 16])
    @pytest.mark.parametrize("s", FIELD_CASES, ids=[s.name for s in FIELD_CASES])
    def test_matches_reference_bitwise(self, s, n):
        g = Grid(s.dim, n)
        for eps in (0.2, 0.05):
            op = assemble(s, g, eps)
            diag, off = reference_assemble(s, g, eps)
            np.testing.assert_array_equal(bits(op.diag), bits(diag))
            np.testing.assert_array_equal(bits(op.off), bits(off))

    @pytest.mark.parametrize("s, n, block_rows, blocks", [
        (builtin_scenario("mixed"), 16, 48, 6),
        (builtin_scenario("mixed"), 9, 20, 5),
        (builtin_scenario("irrational-torus"), 33, 100, 11),
        (builtin_scenario("stable-point"), 12289, 5000, 3),
        (scenario_from_dict(SINK_3D), 9, 200, 5),
        (scenario_from_dict(SINK_3D), 9, 50, 9),
        (builtin_scenario("mixed"), 477, operator.BLOCK_ROWS, 8),
        (builtin_scenario("mixed"), 993, operator.BLOCK_ROWS, 32),
        (builtin_scenario("mixed"), 477, 3000, 80),
    ], ids=["2d-partial", "2d-odd", "2d-odd-partial", "1d-partial",
            "3d-odd", "3d-slab-past-block", "2d-477", "2d-993", "2d-477-small-blocks"])
    def test_in_blocks_matches_reference_bitwise(self, monkeypatch, s, n, block_rows,
                                                 blocks):
        # assembly walks apply's blocks: a partial last block (of one slab
        # in 2d-partial and 2d-477), odd n, a 1D grid of odd length in three
        # blocks, and one 3D slab per block where a slab exceeds BLOCK_ROWS;
        # the samples do not depend on the blocks, at sizes where samples
        # taken a block at a time rounded otherwise than whole-grid ones
        monkeypatch.setattr(operator, "BLOCK_ROWS", block_rows)
        g = Grid(s.dim, n)
        assert len(operator._slab_blocks(g)) == blocks
        for eps in (0.2, 0.05):
            op = assemble(s, g, eps)
            diag, off = reference_assemble(s, g, eps)
            np.testing.assert_array_equal(bits(op.diag), bits(diag))
            np.testing.assert_array_equal(bits(op.off), bits(off))
            assert op.min_offdiag == float(op.off.min())
            assert len(op._plan) == blocks

    def test_operator_from_arrays_finds_min_offdiag(self):
        # an operator built from arrays reads min_offdiag from off, so a
        # negative coupling anywhere is reported
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        off = op.off.copy()
        off[3, 100] = -1e-300
        built = SparseOperator(op.grid, op.diag, off)
        assert built.min_offdiag == -1e-300
        assert not built.is_metzler and not built.min_offdiag > 0.0
        again = SparseOperator(op.grid, op.diag, op.off)
        assert again.min_offdiag == op.min_offdiag
        assert again.is_metzler

    @pytest.mark.parametrize("name", ["mixed", "stable-point"])
    @pytest.mark.parametrize("case", ["long-diag", "short-off", "float32-diag", "2d-diag",
                                      "fortran-off"])
    def test_operator_from_arrays_checks_them(self, name, case):
        # a long diag was taken and its extra entry ignored by apply (and the
        # 1D factor failed on it with an untyped broadcast error)
        s = builtin_scenario(name)
        op = assemble(s, Grid(s.dim, 16), 0.1)
        diag, off = {
            "long-diag": (np.append(op.diag, 1e6), op.off),
            "short-off": (op.diag, op.off[:, :-1].copy()),
            "float32-diag": (op.diag.astype(np.float32), op.off),
            "2d-diag": (op.diag.reshape(16, -1), op.off),
            "fortran-off": (op.diag, np.asfortranarray(op.off)),
        }[case]
        with pytest.raises(ValueError, match="diag" if "diag" in case else "off"):
            SparseOperator(op.grid, diag, off)

    @pytest.mark.parametrize("s, n", [
        (builtin_scenario("stable-point"), 2**18),
        (builtin_scenario("mixed"), 512),
        (scenario_from_dict(SINK_3D), 64),
    ], ids=["1d", "2d", "3d"])
    def test_peak_memory(self, s, n):
        # the operator itself is 2*dim + 1 rows; the fields are sampled
        # straight into it, and the stencil built a block at a time, so
        # assembly adds a few block rows, not one row of the grid (here 8
        # blocks)
        g = Grid(s.dim, n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            op = assemble(s, g, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.off.shape == (2 * s.dim, g.size)
        assert g.size == 8 * operator.BLOCK_ROWS
        assert peak < (2 * s.dim + 1) * g.size * 8 + 4 * operator.BLOCK_ROWS * 8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pure_laplacian(self, dim):
        s = bare_scenario(dim, ["0"] * dim, "0")
        g = Grid(dim, 8)
        eps = 0.37
        op = assemble(s, g, eps)
        e = eps / g.h**2
        dense = to_dense(op)
        rowsums = op.apply(np.ones(g.size))
        # -2*dim*e + e + ... is exact in 1D; its partial sums can round in 2D and 3D
        tol = 0.0 if dim == 1 else 4 * dim * e * np.finfo(float).eps
        np.testing.assert_allclose(rowsums, 0.0, rtol=0.0, atol=tol)
        for r in range(g.size):
            multi = np.unravel_index(r, (8,) * dim)
            want = {r: -2 * dim * e}
            for a in range(dim):
                for step in (1, -1):
                    shifted = list(multi)
                    shifted[a] += step
                    want[flat_index(g, shifted)] = e
            assert len(want) == 2 * dim + 1
            cols = np.flatnonzero(dense[r])
            assert set(cols) == set(want)
            for col, value in want.items():
                assert dense[r, col] == value

    def test_constant_potential_shift(self):
        s = bare_scenario(1, ["0"], "2.5")
        g = Grid(1, 16)
        op = assemble(s, g, 0.1)
        lam = np.linalg.eigvals(to_dense(op))
        lead = lam[np.argmax(lam.real)]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real == pytest.approx(2.5, abs=1e-10)

    def test_row_sums_equal_potential(self):
        s = builtin_scenario("stable-cycle")
        g = Grid(2, 16)
        op = assemble(s, g, 0.2)
        coords = g.coord_arrays()
        c_vals = s.c(*coords)
        scale = max(np.max(np.abs(op.diag)), np.max(np.abs(op.off)))
        np.testing.assert_allclose(op.diag + op.off.sum(axis=0), c_vals,
                                   atol=1e-13 * scale)
        rowsums = op.apply(np.ones(g.size))
        np.testing.assert_allclose(rowsums, c_vals, atol=1e-13 * scale)

    @pytest.mark.parametrize("s, n", [
        (builtin_scenario("stable-point"), 32),
        (builtin_scenario("stable-cycle"), 16),
        (scenario_from_dict(SINK_3D), 8),
    ], ids=["1d", "2d", "3d"])
    def test_apply_matches_dense_oracle(self, s, n):
        rng = np.random.default_rng(3)
        g = Grid(s.dim, n)
        op = assemble(s, g, 0.15)
        dense = to_dense(op)
        for _ in range(3):
            x = rng.standard_normal(g.size)
            got = op.apply(x)
            np.testing.assert_allclose(got, dense @ x, atol=1e-12)
            np.testing.assert_array_equal(op.apply(x), got)

    @pytest.mark.parametrize("s, n", [
        (builtin_scenario("stable-point"), 32),
        (builtin_scenario("mixed"), 16),
        (scenario_from_dict(SINK_3D), 8),
        (builtin_scenario("stable-point"), 9),
        (builtin_scenario("mixed"), 9),
        (scenario_from_dict(SINK_3D), 9),
    ], ids=["1d", "2d", "3d", "1d-odd", "2d-odd", "3d-odd"])
    def test_apply_matches_gather_reference_bitwise(self, s, n):
        assert_apply_matches_gather(assemble(s, Grid(s.dim, n), 0.15))

    @pytest.mark.parametrize("s, n, block_rows, blocks", [
        (builtin_scenario("stable-point"), 32, 5, 7),
        (builtin_scenario("stable-point"), 33, 11, 3),
        (builtin_scenario("mixed"), 16, 48, 6),
        (builtin_scenario("mixed"), 9, 20, 5),
        (scenario_from_dict(SINK_3D), 8, 128, 4),
        (scenario_from_dict(SINK_3D), 9, 200, 5),
        (scenario_from_dict(SINK_3D), 9, 50, 9),
    ], ids=["1d-partial", "1d-odd", "2d-partial", "2d-odd", "3d", "3d-odd",
            "3d-slab-past-block"])
    def test_apply_in_blocks_matches_gather_reference_bitwise(self, monkeypatch, s, n,
                                                              block_rows, blocks):
        # whole axis-0 slabs per block, the last block partial where they do
        # not divide n, and one slab per block where a slab exceeds BLOCK_ROWS
        monkeypatch.setattr(operator, "BLOCK_ROWS", block_rows)
        op = assemble(s, Grid(s.dim, n), 0.15)
        assert len(op._plan) == blocks
        assert_apply_matches_gather(op)

    def test_apply_in_blocks_matches_one_block_bitwise(self, monkeypatch):
        op = assemble(builtin_scenario("mixed"), Grid(2, 1024), 0.1)
        assert len(op._plan) == 32
        x = np.random.default_rng(6).standard_normal(op.grid.size)
        want = op.apply(x)
        for block_rows, blocks in ((2**20, 1), (3000, 512)):
            monkeypatch.setattr(operator, "BLOCK_ROWS", block_rows)
            split = SparseOperator(op.grid, op.diag, op.off)
            assert len(split._plan) == blocks
            np.testing.assert_array_equal(bits(split.apply(x)), bits(want))

    @pytest.mark.parametrize("n", [8, 9, 65, 181])
    def test_rows_start_a_cache_line(self, n):
        # _line_aligned_empty's rows and apply's default out start a 64-byte line
        op = assemble(builtin_scenario("mixed"), Grid(2, n), 0.1)
        rows = [operator._line_aligned_empty(size) for size in (n, n * n)]
        rows.append(op.apply(np.ones(n * n)))
        assert [(r.shape, r.ctypes.data % 64) for r in rows] == [
            ((n,), 0), ((n * n,), 0), ((n * n,), 0)]

    def test_apply_allocates_no_grid_row(self):
        # 262,144 rows in 8 blocks: apply into out needs only views, and the
        # operator's scratch holds one block, not one row of the grid
        op = assemble(builtin_scenario("mixed"), Grid(2, 512), 0.1)
        x = np.random.default_rng(7).standard_normal(op.grid.size)
        out = np.empty_like(x)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            op.apply(x, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < operator.BLOCK_ROWS * 8 + 64 * 1024
        assert len(op._plan) == 8

    def test_apply_rejects_out_overlapping_x(self):
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        size = op.grid.size
        x = np.random.default_rng(5).standard_normal(size)
        with pytest.raises(ValueError, match="overlap"):
            op.apply(x, out=x)
        buf = np.concatenate([x, x])
        with pytest.raises(ValueError, match="overlap"):
            op.apply(buf[:size], out=buf[size // 2:size // 2 + size])
        np.testing.assert_array_equal(op.apply(buf[:size], out=buf[size:]),
                                      op.apply(x))

    def test_apply_rejects_out_overlapping_operator(self):
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        diag, off = op.diag.copy(), op.off.copy()
        x = np.random.default_rng(5).standard_normal(op.grid.size)
        for out in (op.off[0], op.off[3], op.diag):
            with pytest.raises(ValueError, match="overlap"):
                op.apply(x, out=out)
        np.testing.assert_array_equal(op.diag, diag)
        np.testing.assert_array_equal(op.off, off)

    @pytest.mark.parametrize("out", [np.empty(257), np.empty(255), np.empty((1, 256)),
                                     [0.0] * 256, np.zeros(512)[::2]],
                             ids=["long", "short", "2d", "list", "strided"])
    def test_apply_rejects_out_of_wrong_shape(self, out):
        # out is written in place, so it must be C-contiguous, as on_grid's is
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        with pytest.raises(ValueError, match="out"):
            op.apply(np.ones(op.grid.size), out=out)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_apply_rejects_out_of_other_dtype(self, dtype):
        # a float32 out would round the result, an int64 one cannot hold it
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        out = np.zeros(op.grid.size, dtype=dtype)
        with pytest.raises(ValueError, match=r"out must be a C-contiguous float64 array"
                                             r" of shape \(256,\)"):
            op.apply(np.ones(op.grid.size), out=out)
        assert not out.any()

    def test_apply_rejects_complex_x(self):
        # the imaginary part would be dropped
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        with pytest.raises(ValueError, match="real"):
            op.apply(np.ones(op.grid.size) + 1e-3j)

    @pytest.mark.parametrize("x", [[None] * 256, ["1.0"] * 256, [True] * 256,
                                   np.ones(256, dtype=object), [b"1"] * 256],
                             ids=["nones", "strings", "bools", "objects", "bytes"])
    def test_apply_rejects_x_that_is_not_numbers(self, x):
        # none is a vector of numbers, though numpy would read each as one:
        # None as NaN, a string or an object parsed, a bool as 0 or 1
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        with pytest.raises(ValueError, match="x must be real"):
            op.apply(x)

    def test_apply_takes_integers_and_lists(self):
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.15)
        want = op.apply(np.ones(256))
        for x in ([1.0] * 256, [1] * 256, np.ones(256, dtype=np.int32),
                  np.ones(256, dtype=np.float32)):
            np.testing.assert_array_equal(op.apply(x), want)

    def test_apply_length_check(self):
        s = builtin_scenario("stable-point")
        op = assemble(s, Grid(1, 16), 0.1)
        with pytest.raises(ValueError):
            op.apply(np.ones(17))


def shifted_above_row_sums(op, margin):
    return float(np.max(op.diag + op.off.sum(0))) + margin


class TestShiftedSolver:
    @pytest.mark.parametrize("direct_rows", [4, 64])
    @pytest.mark.parametrize("n", [8, 9, 11, 64, 513])
    def test_matches_dense_solve(self, monkeypatch, n, direct_rows):
        # the rows of each halving, down to 4: 8; 9, 5; 11, 6; 64, 32, 16,
        # 8; and 513, 257, ..., 5, all odd. Down to 64 only 513 halves (513,
        # 257, 129, 65), and the dense inverse solves the other grids whole
        monkeypatch.setattr(operator, "DIRECT_ROWS", direct_rows)
        op = assemble(builtin_scenario("stable-point"), Grid(1, n), 0.05)
        sigma = shifted_above_row_sums(op, 0.01)
        v = np.random.default_rng(n).standard_normal(n)
        out = np.empty(n)
        assert operator._CyclicFactor(op.diag, op.off, sigma).solve(v, out=out) is out
        want = np.linalg.solve(sigma * np.eye(n) - to_dense(op), v)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))
        # backward error: a few units of rounding of |sigma - A| |x|
        size = np.abs(sigma - op.diag) + op.off.sum(0)
        residual = sigma * out - op.apply(out) - v
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(size) * np.max(np.abs(out))

    @pytest.mark.parametrize("direct_rows", [4, 64])
    @pytest.mark.parametrize("n", [8, 11, 64, 513, 4096])
    def test_floats_counts_what_the_factor_holds(self, monkeypatch, n, direct_rows):
        # the eigensolver's memory guard counts the factor by floats(n)
        monkeypatch.setattr(operator, "DIRECT_ROWS", direct_rows)
        op = assemble(builtin_scenario("stable-point"), Grid(1, n), 0.05)
        sigma = shifted_above_row_sums(op, 0.01)
        tracemalloc.start()
        try:
            solve = operator._CyclicFactor(op.diag, op.off, sigma).solve
            traces = tracemalloc.take_snapshot().traces
        finally:
            tracemalloc.stop()
        # numpy traces its data buffers in a domain of their own; solve holds
        # the factor, so the snapshot sees all of it and none of the temporaries
        held = sum(t.size for t in traces if t.domain == np.lib.tracemalloc_domain)
        assert held == 8 * operator._CyclicFactor.floats(n)
        del solve


class TestMetzler:
    def test_upwind_always_metzler(self):
        for s in map(builtin_scenario, BUILTIN_NAMES):
            for eps in (1e-3, 0.05, 1.0):
                for n in (16, 32, 64, 128):
                    op = assemble(s, Grid(s.dim, n), eps)
                    assert op.min_offdiag >= 0.0, (s.name, eps, n)
                    assert op.min_offdiag > 0.0


class TestConsistencyOrder:
    @pytest.mark.parametrize("name", ["stable-point", "stable-cycle"])
    def test_upwind_first_order(self, name):
        s = builtin_scenario(name)
        w = parse_expr("sin(x1)")
        image = (
            0.1 * sum(w.derivative(i).derivative(i) for i in range(s.dim))
            + sum(s.b[i] * w.derivative(i) for i in range(s.dim))
            + s.c * w
        )
        errs = []
        for n in (64, 128):
            g = Grid(s.dim, n)
            coords = g.coord_arrays()
            op = assemble(s, g, 0.1)
            got = op.apply(np.asarray(w(*coords), dtype=float))
            want = np.asarray(image(*coords), dtype=float)
            errs.append(np.max(np.abs(got - want)))
        assert 1.7 <= errs[0] / errs[1] <= 2.3


class TestCoefficientOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b, c", [(["1e308*sin(x1)"], "0"),
                                      (["0"], "1e308*cos(x1) + 1e308")],
                             ids=["drift", "potential"])
    def test_refused_before_any_grid_pass(self, monkeypatch, b, c):
        # |b|/h reaches 1e308*64/(2*pi) and c reaches 2e308: neither is a float
        s = bare_scenario(1, b, c)
        passes = []
        monkeypatch.setattr(TrigExpr, "on_grid", lambda *args, **kw: passes.append(args))
        with pytest.raises(CoefficientOverflowError):
            assemble(s, Grid(1, 64), 0.1)
        assert passes == []

    @pytest.mark.filterwarnings("error")
    def test_drifts_summed_over_axes(self):
        # each |b_a|/h is finite, but the diagonal sums them
        s = bare_scenario(2, ["1e307*sin(x1)", "1e307*sin(x2)"], "0")
        with pytest.raises(CoefficientOverflowError):
            assemble(s, Grid(2, 64), 0.1)

    @pytest.mark.filterwarnings("error")
    def test_large_finite_fields_accepted(self):
        s = bare_scenario(1, ["1e300*sin(x1)"], "1e308*cos(x1)")
        op = assemble(s, Grid(1, 64), 0.1)
        assert np.all(np.isfinite(op.diag)) and np.all(np.isfinite(op.off))


class TestEpsRange:
    @pytest.mark.parametrize("n, eps", [(16, 0.0), (16, -0.1), (16, math.nan), (16, math.inf),
                                        (16, 1e308), (8, 1e308), (16, 1e-330)],
                             ids=["zero", "negative", "nan", "inf", "overflow",
                                  "diagonal-overflow", "underflow"])
    def test_rejected(self, n, eps):
        # 1e308/h^2 overflows at n = 16; at n = 8 it is finite, but the
        # diagonal's 2*dim times it is not; 1e-330 is 0.0
        s = builtin_scenario("stable-point")
        with pytest.raises(ValueError, match="eps/h"):
            assemble(s, Grid(1, n), eps)

    @pytest.mark.parametrize("eps", [True, "0.1", None, 0.1 + 0j, np.array([0.1, 0.2])],
                             ids=["bool", "string", "none", "complex", "array"])
    def test_not_a_real_number(self, eps):
        # True would otherwise assemble the eps = 1 operator
        s = builtin_scenario("stable-point")
        with pytest.raises(ValueError, match="eps must be a real number"):
            assemble(s, Grid(1, 16), eps)

    def test_smallest_positive_accepted(self):
        op = assemble(builtin_scenario("stable-point"), Grid(1, 8), 5e-324)
        assert np.all(np.isfinite(op.diag)) and op.is_metzler


class TestMemoryGuard:
    @pytest.mark.parametrize("dim, rows", [(1, 44_739_242), (2, 26_843_545), (3, 19_173_961)])
    def test_rows_admitted_per_dim(self, dim, rows, monkeypatch):
        # the budget counts (1 + 2*dim) floats per row, so the most rows
        # assemble admits shrinks with dim; the count comes before the first
        # sample, which the stub refuses, so no grid-sized array is made
        class Sampled(Exception):
            pass

        def sample(*args, **kwargs):
            raise Sampled

        s = bare_scenario(dim, ["0"] * dim, "0")
        monkeypatch.setattr(TrigExpr, "on_grid", sample)
        monkeypatch.setattr(Grid, "size", rows)
        with pytest.raises(Sampled):
            assemble(s, Grid(dim, 8), 0.1)
        monkeypatch.setattr(Grid, "size", rows + 1)
        with pytest.raises(GridTooLargeError):
            assemble(s, Grid(dim, 8), 0.1)

    def test_large_grid_refused(self):
        s = bare_scenario(3, ["0", "0", "0"], "0")
        with pytest.raises(GridTooLargeError):
            assemble(s, Grid(3, 512), 0.1)

    def test_boundary_allowed(self, monkeypatch):
        # the operator's diag and 2*dim off rows exactly at the byte budget
        # are assembled; a grid one row wider is refused
        monkeypatch.setattr(operator, "MAX_BYTES", 5 * 16**2 * 8)
        s = bare_scenario(2, ["0", "0"], "0")
        assert assemble(s, Grid(2, 16), 0.1).grid.size == 16**2
        with pytest.raises(GridTooLargeError):
            assemble(s, Grid(2, 17), 0.1)

    @pytest.mark.parametrize("dim, n, size", [(3, np.int64(2**22), 2**66),
                                              (2, np.int32(2**16), 2**32)],
                             ids=["int64", "int32"])
    def test_numpy_integer_size_exact(self, dim, n, size):
        # n**dim in the numpy type wraps around to 0, under the guard
        g = Grid(dim, n)
        assert g.size == size
        with pytest.raises(GridTooLargeError):
            assemble(bare_scenario(dim, ["0"] * dim, "0"), g, 0.1)
