import math
import tracemalloc

import numpy as np
import pytest

from conftest import SINK_3D, to_dense
from driftlab import expr, operator
from driftlab.errors import CoefficientOverflowError, GridTooLargeError
from driftlab.expr import TrigExpr, parse_expr
from driftlab.operator import Grid, assemble
from driftlab.scenario import (
    BUILTIN_NAMES,
    builtin_scenario,
    load_scenario,
    scenario_from_dict,
)


def bare_scenario(dim, b, c, L="0"):
    return load_scenario({
        "name": "raw", "dim": dim, "b": b, "c": c, "L": L, "components": [],
    })


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
        with pytest.raises(ValueError, match="integers"):
            Grid(dim, n)

    def test_numpy_integers_accepted(self):
        g = Grid(np.int64(2), np.int32(16))
        assert g.size == 256 and g.h == Grid(2, 16).h

    def test_spacing(self):
        g = Grid(1, 16)
        assert g.h == pytest.approx(2 * math.pi / 16)
        assert g.size == 16
        assert Grid(3, 16).size == 4096


def bits(a):
    """The float64 bit patterns of a, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def all_fields(s):
    """Every field a scenario carries: b, c, L, grad L and Db."""
    return [*s.b, s.c, s.L, *s.grad_L, *(f for row in s.db for f in row)]


FIELD_CASES = [builtin_scenario(n) for n in BUILTIN_NAMES] + [scenario_from_dict(SINK_3D)]


class TestOpenMesh:
    def test_shapes(self):
        mesh = Grid(3, 8).open_mesh()
        assert [m.shape for m in mesh] == [(8, 1, 1), (1, 8, 1), (1, 1, 8)]
        np.testing.assert_array_equal(mesh[1].ravel(), Grid(3, 8).axis())

    @pytest.mark.parametrize("s", FIELD_CASES, ids=[s.name for s in FIELD_CASES])
    def test_fields_equal_flat_evaluation_bitwise(self, s):
        g = Grid(s.dim, 16)
        mesh, flat = g.open_mesh(), g.coord_arrays()
        extra = [TrigExpr.zero()]
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
            def counting(x, _ufunc=getattr(np, name)):
                sizes.append(np.size(x))
                return _ufunc(x)

            monkeypatch.setattr(np, name, counting)
        assemble(builtin_scenario("mixed"), Grid(2, n), 0.1)
        assert sizes and max(sizes) <= 8 * n


EXTRA_FIELDS = [parse_expr("sin(x1 - 2*x2) + 3"),
                parse_expr("0.5*cos(x1 + x2 - x3)*sin(3*x3 + 0.25) - 1"),
                TrigExpr.zero(), TrigExpr.constant(-2.5)]


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

    @pytest.mark.parametrize("dim, n", [(1, 33), (2, 9)])
    def test_axis_in_blocks(self, monkeypatch, dim, n):
        # a last axis longer than TABLE_COLUMNS is filled one block at a time
        monkeypatch.setattr(expr, "TABLE_COLUMNS", 4)
        for f in [parse_expr("0.5 + 0.5*cos(x1) - 0.25*sin(3*x1 + 1)"),
                  parse_expr("sin(x1 - 2*x2) + 3")]:
            if f.nvars <= dim:
                assert_on_grid_matches_pointwise(f, dim, n)

    def test_fills_out(self):
        f = parse_expr("cos(x1)*sin(x2)")
        out = np.full((2, 64), np.nan)
        row = out[1]
        assert f.on_grid(8, 2, out=row) is row
        np.testing.assert_array_equal(row, f.on_grid(8, 2))
        assert np.isnan(out[0]).all()

    @pytest.mark.parametrize("out", [np.empty(63), np.empty((64, 2))[:, 0],
                                     np.empty(64, dtype=np.float32)],
                             ids=["size", "strided", "dtype"])
    def test_bad_out_rejected(self, out):
        with pytest.raises(ValueError, match="out"):
            parse_expr("cos(x1)").on_grid(8, 2, out=out)

    def test_abs_sum(self):
        assert parse_expr("3*cos(x1) - 2*sin(x1 + x2) + 0.5").abs_sum(2) == 5.5
        assert TrigExpr.zero().abs_sum(1) == 0.0


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

    @pytest.mark.parametrize("s, n", [
        (builtin_scenario("stable-point"), 2**18),
        (builtin_scenario("mixed"), 512),
        (scenario_from_dict(SINK_3D), 64),
    ], ids=["1d", "2d", "3d"])
    def test_peak_memory(self, s, n):
        # the operator itself is 2*dim + 1 rows; the fields are sampled
        # straight into it, so assembly adds less than one more
        g = Grid(s.dim, n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            op = assemble(s, g, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.off.shape == (2 * s.dim, g.size)
        assert peak < (2 * s.dim + 2) * g.size * 8

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
        rng = np.random.default_rng(4)
        op = assemble(s, Grid(s.dim, n), 0.15)
        x = rng.standard_normal(op.grid.size)
        want = gather_apply(op, x)
        np.testing.assert_array_equal(bits(op.apply(x)), bits(want))
        out = np.empty_like(x)
        assert op.apply(x, out=out) is out
        np.testing.assert_array_equal(bits(out), bits(want))

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

    def test_apply_length_check(self):
        s = builtin_scenario("stable-point")
        op = assemble(s, Grid(1, 16), 0.1)
        with pytest.raises(ValueError):
            op.apply(np.ones(17))


class TestMetzler:
    def test_upwind_always_metzler(self):
        for s in map(builtin_scenario, BUILTIN_NAMES):
            for eps in (1e-3, 0.05, 1.0):
                for n in (16, 32, 64, 128):
                    op = assemble(s, Grid(s.dim, n), eps)
                    assert op.min_offdiag >= 0.0, (s.name, eps, n)
                    assert op.is_irreducible


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

    def test_smallest_positive_accepted(self):
        op = assemble(builtin_scenario("stable-point"), Grid(1, 8), 5e-324)
        assert np.all(np.isfinite(op.diag)) and op.is_metzler


class TestMemoryGuard:
    def test_large_grid_refused(self):
        s = bare_scenario(3, ["0", "0", "0"], "0")
        with pytest.raises(GridTooLargeError):
            assemble(s, Grid(3, 512), 0.1)

    def test_boundary_allowed(self, monkeypatch):
        # a grid exactly at the guard passes; one row more is refused
        monkeypatch.setattr(operator, "MAX_GRID_SIZE", 16**2)
        s = bare_scenario(2, ["0", "0"], "0")
        assert assemble(s, Grid(2, 16), 0.1).grid.size == 16**2
        with pytest.raises(GridTooLargeError):
            assemble(s, Grid(2, 17), 0.1)
