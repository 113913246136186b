import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    SINK_3D,
    bare_scenario,
    dense_principal,
    fourier_principal,
    l2_normalize,
    separable_principal,
    to_dense,
)
from driftlab import eigen, operator
from driftlab.eigen import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EigenPair,
    SweepEntry,
    eigen_sweep,
    extrapolate_limit,
    principal_eigenpair,
)
from driftlab.errors import (
    CoefficientOverflowError,
    GridTooLargeError,
    NonMetzlerError,
    NotIrreducibleError,
    ScheduleError,
)
from driftlab.operator import Grid, SparseOperator, assemble
from driftlab.scenario import (
    BUILTIN_NAMES,
    PHI,
    builtin_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


# every builtin at n=16 and the 3D sink at n=8: small enough for dense eig
ORACLE_CASES = ([(builtin_scenario(n), 16) for n in BUILTIN_NAMES]
                + [(scenario_from_dict(SINK_3D), 8)])
ORACLE_IDS = [s.name for s, _ in ORACLE_CASES]


class CountingOperator(SparseOperator):
    """The same stencil operator, counting its apply calls, the steps it
    makes and the solves made with its shifted factors."""

    def __init__(self, op):
        super().__init__(op.grid, op.diag, op.off)
        self.applies = 0
        self.steps = 0
        self.solves = 0

    def apply(self, x, out=None):
        self.applies += 1
        return super().apply(x, out=out)

    def _perron_step(self, basis):
        self.steps += 1
        step = super()._perron_step(basis)
        if step == self.apply:
            return step

        def counted(v, out):
            self.solves += 1
            return step(v, out=out)
        return counted


def with_negative_coupling(op):
    """The same stencil operator with one neighbour coupling made negative."""
    off = op.off.copy()
    off[0, 3] = -1e-3
    return SparseOperator(op.grid, op.diag, off)


def transposed(op):
    """The stencil of the transpose of a 1D operator: row r of the transpose
    takes its x + h coupling from row r + 1 and its x - h one from row r - 1."""
    off = np.stack([np.roll(op.off[1], -1), np.roll(op.off[0], 1)])
    return SparseOperator(op.grid, op.diag, off)


class TestPreconditions:
    def test_non_metzler_rejected(self):
        s = builtin_scenario("stable-point")
        op = with_negative_coupling(assemble(s, Grid(1, 16), 0.1))
        assert not op.is_metzler
        with pytest.raises(NonMetzlerError):
            principal_eigenpair(op)

    def test_edit_of_off_in_place_is_seen(self):
        # min_offdiag is read from off each time, not kept from a first read
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.1)
        assert op.is_metzler
        op.off[0, 3] = -5.0
        assert not op.is_metzler
        with pytest.raises(NonMetzlerError, match="-5 < 0"):
            principal_eigenpair(op)

    def test_arrays_cannot_be_rebound(self):
        # apply reads _plan's views of the arrays the operator was built
        # with, so a rebound diag would be checked by _perron_step, not applied
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.1)
        held = {"grid": op.grid, "diag": op.diag, "off": op.off, "_plan": op._plan}
        for name, value in [("grid", Grid(2, 16)), ("diag", op.diag + 5.0),
                            ("off", op.off.copy()), ("_plan", list(op._plan))]:
            with pytest.raises(AttributeError, match="SparseOperator.%s cannot be rebound"
                               % name):
                setattr(op, name, value)
            assert getattr(op, name) is held[name]
        want = principal_eigenpair(assemble(builtin_scenario("mixed"), Grid(2, 16), 0.1))
        assert principal_eigenpair(op).lam == want.lam

    def test_non_metzler_message_reports_min_offdiag(self):
        s = builtin_scenario("stable-point")
        op = with_negative_coupling(assemble(s, Grid(1, 16), 0.1))
        assert op.min_offdiag == -1e-3
        with pytest.raises(NonMetzlerError, match="-0.001 < 0"):
            principal_eigenpair(op)

    @pytest.mark.parametrize("where, value", [
        ("diag", math.nan), ("diag", math.inf), ("diag", -math.inf),
        ("off", math.inf), ("off", math.nan),
    ], ids=["diag-nan", "diag-inf", "diag-neg-inf", "off-inf", "off-nan"])
    def test_non_finite_entries_rejected(self, where, value):
        # checked once, before any apply or factor: such an entry would
        # otherwise surface as numpy warnings and an untyped LinAlgError, and
        # a NaN in off as a NonMetzlerError ("nan < 0")
        base = assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1)
        diag, off = base.diag.copy(), base.off.copy()
        (diag if where == "diag" else off[1])[5] = value
        op = CountingOperator(SparseOperator(base.grid, diag, off))
        with pytest.raises(CoefficientOverflowError, match="finite"):
            principal_eigenpair(op)
        assert op.applies == op.solves == 0

    def test_reducible_rejected(self):
        s = bare_scenario(1, ["0"], "0")
        base = assemble(s, Grid(1, 8), 0.1)
        diag = np.ones(base.grid.size)
        diag[0] = 3.0
        # zero neighbour couplings: a decoupled diagonal matrix
        op = SparseOperator(base.grid, diag, np.zeros_like(base.off))
        with pytest.raises(NotIrreducibleError):
            principal_eigenpair(op)

    def test_budget_below_one_cycle_rejected(self):
        op = assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1)
        with pytest.raises(ValueError):
            principal_eigenpair(op, max_iter=1)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # with tol = inf the transpose below, whose Ritz vectors never turn
        # positive, would come back certified with the bracket [-inf, inf]
        s = builtin_scenario("stable-point")
        op = CountingOperator(transposed(assemble(s, Grid(1, 512), 0.05)))
        with pytest.raises(ValueError, match="tol"):
            principal_eigenpair(op, tol=tol)
        assert op.applies == 0

    @pytest.mark.parametrize("tol", ["1e-8", True, None], ids=["string", "bool", "none"])
    def test_tolerance_must_be_a_real_number(self, tol):
        # True would otherwise be taken as 1.0, and certify
        op = CountingOperator(assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1))
        with pytest.raises(ValueError, match="tol"):
            principal_eigenpair(op, tol=tol)
        assert op.applies == 0

    def test_numpy_float_tolerance_accepted(self):
        op = assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1)
        assert principal_eigenpair(op, tol=np.float64(1e-8)).certified

    @pytest.mark.parametrize("max_iter", [2.5, True, "50"])
    def test_budget_must_be_an_integer(self, max_iter):
        op = CountingOperator(assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1))
        with pytest.raises(ValueError, match="max_iter"):
            principal_eigenpair(op, max_iter=max_iter)
        assert op.applies == 0

    def test_numpy_integer_budget_accepted(self):
        op = assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1)
        assert principal_eigenpair(op, max_iter=np.int64(500)).certified

    @pytest.mark.parametrize("x0, match", [
        (np.zeros(16), "x0 must be finite and nonzero"),
        (np.full(16, math.nan), "x0 must be finite and nonzero"),
        (np.ones(15), "x0 has wrong length"),
        (np.ones(17), "x0 has wrong length"),
        ((1 + 1j) * np.ones(16), "x0 must be real"),
        (1j * np.ones(16), "x0 must be real"),
        (["1.0"] * 16, "x0 must be real"),
        ([True] * 16, "x0 must be real"),
        ([None] * 16, "x0 must be real"),
    ], ids=["zero", "nan", "short", "long", "complex", "imaginary", "strings", "bools",
            "nones"])
    def test_bad_start_vector_rejected(self, x0, match):
        # checked before the step is made: a 1D step factors sigma - A
        op = CountingOperator(assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1))
        with pytest.raises(ValueError, match=match):
            principal_eigenpair(op, x0=x0)
        assert op.applies == op.steps == 0

    @pytest.mark.parametrize("fill", [1e200, 1e-200])
    def test_extreme_start_vector_accepted(self, fill):
        # its squared norm over- or underflows; scaling by max|x| rescues it
        op = assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1)
        want = principal_eigenpair(op, x0=np.ones(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = principal_eigenpair(op, x0=np.full(16, fill))
        assert got.certified
        assert got.lam == pytest.approx(want.lam, abs=1e-12)

    @pytest.mark.parametrize("x0", [[1.0] * 16, np.ones(16, dtype=np.int64),
                                    np.ones(16, dtype=np.float32)],
                             ids=["list", "int64", "float32"])
    def test_start_vector_of_numbers_accepted(self, x0):
        op = assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1)
        want = principal_eigenpair(op, x0=np.ones(16))
        np.testing.assert_array_equal(principal_eigenpair(op, x0=x0).u, want.u)

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_start_vector_scale_is_exact(self, exponent):
        # x0 and 2**exponent * x0 are the same start: every field of the pair
        # must agree bitwise, not only to rounding
        op = assemble(builtin_scenario("mixed"), Grid(2, 16), 0.1)
        v = 0.5 + np.random.default_rng(3).random(op.grid.size)
        want = principal_eigenpair(op, x0=v)
        got = principal_eigenpair(op, x0=np.ldexp(v, exponent))
        np.testing.assert_array_equal(got.u, want.u)
        assert ((got.lam, got.lam_lo, got.lam_hi, got.residual, got.iterations, got.certified)
                == (want.lam, want.lam_lo, want.lam_hi, want.residual, want.iterations,
                    want.certified))


def counted_floats(grid):
    """The grid-sized floats _check_memory counts for a solve on grid."""
    factor = operator._CyclicFactor.floats(grid.size) if grid.dim == 1 else 0
    return eigen._solve_floats(grid) + factor


class Gauged(SparseOperator):
    """The same stencil operator, noting whether its step was ever made in
    the gauge, where the step's input is a fresh product, not a basis row."""

    def __init__(self, op):
        super().__init__(op.grid, op.diag, op.off)
        self.gauged = False

    def _perron_step(self, floats):
        step = super()._perron_step(floats)

        def watched(v, out):
            self.gauged |= v.base is None
            return step(v, out=out)
        return watched


class TestMemoryGuard:
    def test_boundary_allowed(self, monkeypatch):
        # a solve, with a 1D step's factor, exactly at the byte limit is
        # allocated; one float more is refused before any apply or solve
        for dim, n in ((1, 16), (2, 8)):
            g = Grid(dim, n)
            limit = counted_floats(g) * 8
            s = bare_scenario(dim, ["-sin(x1)"] + ["0"] * (dim - 1), "cos(x1)")
            monkeypatch.setattr(operator, "MAX_BYTES", limit)
            assert principal_eigenpair(assemble(s, g, 0.1)).certified
            monkeypatch.setattr(operator, "MAX_BYTES", limit - 8)
            op = CountingOperator(assemble(s, g, 0.1))
            with pytest.raises(GridTooLargeError):
                principal_eigenpair(op)
            assert op.applies == op.solves == 0

    @pytest.mark.parametrize("name, n, max_iter, gauged", [
        ("stable-point", 2**16, 300, True),
        ("mixed", 2**8, DEFAULT_MAX_ITER, False),
        ("sink-3d", 41, DEFAULT_MAX_ITER, False),
    ], ids=["1d", "2d", "3d"])
    def test_count_is_what_a_solve_holds(self, name, n, max_iter, gauged, monkeypatch):
        # above the operator, the peak of a solve on at least two blocks of
        # rows, restarts and the gauge included, is at most what
        # _check_memory counts, and not far below it
        s = scenario_from_dict(SINK_3D) if name == "sink-3d" else builtin_scenario(name)
        g = Grid(s.dim, n)
        op = Gauged(assemble(s, g, 0.2))
        restarts = []
        restart = eigen._restart

        def counted(*args):
            restarts.append(args)
            return restart(*args)

        monkeypatch.setattr(eigen, "_restart", counted)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            principal_eigenpair(op, max_iter=max_iter)
            # numpy traces its data buffers in np.lib.tracemalloc_domain; the
            # peak is of every domain, so it bounds theirs from above
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.size >= 2 * operator.BLOCK_ROWS and restarts and op.gauged == gauged
        assert peak <= 8 * counted_floats(g) <= 1.25 * peak

    @pytest.mark.parametrize("size", [operator.BLOCK_ROWS + 1, 2 * operator.BLOCK_ROWS + 3])
    def test_restart_in_blocks_is_the_whole_product(self, size, monkeypatch):
        # _restart rotates the basis one column block at a time; the result
        # is the whole product Q.T @ V[:m] bit for bit, also where a block of
        # BLOCK_ROWS columns would leave a last block one column wide
        m = eigen.KRYLOV_DIM
        rng = np.random.default_rng(size)
        V = rng.standard_normal((m + 1, size))
        H = np.triu(rng.standard_normal((m + 1, m)), -1)
        theta, Y = np.linalg.eig(H[:m, :m])
        order = np.argsort(-theta.real)
        products = []
        real_qr = np.linalg.qr

        def qr(a):
            Q, R = real_qr(a)
            products.append(Q.T @ V[:m])
            return Q, R

        monkeypatch.setattr(np.linalg, "qr", qr)
        rotated = V.copy()
        k = eigen._restart(rotated, H, theta, Y, order)
        assert k in (eigen.KEEP, eigen.KEEP + 1) and len(products) == 1
        np.testing.assert_array_equal(rotated[:k], products[0])
        np.testing.assert_array_equal(rotated[k], V[m])

    def test_sweep_count_is_what_a_sweep_holds(self, monkeypatch):
        # three entries: the peak, from the first assembly on, is at most
        # the count eigen_sweep checks before it (3D: no factor to add)
        counts = []
        check = operator._check_memory

        def counted(grid, solve):
            counts.append(solve)
            check(grid, solve)

        monkeypatch.setattr(eigen, "_check_memory", counted)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entries = eigen_sweep(scenario_from_dict(SINK_3D), 16, [0.2, 0.1, 0.05])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(e.ok for e in entries) and len(counts) == 1
        assert peak <= 8 * counts[0]


class TestArnoldiAgainstDenseOracle:
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    @pytest.mark.parametrize("s, n", ORACLE_CASES, ids=ORACLE_IDS)
    def test_certified_bracket_holds_the_dense_value(self, s, n, eps):
        tol = 1e-11
        op = CountingOperator(assemble(s, Grid(s.dim, n), eps))
        pair = principal_eigenpair(op, tol=tol)
        lam_d, _, _ = dense_principal(to_dense(op))
        assert pair.certified
        assert abs(pair.lam - lam_d) <= 1e-10
        assert pair.lam_lo <= pair.lam <= pair.lam_hi
        assert pair.lam_lo <= lam_d + 1e-13 and lam_d - 1e-13 <= pair.lam_hi
        assert pair.lam_hi - pair.lam_lo <= tol * max(1.0, abs(pair.lam))
        # a 1D step is a solve with sigma - A, a 2D or 3D one an apply
        assert pair.iterations == op.applies + op.solves
        assert (op.solves > 0) == (s.dim == 1)
        # lam is A's Rayleigh quotient at u, whatever the step
        au = op.apply(pair.u)
        rayleigh = (pair.u @ au) / (pair.u @ pair.u)
        assert abs(pair.lam - rayleigh) <= 8 * 2.0**-52 * max(1.0, abs(rayleigh))

    @pytest.mark.parametrize("s, n", ORACLE_CASES, ids=ORACLE_IDS)
    def test_warm_start_costs_no_more_applies(self, s, n):
        g = Grid(s.dim, n)
        prev = principal_eigenpair(assemble(s, g, 0.1))
        op = assemble(s, g, 0.05)
        cold = principal_eigenpair(op)
        warm = principal_eigenpair(op, x0=prev.u)
        assert cold.certified and warm.certified
        assert warm.iterations <= cold.iterations

    def test_no_positive_ritz_vector_stops_early(self):
        # the transpose's Perron vector spans so many decades that its Ritz
        # vectors never turn positive, so no bracket ever exists: the residual
        # alone must stop the solver, long before the budget
        s = builtin_scenario("stable-point")
        small = assemble(s, Grid(1, 16), 0.05)
        np.testing.assert_array_equal(to_dense(transposed(small)), to_dense(small).T)
        op = CountingOperator(transposed(assemble(s, Grid(1, 512), 0.05)))
        pair = principal_eigenpair(op, max_iter=20_000)
        assert not pair.certified
        assert pair.lam_lo == -math.inf and pair.lam_hi == math.inf
        assert pair.iterations == op.applies + op.solves < 2_000

    @pytest.mark.parametrize("s, n", [(builtin_scenario("mixed"), 16),
                                      (scenario_from_dict(SINK_3D), 8)],
                             ids=["mixed", "sink-3d"])
    def test_stalled_bracket_certified_in_gauge(self, s, n):
        # at eps = 0.05 u spans about 1e4, and rounding in its small entries
        # stalls the plain bracket near 1e-12 to 1e-11; the run in the gauge
        # of that u narrows it to below 1e-13
        tol = 1e-13
        op = CountingOperator(assemble(s, Grid(s.dim, n), 0.05))
        pair = principal_eigenpair(op, tol=tol)
        lam_d, _, _ = dense_principal(to_dense(op))
        assert pair.certified
        assert pair.lam_lo <= lam_d + 1e-13 and lam_d - 1e-13 <= pair.lam_hi
        assert pair.iterations == op.applies

    def test_unreachable_tolerance_stops_early(self):
        # rounding keeps this bracket near 2e-14 wide, in the gauge too: the
        # solver must give up uncertified long before the budget, returning
        # its best iterate, with every solve of the gauged step counted
        s = builtin_scenario("stable-point")
        op = CountingOperator(assemble(s, Grid(1, 64), 0.05))
        pair = principal_eigenpair(op, tol=1e-15)
        lam_d, _, _ = dense_principal(to_dense(op))
        assert not pair.certified
        assert pair.iterations == op.applies + op.solves < 1000
        assert pair.lam_lo <= pair.lam <= pair.lam_hi
        assert abs(pair.lam - lam_d) <= 1e-10


class OwnStep(SparseOperator):
    """The same stencil operator with the step make(op) in place of its own.
    super()._perron_step still makes the checks and the memory guard."""

    def __init__(self, op, make):
        super().__init__(op.grid, op.diag, op.off)
        self.make = make

    def _perron_step(self, basis):
        super()._perron_step(basis)
        return self.make(self)


def shifted_apply(op):
    """v -> A v + v: A's Perron vector, each eigenvalue 1 above A's."""
    def step(v, out):
        op.apply(v, out=out)
        out += v
        return out
    return step


def far_shifted_inverse(op):
    """A solve with sigma - A for sigma 1 above the largest row sum, where
    the default step takes sigma just above it."""
    sigma = float(np.max(op.diag + op.off.sum(0))) + 1.0
    return operator._CyclicFactor(op.diag, op.off, sigma).solve


class TestAnyPerronStep:
    @pytest.mark.parametrize("s, n, eps, make", [
        (builtin_scenario("mixed"), 16, 0.05, shifted_apply),
        (scenario_from_dict(SINK_3D), 8, 0.1, shifted_apply),
        (builtin_scenario("stable-point"), 512, 0.05, far_shifted_inverse),
    ], ids=["mixed-plus-identity", "sink-3d-plus-identity", "stable-point-far-shift"])
    def test_lam_does_not_depend_on_the_step(self, s, n, eps, make):
        # lam is read from A at u, so any step with A's Perron vector gives
        # the default solve's lam; a map from the step's Ritz values to A's
        # that did not fit the step would move lam to the bracket's edge
        op = assemble(s, Grid(s.dim, n), eps)
        default = principal_eigenpair(op)
        pair = principal_eigenpair(OwnStep(op, make))
        assert default.certified and pair.certified
        assert pair.lam_lo <= default.lam <= pair.lam_hi
        assert abs(pair.lam - default.lam) <= 64 * 2.0**-52 * max(1.0, abs(default.lam))


class TestSolvesAgainstDenseOracle:
    def test_zero_field_constant_vector(self):
        s = bare_scenario(1, ["0"], "0")
        op = assemble(s, Grid(1, 32), 0.2)
        pair = principal_eigenpair(op, tol=1e-10)
        assert pair.certified
        assert abs(pair.lam) <= 1e-10
        assert np.max(pair.u) / np.min(pair.u) == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_on_stable_point(self):
        s = builtin_scenario("stable-point")
        g = Grid(1, 64)
        op = assemble(s, g, 0.05)
        pair = principal_eigenpair(op, tol=1e-12)
        lam_d, v_d, _ = dense_principal(to_dense(op))
        assert pair.lam == pytest.approx(lam_d, abs=1e-8)
        v_d = l2_normalize(v_d, g.h, 1)
        assert np.max(np.abs(pair.u - v_d)) <= 1e-6

    def test_assembly_example_1d(self):
        s = bare_scenario(1, ["-sin(x1)"], "cos(x1)")
        op = assemble(s, Grid(1, 64), 0.1)
        pair = principal_eigenpair(op, tol=1e-12)
        lam_d, _, _ = dense_principal(to_dense(op))
        assert pair.lam == pytest.approx(lam_d, abs=1e-10)

    def test_perron_dominance_small_grids(self):
        for s in map(builtin_scenario, BUILTIN_NAMES):
            op = assemble(s, Grid(s.dim, 16), 0.1)
            pair = principal_eigenpair(op, tol=1e-10)
            dense = to_dense(op)
            lam, vecs = np.linalg.eig(dense)
            lead = np.argmax(lam.real)
            assert abs(lam[lead].imag) <= 1e-9, s.name
            gap = np.sort(lam.real)[-1] - np.sort(lam.real)[-2]
            assert gap > 0, s.name
            assert pair.lam == pytest.approx(lam[lead].real, abs=1e-8), s.name
            v = vecs[:, lead].real
            assert np.all(v > 0) or np.all(v < 0), s.name


class TestShiftedInverse:
    @pytest.mark.parametrize("n", [4096, 16384])
    def test_stable_point_certified_on_fine_grids(self, n):
        # Arnoldi on A itself takes 3,000 to 7,500 applies per entry at
        # n = 4096 and gives up uncertified at n = 16384; the shifted inverse
        # certifies each entry in one or two cycles
        eps = [0.2, 0.1, 0.05, 0.025, 0.0125]
        entries = eigen_sweep(builtin_scenario("stable-point"), n, eps)
        assert all(e.ok for e in entries), [(e.eps, e.error) for e in entries]
        assert all(e.pair.iterations <= 100 for e in entries)

    @pytest.mark.parametrize("n", [512, 4096])
    def test_sweep_certified_by_the_early_check(self, n):
        # the check after a cycle's sixth solve certifies every entry: six
        # solves and one apply, where the check at the cycle's end took 31
        entries = eigen_sweep(builtin_scenario("stable-point"), n, (0.2, 0.1, 0.05))
        assert [(e.ok, e.pair.iterations <= 7) for e in entries] == [(True, True)] * 3

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-15], ids=["default", "unreachable"])
    @pytest.mark.parametrize("max_iter", [6, 7, 8])
    def test_early_check_keeps_to_max_iter(self, max_iter, tol):
        # the early check is one more apply: at 6 and 7 the budget ends the
        # cycle before or at the sixth solve, at 8 the check is made
        op = CountingOperator(assemble(builtin_scenario("stable-point"), Grid(1, 512), 0.1))
        pair = principal_eigenpair(op, tol=tol, max_iter=max_iter)
        assert pair.iterations == op.applies + op.solves <= max_iter
        assert pair.certified == (tol == DEFAULT_TOL)
        if not pair.certified:
            assert pair.iterations == max_iter

    def test_stalled_bracket_certified_in_gauge(self):
        # at n = 256, eps = 0.01 rounding stalls the bracket of the plain
        # shifted inverse near 9e-13; the gauge of its best u, wrapped
        # around the solve, narrows it to about 5e-14
        tol = 2e-13
        s = builtin_scenario("stable-point")
        op = CountingOperator(assemble(s, Grid(1, 256), 0.01))
        pair = principal_eigenpair(op, tol=tol)
        lam_d, _, _ = dense_principal(to_dense(op))
        assert pair.certified
        assert pair.lam_lo <= lam_d + 1e-13 and lam_d - 1e-13 <= pair.lam_hi
        assert pair.iterations == op.applies + op.solves


# the 1D cycle problem: constant drift, so a cycle in 2D once a transverse
# part with constant eigenfunctions is added (stable-cycle, irrational-torus)
CYCLE_1D = bare_scenario(1, ["1"], "cos(x1)")

# continuum lambda(eps) at eps = 0.2, 0.1, 0.05 from fourier_principal at
# K = 64; K = 128 agrees to 5e-15
CONTINUUM = {
    "stable-point": (0.904987562112, 0.951249219725, 0.975312451187),
    "cycle-1d": (0.100070526872, 0.050098475193, 0.025014830989),
}
CONTINUUM_CASES = {"stable-point": builtin_scenario("stable-point"), "cycle-1d": CYCLE_1D}

# continuum lambda(0.2) of mixed from fourier_principal at K = 48; K = 16
# agrees to 8e-10 in about 1.5 s, K = 12 only to 1.2e-6
MIXED_CONTINUUM = 0.230578670928


class TestContinuumOracle:
    @pytest.mark.parametrize("name", sorted(CONTINUUM))
    def test_pinned_values(self, name):
        for eps, want in zip((0.2, 0.1, 0.05), CONTINUUM[name]):
            assert abs(fourier_principal(CONTINUUM_CASES[name], eps, 64) - want) <= 1e-11

    @pytest.mark.parametrize("name", sorted(CONTINUUM))
    def test_upwind_error_first_order(self, name):
        # upwind's grid error halves with h: measured ratios 1.98 to 2.02
        for eps, want in zip((0.2, 0.1, 0.05), CONTINUUM[name]):
            err = [principal_eigenpair(assemble(CONTINUUM_CASES[name], Grid(1, n), eps)).lam
                   - want for n in (64, 128, 256, 512)]
            ratios = [a / b for a, b in zip(err, err[1:])]
            assert all(1.9 <= r <= 2.1 for r in ratios), (eps, err)

    def test_pinned_2d_value(self):
        got = fourier_principal(builtin_scenario("mixed"), 0.2, 16)
        assert abs(got - MIXED_CONTINUUM) <= 2e-9

    def test_2d_upwind_error_first_order(self):
        # mixed's grid error halves with h too: measured errors -1.30e-2,
        # -6.23e-3 and -3.01e-3, ratios 2.09 and 2.07
        s = builtin_scenario("mixed")
        err = [principal_eigenpair(assemble(s, Grid(2, n), 0.2)).lam - MIXED_CONTINUUM
               for n in (32, 64, 128)]
        ratios = [a / b for a, b in zip(err, err[1:])]
        assert all(1.9 <= r <= 2.1 for r in ratios), err

    @pytest.mark.parametrize("name", ["stable-cycle", "irrational-torus"])
    def test_2d_cycle_scenarios_are_the_1d_problem(self, name):
        # the transverse part of the stencil has constant eigenvectors with
        # eigenvalue 0, so the upwind lam is the 1D cycle problem's; the
        # benchmark's grid error on these two scenarios is that problem's
        for eps in (0.2, 0.1, 0.05):
            lam = principal_eigenpair(assemble(CYCLE_1D, Grid(1, 32), eps)).lam
            pair = principal_eigenpair(assemble(builtin_scenario(name), Grid(2, 32), eps))
            assert pair.certified and abs(pair.lam - lam) <= 1e-13
            assert pair.lam_lo <= lam <= pair.lam_hi


# a circle with varying speed: b = 1 + 0.5 sin x1 has no zero, so the whole
# circle is the recurrent set, and the predicted limit is the pressure
# mean(c/b) / mean(1/b) = 2*(sqrt(0.75) - 1); continuum lambda(eps) from
# fourier_principal at K = 128
CIRCLE = bare_scenario(1, ["1 + 0.5*sin(x1)"], "sin(x1)")
CIRCLE_PRESSURE = 2 * (math.sqrt(0.75) - 1)
CIRCLE_CONTINUUM = {0.2: -0.141992240154, 0.1: -0.199711489621,
                    0.05: -0.232038466009, 0.025: -0.249467416232}


def test_varying_speed_circle():
    gaps = []
    for eps, want in CIRCLE_CONTINUUM.items():
        got = fourier_principal(CIRCLE, eps, 128)
        assert abs(got - want) <= 1e-10
        gaps.append(got - CIRCLE_PRESSURE)
        # upwind's first-order h error cancels in the Richardson value of
        # the pair (1024, 2048): measured errors -4.6e-7 to -1.0e-7, where
        # lam(2048) alone is 6.8e-4 to 7.9e-4 off
        lam = [principal_eigenpair(assemble(CIRCLE, Grid(1, n), eps)).lam
               for n in (1024, 2048)]
        assert abs(2 * lam[1] - lam[0] - want) <= 1e-6 < 1e-4 <= abs(lam[1] - want)
    # the gap to the pressure is first order in eps: measured ratios 1.846,
    # 1.900 and 1.943 as eps halves
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert min(gaps) > 0 and all(1.8 <= r <= 2.0 for r in ratios), ratios


# axis-separable scenarios, each with its 1D parts (b_a, c_a) written in x1:
# stable-cycle, and a 3D torus whose third axis attracts to x3 = 0
SEPARABLE = {
    "stable-cycle": (builtin_scenario("stable-cycle"),
                     [(["1"], "cos(x1)"), (["-sin(x1)"], "0")]),
    "torus-3d": (bare_scenario(3, ["1", repr(PHI), "-sin(x3)"], "cos(x1) + 0.5*cos(x3)"),
                 [(["1"], "cos(x1)"), ([repr(PHI)], "0"), (["-sin(x1)"], "0.5*cos(x1)")]),
}


def separable_case(name, n, eps):
    """The scenario, its assembled operator and separable_principal's (lam, u)."""
    s, parts = SEPARABLE[name]
    lam, u = separable_principal([bare_scenario(1, b, c) for b, c in parts], n, eps)
    return assemble(s, Grid(s.dim, n), eps), lam, u


class TestSeparableOracle:
    @pytest.mark.parametrize("name, n, eps, width", [
        pytest.param("stable-cycle", 256, 0.05, 1e-11, id="stable-cycle-256"),
        pytest.param("torus-3d", 64, 0.05, 1e-11, id="torus-3d-64"),
        # 32 blocks of apply, the benchmark's assemble-1m layout: measured
        # widths 9.1e-12, 1.2e-12 and 1.9e-13
        pytest.param("stable-cycle", 1024, 0.05, 1e-10, id="stable-cycle-1024-0.05"),
        pytest.param("stable-cycle", 1024, 0.003125, 1e-10, id="stable-cycle-1024-0.003125"),
        pytest.param("torus-3d", 96, 0.05, 1e-10, id="torus-3d-96"),
    ])
    def test_brackets_the_assembled_operator(self, name, n, eps, width):
        # the Collatz-Wielandt bracket at the oracle's u holds its lam; 2D
        # Arnoldi stops uncertified on stable-cycle at n = 256
        op, lam, u = separable_case(name, n, eps)
        ratio = op.apply(u) / u
        assert u.min() > 0 and ratio.min() <= lam <= ratio.max()
        assert ratio.max() - ratio.min() <= width

    @pytest.mark.parametrize("name, n", [("stable-cycle", 64), ("torus-3d", 16)])
    def test_agrees_with_the_solver(self, name, n):
        op, lam, _ = separable_case(name, n, 0.05)
        pair = principal_eigenpair(op)
        assert pair.certified and abs(pair.lam - lam) <= 1e-10


def pressures(s):
    """Kifer's topological pressure of each declared component: the mean of
    c on it, the zero mode of c.hold(comp.held), less the positive real
    parts of the eigenvalues of its normal matrix."""
    zero = (0,) * s.dim
    return [s.c.hold(comp.held).harmonics(s.dim).get(zero, 0j).real
            - sum(max(z.real, 0.0) for z in np.linalg.eigvals(comp.normal))
            for comp in s.components]


def repeller_scenario(a):
    """b = -a sin x1, c = -cos x1: an attracting point at 0 with c = -1 and
    a repelling one at pi with c = 1 and normal exponent a."""
    return scenario_from_dict({
        "name": "repeller", "dim": 1, "b": ["-%r*sin(x1)" % a], "c": "-cos(x1)",
        "L": "0", "components": [{"type": "point", "location": [0.0]},
                                 {"type": "point", "location": [math.pi]}]})


class TestPressure:
    """The paper's selection rule: lambda(eps) tends to the largest
    pressure over the recurrent components."""

    @pytest.mark.parametrize("case, want", zip(ORACLE_CASES, [1.0, 0.0, 0.0, 0.25, 2.0]),
                             ids=ORACLE_IDS)
    def test_largest_pressure_of_each_scenario(self, case, want):
        assert max(pressures(case[0])) == want

    @pytest.mark.parametrize("a, want", [(0.5, 0.5), (1.0, 0.0), (3.0, -1.0)])
    def test_repeller_family(self, a, want):
        # the repeller's pressure c(pi) - a wins while a < 2; the continuum
        # eigenvalue lies within eps of it (measured 0.4756 and 0.4877 at
        # a = 0.5, 0.0 at a = 1, -0.9916 and -0.9958 at a = 3; K = 128
        # agrees with K = 64 to 3.3e-13)
        s = repeller_scenario(a)
        assert max(pressures(s)) == want
        for eps in (0.05, 0.025):
            assert abs(fourier_principal(s, eps, 64) - want) <= eps


class TestPairProperties:
    def test_positivity_and_normalization(self):
        s = builtin_scenario("stable-cycle")
        g = Grid(2, 32)
        op = assemble(s, g, 0.1)
        pair = principal_eigenpair(op)
        assert pair.certified
        assert pair.u.min() > 0
        assert abs(np.sum(pair.u**2) * g.h**2 - 1.0) <= 1e-12

    def test_monotone_shift_by_constant(self):
        s = builtin_scenario("stable-cycle")
        op = assemble(s, Grid(2, 32), 0.1)
        pair = principal_eigenpair(op, tol=1e-10)
        shifted = scenario_to_dict(s)
        shifted["c"] = "cos(x1) + 0.7"
        s2 = scenario_from_dict(shifted)
        op2 = assemble(s2, Grid(2, 32), 0.1)
        pair2 = principal_eigenpair(op2, tol=1e-10)
        assert pair2.lam - pair.lam == pytest.approx(0.7, abs=1e-10)

    def test_non_convergence_flagged(self):
        s = builtin_scenario("stable-cycle")
        op = assemble(s, Grid(2, 32), 0.05)
        pair = principal_eigenpair(op, max_iter=5)
        assert not pair.certified
        assert pair.iterations == 5

    def test_budget_counts_solves(self):
        # in 1D max_iter bounds the solves together with the certifying applies
        s = builtin_scenario("stable-point")
        op = CountingOperator(transposed(assemble(s, Grid(1, 512), 0.05)))
        pair = principal_eigenpair(op, max_iter=5)
        assert not pair.certified
        assert pair.iterations == op.applies + op.solves == 5
        assert op.solves == 4


# ROADMAP item 1's small-eps schedule for mixed
GATE_SCHEDULE = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)


class TestSweep:
    def test_constant_potential_flat_sweep(self):
        s = bare_scenario(1, ["0"], "1.25")
        entries = eigen_sweep(s, 32, [0.2, 0.1, 0.05], tol=1e-10)
        for e in entries:
            assert e.ok
            assert e.pair.lam == pytest.approx(1.25, abs=1e-10)

    def test_warm_start_invariance(self):
        # the sweep starts each solve from the previous u; independent cold
        # solves must give the same eigenvalues
        s = builtin_scenario("stable-point")
        g = Grid(1, 64)
        entries = eigen_sweep(s, 64, [0.2, 0.1, 0.05], tol=1e-11)
        for e in entries:
            cold = principal_eigenpair(assemble(s, g, e.eps), tol=1e-11)
            assert e.pair.lam == pytest.approx(cold.lam, abs=1e-10)

    def test_schedule_validation(self):
        s = builtin_scenario("stable-point")
        with pytest.raises(ScheduleError):
            eigen_sweep(s, 32, [0.1, 0.2])
        with pytest.raises(ScheduleError):
            eigen_sweep(s, 32, [0.2, -0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, bad):
        # a NaN passes both "positive" and "decreasing" as comparisons
        s = builtin_scenario("stable-point")
        for schedule in ([0.2, bad, 0.05], [bad, 0.1, 0.05], [0.2, 0.1, bad]):
            with pytest.raises(ScheduleError, match="finite"):
                eigen_sweep(s, 32, schedule)

    @pytest.mark.parametrize("schedule, match", [
        ("21", "sequence of numbers"),
        (b"21", "sequence of numbers"),
        (0.1, "sequence of numbers"),
        (None, "sequence of numbers"),
        (np.array(0.1), "sequence of numbers"),
        ([True], "real number"),
        ([0.2, np.False_], "real number"),
        (["a"], "real number"),
        (["0.1"], "real number"),
        ([None], "real number"),
        ([0.2, 0.1 + 0j], "real number"),
        ({0.1, 0.2, 0.05, 0.4}, "sequence of numbers"),
        (frozenset({0.2, 0.1}), "sequence of numbers"),
        ({0.2: 1, 0.1: 2}, "sequence of numbers"),
    ], ids=["str", "bytes", "float", "none", "0-d-array", "bool", "numpy-bool", "str-entry",
            "numeric-str-entry", "none-entry", "complex-entry", "set", "frozenset", "dict"])
    def test_schedule_must_hold_real_numbers(self, schedule, match, monkeypatch):
        # a str was read one character at a time ("21" ran eps 2.0, then
        # 1.0), a bool as 0 or 1, a set in hash order (0.1, 0.4, 0.2, 0.05),
        # a dict by its keys, and a bare number raised a TypeError; all now
        # fail like a bad tol does
        assembled = []
        monkeypatch.setattr(eigen, "assemble", lambda *args: assembled.append(args))
        with pytest.raises(ScheduleError, match=match):
            eigen_sweep(builtin_scenario("stable-point"), 16, schedule)
        assert assembled == []

    def test_schedule_of_real_numbers_accepted(self, monkeypatch):
        # each entry records the typed failure of the stub assembly
        def refuse(*args):
            raise GridTooLargeError("stub")

        monkeypatch.setattr(eigen, "assemble", refuse)
        for schedule, want in ((np.array([0.2, 0.1]), [0.2, 0.1]),
                               ([Fraction(1, 5), np.float64(0.1)], [0.2, 0.1]),
                               ((np.int64(2), 1), [2.0, 1.0]),
                               (iter([0.2, 0.1]), [0.2, 0.1])):
            entries = eigen_sweep(builtin_scenario("stable-point"), 16, schedule)
            assert [e.eps for e in entries] == want

    @pytest.mark.parametrize("budget", [{"tol": 0.0}, {"tol": math.inf}, {"max_iter": 1},
                                        {"max_iter": 2.5}],
                             ids=["tol-zero", "tol-inf", "max_iter-1", "max_iter-float"])
    def test_bad_budget_rejected_before_assembly(self, budget, monkeypatch):
        # raised at once, not recorded on every entry after assembling its operator
        assembled = []
        monkeypatch.setattr(eigen, "assemble", lambda *args: assembled.append(args))
        with pytest.raises(ValueError):
            eigen_sweep(builtin_scenario("stable-point"), 16, [0.2, 0.1, 0.05], **budget)
        assert assembled == []

    @pytest.mark.parametrize("name, n", [("mixed", 2100), ("stable-point", 3_000_000)],
                             ids=["2d-basis", "1d-basis-and-factor"])
    def test_too_large_grid_rejected_before_assembly(self, name, n, monkeypatch):
        # the sweep's memory is counted once, up front: mixed at n = 2100
        # assembled each 176 MB operator before its solve refused the basis;
        # at stable-point's 3,000,000 rows the solve, the operator and two
        # finished entries fit, and only the 1D step's factor does not
        assembled = []
        monkeypatch.setattr(eigen, "assemble", lambda *args: assembled.append(args))
        with pytest.raises(GridTooLargeError):
            eigen_sweep(builtin_scenario(name), n, [0.2, 0.1, 0.05])
        assert assembled == []

    def test_small_eps_certified_down_to_the_gate(self):
        # ROADMAP item 1's gate: mixed at n = 64 certifies every entry down to
        # eps = 0.00625 in one sweep (52 to 479 iterations, the smallest three
        # through the gauge restart)
        entries = eigen_sweep(builtin_scenario("mixed"), 64, GATE_SCHEDULE)
        assert [e.eps for e in entries] == list(GATE_SCHEDULE)
        assert all(e.ok and e.pair.certified for e in entries)

    def test_small_eps_brackets_hold_the_dense_oracle(self):
        # the same schedule at n = 16, where dense eig is the oracle
        s = builtin_scenario("mixed")
        for e in eigen_sweep(s, 16, GATE_SCHEDULE):
            lam_d, _, _ = dense_principal(to_dense(assemble(s, Grid(2, 16), e.eps)))
            assert e.pair.certified, e.eps
            assert e.pair.lam_lo <= lam_d + 1e-13 and lam_d - 1e-13 <= e.pair.lam_hi, e.eps

    def test_non_integer_n_rejected(self):
        # raised at once, not recorded on every entry
        with pytest.raises(ValueError, match="must be an integer"):
            eigen_sweep(builtin_scenario("mixed"), 64.0, [0.2, 0.1, 0.05])

    def test_per_entry_error_propagation(self, monkeypatch):
        # a non-Metzler operator at eps=0.1 only: the sweep must keep the good
        # entries and record the failure on its own entry
        def assemble_broken_at(scenario, grid, eps):
            op = assemble(scenario, grid, eps)
            return with_negative_coupling(op) if eps == 0.1 else op

        monkeypatch.setattr(eigen, "assemble", assemble_broken_at)
        s = builtin_scenario("stable-point")
        entries = eigen_sweep(s, 16, [0.2, 0.1, 0.05])
        assert entries[0].ok
        assert not entries[1].ok and entries[1].pair is None
        assert "NonMetzler" in entries[1].error
        assert entries[2].ok

    def test_untyped_error_propagates(self):
        # a field that is not a TrigExpr is a bug in the caller, not a
        # failure of one eps: it is raised, not recorded on every entry
        s = builtin_scenario("stable-point")
        object.__setattr__(s, "c", "cos(x1)")  # past the read-only guard
        with pytest.raises(AttributeError, match="abs_sum"):
            eigen_sweep(s, 16, [0.2, 0.1, 0.05])


def certified_entries(data):
    """Certified sweep entries with the given (eps, lam) values."""
    return [SweepEntry(eps=e, pair=EigenPair(lam=lam, u=np.ones(1), residual=0.0,
                                             iterations=1, certified=True,
                                             lam_lo=lam, lam_hi=lam))
            for e, lam in data]


class TestExtrapolation:
    def test_linear_model(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        r = extrapolate_limit(certified_entries([(e, 2.0 + 3.0 * e) for e in eps]))
        assert r.lambda0 == pytest.approx(2.0, abs=1e-12)
        assert r.p == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_model(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        r = extrapolate_limit(certified_entries([(e, 1.0 + e**2) for e in eps]))
        assert r.lambda0 == pytest.approx(1.0, abs=1e-12)
        assert r.p == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("data", [
        [(0.2, 1.0), (0.11, 1.1), (0.05, 1.2)],
        [(0.05, 1.05), (0.1, 1.1), (0.2, 1.2)],
    ], ids=["ratio-varies", "increasing"])
    def test_non_geometric_rejected(self, data):
        with pytest.raises(ScheduleError):
            extrapolate_limit(certified_entries(data))

    def test_ratio_checked_on_the_fitted_entries_only(self):
        # with 0.4 uncertified the certified eps ratios are 1/4, 1/2, 1/2, but
        # the fit reads only the last three, a geometric schedule
        data = [(e, 1.0 - e / 2) for e in (0.8, 0.4, 0.2, 0.1, 0.05)]
        entries = certified_entries(data)
        entries[1].pair.certified = False
        want = extrapolate_limit(entries[2:])
        assert want.lambda0 == pytest.approx(1.0, abs=1e-12) and want.p == pytest.approx(1.0)
        assert extrapolate_limit(entries) == want  # every field, none of them NaN

    def test_needs_three_points(self):
        with pytest.raises(ScheduleError):
            extrapolate_limit(certified_entries([(0.2, 1.0), (0.1, 1.1)]))

    def test_uncertified_entries_left_out(self):
        # 20 applies certify none of the stable-cycle pairs; their
        # eigenvalues must not feed lambda0
        s = builtin_scenario("stable-cycle")
        entries = eigen_sweep(s, 32, [0.2, 0.1, 0.05], max_iter=20)
        assert all(e.pair is not None and not e.ok for e in entries)
        with pytest.raises(ScheduleError):
            extrapolate_limit(entries)

    @pytest.mark.parametrize("lams, error", [
        ((5.0, 5.0, 5.0), 0.0),
        ((5.0, 5.0, 5.5), 0.5),
        ((5.0, 5.5, 6.5), 1.0),
    ], ids=["constant", "d1-zero", "q-at-least-1"])
    def test_constant_sequence(self, lams, error):
        # no contracting differences: the last value, no correction fitted
        r = extrapolate_limit(certified_entries(zip((0.2, 0.1, 0.05), lams)))
        assert r.lambda0 == lams[-1]
        assert r.error == error
        assert math.isnan(r.p)
