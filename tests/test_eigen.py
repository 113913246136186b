import math
import warnings

import numpy as np
import pytest

from conftest import SINK_3D, dense_principal, l2_normalize, to_dense
from driftlab import eigen
from driftlab.eigen import (
    EigenPair,
    SweepEntry,
    eigen_sweep,
    extrapolate_limit,
    principal_eigenpair,
)
from driftlab.errors import (
    GridTooLargeError,
    NonMetzlerError,
    NotIrreducibleError,
    ScheduleError,
)
from driftlab.operator import Grid, SparseOperator, assemble
from driftlab.scenario import (
    BUILTIN_NAMES,
    builtin_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def bare_scenario(dim, b, c, L="0"):
    return load_scenario({
        "name": "raw", "dim": dim, "b": b, "c": c, "L": L, "components": [],
    })


# every builtin at n=16 and the 3D sink at n=8: small enough for dense eig
ORACLE_CASES = ([(builtin_scenario(n), 16) for n in BUILTIN_NAMES]
                + [(scenario_from_dict(SINK_3D), 8)])
ORACLE_IDS = [s.name for s, _ in ORACLE_CASES]


class CountingOperator(SparseOperator):
    """The same stencil operator, counting its apply calls."""

    def __init__(self, op):
        super().__init__(op.grid, op.diag, op.off)
        self.applies = 0

    def apply(self, x, out=None):
        self.applies += 1
        return super().apply(x, out=out)


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

    def test_non_metzler_message_reports_min_offdiag(self):
        s = builtin_scenario("stable-point")
        op = with_negative_coupling(assemble(s, Grid(1, 16), 0.1))
        assert op.min_offdiag == -1e-3
        with pytest.raises(NonMetzlerError, match="-0.001 < 0"):
            principal_eigenpair(op)

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

    @pytest.mark.parametrize("fill", [0.0, math.nan], ids=["zero", "nan"])
    def test_bad_start_vector_rejected(self, fill):
        op = CountingOperator(assemble(builtin_scenario("stable-point"), Grid(1, 16), 0.1))
        with pytest.raises(ValueError, match="x0"):
            principal_eigenpair(op, x0=np.full(16, fill))
        assert op.applies == 0

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


class TestMemoryGuard:
    def test_boundary_allowed(self, monkeypatch):
        # a Krylov basis exactly at the byte limit is allocated; one row more
        # is refused before any apply
        rows = eigen.KRYLOV_DIM + 1
        monkeypatch.setattr(eigen, "BASIS_MAX_BYTES", rows * 16 * 8)
        s = bare_scenario(1, ["-sin(x1)"], "cos(x1)")
        assert principal_eigenpair(assemble(s, Grid(1, 16), 0.1)).certified
        op = CountingOperator(assemble(s, Grid(1, 17), 0.1))
        with pytest.raises(GridTooLargeError):
            principal_eigenpair(op)
        assert op.applies == 0


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
        assert pair.iterations == op.applies

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
        assert pair.iterations == op.applies < 2_000

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
        # rounding keeps this bracket near 2e-12 wide: the solver must give
        # up uncertified long before the budget, returning its best iterate
        s = builtin_scenario("stable-point")
        op = assemble(s, Grid(1, 64), 0.05)
        pair = principal_eigenpair(op, tol=1e-15)
        lam_d, _, _ = dense_principal(to_dense(op))
        assert not pair.certified
        assert pair.iterations < 1000
        assert pair.lam_lo <= pair.lam <= pair.lam_hi
        assert abs(pair.lam - lam_d) <= 1e-10


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


class TestSweep:
    def test_constant_potential_flat_sweep(self):
        s = bare_scenario(1, ["0"], "1.25")
        entries = eigen_sweep(s, 32, [0.2, 0.1, 0.05], tol=1e-10)
        for e in entries:
            assert e.ok
            assert e.lam == pytest.approx(1.25, abs=1e-10)

    def test_warm_start_invariance(self):
        # the sweep starts each solve from the previous u; independent cold
        # solves must give the same eigenvalues
        s = builtin_scenario("stable-point")
        g = Grid(1, 64)
        entries = eigen_sweep(s, 64, [0.2, 0.1, 0.05], tol=1e-11)
        for e in entries:
            cold = principal_eigenpair(assemble(s, g, e.eps), tol=1e-11)
            assert e.lam == pytest.approx(cold.lam, abs=1e-10)

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

    def test_non_integer_n_rejected(self):
        # raised at once, not recorded on every entry
        with pytest.raises(ValueError, match="integers"):
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
