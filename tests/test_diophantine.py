import math

import numpy as np
import pytest

from driftlab.diophantine import (
    _divisor_grid,
    check_declared_bound,
    continued_fraction,
    is_irrational,
)

PHI = (1 + math.sqrt(5)) / 2


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def min_divisor(k, M):
    """Smallest |m.k| over 0 < |m| <= M: the margin of C = 1, alpha = 0."""
    return check_declared_bound(k, M, 1.0, 0.0)[1]


def divisor_records(k, M):
    """(|m|^2, |m.k|) at each new minimum of |m.k| as |m| grows."""
    r2, divs = _divisor_grid(k, M)
    records, best = [], np.inf
    for i in np.lexsort((divs, r2)):
        if divs[i] < best:
            best = float(divs[i])
            records.append((int(r2[i]), best))
    return records


class TestContinuedFraction:
    def test_golden_ratio_all_ones(self):
        cf = continued_fraction(PHI, max_terms=25)
        assert len(cf) == 25
        assert all(a == 1 for a in cf)

    def test_inverse_golden(self):
        cf = continued_fraction(1 / PHI, max_terms=20)
        assert cf[0] == 0
        assert all(a == 1 for a in cf[1:])

    def test_rational_terminates(self):
        assert continued_fraction(0.5) == [0, 2]
        assert continued_fraction(3.0) == [3]
        assert not is_irrational(0.5)
        assert not is_irrational(1.0)

    def test_irrational_reaches_depth(self):
        assert is_irrational(PHI)
        assert is_irrational(math.sqrt(2))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        # float NaN and inf have no integer part; is_irrational says False first
        with pytest.raises(ValueError, match="finite x, got %r" % x):
            continued_fraction(x)
        assert not is_irrational(x)


class TestMinDivisor:
    def test_golden_worst_divisors_are_fibonacci(self):
        # record small divisors of (1, phi) sit at consecutive Fibonacci
        # pairs (F_{j+1}, -F_j), with |F_{j+1} - F_j*phi| = phi^{-j}
        records = divisor_records((1.0, PHI), 64)
        assert len(records) == 9
        for r2, val in records[1:]:
            j = next((jj for jj in range(1, 12)
                      if fibonacci(jj + 1)**2 + fibonacci(jj)**2 == r2), None)
            assert j is not None, r2
            assert val == pytest.approx(PHI ** (-j), rel=1e-9)

    def test_worst_at_m64(self):
        # largest Fibonacci pair with m1^2+m2^2 <= 64^2 is (34, -21): the
        # next one, (55, 34), has radius sqrt(4181) > 64
        r2, val = divisor_records((1.0, PHI), 64)[-1]
        assert r2 == 34**2 + 21**2
        assert val == pytest.approx(PHI ** (-8), rel=1e-9)
        assert min_divisor((1.0, PHI), 64) == val

    def test_rational_hits_zero(self):
        assert min_divisor((1.0, 2.0), 16) == 0.0
        r2, val = divisor_records((1.0, 2.0), 16)[-1]
        assert (r2, val) == (2**2 + 1**2, 0.0)

    def test_scaling_linearity(self):
        v1 = min_divisor((1.0, PHI), 32)
        v2 = min_divisor((2.0, 2 * PHI), 32)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)


class TestBoundFit:
    def test_fit_on_golden(self):
        # |F_{j+1} - F_j phi| = phi^{-j} and |m| ~ F_j sqrt(phi^2 + 1) make
        # |m.k|*|m| tend to sqrt((phi + 2)/5): the sharpest C at alpha = 1/2
        r2, divs = _divisor_grid((1.0, PHI), 64)
        C = float(np.min(divs * np.sqrt(r2)))
        assert C == pytest.approx(math.sqrt((PHI + 2) / 5), rel=1e-6)
        ok, margin = check_declared_bound((1.0, PHI), 64, C, 0.5)
        assert ok and margin == pytest.approx(1.0, rel=1e-12)
        ok, _ = check_declared_bound((1.0, PHI), 64, 1.001 * C, 0.5)
        assert not ok

    def test_declared_constants_hold(self):
        ok, margin = check_declared_bound((1.0, PHI), 64, 0.5, 0.5)
        assert ok, margin

    def test_rational_fails_declared(self):
        ok, margin = check_declared_bound((1.0, 1.5), 64, 0.5, 0.5)
        assert not ok


class TestOverflow:
    @pytest.mark.filterwarnings("error")
    def test_products_past_float_range(self):
        # m1*1e308 is inf for |m1| >= 2, which keeps its order: the smallest
        # divisors are the m1 = 0 ones, |m2|, so the margin is 1*1/0.5
        ok, margin = check_declared_bound((1e308, 1.0), 64, 0.5, 0.5)
        assert ok and margin == 2.0

    @pytest.mark.filterwarnings("error")
    def test_nan_divisor_fails(self):
        # every true |m.k| is past 1e307 here, but m = (2, 2) gives
        # inf - inf = nan, which the check cannot bound, so it fails
        k = (1e308, -PHI * 1e308)
        r2, divs = _divisor_grid(k, 64)
        assert np.isnan(divs).any() and np.nanmin(divs) > 1e307
        assert check_declared_bound(k, 64, 0.5, 0.5) == (False, 0.0)


class TestArguments:
    @pytest.mark.parametrize("args, match", [
        (((1.0, PHI), 1.5, 0.5, 0.5), "M must be an integer >= 1"),
        (((1.0, PHI), 0, 0.5, 0.5), "M must be an integer >= 1"),
        (((1.0, PHI), -3, 0.5, 0.5), "M must be an integer >= 1"),
        (((1.0, PHI), True, 0.5, 0.5), "M must be an integer >= 1"),
        ((["1", "1.618"], 64, 0.5, 0.5), "k must be two real numbers"),
        (((1.0, PHI, 2.0), 64, 0.5, 0.5), "k must be two real numbers"),
        ((1.0, 64, 0.5, 0.5), "k must be two real numbers"),
        (((1.0, PHI), 64, 0.5, "0.5"), "alpha must be a real number"),
        (((1.0, PHI), 64, True, 0.5), "C must be a real number"),
        (((1.0, PHI), 64, "0.5", 0.5), "C must be a real number"),
    ], ids=["M-half", "M-zero", "M-negative", "M-bool", "k-strings", "k-three", "k-number",
            "alpha-string", "C-bool", "C-string"])
    def test_bound_arguments(self, args, match):
        # M = 1.5 checked half-integer frequencies, M <= 0 raised numpy's
        # zero-size reduction error, strings and bools were read as numbers
        # and a third k ignored, and C = '0.5' raised a TypeError
        with pytest.raises(ValueError, match=match):
            check_declared_bound(*args)

    @pytest.mark.parametrize("call, match", [
        (lambda: is_irrational(1.0, 0), "depth must be an integer >= 1"),
        (lambda: is_irrational(PHI, 20.0), "depth must be an integer >= 1"),
        (lambda: is_irrational("0.5"), "real x"),
        (lambda: continued_fraction(PHI, 0), "max_terms must be an integer >= 1"),
        (lambda: continued_fraction(PHI, True), "max_terms must be an integer >= 1"),
        (lambda: continued_fraction("0.5"), "real x"),
    ], ids=["depth-zero", "depth-float", "irrational-string", "terms-zero", "terms-bool",
            "fraction-string"])
    def test_count_arguments(self, call, match):
        # is_irrational(1.0, 0) was True: no terms are always "enough"
        with pytest.raises(ValueError, match=match):
            call()
