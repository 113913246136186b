import math

import numpy as np
import pytest

from driftlab.expr import (
    ExprSyntaxError,
    TrigExpr,
    parse_expr,
)


def random_expr(rng, nterms=None, nvars=2):
    raw = []
    for _ in range(nterms or rng.integers(1, 5)):
        coeff = float(rng.standard_normal())
        factors = []
        for _ in range(rng.integers(0, 3)):
            kind = int(rng.integers(0, 2))
            freq = tuple(int(k) for k in rng.integers(-3, 4, size=3))
            freq = freq[:nvars] + (0,) * (3 - nvars)
            phase = float(rng.standard_normal())
            factors.append((kind, freq, phase))
        raw.append((coeff, tuple(factors)))
    return TrigExpr(raw)


class TestParseExamples:
    def test_scaled_cos(self):
        e = parse_expr("1.5*cos(x1)")
        assert e(0.0) == pytest.approx(1.5, abs=1e-15)

    def test_pythagorean(self):
        e = parse_expr("sin(x1)*sin(x1) + cos(x1)*cos(x1)")
        for x in [0.0, 0.3, 1.7, -2.5]:
            assert e(x) == pytest.approx(1.0, abs=1e-15)

    def test_two_var_combination(self):
        e = parse_expr("cos(2*x1 - x2)")
        assert e(math.pi / 2, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_phase_and_juxtaposition(self):
        e = parse_expr("sin(2x1 + 1.5)")
        x = 0.7
        assert e(x) == pytest.approx(math.sin(2 * x + 1.5), abs=1e-15)

    def test_leading_minus_extension(self):
        e = parse_expr("-sin(x1) + 1")
        assert e(0.5) == pytest.approx(1 - math.sin(0.5), abs=1e-15)

    def test_constant_product(self):
        assert parse_expr("2*3")(0.0) == 6.0

    def test_zero_collapse(self):
        e = parse_expr("cos(x1) - cos(x1)")
        assert str(e) == "0"
        assert e(1.0) == 0.0


class TestParseErrors:
    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("cos(x1")
        assert ei.value.offset == 6

    def test_non_integer_frequency(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("sin(1.5*x1)")
        assert "non-integer frequency" in str(ei.value)
        assert ei.value.offset == 4

    def test_unknown_variable(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("cos(x4)")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("1 + cos(x1) )")
        assert ei.value.offset == 12

    def test_empty_trig_argument(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("cos()")

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("cos(x1) @ 2")
        assert ei.value.offset == 8


class TestRoundTrip:
    def test_randomized_print_parse(self):
        rng = np.random.default_rng(7042)
        for _ in range(50):
            e = random_expr(rng)
            back = parse_expr(str(e))
            assert back == e, str(e)

    def test_builtin_like_strings(self):
        for text in [
            "1 - cos(x2)",
            "-sin(2*x2)",
            "0.5 + 0.5*cos(x2) - 0.25*sin(x1)",
            "cos(2*x1 - x2 + 0.25)",
        ]:
            e = parse_expr(text)
            assert parse_expr(str(e)) == e


class TestCalculus:
    def test_derivative_matches_central_difference(self):
        # analytic derivative vs central differences: O(h^2), ratio ~ 4
        rng = np.random.default_rng(11)
        for _ in range(10):
            e = random_expr(rng, nvars=3)
            d = e.derivative(0)
            pts = rng.uniform(0, 2 * np.pi, size=(20, 3))
            errs = []
            for h in (1e-2, 5e-3):
                num = (
                    e(pts[:, 0] + h, pts[:, 1], pts[:, 2])
                    - e(pts[:, 0] - h, pts[:, 1], pts[:, 2])
                ) / (2 * h)
                errs.append(np.mean(np.abs(num - d(pts[:, 0], pts[:, 1], pts[:, 2]))))
            if errs[1] < 1e-12:  # derivative vanishes identically
                continue
            assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_product_rule(self):
        rng = np.random.default_rng(12)
        a = random_expr(rng)
        b = random_expr(rng)
        lhs = (a * b).derivative(1)
        rhs = a.derivative(1) * b + a * b.derivative(1)
        x = rng.uniform(0, 2 * np.pi, size=(2, 40))
        np.testing.assert_allclose(lhs(x[0], x[1]), rhs(x[0], x[1]), atol=1e-12)

    def test_laplacian_of_cos(self):
        e = parse_expr("cos(2*x1 - x2)")
        lap = e.laplacian(2)
        x = np.linspace(0, 2 * np.pi, 17)
        np.testing.assert_allclose(lap(x, 0.3 * x), -5.0 * e(x, 0.3 * x), atol=1e-12)


class TestPeriodicityAndEval:
    def test_periodic_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            e = random_expr(rng, nvars=3)
            p = rng.uniform(0, 2 * np.pi, size=3)
            for i in range(3):
                q = p.copy()
                q[i] += 2 * np.pi
                assert abs(e(*p) - e(*q)) <= 1e-12

    def test_broadcast_eval(self):
        e = parse_expr("cos(x1) + sin(x2)")
        x1 = np.linspace(0, 2 * np.pi, 8)[:, None]
        x2 = np.linspace(0, 2 * np.pi, 5)[None, :]
        v = e(x1, x2)
        assert v.shape == (8, 5)
        np.testing.assert_allclose(v, np.cos(x1) + np.sin(x2), atol=1e-15)

    def test_extra_coordinates_allowed(self):
        e = parse_expr("cos(x1)")
        assert e(0.0, 5.0) == pytest.approx(1.0)

    def test_missing_coordinates_rejected(self):
        e = parse_expr("cos(x2)")
        with pytest.raises(ValueError):
            e(0.0)


class TestArithmetic:
    def test_pointwise_ops(self):
        rng = np.random.default_rng(14)
        a = random_expr(rng)
        b = random_expr(rng)
        x = rng.uniform(0, 2 * np.pi, size=(2, 30))
        np.testing.assert_allclose(
            (a + b)(x[0], x[1]), a(x[0], x[1]) + b(x[0], x[1]), atol=1e-12
        )
        np.testing.assert_allclose(
            (a - 2.5 * b)(x[0], x[1]),
            a(x[0], x[1]) - 2.5 * b(x[0], x[1]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            (a * b)(x[0], x[1]), a(x[0], x[1]) * b(x[0], x[1]), atol=1e-12
        )

    def test_scalar_mixing(self):
        e = 1 - parse_expr("cos(x2)")
        assert e(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert e(0.0, math.pi) == pytest.approx(2.0, abs=1e-15)


class TestHarmonics:
    def test_against_fft_oracle(self):
        rng = np.random.default_rng(15)
        n = 32
        x = 2 * np.pi * np.arange(n) / n
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        for _ in range(8):
            e = random_expr(rng, nvars=2)
            coeffs = e.harmonics(2)
            grid = np.asarray(e(X1, X2), dtype=float)
            fhat = np.fft.fft2(grid) / n**2
            # fft convention: grid = sum_m fhat[m] e^{+i m.x} with m = fft index
            recon = np.zeros((n, n), dtype=complex)
            for (m1, m2), a in coeffs.items():
                recon[m1 % n, m2 % n] += a
            np.testing.assert_allclose(fhat, recon, atol=1e-12)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(16)
        e = random_expr(rng, nvars=2)
        coeffs = e.harmonics(2)
        for m, a in coeffs.items():
            mneg = tuple(-k for k in m)
            assert mneg in coeffs
            assert coeffs[mneg] == pytest.approx(a.conjugate(), abs=1e-14)

    def test_constant_coefficient_is_mean(self):
        e = parse_expr("0.75 + cos(x1)*cos(x1)")
        coeffs = e.harmonics(2)
        # mean of cos^2 is 1/2
        assert coeffs[(0, 0)].real == pytest.approx(1.25, abs=1e-15)
        assert coeffs[(0, 0)].imag == 0.0


class TestLineProfile:
    def test_profile_matches_direct_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            e = random_expr(rng, nvars=3)
            base = rng.uniform(0, 2 * np.pi, size=3)
            direction = rng.standard_normal(3)
            prof = e.line_profile(base, direction)
            s = np.linspace(0, 5, 23)
            direct = e(base[0] + s * direction[0],
                       base[1] + s * direction[1],
                       base[2] + s * direction[2])
            recon = np.zeros_like(s, dtype=complex)
            for w, a in prof:
                recon += a * np.exp(1j * w * s)
            np.testing.assert_allclose(recon.imag, 0, atol=1e-12)
            np.testing.assert_allclose(recon.real, direct, atol=1e-11)

