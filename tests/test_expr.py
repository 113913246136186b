import math
import re
import struct
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import SINK_3D, reference_harmonics, sparse_mesh

from driftlab.expr import (
    ExprSyntaxError,
    TrigExpr,
    parse_expr,
)
from driftlab.operator import Grid
from driftlab.scenario import BUILTINS, Scenario


def random_expr(rng, nterms=None, nvars=2):
    """A random sum of products of up to two factors sin/cos(k.x + phase),
    |k_a| <= 3, built by parse_expr and arithmetic; and a plain-numpy
    evaluator of the same sum."""
    expr = TrigExpr()
    terms = []
    for _ in range(nterms or rng.integers(1, 5)):
        coeff = float(rng.standard_normal())
        factors = []
        for _ in range(rng.integers(0, 3)):
            name = ("sin", "cos")[rng.integers(0, 2)]
            freq = [int(k) for k in rng.integers(-3, 4, size=3)][:nvars] + [0] * (3 - nvars)
            phase = float(rng.standard_normal())
            factors.append((name, freq, phase))
        term = TrigExpr.constant(coeff)
        for name, freq, phase in factors:
            arg = " + ".join(["%d*x%d" % (k, i + 1) for i, k in enumerate(freq)] + [repr(phase)])
            term = term * parse_expr("%s(%s)" % (name, arg.replace("+ -", "- ")))
        expr = expr + term
        terms.append((coeff, factors))

    def evaluate(*x):
        total = np.zeros(np.broadcast_shapes(*(np.shape(v) for v in x)))
        for coeff, factors in terms:
            value = coeff
            for name, freq, phase in factors:
                value = value * getattr(np, name)(sum(k * v for k, v in zip(freq, x)) + phase)
            total = total + value
        return total

    return expr, evaluate


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

    def test_equal_means_equal_coefficients(self):
        e = parse_expr("sin(x1)*sin(x1) + cos(x1)*cos(x1)")
        assert e == parse_expr("1")
        assert hash(e) == hash(parse_expr("1"))
        assert parse_expr("2*sin(x1)*cos(x1)") == parse_expr("sin(2*x1)")

    def test_zero_collapse(self):
        e = parse_expr("cos(x1) - cos(x1)")
        assert str(e) == "0"
        assert e(1.0) == 0.0


class TestParseErrors:
    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("cos(x1")
        assert ei.value.offset == 6

    @pytest.mark.parametrize("text", ["sin(1.5*x1)", "sin(1.5x1)"])
    def test_non_integer_frequency(self, text):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr(text)
        assert "non-integer frequency" in str(ei.value)
        assert ei.value.offset == 4

    def test_star_needs_a_variable(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("sin(2*3)")
        assert "expected a variable after '*'" in str(ei.value)
        assert ei.value.offset == 6

    @pytest.mark.parametrize("text, offset", [
        ("sin(1e999*x1)", 4),
        ("sin(1e999x1)", 4),
        ("sin(1e999)", 4),
        ("1e999*cos(x1)", 0),
        ("1e308*1e308*cos(x1)", 6),
        ("1e308 + 1e308", 8),
        ("sin(1e308 + 1e308)", 12),
        ("cos(1e308x1+1e308x1)", 4),
        ("cos(4503599627370496x1 + 4503599627370496x1)", 25),
        ("1e308*cos(x1) + 1e308*cos(x1)", 16),
        ("0.9e308*cos(x1) + 0.9e308*cos(x1)", 18),
    ])
    def test_number_out_of_range(self, text, offset):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr(text)
        assert "out of range" in str(ei.value)
        assert ei.value.offset == offset

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


def doubling_product(factors):
    """cos(x1)*cos(2*x1)*cos(4*x1)*...: each factor doubles the harmonics."""
    return "*".join("cos(%d*x1)" % 2**i for i in range(factors))


class TestParseBounds:
    def test_product_past_the_harmonic_bound(self):
        # each factor doubles the harmonics: 12 hold 4,096, the bound, and the
        # 13th factor is refused before the product grows further
        assert len(parse_expr(doubling_product(12)).harmonics(1)) == 4096
        text = doubling_product(16)
        with pytest.raises(ExprSyntaxError, match="more than 4096 harmonics") as ei:
            parse_expr(text)
        assert ei.value.offset == text.index("cos(4096*x1)")

    def test_sum_past_the_harmonic_bound(self):
        text = " + ".join("cos(%d*x1)" % k for k in range(1, 2049))
        assert len(parse_expr(text).harmonics(1)) == 4096
        with pytest.raises(ExprSyntaxError, match="more than 4096 harmonics") as ei:
            parse_expr(text + " - 2")
        assert ei.value.offset == len(text) + 3

    def test_long_sum_is_linear(self):
        # each term is added into one map, not into a rebuilt copy of the sum;
        # the terms hold distinct harmonics, so their sum is their union
        terms = ["%r*cos(%d*x1 + %r)" % (1 + k / 7, k, k / 3) for k in range(1, 2048)]
        text = " + ".join(terms)
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            got = parse_expr(text)
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.5
        assert len(got.harmonics(1)) == 4094
        assert got == TrigExpr(item for t in terms for item in parse_expr(t)._half())

    def test_sum_equals_adding_terms_one_by_one(self):
        # the same rounding and cancellations as TrigExpr's + and -
        rng = np.random.default_rng(29)
        for _ in range(20):
            pool = ["%r*cos(%d*x1 + %d*x2 + %r)*sin(%d*x2)" % (
                rng.random(), *rng.integers(3, size=2), 3 * rng.random(), rng.integers(3))
                for _ in range(5)] + ["0.5", "1e-300*cos(x1)"]
            ops = rng.choice(["+", "-"], size=40)
            picks = [pool[i] for i in rng.integers(len(pool), size=40)]
            text = ("-" if ops[0] == "-" else "") + picks[0]
            want = -parse_expr(picks[0]) if ops[0] == "-" else parse_expr(picks[0])
            for op, term in zip(ops[1:], picks[1:]):
                text += " %s %s" % (op, term)
                want = want + parse_expr(term) if op == "+" else want - parse_expr(term)
            assert parse_expr(text) == want, text


class TestRoundTrip:
    def test_randomized_print_parse(self):
        rng = np.random.default_rng(7042)
        for _ in range(50):
            e, _ = random_expr(rng)
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
        # analytic derivative vs central differences of the plain evaluator:
        # O(h^2), ratio ~ 4
        rng = np.random.default_rng(11)
        for _ in range(10):
            e, f = random_expr(rng, nvars=3)
            d = e.derivative(0)
            pts = rng.uniform(0, 2 * np.pi, size=(20, 3))
            errs = []
            for h in (1e-2, 5e-3):
                num = (
                    f(pts[:, 0] + h, pts[:, 1], pts[:, 2])
                    - f(pts[:, 0] - h, pts[:, 1], pts[:, 2])
                ) / (2 * h)
                errs.append(np.mean(np.abs(num - d(pts[:, 0], pts[:, 1], pts[:, 2]))))
            if errs[1] < 1e-12:  # derivative vanishes identically
                continue
            assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_product_rule(self):
        rng = np.random.default_rng(12)
        a, _ = random_expr(rng)
        b, _ = random_expr(rng)
        lhs = (a * b).derivative(1)
        rhs = a.derivative(1) * b + a * b.derivative(1)
        x = rng.uniform(0, 2 * np.pi, size=(2, 40))
        np.testing.assert_allclose(lhs(x[0], x[1]), rhs(x[0], x[1]), atol=1e-12)


class TestPeriodicityAndEval:
    def test_periodic_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            e, _ = random_expr(rng, nvars=3)
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

    def test_open_mesh_matches_coordinate_arrays_bitwise(self):
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3):
            grid = Grid(dim, 9)
            for _ in range(5):
                e, _ = random_expr(rng, nterms=6, nvars=dim)
                got = e(*sparse_mesh(grid)).ravel()
                want = e(*grid.coord_arrays())
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), str(e))

    def test_matches_plain_evaluator(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            e, f = random_expr(rng, nvars=3)
            x = rng.uniform(-10, 10, size=(3, 50))
            np.testing.assert_allclose(e(*x), f(*x), rtol=0, atol=1e-12)

    def test_extra_coordinates_allowed(self):
        e = parse_expr("cos(x1)")
        assert e(0.0, 5.0) == pytest.approx(1.0)

    def test_numeric_coordinates_accepted(self):
        # numpy integer and float arrays and scalars, Fractions, lists of
        # floats and 0-d arrays read as float64; a point gives a float
        e = parse_expr("cos(x1) + 0.5*sin(2*x2)")
        x = np.array([0.25, 1.5, 3.0])
        want = e(x, x)
        np.testing.assert_array_equal(e(list(x), x), want)
        np.testing.assert_array_equal(e(np.arange(3), x), e(np.arange(3.0), x))
        x32 = x.astype(np.float32)
        np.testing.assert_array_equal(e(x32, x32), e(x32.astype(float), x32.astype(float)))
        point = e(0.25, 1.0)
        for args in [(np.float64(0.25), np.int64(1)), (Fraction(1, 4), 1),
                     (np.array(0.25), np.array(1.0)), (np.float32(0.25), np.uint8(1))]:
            got = e(*args)
            assert type(got) is float and got == point

    def test_missing_coordinates_rejected(self):
        e = parse_expr("cos(x2)")
        with pytest.raises(ValueError):
            e(0.0)


class TestArithmetic:
    def test_pointwise_ops(self):
        rng = np.random.default_rng(14)
        a, fa = random_expr(rng)
        b, fb = random_expr(rng)
        x = rng.uniform(0, 2 * np.pi, size=(2, 30))
        np.testing.assert_allclose((a + b)(*x), fa(*x) + fb(*x), atol=1e-12)
        np.testing.assert_allclose((a - 2.5 * b)(*x), fa(*x) - 2.5 * fb(*x), atol=1e-12)
        np.testing.assert_allclose((2.5 - a)(*x), 2.5 - fa(*x), atol=1e-12)
        np.testing.assert_allclose((a * b)(*x), fa(*x) * fb(*x), atol=1e-12)

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
            e, f = random_expr(rng, nvars=2)
            coeffs = e.harmonics(2)
            grid = f(X1, X2)
            fhat = np.fft.fft2(grid) / n**2
            # fft convention: grid = sum_m fhat[m] e^{+i m.x} with m = fft index
            recon = np.zeros((n, n), dtype=complex)
            for (m1, m2), a in coeffs.items():
                recon[m1 % n, m2 % n] += a
            np.testing.assert_allclose(fhat, recon, atol=1e-12)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            e, _ = random_expr(rng, nvars=2)
            coeffs = e.harmonics(2)
            for m, a in coeffs.items():
                assert coeffs[tuple(-k for k in m)] == a.conjugate()
            assert coeffs.get((0, 0), 0).imag == 0.0

    def test_constant_coefficient_is_mean(self):
        e = parse_expr("0.75 + cos(x1)*cos(x1)")
        coeffs = e.harmonics(2)
        # mean of cos^2 is 1/2
        assert coeffs[(0, 0)].real == pytest.approx(1.25, abs=1e-15)
        assert coeffs[(0, 0)].imag == 0.0


@pytest.mark.parametrize("name", [*BUILTINS, "sink-3d"])
def test_harmonics_match_product_expansion_bitwise(name):
    """Every field's harmonics, sign of zero included, as a plain product
    expansion of its text gives them: the operators are sampled from these
    alone."""
    spec = SINK_3D if name == "sink-3d" else BUILTINS[name]

    def bits(harm):
        return sorted((m, struct.pack("<dd", a.real, a.imag)) for m, a in harm.items())

    for text in [*spec["b"], spec["c"], spec["L"]]:
        got = parse_expr(text).harmonics(spec["dim"])
        assert bits(got) == bits(reference_harmonics(text, spec["dim"])), text


GRID_FIELD = parse_expr("cos(x1) + 0.5*sin(2*x2)")


@pytest.mark.parametrize("call, error, match", [
    (lambda: setattr(TrigExpr(), "nvars", 3), AttributeError, "TrigExpr is immutable"),
    (lambda: parse_expr("cos(x1)").derivative(3), ValueError, "axis out of range"),
    (lambda: parse_expr("cos(x1)").derivative(-1), ValueError, "axis out of range"),
    (lambda: parse_expr("cos(x2) + sin(x1)").derivative(True), ValueError,
     "axis out of range"),
    (lambda: parse_expr("cos(x1)").derivative(1.5), ValueError, "axis out of range"),
    (lambda: parse_expr("cos(x1)").harmonics(True), ValueError, "dim must be an integer"),
    (lambda: parse_expr("cos(x1)").abs_sum(2.5), ValueError, "dim must be an integer"),
    # -1 raised "more variables than dim", and 7 gave 3-entry keys
    (lambda: parse_expr("3").harmonics(-1), ValueError, "dim must be an integer in 1..3"),
    (lambda: parse_expr("3").harmonics(7), ValueError, "dim must be an integer in 1..3"),
    (lambda: parse_expr("cos(x1)") + True, TypeError, "unsupported operand"),
    (lambda: True * parse_expr("cos(x1)"), TypeError, "unsupported operand"),
    (lambda: parse_expr("cos(x1 + x3)").harmonics(2), ValueError,
     "more variables than dim"),
    (lambda: parse_expr(b"cos(x1)"), TypeError, "expression must be a string"),
    (lambda: parse_expr("sin x1"), ExprSyntaxError, r"expected '\(' after sin"),
    (lambda: parse_expr("2*cos"), ExprSyntaxError, r"expected '\(' after cos"),
    (lambda: parse_expr("1 + * 2"), ExprSyntaxError, "expected a number or sin/cos"),
    (lambda: parse_expr("x1"), ExprSyntaxError, "expected a number or sin/cos"),
    (lambda: parse_expr("\u0663*cos(x1)"), ExprSyntaxError, r"character '\u0663' \(byte 0\)"),
    (lambda: parse_expr("\u2003\u2003cos(x1)"), ExprSyntaxError, r"\\u2003' \(byte 0\)"),
    (lambda: parse_expr("\x1ccos(x1)"), ExprSyntaxError, r"\\x1c' \(byte 0\)"),
    (lambda: GRID_FIELD.on_grid(8, 4), ValueError, "dim must be an integer in 1..3"),
    (lambda: GRID_FIELD.on_grid(8, 0), ValueError, "dim must be an integer in 1..3"),
    (lambda: GRID_FIELD.on_grid(8, True), ValueError, "dim must be an integer"),
    (lambda: GRID_FIELD.on_grid(0, 2), ValueError, "n must be an integer >= 1"),
    (lambda: GRID_FIELD.on_grid(4.0, 2), ValueError, "n must be an integer >= 1"),
    (lambda: GRID_FIELD.on_grid(True, 2), ValueError, "n must be an integer >= 1"),
    (lambda: GRID_FIELD.on_grid(-3, 1), ValueError, "n must be an integer >= 1"),
    (lambda: GRID_FIELD.on_grid(8, 2, out=np.empty(65)), ValueError, r"shape \(64,\)"),
    (lambda: GRID_FIELD.on_grid(8, 2, out=np.empty(64, np.float32)), ValueError,
     "C-contiguous float64"),
    (lambda: GRID_FIELD.on_grid(8, 2, out=np.empty(128)[::2]), ValueError,
     "C-contiguous float64"),
    (lambda: GRID_FIELD.on_grid(8, 2, out=[0.0] * 64), ValueError, "C-contiguous float64"),
    (lambda: TrigExpr.constant(True), ValueError, "must be a real number"),
    (lambda: TrigExpr.constant("1.5"), ValueError, "must be a real number"),
    (lambda: TrigExpr([((1, 0, 0), True)]), ValueError, "must be a number"),
    (lambda: TrigExpr([((1, 0, 0), "1.5")]), ValueError, "must be a number"),
    # a float frequency built 2*cos(1.5*x1), not 2*pi-periodic; a bool was
    # read as 1, a fourth entry stored, and a short or str key raised an
    # untyped IndexError or TypeError
    (lambda: TrigExpr([((1.5, 0, 0), 1.0)]), ValueError, r"3-tuple of integers, got \(\(1.5"),
    (lambda: TrigExpr([((True, 0, 0), 1.0)]), ValueError, "3-tuple of integers"),
    (lambda: TrigExpr([((1, 0, 0, 0), 1.0)]), ValueError, "3-tuple of integers"),
    (lambda: TrigExpr([((1,), 1.0)]), ValueError, "3-tuple of integers"),
    (lambda: TrigExpr([(("a", 0, 0), 1.0)]), ValueError, "3-tuple of integers"),
    # the second pair silently replaced the first
    (lambda: TrigExpr([((1, 0, 0), 1.0), ((-1, 0, 0), 2.0)]), ValueError,
     r"\(\(-1, 0, 0\), 2.0\) names the same \+-m"),
    (lambda: TrigExpr([((0, 2, 0), 1.0), ((0, 2, 0), 0.0)]), ValueError, "same [+]-m"),
    (lambda: GRID_FIELD.hold([(3, 0.0)]), ValueError, "hold needs axes in 0..2"),
    (lambda: GRID_FIELD.hold([(-1, 0.0)]), ValueError, "hold needs axes in 0..2"),
    (lambda: GRID_FIELD.hold([(True, 0.0)]), ValueError, "hold needs axes in 0..2"),
    (lambda: GRID_FIELD.hold([(0, math.nan)]), ValueError, "finite angles"),
    (lambda: GRID_FIELD.hold([(1, math.inf)]), ValueError, "finite angles"),
    (lambda: GRID_FIELD.hold([(1, "0.5")]), ValueError, "finite angles"),
    (lambda: GRID_FIELD.hold([(0, 0.0), (0, math.pi)]), ValueError, "each axis at most once"),
    (lambda: GRID_FIELD(None, 0.0), ValueError, "x1 must be real"),
    (lambda: GRID_FIELD("1.0", 0.0), ValueError, "x1 must be real"),
    (lambda: GRID_FIELD(b"1.0", 0.0), ValueError, "x1 must be real"),
    (lambda: GRID_FIELD(0.0, True), ValueError, "x2 must be real"),
    (lambda: GRID_FIELD(np.zeros(3, dtype=bool), 0.0), ValueError, "x1 must be real"),
    (lambda: GRID_FIELD(0.0, 1.0 + 0j), ValueError, "x2 must be real"),
    (lambda: GRID_FIELD(np.zeros(3, dtype=complex), 0.0), ValueError, "x1 must be real"),
    (lambda: GRID_FIELD(np.array([1.0, None]), 0.0), ValueError, "x1 must be real"),
    (lambda: parse_expr("cos(x1)")(0.0, 1.0, 2.0, 3.0), ValueError, "at most 3"),
], ids=["setattr", "derivative-axis-3", "derivative-axis-negative", "derivative-axis-bool",
        "derivative-axis-float", "harmonics-dim-bool", "abs-sum-dim-float",
        "harmonics-dim-negative", "harmonics-dim-7", "add-bool",
        "bool-times", "harmonics-dim",
        "parse-bytes", "sin-without-paren", "cos-at-end", "operator-as-factor",
        "bare-variable", "arabic-indic-digit", "em-spaces", "file-separator",
        "on-grid-dim-4", "on-grid-dim-0", "on-grid-dim-bool", "on-grid-n-0",
        "on-grid-n-float", "on-grid-n-bool", "on-grid-n-negative",
        "on-grid-out-shape", "on-grid-out-float32", "on-grid-out-strided", "on-grid-out-list",
        "constant-bool", "constant-string", "coefficient-bool", "coefficient-string",
        "frequency-float", "frequency-bool", "frequency-four-entries", "frequency-one-entry",
        "frequency-string", "frequency-mirrored-twice", "frequency-repeated",
        "hold-axis-3", "hold-axis-negative", "hold-axis-bool", "hold-angle-nan",
        "hold-angle-inf", "hold-angle-string", "hold-axis-repeated", "call-none",
        "call-string", "call-bytes", "call-bool", "call-bool-array", "call-complex",
        "call-complex-array", "call-object-array", "call-four-coordinates"])
def test_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("dim", [0, 4, -1, 1.0, True, "2", None])
def test_one_dimension_rule(dim):
    # every entry point that takes a dimension refuses the same ones, with
    # the message of expr._dim (a Scenario's as a ScenarioFormatError)
    match = r"dim must be an integer in 1\.\.3, got %s" % re.escape(repr(dim))
    for call in (lambda: Grid(dim, 8), lambda: GRID_FIELD.on_grid(8, dim),
                 lambda: GRID_FIELD.harmonics(dim), lambda: GRID_FIELD.abs_sum(dim),
                 lambda: Scenario("x", dim, [], "0", "0")):
        with pytest.raises(ValueError, match=match):
            call()
