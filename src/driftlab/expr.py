"""Trigonometric polynomials on flat tori, held as their Fourier coefficients.

A TrigExpr is the map m -> a_m of  f(x) = sum_m a_m e^{i m.x},  over integer
frequency vectors m = (m1, m2, m3) of the angles x1, x2, x3. The map is
Hermitian, a_{-m} = conj(a_m) exactly, so f is real and 2*pi-periodic; it
holds no zero entries, and no part of an entry is -0.0. Sums merge the maps,
products convolve them, and d/dx_a multiplies each a_m by i*m_a, so the
class is closed under +, -, * and partial differentiation, in float
arithmetic on the coefficients. Values at points, a 1D grid's too, sum
half the spectrum (__call__); a grid of more axes contracts it one axis at
a time (on_grid); hold restricts f to held axes.
"""
from __future__ import annotations

import cmath
import math
import numbers
import re

import numpy as np

from .errors import ExprSyntaxError

_NVARS = 3  # x1, x2, x3
_ZERO = (0,) * _NVARS  # the zero mode; m > _ZERO iff m's first nonzero entry is positive

# integer frequencies from this magnitude up are not all exact as floats
_MAX_FREQ = 2**53

# on_grid samples a 1D grid this many angles at a time
_CHUNK_POINTS = 2**15

# parse_expr refuses a sum or product of more harmonics than this: each
# factor of a product can double them, so a short text could ask for millions
_MAX_HARMONICS = 2**12

__all__ = [
    "TrigExpr",
    "ExprSyntaxError",
    "parse_expr",
]


class TrigExpr:
    """Immutable real trigonometric polynomial in up to three angle
    variables, held as its harmonics a_m: keys are integer 3-tuples m, in
    sorted order, so the half m >= 0 is the second half of the items.

    TrigExpr(pairs) is the expression with a_m = a and a_{-m} = conj(a)
    for each (m, a) of `pairs`; a_0 is taken real. Each m must be a 3-tuple
    of integers (_is_int), each a a number that is not a bool, and no two
    pairs may name the same +-m, else ValueError. TrigExpr() is zero.
    """

    __slots__ = ("_coef",)

    def __init__(self, pairs=()):
        coef = {}  # zero entries too, until every pair is read
        for m, a in pairs:
            # a plain int skips _is_int's slower abstract-class check
            if not (isinstance(m, tuple) and len(m) == _NVARS
                    and all(type(k) is int or _is_int(k) for k in m)):
                raise ValueError("a frequency must be a 3-tuple of integers, got %r"
                                 % ((m, a),))
            m = (int(m[0]), int(m[1]), int(m[2]))  # numpy's integers as ints
            if not isinstance(a, numbers.Complex) or isinstance(a, bool):
                raise ValueError("a coefficient must be a number, got %r" % (a,))
            if m in coef:
                raise ValueError("%r names the same +-m as an earlier pair" % ((m, a),))
            if m == _ZERO:
                a = complex(a.real)
            # + 0j turns a -0.0 part into +0.0, so equal maps hash alike
            coef[m] = a + 0j
            coef[-m[0], -m[1], -m[2]] = a.conjugate() + 0j
        object.__setattr__(self, "_coef", dict(sorted((m, a) for m, a in coef.items() if a)))

    def __setattr__(self, name, value):
        raise AttributeError("TrigExpr is immutable")

    @staticmethod
    def constant(value):
        if not _is_real(value):
            raise ValueError("a constant must be a real number, got %r" % (value,))
        return TrigExpr([(_ZERO, float(value))])

    def _half(self):
        """The (m, a_m) items with m >= 0."""
        items = list(self._coef.items())
        return items[len(items) // 2:]

    @property
    def nvars(self):
        """Highest variable index actually used (1-based count)."""
        nv = 0
        for m in self._coef:
            while nv < _NVARS and any(m[nv:]):
                nv += 1
        return nv

    def in_range(self):
        """Whether a_0 and every 2*a_m are finite: then every amplitude that
        str prints is a finite number, and the text parses back."""
        return all(cmath.isfinite(a if m == _ZERO else 2 * a) for m, a in self._half())

    # -- evaluation --------------------------------------------------------

    def __call__(self, *coords):
        """Value at broadcast coordinates: the sum over the half spectrum
        m >= 0 of Re(g_m e^{i m.x}) = Re g_m cos(m.x) - Im g_m sin(m.x), with
        g_0 = a_0 and g_m = 2 a_m off the zero mode, added into one
        accumulator in key order.

        This is the pointwise evaluator, for the mesh points near a component
        and the points of a 1D grid: on_grid(n, 1) is this at grid_angles(n)
        bit for bit. The angle m.x takes only the axes with m_a != 0, and the
        arithmetic per element is the same for any broadcast shape.
        The coordinates, from nvars to three of them, are each real numbers
        as _real_array reads them, else ValueError; a point gives a float.
        """
        nv = self.nvars
        if not nv <= len(coords) <= _NVARS:
            raise ValueError("%d coordinates given; the expression uses x%d and takes"
                             " at most %d" % (len(coords), nv, _NVARS))
        arrs = [_real_array(c, "x%d" % (i + 1)) for i, c in enumerate(coords)]
        shape = np.broadcast_shapes(*(a.shape for a in arrs)) if arrs else ()
        acc = np.zeros(shape)
        for m, a in self._half():
            g = a if m == _ZERO else 2 * a
            angle = sum(x if k == 1 else k * x for k, x in zip(m, arrs) if k)
            if g.real:
                acc += g.real * np.cos(angle)
            if g.imag:
                acc -= g.imag * np.sin(angle)
        return float(acc) if acc.ndim == 0 else acc

    def on_grid(self, n, dim, out=None):
        """Samples on the (n,)*dim grid of angles 2*pi*j/n, j = 0..n-1 per
        axis (the points of Grid(dim, n)), flattened row-major, written into
        and returned in out if given: a C-contiguous float64 array of shape
        (n**dim,). n must be an integer >= 1 and dim a dimension (_dim),
        else ValueError.

        In 1D they are __call__ at grid_angles(n), bit for bit, taken
        _CHUNK_POINTS angles at a time. On more axes they come from the
        exact harmonics(dim), grouped by the last axis's frequency m_L: f =
        Re sum over m_L >= 0 of g(x') e^{i m_L x_L}, with g the a_m (doubled
        where m_L > 0) summed over the other axes against their e^{i m x}
        tables, one small complex contraction per leading axis. The samples
        are one BLAS product of the real weights [Re g, -Im g], a row per
        point of the leading axes, with the [cos(m_L x); sin(m_L x)] table of
        the last axis. They agree with __call__ to a few rounding errors of
        sum |a_m|, and their last bit can depend on the number of BLAS threads.
        """
        if not _is_int(n) or n < 1:
            raise ValueError("n must be an integer >= 1, got %r" % (n,))
        n, dim = int(n), _dim(dim)
        harm = self.harmonics(dim)  # raises if the expression uses more than dim axes
        if out is None:
            out = np.empty(n**dim)
        else:
            _check_row(out, (n**dim,), "out")
        if dim == 1:
            for i0 in range(0, n, _CHUNK_POINTS):
                # the chunk holds the angles while __call__ reads them
                chunk = out[i0:i0 + _CHUNK_POINTS]
                chunk[:] = grid_angles(n, i0, i0 + chunk.size)
                chunk[:] = self(chunk)
            return out
        # g holds the harmonics with m_L >= 0, doubled where m_L > 0, indexed
        # by the frequencies present on each axis
        half = [(m, a if m[-1] == 0 else 2 * a) for m, a in harm.items() if m[-1] >= 0]
        axes = [sorted({m[i] for m, _ in half}) for i in range(dim)]
        g = np.zeros(tuple(map(len, axes)), dtype=complex)
        for m, a in half:
            g[tuple(f.index(k) for f, k in zip(axes, m))] = a
        *leading, last = (np.array(f, dtype=float) for f in axes)
        for freqs in leading:
            angle = np.multiply.outer(grid_angles(n), freqs)
            e = np.cos(angle) + 1j * np.sin(angle)
            g = np.tensordot(g, e, axes=(0, 1))  # a frequency axis becomes a grid axis
        g = g.reshape(last.size, n ** (dim - 1))
        weights = np.concatenate([g.real, -g.imag]).T
        angle = np.multiply.outer(last, grid_angles(n))
        table = np.concatenate([np.cos(angle), np.sin(angle)])
        np.matmul(weights, table, out=out.reshape(-1, n))
        return out

    # -- arithmetic --------------------------------------------------------

    def _as_expr(other):
        if isinstance(other, TrigExpr):
            return other
        if _is_real(other):
            return TrigExpr.constant(float(other))
        return None

    def __add__(self, other):
        o = TrigExpr._as_expr(other)
        if o is None:
            return NotImplemented
        half = dict(self._half())
        for m, a in o._half():
            half[m] = half.get(m, 0j) + a
        return TrigExpr(half.items())

    __radd__ = __add__

    def __neg__(self):
        return TrigExpr((m, -a) for m, a in self._half())

    def __sub__(self, other):
        o = TrigExpr._as_expr(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """The convolution of the two maps, summed at m >= 0 only: the
        constructor adds the conjugates, so the product is exactly Hermitian."""
        o = TrigExpr._as_expr(other)
        if o is None:
            return NotImplemented
        half = {}
        for i, a in self._coef.items():
            for j, b in o._coef.items():
                m = (i[0] + j[0], i[1] + j[1], i[2] + j[2])
                if m >= _ZERO:
                    half[m] = half.get(m, 0j) + a * b
        return TrigExpr(half.items())

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, TrigExpr) and self._coef == other._coef

    def __hash__(self):
        return hash(tuple(self._coef.items()))

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis):
        """Exact partial derivative with respect to x{axis+1} (axis 0-based):
        each a_m times i*m_axis."""
        if not (_is_int(axis) and 0 <= axis < _NVARS):
            raise ValueError("axis out of range")
        return TrigExpr((m, complex(-m[axis] * a.imag, m[axis] * a.real))
                        for m, a in self._half())

    # -- exact Fourier data --------------------------------------------------

    def harmonics(self, dim):
        """The coefficients a_m of  f(x) = sum_m a_m e^{i m.x}  that this
        expression holds, with the keys m cut to length dim; a_{-m} =
        conj(a_m) exactly. on_grid, abs_sum and hold read them on each call.
        dim must be a dimension (_dim), else ValueError."""
        dim = _dim(dim)
        if self.nvars > dim:
            raise ValueError("expression uses more variables than dim")
        return {m[:dim]: a for m, a in self._coef.items()}

    def hold(self, pairs):
        """f on the set where each axis a of the (a, x) `pairs`, a in 0..2
        named once, is held at the finite angle x: a_m e^{i m_a x} moves to the
        frequency with m_a = 0, summed at frequencies >= 0 only (the constructor
        adds the conjugates). Its zero mode is the mean of f on the set."""
        pairs = list(pairs)
        held = dict(pairs)
        if not all(_is_int(a) and 0 <= a < _NVARS and _is_real(x) and math.isfinite(x)
                   for a, x in held.items()):
            raise ValueError("hold needs axes in 0..2 and finite angles, got %r" % (held,))
        if len(held) < len(pairs):
            raise ValueError("hold needs each axis at most once, got %r" % (pairs,))
        half = {}
        for m, a in self._coef.items():
            key = tuple(0 if i in held else k for i, k in enumerate(m))
            if key >= _ZERO:
                phase = sum(m[i] * x for i, x in held.items())
                half[key] = half.get(key, 0j) + a * cmath.exp(1j * phase)
        return TrigExpr(half.items())

    def abs_sum(self, dim):
        """sum |a_m| over harmonics(dim): a bound on |f| at every point; inf
        or nan when the coefficients overflow."""
        # Python float sums give inf or nan on overflow, with no warning
        return sum(abs(a) for a in self.harmonics(dim).values())

    # -- printing ------------------------------------------------------------

    def __str__(self):
        """g_m as in __call__, printed as a_0, then Re g_m*cos(m.x) - Im
        g_m*sin(m.x) for each m > 0. Doubling and halving are exact, so
        parse_expr(str(e)) == e when e.in_range()."""
        parts = []
        for m, a in self._half():
            g = a if m == _ZERO else 2 * a
            arg = _signed_sum((k, "x%d" % (i + 1)) for i, k in enumerate(m))
            parts += [(g.real, "cos(%s)" % arg if arg else ""), (-g.imag, "sin(%s)" % arg)]
        return _signed_sum(parts) or "0"

    def __repr__(self):
        return "TrigExpr(%s)" % str(self)


def _signed_sum(parts):
    """'t1 + t2 - t3 ...' from (value, body) pairs, each term |value|*body,
    or body alone where |value| is 1, or |value| alone where body is '';
    zero values are left out."""
    text = ""
    for value, body in parts:
        if value == 0:
            continue
        mag = abs(value)
        term = repr(mag) if not body else body if mag == 1 else "%r*%s" % (mag, body)
        if text:
            text += (" - " if value < 0 else " + ") + term
        else:
            text = ("-" if value < 0 else "") + term
    return text


def _is_int(value):
    """Whether value is an integer argument: an Integral, numpy's too, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """Whether value is a real argument: a Real, numpy's too, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _dim(value):
    """value as an int, if it is the dimension of a torus: an integer
    (_is_int) in 1..3, one axis per variable x1..x3; else ValueError."""
    if not (_is_int(value) and 1 <= value <= _NVARS):
        raise ValueError("dim must be an integer in 1..%d, got %r" % (_NVARS, value))
    return int(value)


def _real_array(value, name):
    """value as a float64 array, with no copy when it is one already: an
    array or sequence of numpy integer or floating kind, or a number that
    _is_real accepts. Anything else (bool, complex, str, bytes, None,
    object) raises ValueError naming the argument."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        if not _is_real(value):  # a Fraction is a number numpy holds as an object
            raise ValueError("%s must be real numbers, got dtype %s" % (name, arr.dtype))
        arr = np.asarray(float(value))
    return arr.astype(float, copy=False)


def _check_row(arr, shape, name):
    """Raise ValueError unless arr is a C-contiguous float64 ndarray of
    exactly this shape: an array that is read or written in place."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.shape == shape and arr.flags.c_contiguous):
        raise ValueError("%s must be a C-contiguous float64 array of shape %s"
                         % (name, shape))


def grid_angles(n, lo=0, hi=None):
    """The angles 2*pi*j/n of an n-point grid axis, for lo <= j < hi (all n
    by default): the points of on_grid, Grid.coord_arrays and the
    validation mesh."""
    return math.tau * np.arange(lo, n if hi is None else hi) / n


# -- parser ------------------------------------------------------------------
#
# expr   := ["-"] term (("+"|"-") term)*
# term   := factor ("*" factor)*
# factor := number | ("sin"|"cos") "(" linear ")"
# linear := ["-"] item (("+"|"-") item)*  with item := number ["*"] var
#                                                    | var | number
# var    := "x1" | "x2" | "x3"
#
# The optional leading "-" in expr and linear is a benign extension of the
# published grammar. Frequencies must be integers; bare numbers inside a
# trig argument contribute to the phase.

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>sin|cos|x1|x2|x3)"
    r"|(?P<op>[-+*()])",
    re.ASCII,
)
_WS_RE = re.compile(r"\s*", re.ASCII)


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tok = None
        self.tok_pos = 0
        self._advance()

    def _advance(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()
        self.tok_pos = self.pos
        if self.pos >= len(self.text):
            self.tok = ("end", "")
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            raise ExprSyntaxError(
                "unexpected character %r" % self.text[self.pos], self.pos
            )
        self.pos = m.end()
        if m.lastgroup == "num" and not math.isfinite(float(m.group())):
            raise ExprSyntaxError("number %r out of range" % m.group(), self.tok_pos)
        self.tok = (m.lastgroup, m.group())

    def take(self):
        t, p = self.tok, self.tok_pos
        self._advance()
        return t, p

    def peek(self):
        return self.tok


def parse_expr(text):
    """Parse expression text into a TrigExpr; raises ExprSyntaxError. A sum
    or product that takes a coefficient out of range (TrigExpr.in_range)
    or holds more than _MAX_HARMONICS harmonics raises at the offset of the
    operand that did it, so a text's time and memory grow with its length,
    not exponentially."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    ts = _Tokens(text)
    expr = _parse_sum(ts)
    if ts.peek() != ("end", ""):
        raise ExprSyntaxError("unexpected trailing input", ts.tok_pos)
    return expr


def _parse_sum(ts):
    """The terms' half spectra added into one map, in the order and with the
    rounding of TrigExpr's +; after each term only the entries it changed
    need the in_range check, so a sum takes time linear in its terms."""
    half = {}
    op = "+"
    if ts.peek() == ("op", "-"):
        ts.take()
        op = "-"
    while True:
        pos = ts.tok_pos
        for m, a in _parse_term(ts)._half():
            a = half.get(m, 0j) + (a if op == "+" else -a)
            if not cmath.isfinite(a if m == _ZERO else 2 * a):
                raise ExprSyntaxError("coefficient out of range", pos)
            if a:
                half[m] = a
            else:  # a cancelled harmonic leaves the map, as in TrigExpr's +
                del half[m]
        _check_size(2 * len(half) - (_ZERO in half), pos)  # -m beside each m > 0
        if ts.peek() not in (("op", "+"), ("op", "-")):
            return TrigExpr(half.items())
        (_, op), _ = ts.take()


def _parse_term(ts):
    expr = _parse_factor(ts)
    while ts.peek() == ("op", "*"):
        ts.take()
        pos = ts.tok_pos
        expr = expr * _parse_factor(ts)
        if not expr.in_range():
            raise ExprSyntaxError("coefficient out of range", pos)
        _check_size(len(expr._coef), pos)
    return expr


def _check_size(harmonics, pos):
    """Refuse a sum or product that holds more than _MAX_HARMONICS harmonics
    once the operand at pos is combined."""
    if harmonics > _MAX_HARMONICS:
        raise ExprSyntaxError("more than %d harmonics" % _MAX_HARMONICS, pos)


def _parse_factor(ts):
    kind, val = ts.peek()
    if kind == "num":
        ts.take()
        return TrigExpr.constant(float(val))
    if kind == "name" and val in ("sin", "cos"):
        ts.take()
        if ts.peek() != ("op", "("):
            raise ExprSyntaxError("expected '(' after %s" % val, ts.tok_pos)
        ts.take()
        freq, phase = _parse_linear(ts)
        if ts.peek() != ("op", ")"):
            raise ExprSyntaxError("expected ')'", ts.tok_pos)
        ts.take()
        return _trig(val, freq, phase)
    raise ExprSyntaxError("expected a number or sin/cos", ts.tok_pos)


def _trig(name, freq, phase):
    """sin or cos(freq.x + phase) as its harmonics: e^{i phase}/2 at freq,
    times -i for sin, and the conjugate at -freq."""
    if freq == _ZERO:
        return TrigExpr.constant(math.sin(phase) if name == "sin" else math.cos(phase))
    ph = cmath.exp(1j * phase)
    a = 0.5 * ph if name == "cos" else -0.5j * ph
    return TrigExpr([(freq, a)])


def _parse_linear(ts):
    freq = [0, 0, 0]
    phase = 0.0
    first = True
    while True:
        sign = 1
        if ts.peek() in (("op", "+"), ("op", "-")):
            (_, op), _ = ts.take()
            sign = -1 if op == "-" else 1
        elif not first:
            break
        kind, val = ts.peek()
        if kind == "num":
            _, npos = ts.take()
            num = float(val)
            star = ts.peek() == ("op", "*")
            if star:
                ts.take()
            kind2, val2 = ts.peek()
            if kind2 == "name" and val2.startswith("x"):
                ts.take()
                k = num * sign
                if k != int(k):
                    raise ExprSyntaxError(
                        "non-integer frequency %r" % val, npos
                    )
                freq[int(val2[1]) - 1] += int(k)
                if max(abs(f) for f in freq) >= _MAX_FREQ:
                    raise ExprSyntaxError("frequency out of range", npos)
            elif star:
                raise ExprSyntaxError("expected a variable after '*'", ts.tok_pos)
            else:
                phase += sign * num
                if not math.isfinite(phase):
                    raise ExprSyntaxError("phase out of range", npos)
        elif kind == "name" and val.startswith("x"):
            ts.take()
            freq[int(val[1]) - 1] += sign
        else:
            raise ExprSyntaxError("expected a frequency term", ts.tok_pos)
        first = False
    return (freq[0], freq[1], freq[2]), phase
