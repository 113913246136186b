"""Exact trigonometric-polynomial expressions on flat tori.

An expression is a finite sum of terms, each term a real coefficient times a
product of factors sin(k.x + phi) or cos(k.x + phi) with integer frequency
vectors k. Everything is 2*pi-periodic by construction, and the class is
closed under +, -, * and partial differentiation, with exact coefficients.
"""
from __future__ import annotations

import cmath
import functools
import math
import re
from typing import NamedTuple

import numpy as np

from .errors import ExprSyntaxError

SIN = 0
COS = 1

_NVARS = 3  # x1, x2, x3

# integer frequencies from this magnitude up are not all exact as floats
_MAX_FREQ = 2**53

# on_grid forms the last axis's e^{i m x} table for at most this many points
# at a time; only a 1D grid has more points on an axis
TABLE_COLUMNS = 4096

__all__ = [
    "TrigExpr",
    "ExprSyntaxError",
    "parse_expr",
]


def _norm_factor(kind, freq, phase):
    """Canonical factor: first nonzero frequency positive.

    Returns (sign, factor) where factor is None for a zero-frequency factor
    (the caller folds sin(phase)/cos(phase) into the coefficient).
    """
    first = 0
    for k in freq:
        if k != 0:
            first = k
            break
    if first == 0:
        return (math.sin(phase) if kind == SIN else math.cos(phase)), None
    if first < 0:
        freq = tuple(-k for k in freq)
        phase = -phase
        if kind == SIN:
            return -1.0, (SIN, freq, phase)
        return 1.0, (COS, freq, phase)
    return 1.0, (kind, freq, phase)


def _build_terms(raw):
    """Normalize, sort and merge raw (coeff, factors) pairs."""
    acc = {}
    for coeff, factors in raw:
        c = float(coeff)
        kept = []
        for kind, freq, phase in factors:
            s, f = _norm_factor(kind, tuple(int(k) for k in freq), float(phase))
            c *= s
            if f is not None:
                kept.append(f)
        if c == 0.0:
            continue
        key = tuple(sorted(kept))
        acc[key] = acc.get(key, 0.0) + c
    return tuple(
        (c, fs) for fs, c in sorted(acc.items()) if c != 0.0
    )


class TrigExpr:
    """Immutable trigonometric polynomial in up to three angle variables."""

    __slots__ = ("terms",)

    def __init__(self, raw_terms=()):
        object.__setattr__(self, "terms", _build_terms(raw_terms))

    def __setattr__(self, name, value):
        raise AttributeError("TrigExpr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value):
        return TrigExpr([(float(value), ())])

    @staticmethod
    def zero():
        return TrigExpr()

    # -- structure ---------------------------------------------------------

    @property
    def nvars(self):
        """Highest variable index actually used (1-based count)."""
        nv = 0
        for _, factors in self.terms:
            for _, freq, _ in factors:
                for i in range(_NVARS - 1, nv - 1, -1):
                    if freq[i] != 0:
                        nv = i + 1
                        break
        return nv

    # -- evaluation --------------------------------------------------------

    def __call__(self, *coords):
        """Value at broadcast coordinates, term by term.

        This is the pointwise evaluator, for point sets such as the
        components' samples and the validation mesh; on_grid fills a whole
        tensor grid faster from the harmonics. Terms and angles start from
        the scalar coefficient and phase, so a factor broadcasts only the
        axes it uses: on an open mesh (Grid.open_mesh) a factor in x1 alone
        runs sin/cos on n points, and only the products and the sum are
        full-grid arrays. Each term is added in place into one accumulator,
        in term order. The arithmetic per element is the same for any
        broadcast shape.
        """
        nv = self.nvars
        if len(coords) < nv:
            raise ValueError(
                "expression uses x%d but only %d coordinates given"
                % (nv, len(coords))
            )
        scalar_in = all(np.ndim(c) == 0 for c in coords)
        arrs = [np.asarray(c, dtype=float) for c in coords]
        shape = np.broadcast_shapes(*(a.shape for a in arrs)) if arrs else ()
        acc = np.zeros(shape)
        for coeff, factors in self.terms:
            term = coeff
            for kind, freq, phase in factors:
                angle = phase
                for i, k in enumerate(freq):
                    if k != 0:
                        angle = angle + k * arrs[i]
                term = term * (np.sin(angle) if kind == SIN else np.cos(angle))
            acc += term
        if scalar_in:
            return float(acc)
        return acc

    def on_grid(self, n, dim, out=None):
        """Samples on the (n,)*dim grid of angles 2*pi*j/n, j = 0..n-1 per
        axis (the points of Grid(dim, n)), flattened row-major.

        Computed from the exact harmonics, grouped by the last axis's
        frequency m_L. By the Hermitian symmetry, f = Re sum over m_L >= 0
        of g(x') e^{i m_L x_L}, with g the coefficients a_m (doubled where
        m_L > 0) summed over the other axes against their e^{i m x} tables.
        That sum is a small complex contraction per leading axis; the last
        axis is one real matrix product of [Re g, -Im g] with the
        [cos(m_L x); sin(m_L x)] table, written into out. The table covers
        at most TABLE_COLUMNS points at a time, so a 1D grid longer than
        that takes one product per block and no array of grid length but
        out. The values agree with __call__ to a few rounding errors of
        sum |a_m|.

        out, if given, is a C-contiguous float64 array of n**dim elements;
        it is filled and returned.
        """
        spec = _spectrum(self, dim)
        size = n**dim
        if out is None:
            out = np.empty(size)
        elif out.dtype != np.float64 or out.size != size or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array of %d elements"
                             % size)
        *leading, last = spec.freqs
        g = spec.coef
        for freqs in leading:
            # the leading frequency axis of g becomes a trailing grid axis
            angle = np.multiply.outer(grid_angles(n), freqs)
            g = np.tensordot(g, np.cos(angle) + 1j * np.sin(angle), axes=(0, 1))
        g = g.reshape(last.size, size // n)
        weights = np.concatenate([g.real, -g.imag]).T
        rows = out.reshape(-1, n)
        for lo in range(0, n, TABLE_COLUMNS):
            hi = min(lo + TABLE_COLUMNS, n)
            angle = np.multiply.outer(last, grid_angles(n, lo, hi))
            table = np.concatenate([np.cos(angle), np.sin(angle)])
            np.matmul(weights, table, out=rows[:, lo:hi])
        return out

    # -- arithmetic --------------------------------------------------------

    def _as_expr(other):
        if isinstance(other, TrigExpr):
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return TrigExpr.constant(float(other))
        return None

    def __add__(self, other):
        o = TrigExpr._as_expr(other)
        if o is None:
            return NotImplemented
        return TrigExpr(list(self.terms) + list(o.terms))

    __radd__ = __add__

    def __neg__(self):
        return TrigExpr([(-c, f) for c, f in self.terms])

    def __sub__(self, other):
        o = TrigExpr._as_expr(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = TrigExpr._as_expr(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = TrigExpr._as_expr(other)
        if o is None:
            return NotImplemented
        raw = []
        for c1, f1 in self.terms:
            for c2, f2 in o.terms:
                raw.append((c1 * c2, f1 + f2))
        return TrigExpr(raw)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, TrigExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis):
        """Exact partial derivative with respect to x{axis+1} (axis 0-based)."""
        if not 0 <= axis < _NVARS:
            raise ValueError("axis out of range")
        raw = []
        for coeff, factors in self.terms:
            for j, (kind, freq, phase) in enumerate(factors):
                k = freq[axis]
                if k == 0:
                    continue
                rest = factors[:j] + factors[j + 1 :]
                if kind == SIN:
                    raw.append((coeff * k, rest + ((COS, freq, phase),)))
                else:
                    raw.append((-coeff * k, rest + ((SIN, freq, phase),)))
        return TrigExpr(raw)

    # -- exact Fourier data --------------------------------------------------

    def harmonics(self, dim):
        """Exact coefficients a_m of  f(x) = sum_m a_m e^{i m.x},  |m| keys
        are integer tuples of length dim. Hermitian: a_{-m} = conj(a_m).

        on_grid and abs_sum read them through a cache of their array form,
        built once per expression and dim."""
        if self.nvars > dim:
            raise ValueError("expression uses more variables than dim")
        zero = (0,) * dim
        total = {}
        for coeff, factors in self.terms:
            cur = {zero: complex(coeff)}
            for kind, freq, phase in factors:
                m = tuple(freq[:dim])
                mneg = tuple(-k for k in m)
                ph = cmath.exp(1j * phase)
                if kind == COS:
                    fac = {m: 0.5 * ph, mneg: 0.5 * ph.conjugate()}
                else:
                    fac = {m: -0.5j * ph, mneg: 0.5j * ph.conjugate()}
                nxt = {}
                for ka, va in cur.items():
                    for kb, vb in fac.items():
                        kk = tuple(a + b for a, b in zip(ka, kb))
                        nxt[kk] = nxt.get(kk, 0.0j) + va * vb
                cur = nxt
            for k, v in cur.items():
                total[k] = total.get(k, 0.0j) + v
        return {k: v for k, v in total.items() if v != 0.0}

    def abs_sum(self, dim):
        """sum |a_m| over harmonics(dim): a bound on |f| at every point; inf
        or nan when the coefficients overflow."""
        return _spectrum(self, dim).abs_sum

    def line_profile(self, base, direction):
        """Restriction to the line x = base + s*direction as a list of
        (omega, amp) with  f(s) = Re( sum amp * e^{i omega s} ), from the
        harmonics: omega = m.direction and amp = a_m e^{i m.base}."""
        out = {}
        for m, a in self.harmonics(len(base)).items():
            omega = sum(k * float(d) for k, d in zip(m, direction))
            amp = a * cmath.exp(1j * sum(k * float(b) for k, b in zip(m, base)))
            out[omega] = out.get(omega, 0.0j) + amp
        return sorted(out.items())

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for coeff, factors in self.terms:
            neg = coeff < 0
            mag = abs(coeff)
            if factors:
                body = "*".join(_factor_str(f) for f in factors)
                if mag != 1.0:
                    body = repr(mag) + "*" + body
            else:
                body = repr(mag)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "TrigExpr(%s)" % str(self)


class _Spectrum(NamedTuple):
    """The harmonics in the array form on_grid contracts; read-only."""

    freqs: tuple  # per axis, the frequencies present; m >= 0 on the last
    coef: np.ndarray  # complex, a_m at the frequencies, doubled where m_L > 0
    abs_sum: float  # sum |a_m| over all harmonics


@functools.lru_cache(maxsize=256)
def _spectrum(expr, dim):
    harm = expr.harmonics(dim)
    # Python float sums give inf or nan on overflow, with no warning
    abs_sum = sum(abs(a) for a in harm.values())
    half = [(m, a if m[-1] == 0 else 2 * a) for m, a in harm.items() if m[-1] >= 0]
    freqs = [sorted({m[i] for m, _ in half}) for i in range(dim)]
    coef = np.zeros(tuple(len(f) for f in freqs), dtype=complex)
    for m, a in half:
        coef[tuple(f.index(k) for f, k in zip(freqs, m))] = a
    freqs = tuple(np.array(f, dtype=float) for f in freqs)
    for arr in (*freqs, coef):
        arr.setflags(write=False)
    return _Spectrum(freqs, coef, abs_sum)


def grid_angles(n, lo=0, hi=None):
    """The angles 2*pi*j/n of an n-point grid axis, for lo <= j < hi (all n
    by default): the points of Grid.axis and of on_grid."""
    return 2.0 * math.pi * np.arange(lo, n if hi is None else hi) / n


def _factor_str(factor):
    kind, freq, phase = factor
    pieces = []
    for i, k in enumerate(freq):
        if k == 0:
            continue
        var = "x%d" % (i + 1)
        mag = abs(k)
        body = var if mag == 1 else "%d*%s" % (mag, var)
        if not pieces:
            pieces.append(body)  # leading freq positive by normalization
        else:
            pieces.append(("- " if k < 0 else "+ ") + body)
    if phase != 0.0:
        pieces.append(("- " if phase < 0 else "+ ") + repr(abs(phase)))
    name = "sin" if kind == SIN else "cos"
    return "%s(%s)" % (name, " ".join(pieces))


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
    r"|(?P<op>[-+*()])"
)
_WS_RE = re.compile(r"\s*")


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
        if m.lastgroup == "num":
            if not math.isfinite(float(m.group())):
                raise ExprSyntaxError("number %r out of range" % m.group(), self.tok_pos)
            self.tok = ("num", m.group())
        elif m.lastgroup == "name":
            self.tok = ("name", m.group())
        else:
            self.tok = ("op", m.group())

    def take(self):
        t, p = self.tok, self.tok_pos
        self._advance()
        return t, p

    def peek(self):
        return self.tok


def parse_expr(text):
    """Parse expression text into a TrigExpr; raises ExprSyntaxError."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    ts = _Tokens(text)
    expr = _parse_sum(ts)
    if ts.peek() != ("end", ""):
        raise ExprSyntaxError("unexpected trailing input", ts.tok_pos)
    return expr


def _parse_sum(ts):
    sign = 1.0
    if ts.peek() == ("op", "-"):
        ts.take()
        sign = -1.0
    expr = sign * _parse_term(ts)
    while ts.peek() in (("op", "+"), ("op", "-")):
        (_, op), _ = ts.take()
        pos = ts.tok_pos
        t = _parse_term(ts)
        expr = _finite_terms(expr + t if op == "+" else expr - t, pos)
    return expr


def _parse_term(ts):
    expr = _parse_factor(ts)
    while ts.peek() == ("op", "*"):
        ts.take()
        pos = ts.tok_pos
        expr = _finite_terms(expr * _parse_factor(ts), pos)
    return expr


def _finite_terms(expr, pos):
    """expr, unless combining values at pos overflowed a coefficient."""
    if not all(math.isfinite(c) for c, _ in expr.terms):
        raise ExprSyntaxError("coefficient out of range", pos)
    return expr


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
        k = SIN if val == "sin" else COS
        return TrigExpr([(1.0, ((k, freq, phase),))])
    raise ExprSyntaxError("expected a number or sin/cos", ts.tok_pos)


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
