"""Scenario definitions: flat-torus geometry, analytic fields, declared
recurrent components, and the structural validation checks.

A scenario carries the drift b (one expression per axis), the potential c,
and a nonnegative weight function L vanishing quadratically on the attracting
components. Components arrive in their JSON form. Each is parsed, checked
against the scenario's dimension and linearized once, when the scenario is
built: a point gets its jacobian Db(P) and a cycle its transverse matrix B,
both from the exact derivative fields. Validation re-checks the declared
structure and reports residuals without mutating anything. A component
states the coordinates it fixes (_fixed), from which validation bounds a
field on all of it; its distance(coords) takes one array per axis,
broadcastable, as Grid.open_mesh returns them, and returns their broadcast
shape.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .diophantine import check_declared_bound, is_irrational
from .errors import ScenarioFormatError
from .expr import parse_expr
from .operator import TWO_PI, Grid

# |Re eigenvalue| below this is treated as a zero real part (not hyperbolic)
HYPERBOLICITY_TOL = 1e-6

# radius of the neighborhood on which the local Lyapunov decrease is checked
NEIGHBORHOOD_RADIUS = 0.5

# continued-fraction depth required to accept a frequency ratio as irrational
IRRATIONALITY_DEPTH = 20

# points per axis of the validation mesh, and the residual a check allows
VALIDATION_RESOLUTION = 64
VALIDATION_TOL = 1e-8

PHI = (1.0 + math.sqrt(5.0)) / 2.0

__all__ = [
    "Point",
    "Cycle",
    "Torus",
    "Scenario",
    "ScenarioFormatError",
    "ValidationCheck",
    "ValidationReport",
    "validate_scenario",
    "builtin_scenario",
    "BUILTIN_NAMES",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "periodic_delta",
]


def periodic_delta(x):
    """Signed distance to 0 on the circle: wraps into [-pi, pi)."""
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True, eq=False)
class Point:
    """Stationary point with its exact field jacobian Db(location)."""

    location: np.ndarray
    jacobian: np.ndarray

    kind = "point"

    @property
    def is_attracting(self):
        return bool(np.all(np.real(np.linalg.eigvals(self.jacobian)) < 0))

    @property
    def _fixed(self):
        return tuple(enumerate(self.location))

    def distance(self, coords):
        return np.sqrt(sum(periodic_delta(x - p) ** 2
                           for x, p in zip(coords, self.location)))


@dataclass(frozen=True, eq=False)
class Cycle:
    """Axis-aligned periodic orbit: the running coordinate sweeps the circle
    at constant speed 2*pi/period, all transverse coordinates sit at `level`."""

    axis: int  # running axis, 0-based
    level: float
    period: float
    dim: int
    transverse_matrix: np.ndarray  # constant normal-form matrix B

    kind = "cycle"

    @property
    def speed(self):
        return TWO_PI / self.period

    @property
    def transverse_axes(self):
        return tuple(i for i in range(self.dim) if i != self.axis)

    @property
    def is_attracting(self):
        ev = np.linalg.eigvals(self.transverse_matrix)
        return bool(np.all(np.real(ev) < 0))

    @property
    def _fixed(self):
        return tuple((t, self.level) for t in self.transverse_axes)

    def distance(self, coords):
        d2 = sum(periodic_delta(coords[t] - self.level) ** 2 for t in self.transverse_axes)
        return np.broadcast_to(np.sqrt(d2), np.broadcast_shapes(*map(np.shape, coords)))


@dataclass(frozen=True, eq=False)
class Torus:
    """Invariant 2-torus of the constant flow (k1, k2), k1/k2 irrational."""

    k: np.ndarray
    C: float
    alpha: float

    kind = "torus"

    is_attracting = True
    _fixed = ()

    def distance(self, coords):
        return np.zeros(np.broadcast_shapes(*map(np.shape, coords)))


class Scenario:
    """Immutable bundle of fields and declared components on a flat torus.

    `components` are component specs in the JSON form that scenario_from_dict
    reads, such as {"type": "point", "location": [0.0]}; the scenario holds
    them as Point, Cycle and Torus objects with their linearizations. The
    arguments are checked as their JSON values would be: a string name, an
    integer dim, a list of expression strings b, strings c and L, a list of
    components whose numeric fields are finite real numbers. Any other input
    raises ScenarioFormatError.
    """

    def __init__(self, name, dim, b, c, L, components=()):
        try:
            if not isinstance(name, str):
                raise ValueError("name %r is not a string" % (name,))
            self.dim = _integer(dim)
            b = _sequence(b, "b")
            if not all(isinstance(e, str) for e in (*b, c, L)):
                raise ValueError("b must be a list of expression strings, c and L strings")
            components = _sequence(components, "components")
        except ValueError as exc:
            raise ScenarioFormatError("malformed scenario field: %s" % exc)
        self.name = name
        if self.dim not in (1, 2, 3):
            raise ScenarioFormatError("dim must be 1, 2 or 3")
        self.b = tuple(parse_expr(e) for e in b)
        if len(self.b) != self.dim:
            raise ScenarioFormatError(
                "drift has %d components, expected %d" % (len(self.b), self.dim)
            )
        self.c = parse_expr(c)
        self.L = parse_expr(L)
        for e in (*self.b, self.c, self.L):
            if e.nvars > self.dim:
                raise ScenarioFormatError(
                    "expression %r uses more variables than dim=%d" % (str(e), self.dim)
                )
        # exact derivative fields: _component reads Db for the point jacobians
        # and cycle normal forms, validate_scenario reads Db and grad L
        self.db = tuple(tuple(bi.derivative(j) for j in range(self.dim)) for bi in self.b)
        self.grad_L = tuple(self.L.derivative(i) for i in range(self.dim))
        # differentiating multiplies coefficients by frequencies, which can
        # overflow a coefficient that parsed as finite
        for e in (*self.grad_L, *(f for row in self.db for f in row)):
            if not e.in_range():
                raise ScenarioFormatError(
                    "a derivative of b or L has a coefficient out of range: %r" % str(e))
        self.components = tuple(self._component(i, spec) for i, spec in enumerate(components))

    def component_ids(self):
        return ["%d:%s" % (i, c.kind) for i, c in enumerate(self.components)]

    def _component(self, i, spec):
        """The i-th component from its JSON form, with its linearization."""
        if not isinstance(spec, dict) or "type" not in spec:
            raise ScenarioFormatError("component %d has no type" % i)
        kind = spec["type"]
        try:
            if kind == "point":
                P = np.array([_finite(v) for v in _sequence(spec["location"], "location")])
                if P.shape != (self.dim,):
                    raise ScenarioFormatError(
                        "point location needs %d coordinates" % self.dim)
                return Point(P, self._db_at(P, range(self.dim)))
            if kind == "cycle":
                axis = _integer(spec["axis"]) - 1
                level = _finite(spec["level"])
                period = _finite(spec["period"])
                if self.dim == 1:
                    raise ScenarioFormatError("a cycle needs a transverse axis")
                if not 0 <= axis < self.dim:
                    raise ScenarioFormatError("cycle axis out of range")
                if not period > 0:
                    raise ScenarioFormatError("cycle period must be positive")
                # B is Db on the transverse axes, at running coordinate 0
                x0 = [0.0 if j == axis else level for j in range(self.dim)]
                t_ax = [j for j in range(self.dim) if j != axis]
                return Cycle(axis, level, period, self.dim, self._db_at(x0, t_ax))
            if kind == "torus":
                if self.dim != 2:
                    raise ScenarioFormatError("a torus needs dim 2")
                k = np.array([_finite(v) for v in _sequence(spec["k"], "k")])
                if k.shape != (2,):
                    raise ScenarioFormatError("torus k needs two entries")
                return Torus(k, _finite(spec["C"]), _finite(spec["alpha"]))
        except ScenarioFormatError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioFormatError("component %d malformed: %s" % (i, exc))
        raise ScenarioFormatError("component %d: unknown type %r" % (i, kind))

    def _db_at(self, x, axes):
        """The matrix Db(x)[i, j] for i, j in axes."""
        return np.array([[self.db[i][j](*x) for j in axes] for i in axes])


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    scenario: str
    resolution: int
    tol: float
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "resolution": self.resolution,
            "tol": self.tol,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "residual": c.residual, "detail": c.detail}
                for c in self.checks
            ],
        }


def _excess(x):
    """max(0, x) that keeps a NaN, so a NaN residual fails its check."""
    return 0.0 if x <= 0.0 else x


def _held(f, dim, fixed):
    """f.harmonics(dim) with each axis a of `fixed`, (a, x) pairs, held at
    x: a_m times e^{i m_a x} moves to the frequency with m_a = 0."""
    fixed, held = dict(fixed), {}
    for m, a in f.harmonics(dim).items():
        key = tuple(0 if i in fixed else k for i, k in enumerate(m))
        phase = sum(m[i] * x for i, x in fixed.items())
        held[key] = held.get(key, 0j) + a * cmath.exp(1j * phase)
    return held


def _bound(comp, dim, fields):
    """The largest sum |a| over the fields' harmonics held on comp: it bounds
    |field| on all of comp. NaN if any sum is."""
    return float(np.max([sum(map(abs, _held(f, dim, comp._fixed).values()))
                         for f in fields]))


def validate_scenario(scenario):
    """Numerically re-check the declared structure; failures are non-fatal.

    An equality on a component has the residual _bound(field - value), which
    bounds the deviation on all of the component. The two inequalities are
    checked on the validation grid: L >= 0 from on_grid, and b . grad L <= 0
    near each attracting component from __call__ on the open mesh."""
    tol = VALIDATION_TOL
    dim = scenario.dim
    checks = []
    grid = Grid(dim, VALIDATION_RESOLUTION)
    mesh = grid.open_mesh()
    ids = scenario.component_ids()

    def residual_check(name, res, detail=""):
        checks.append(ValidationCheck(name, res <= tol, res, detail))

    for cid, comp in zip(ids, scenario.components):
        if comp.kind == "point":
            residual_check(cid + " field vanishes", _bound(comp, dim, scenario.b),
                           "bounds max |b| at the point")
            res = float(np.min(np.abs(np.real(np.linalg.eigvals(comp.jacobian)))))
            checks.append(ValidationCheck(
                cid + " hyperbolic", res >= HYPERBOLICITY_TOL, res, "min |Re eig(Db)|"))
        elif comp.kind == "cycle":
            res = _bound(comp, dim, [bi - comp.speed if i == comp.axis else bi
                                     for i, bi in enumerate(scenario.b)])
            residual_check(cid + " orbit of the field", res,
                           "bounds max |b - speed*e_axis| on the cycle")
            res = float(np.min(np.abs(np.real(np.linalg.eigvals(comp.transverse_matrix)))))
            checks.append(ValidationCheck(
                cid + " hyperbolic", res >= HYPERBOLICITY_TOL, res, "min |Re eig(B)|"))
            t_ax = comp.transverse_axes
            want = np.zeros((dim, dim))  # B on the transverse block, 0 on the phase column
            want[np.ix_(t_ax, t_ax)] = comp.transverse_matrix
            res = _bound(comp, dim, [scenario.db[i][j] - want[i, j]
                                     for i in t_ax for j in range(dim)])
            residual_check(cid + " constant normal form", res,
                           "bounds max |Db - B| on the cycle, B 0 in the phase column")
        elif comp.kind == "torus":
            res = _bound(comp, dim, [bi - ki for bi, ki in zip(scenario.b, comp.k)])
            residual_check(cid + " constant flow matches k", res,
                           "bounds max |b - k| on the torus")
            k1, k2 = (float(v) for v in comp.k)
            ok = k2 != 0 and is_irrational(k1 / k2, IRRATIONALITY_DEPTH)
            checks.append(ValidationCheck(
                cid + " irrational ratio", ok, 0.0 if ok else 1.0,
                "continued fraction of k1/k2 needs %d terms" % IRRATIONALITY_DEPTH))
            ok, margin = check_declared_bound(comp.k, 64, comp.C, comp.alpha)
            checks.append(ValidationCheck(
                cid + " small-divisor bound", ok, _excess(1.0 - margin),
                "declared (C, alpha) margin %.3g on |m| <= 64" % margin))

    residual_check("L nonnegative", _excess(-float(np.min(scenario.L.on_grid(grid.n, dim)))))

    for cid, comp in zip(ids, scenario.components):
        if comp.is_attracting:
            residual_check(cid + " L vanishes at order 2",
                           _bound(comp, dim, (scenario.L, *scenario.grad_L)),
                           "bounds max(|L|, |grad L|) on the component")
            mask = comp.distance(mesh) <= NEIGHBORHOOD_RADIUS
            nc = [grid.axis()[i] for i in np.nonzero(mask)]
            decay = sum(scenario.b[i](*nc) * scenario.grad_L[i](*nc) for i in range(dim))
            residual_check(cid + " local Lyapunov decrease", _excess(float(np.max(decay))),
                           "max (b, grad L) within %.2g" % NEIGHBORHOOD_RADIUS)
        else:
            residual_check(cid + " L critical point", _bound(comp, dim, scenario.grad_L),
                           "bounds max |grad L| on the component")

    return ValidationReport(scenario.name, VALIDATION_RESOLUTION, tol, tuple(checks))


# -- builtins --------------------------------------------------------------------

# the reference scenarios in JSON form, keyed by name
BUILTINS = {
    "stable-point": {
        "dim": 1, "b": ["-sin(x1)"], "c": "cos(x1)", "L": "1 - cos(x1)",
        "components": [{"type": "point", "location": [0.0]},
                       {"type": "point", "location": [math.pi]}],
    },
    "stable-cycle": {
        "dim": 2, "b": ["1", "-sin(x2)"], "c": "cos(x1)", "L": "1 - cos(x2)",
        "components": [{"type": "cycle", "axis": 1, "level": 0.0, "period": TWO_PI},
                       {"type": "cycle", "axis": 1, "level": math.pi, "period": TWO_PI}],
    },
    "irrational-torus": {
        "dim": 2, "b": ["1", repr(PHI)], "c": "cos(x1)", "L": "0",
        "components": [{"type": "torus", "k": [1.0, PHI], "C": 0.5, "alpha": 0.5}],
    },
    # engineered field: attracting cycle on x2 = 0 (transverse rate -2),
    # attracting point at (0, pi) with jacobian diag(-1, -2), and a
    # potential giving pressure +0.25 on the cycle, -0.25 at the point
    "mixed": {
        "dim": 2,
        "b": ["0.5 + 0.5*cos(x2) - 0.25*sin(x1) + 0.5*cos(x2)*sin(x1)"
              " - 0.25*cos(x2)*cos(x2)*sin(x1)",
              "-sin(2*x2)"],
        "c": "0.25*cos(x2)",
        "L": "2 - cos(x1) - cos(x2) + cos(x1)*cos(x2) - cos(x2)*cos(x2)",
        "components": [{"type": "cycle", "axis": 1, "level": 0.0, "period": TWO_PI},
                       {"type": "point", "location": [0.0, math.pi]}],
    },
}

BUILTIN_NAMES = tuple(BUILTINS)


def builtin_scenario(name):
    """Load one of the reference scenarios by name."""
    if not isinstance(name, str) or name not in BUILTINS:
        raise ScenarioFormatError("unknown builtin scenario %r" % (name,))
    return scenario_from_dict(dict(BUILTINS[name], name=name))


# -- JSON form --------------------------------------------------------------------


def _integer(value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%r is not an integer" % (value,))
    return int(value)


def _finite(value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%r is not a number" % (value,))
    if not math.isfinite(value):
        raise ValueError("%r is not finite" % (value,))
    return float(value)


def _sequence(value, field):
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (field, value))
    return value


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    try:
        fields = [data[key] for key in ("name", "dim", "b", "c", "L")]
    except KeyError as exc:
        raise ScenarioFormatError("missing scenario field: %s" % exc)
    return Scenario(*fields, data.get("components", []))


def scenario_to_dict(scenario):
    comps = []
    for comp in scenario.components:
        if comp.kind == "point":
            comps.append({"type": "point", "location": [float(v) for v in comp.location]})
        elif comp.kind == "cycle":
            comps.append({"type": "cycle", "axis": comp.axis + 1,
                          "level": comp.level, "period": comp.period})
        else:
            comps.append({"type": "torus", "k": [float(v) for v in comp.k],
                          "C": comp.C, "alpha": comp.alpha})
    return {
        "name": scenario.name,
        "dim": scenario.dim,
        "b": [str(e) for e in scenario.b],
        "c": str(scenario.c),
        "L": str(scenario.L),
        "components": comps,
    }


def load_scenario(source):
    """Builtin name, path to a UTF-8 JSON file (str or os.PathLike), or a
    parsed dict; anything else, an int that open() would take as a file
    descriptor included, raises ScenarioFormatError, as does a file that is
    not JSON. A file that cannot be opened raises the OSError of open()."""
    if isinstance(source, dict):
        return scenario_from_dict(source)
    if not isinstance(source, (str, os.PathLike)):
        raise ScenarioFormatError(
            "scenario source must be a dict, a builtin name or a path, got %r" % (source,))
    if source in BUILTIN_NAMES:
        return builtin_scenario(source)
    with open(source, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise ScenarioFormatError("%s is not a JSON file: %s" % (source, exc)) from exc
    return scenario_from_dict(data)
