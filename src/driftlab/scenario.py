"""Scenario definitions: flat-torus geometry, analytic fields, declared
recurrent components, and the structural validation checks.

A scenario carries the drift b (one expression per axis), the potential c,
and a nonnegative weight function L vanishing quadratically on the attracting
components. Components arrive in their JSON form. Each is parsed, checked
against the scenario's dimension and linearized once, when the scenario is
built: a point gets its jacobian Db(P) and a cycle its transverse matrix B,
both from the exact derivative fields. Validation re-checks the declared
structure numerically and reports residuals without mutating anything.

Point sets are coordinate tuples: one array per axis, broadcastable against
each other, as TrigExpr.__call__ takes them and Grid.open_mesh returns them.
A component's sample(m) returns such a tuple, and its distance(coords)
returns an array of the coordinates' broadcast shape.
"""
from __future__ import annotations

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

    def distance(self, coords):
        return np.sqrt(sum(periodic_delta(x - p) ** 2
                           for x, p in zip(coords, self.location)))

    def sample(self, m):
        return tuple(self.location[:, None])


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

    def sample(self, m):
        """m points at equal time steps, the first at running coordinate 0."""
        running = (self.speed * (np.arange(m) * (self.period / m))) % TWO_PI
        return tuple(running if i == self.axis else np.full(m, self.level)
                     for i in range(self.dim))

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

    def distance(self, coords):
        return np.zeros(np.broadcast_shapes(*map(np.shape, coords)))

    def sample(self, m):
        x = TWO_PI * np.arange(m) / m
        return x[:, None], x[None, :]


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


def validate_scenario(scenario):
    """Numerically re-check the declared structure; failures are non-fatal.

    A check over the whole validation grid samples its field with on_grid;
    a check on a point set evaluates the field there with __call__."""
    tol = VALIDATION_TOL
    checks = []
    grid = Grid(scenario.dim, VALIDATION_RESOLUTION)
    mesh = grid.open_mesh()
    ids = scenario.component_ids()

    for cid, comp in zip(ids, scenario.components):
        if comp.kind == "point":
            res = float(np.max(np.abs([f(*comp.location) for f in scenario.b])))
            checks.append(ValidationCheck(
                cid + " field vanishes", res <= tol, res))
            re_parts = np.abs(np.real(np.linalg.eigvals(comp.jacobian)))
            res = float(np.min(re_parts))
            checks.append(ValidationCheck(
                cid + " hyperbolic", res >= HYPERBOLICITY_TOL, res,
                "min |Re eig(Db)|"))
        elif comp.kind == "cycle":
            cc = comp.sample(256)
            res = 0.0
            for i in range(scenario.dim):
                want = comp.speed if i == comp.axis else 0.0
                res = max(res, float(np.max(np.abs(scenario.b[i](*cc) - want))))
            checks.append(ValidationCheck(
                cid + " orbit of the field", res <= tol, res,
                "max |b(cycle) - speed*e_axis|"))
            ev = np.real(np.linalg.eigvals(comp.transverse_matrix))
            res = float(np.min(np.abs(ev)))
            checks.append(ValidationCheck(
                cid + " hyperbolic", res >= HYPERBOLICITY_TOL, res,
                "min |Re eig(B)|"))
            res = 0.0
            t_ax = comp.transverse_axes
            for a, i in enumerate(t_ax):
                for bj, j in enumerate(t_ax):
                    dev = scenario.db[i][j](*cc) - comp.transverse_matrix[a, bj]
                    res = max(res, float(np.max(np.abs(dev))))
                dev = scenario.db[i][comp.axis](*cc)
                res = max(res, float(np.max(np.abs(dev))))
            checks.append(ValidationCheck(
                cid + " constant normal form", res <= tol, res,
                "transverse jacobian constant, decoupled from the phase"))
        elif comp.kind == "torus":
            res = max(
                float(np.max(np.abs(scenario.b[i].on_grid(grid.n, grid.dim) - comp.k[i])))
                for i in range(2)
            )
            checks.append(ValidationCheck(
                cid + " constant flow matches k", res <= tol, res))
            k1, k2 = (float(v) for v in comp.k)
            ok = k2 != 0 and is_irrational(k1 / k2, IRRATIONALITY_DEPTH)
            checks.append(ValidationCheck(
                cid + " irrational ratio", ok, 0.0 if ok else 1.0,
                "continued fraction of k1/k2 needs %d terms" % IRRATIONALITY_DEPTH))
            ok, margin = check_declared_bound(comp.k, 64, comp.C, comp.alpha)
            checks.append(ValidationCheck(
                cid + " small-divisor bound", ok, _excess(1.0 - margin),
                "declared (C, alpha) margin %.3g on |m| <= 64" % margin))

    res = _excess(-float(np.min(scenario.L.on_grid(grid.n, grid.dim))))
    checks.append(ValidationCheck("L nonnegative", res <= tol, res))

    for cid, comp in zip(ids, scenario.components):
        cc = comp.sample(256)
        gmax = max(
            float(np.max(np.abs(scenario.grad_L[i](*cc)))) for i in range(scenario.dim)
        )
        if comp.is_attracting:
            lmax = float(np.max(np.abs(scenario.L(*cc))))
            res = max(lmax, gmax)
            checks.append(ValidationCheck(
                cid + " L vanishes at order 2", res <= tol, res,
                "max(|L|, |grad L|) on the component"))
            mask = comp.distance(mesh) <= NEIGHBORHOOD_RADIUS
            nc = [grid.axis()[i] for i in np.nonzero(mask)]
            decay = sum(scenario.b[i](*nc) * scenario.grad_L[i](*nc)
                        for i in range(scenario.dim))
            res = _excess(float(np.max(decay)))
            checks.append(ValidationCheck(
                cid + " local Lyapunov decrease", res <= tol, res,
                "max (b, grad L) within %.2g" % NEIGHBORHOOD_RADIUS))
        else:
            checks.append(ValidationCheck(
                cid + " L critical point", gmax <= tol, gmax,
                "max |grad L| on the component"))

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
    if name not in BUILTINS:
        raise ScenarioFormatError("unknown builtin scenario %r" % name)
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
    """Builtin name, path to a JSON file (str or os.PathLike), or a parsed
    dict; anything else, an int that open() would take as a file
    descriptor included, raises ScenarioFormatError."""
    if isinstance(source, dict):
        return scenario_from_dict(source)
    if not isinstance(source, (str, os.PathLike)):
        raise ScenarioFormatError(
            "scenario source must be a dict, a builtin name or a path, got %r" % (source,))
    if source in BUILTIN_NAMES:
        return builtin_scenario(source)
    with open(source) as fh:
        data = json.load(fh)
    return scenario_from_dict(data)
