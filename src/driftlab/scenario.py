"""Scenario definitions: flat-torus geometry, analytic fields, declared
recurrent components, and the structural validation checks.

A scenario carries the drift b (one expression per axis), the potential c,
and a nonnegative weight function L vanishing quadratically on the attracting
components. Components are trusted inputs; validation re-checks the declared
structure numerically and reports residuals without mutating anything.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diophantine import check_declared_bound, is_irrational
from .expr import TrigExpr, parse_expr
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
    "builtin_scenarios",
    "BUILTIN_NAMES",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "periodic_delta",
]


class ScenarioFormatError(ValueError):
    """Malformed scenario data (bad JSON shape, bad component spec, ...)."""


def periodic_delta(x):
    """Signed distance to 0 on the circle: wraps into [-pi, pi)."""
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True, eq=False)
class Point:
    """Stationary point with its exact field jacobian."""

    location: np.ndarray
    jacobian: np.ndarray = None

    kind = "point"

    @property
    def is_attracting(self):
        return bool(np.all(np.real(np.linalg.eigvals(self.jacobian)) < 0))

    def distance(self, points):
        d = periodic_delta(points - self.location[None, :])
        return np.sqrt(np.sum(d * d, axis=1))

    def sample(self, m):
        return self.location[None, :]


@dataclass(frozen=True, eq=False)
class Cycle:
    """Axis-aligned periodic orbit: the running coordinate sweeps the circle
    at constant speed 2*pi/period, all transverse coordinates sit at `level`."""

    axis: int  # running axis, 0-based
    level: float
    period: float
    dim: int
    transverse_matrix: np.ndarray = None  # constant normal-form matrix B

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

    def points(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        out = np.full((thetas.size, self.dim), self.level)
        out[:, self.axis] = (self.speed * thetas) % TWO_PI
        return out

    def sample(self, m):
        return self.points(np.arange(m) * (self.period / m))

    def distance(self, points):
        d2 = np.zeros(points.shape[0])
        for t in self.transverse_axes:
            dt = periodic_delta(points[:, t] - self.level)
            d2 += dt * dt
        return np.sqrt(d2)


@dataclass(frozen=True, eq=False)
class Torus:
    """Invariant 2-torus of the constant flow (k1, k2), k1/k2 irrational."""

    k: np.ndarray
    C: float
    alpha: float
    dim: int = 2

    kind = "torus"

    is_attracting = True

    def distance(self, points):
        return np.zeros(points.shape[0])

    def sample(self, m):
        x = TWO_PI * np.arange(m) / m
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        return np.stack([X1.ravel(), X2.ravel()], axis=1)


class Scenario:
    """Immutable bundle of fields and declared components on a flat torus."""

    def __init__(self, name, dim, b, c, L, components):
        self.name = str(name)
        self.dim = int(dim)
        if self.dim not in (1, 2, 3):
            raise ScenarioFormatError("dim must be 1, 2 or 3")
        b = [e if isinstance(e, TrigExpr) else parse_expr(e) for e in b]
        if len(b) != self.dim:
            raise ScenarioFormatError(
                "drift has %d components, expected %d" % (len(b), self.dim)
            )
        self.b = tuple(b)
        self.c = c if isinstance(c, TrigExpr) else parse_expr(c)
        self.L = L if isinstance(L, TrigExpr) else parse_expr(L)
        for e in (*self.b, self.c, self.L):
            if e.nvars > self.dim:
                raise ScenarioFormatError(
                    "expression %r uses more variables than dim=%d" % (str(e), self.dim)
                )
        # exact derivative fields, shared by assembly/validation/prediction
        self.db = tuple(tuple(bi.derivative(j) for j in range(self.dim)) for bi in self.b)
        self.grad_L = tuple(self.L.derivative(i) for i in range(self.dim))
        self.lap_L = self.L.laplacian(self.dim)
        self.components = tuple(self._bind(comp) for comp in components)

    def component_ids(self):
        return ["%d:%s" % (i, c.kind) for i, c in enumerate(self.components)]

    def _bind(self, comp):
        """Attach exact linearizations to raw component declarations."""
        if isinstance(comp, Point):
            if comp.location.shape != (self.dim,):
                raise ScenarioFormatError(
                    "point location needs %d coordinates" % self.dim)
        elif isinstance(comp, Cycle):
            if not 0 <= comp.axis < self.dim:
                raise ScenarioFormatError("cycle axis out of range")
            if not comp.period > 0:
                raise ScenarioFormatError("cycle period must be positive")
        elif isinstance(comp, Torus):
            if np.asarray(comp.k).shape != (2,):
                raise ScenarioFormatError("torus k needs two entries")
        if isinstance(comp, Point) and comp.jacobian is None:
            P = comp.location
            jac = np.array([[self.db[i][j](*P) for j in range(self.dim)]
                            for i in range(self.dim)])
            return Point(location=np.asarray(P, dtype=float), jacobian=jac)
        if isinstance(comp, Cycle) and comp.transverse_matrix is None:
            x0 = comp.points(np.zeros(1))[0]
            t_ax = comp.transverse_axes
            B = np.array([[self.db[i][j](*x0) for j in t_ax] for i in t_ax])
            return Cycle(axis=comp.axis, level=comp.level, period=comp.period,
                         dim=self.dim, transverse_matrix=B)
        return comp


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


def validate_scenario(scenario):
    """Numerically re-check the declared structure; failures are non-fatal."""
    tol = VALIDATION_TOL
    checks = []
    pts = np.stack(Grid(scenario.dim, VALIDATION_RESOLUTION).coord_arrays(), axis=1)
    coords = [pts[:, i] for i in range(scenario.dim)]  # views: one copy of the mesh
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
            thetas = np.arange(256) * (comp.period / 256)
            on = comp.points(thetas)
            cc = [on[:, i] for i in range(scenario.dim)]
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
            if scenario.dim != 2:
                checks.append(ValidationCheck(
                    cid + " geometry", False, 1.0, "torus components need dim 2"))
                continue
            res = max(
                float(np.max(np.abs(scenario.b[i](*coords) - comp.k[i]))) for i in range(2)
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
                cid + " small-divisor bound", ok, max(0.0, 1.0 - margin),
                "declared (C, alpha) margin %.3g on |m| <= 64" % margin))

    res = max(0.0, -float(np.min(scenario.L(*coords))))
    checks.append(ValidationCheck("L nonnegative", res <= tol, res))

    for cid, comp in zip(ids, scenario.components):
        on = comp.sample(256)
        cc = [on[:, i] for i in range(scenario.dim)]
        gmax = max(
            float(np.max(np.abs(scenario.grad_L[i](*cc)))) for i in range(scenario.dim)
        )
        if comp.is_attracting:
            lmax = float(np.max(np.abs(scenario.L(*cc))))
            res = max(lmax, gmax)
            checks.append(ValidationCheck(
                cid + " L vanishes at order 2", res <= tol, res,
                "max(|L|, |grad L|) on the component"))
            near = pts[comp.distance(pts) <= NEIGHBORHOOD_RADIUS]
            nc = [near[:, i] for i in range(scenario.dim)]
            decay = sum(scenario.b[i](*nc) * scenario.grad_L[i](*nc)
                        for i in range(scenario.dim))
            res = max(0.0, float(np.max(decay)))
            checks.append(ValidationCheck(
                cid + " local Lyapunov decrease", res <= tol, res,
                "max (b, grad L) within %.2g" % NEIGHBORHOOD_RADIUS))
        else:
            checks.append(ValidationCheck(
                cid + " L critical point", gmax <= tol, gmax,
                "max |grad L| on the component"))

    return ValidationReport(scenario.name, VALIDATION_RESOLUTION, tol, tuple(checks))


# -- builtins --------------------------------------------------------------------

BUILTIN_NAMES = ("stable-point", "stable-cycle", "irrational-torus", "mixed")


def builtin_scenario(name, gap=0.5):
    """Construct one of the reference scenarios; gap sets the pressure
    difference between cycle and point in "mixed".
    """
    if name == "stable-point":
        return Scenario(
            name, 1,
            b=["-sin(x1)"],
            c="cos(x1)",
            L="1 - cos(x1)",
            components=[
                Point(location=np.array([0.0])),
                Point(location=np.array([math.pi])),
            ],
        )
    if name == "stable-cycle":
        return Scenario(
            name, 2,
            b=["1", "-sin(x2)"],
            c="cos(x1)",
            L="1 - cos(x2)",
            components=[
                Cycle(axis=0, level=0.0, period=TWO_PI, dim=2),
                Cycle(axis=0, level=math.pi, period=TWO_PI, dim=2),
            ],
        )
    if name == "irrational-torus":
        return Scenario(
            name, 2,
            b=["1", repr(PHI)],
            c="cos(x1)",
            L="0",
            components=[Torus(k=np.array([1.0, PHI]), C=0.5, alpha=0.5)],
        )
    if name == "mixed":
        # engineered field: attracting cycle on x2 = 0 (transverse rate -2),
        # attracting point at (0, pi) with jacobian diag(-1, -2), and a
        # potential giving pressure +gap/2 on the cycle, -gap/2 at the point
        cycle_c = (gap / 2.0) * parse_expr("cos(x2)")
        return Scenario(
            name, 2,
            b=[
                "0.5 + 0.5*cos(x2) - 0.25*sin(x1) + 0.5*cos(x2)*sin(x1)"
                " - 0.25*cos(x2)*cos(x2)*sin(x1)",
                "-sin(2*x2)",
            ],
            c=cycle_c,
            L="2 - cos(x1) - cos(x2) + cos(x1)*cos(x2) - cos(x2)*cos(x2)",
            components=[
                Cycle(axis=0, level=0.0, period=TWO_PI, dim=2),
                Point(location=np.array([0.0, math.pi])),
            ],
        )
    raise ScenarioFormatError("unknown builtin scenario %r" % name)


def builtin_scenarios():
    return [builtin_scenario(n) for n in BUILTIN_NAMES]


# -- JSON form --------------------------------------------------------------------


def _integer(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%r is not an integer" % (value,))
    return value


def _finite(value):
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("%r is not finite" % (value,))
    return x


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    try:
        name = data["name"]
        dim = _integer(data["dim"])
        b, c, L = data["b"], data["c"], data["L"]
        if not isinstance(b, list) or not all(isinstance(e, str) for e in (*b, c, L)):
            raise TypeError("b must be a list of expression strings, c and L strings")
        raw_components = data.get("components", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError("missing or malformed scenario field: %s" % exc)
    components = []
    for i, cd in enumerate(raw_components):
        if not isinstance(cd, dict) or "type" not in cd:
            raise ScenarioFormatError("component %d has no type" % i)
        kind = cd["type"]
        try:
            if kind == "point":
                location = np.array([_finite(v) for v in cd["location"]])
                components.append(Point(location=location))
            elif kind == "cycle":
                components.append(Cycle(
                    axis=_integer(cd["axis"]) - 1,
                    level=_finite(cd["level"]),
                    period=_finite(cd["period"]),
                    dim=dim,
                ))
            elif kind == "torus":
                components.append(Torus(
                    k=np.array([_finite(v) for v in cd["k"]]),
                    C=_finite(cd["C"]),
                    alpha=_finite(cd["alpha"]),
                ))
            else:
                raise ScenarioFormatError("component %d: unknown type %r" % (i, kind))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ScenarioFormatError):
                raise
            raise ScenarioFormatError("component %d malformed: %s" % (i, exc))
    return Scenario(name, dim, b, c, L, components)


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
    """Builtin name, path to a JSON file, or a parsed dict."""
    if isinstance(source, dict):
        return scenario_from_dict(source)
    if source in BUILTIN_NAMES:
        return builtin_scenario(source)
    with open(source) as fh:
        data = json.load(fh)
    return scenario_from_dict(data)
