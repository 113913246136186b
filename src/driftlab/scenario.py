"""Scenario definitions: flat-torus geometry, analytic fields, declared
recurrent components, and the structural validation checks.

A scenario carries the drift b (one expression per axis), the potential c,
and a nonnegative weight function L vanishing quadratically on the attracting
components. Components arrive in their JSON form; each is parsed, checked
against the scenario's dimension and built once, as one Component model: the
axes it holds at fixed angles, a constant flow on the rest, and its normal
matrix, Db on the held axes from the exact derivative fields. A point holds
every axis, with flow 0; a cycle the axes across it at its level, with flow
2*pi/period along its axis; a torus none, with flow k. Validation reads every
kind through those fields, bounds a field on all of a component from its
restriction there (TrigExpr.hold), and reports residuals without mutating
anything. A component's distance(coords) takes one real array per axis,
broadcastable, such as the sparse validation mesh, and returns their shape.
The torus's geometry (its dimension rule and its grid angles) is expr.py's:
this module reads fields and angles from there and no stencil.
"""
from __future__ import annotations

import json
import math
import os
import types
from dataclasses import asdict, dataclass

import numpy as np

from .diophantine import check_declared_bound, is_irrational
from .errors import ScenarioFormatError
from .expr import _dim, _is_int, _is_real, _real_array, grid_angles, parse_expr

# |Re eigenvalue| below this is treated as a zero real part (not hyperbolic)
HYPERBOLICITY_TOL = 1e-6

# radius of the neighborhood on which the local Lyapunov decrease is checked
NEIGHBORHOOD_RADIUS = 0.5

# continued-fraction depth required to accept a frequency ratio as irrational
IRRATIONALITY_DEPTH = 20

# a torus's declared small-divisor bound is checked on 0 < |m| <= this
SMALL_DIVISOR_RANGE = 64

# points per axis of the validation mesh, and the residual a check allows
VALIDATION_RESOLUTION = 64
VALIDATION_TOL = 1e-8

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# the keys of a component's JSON form besides "type", by kind
_KEYS = {"point": ("location",), "cycle": ("axis", "level", "period"),
         "torus": ("k", "C", "alpha")}

# the name of the check that b equals a component's flow, by kind
_FLOW_CHECK = {"point": "field vanishes", "cycle": "orbit of the field",
              "torus": "constant flow matches k"}

__all__ = [
    "Component",
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
]


@dataclass(frozen=True, eq=False)
class Component:
    """A declared recurrent set: the axes it holds, plus a constant flow on
    the rest. spec is its normalized JSON form, read-only with tuples for
    lists, spec["type"] its kind; held lists (axis, angle) pairs in axis
    order, each angle reduced into [0, 2*pi); flow is a dim-vector, 0 on the
    held axes; normal is Db on the held axes at the base point, the held
    angles with 0 on the free axes. flow and normal are read-only arrays."""

    spec: types.MappingProxyType
    held: tuple
    flow: np.ndarray
    normal: np.ndarray

    @property
    def kind(self):
        return self.spec["type"]

    @property
    def is_attracting(self):
        return bool(np.all(np.real(np.linalg.eigvals(self.normal)) < 0))

    def distance(self, coords):
        """Periodic distance from the points coords, one real coordinate
        (or array) per axis of the component's dim, to its held axes: each
        held axis's difference wrapped into [-pi, pi)."""
        coords = [_real_array(x, "coords") for x in coords]
        if len(coords) != self.flow.size:
            raise ValueError("distance needs one coordinate per axis of dim %d, got %d"
                             % (self.flow.size, len(coords)))
        d2 = sum(((coords[a] - x + math.pi) % math.tau - math.pi) ** 2 for a, x in self.held)
        return np.broadcast_to(np.sqrt(d2), np.broadcast_shapes(*map(np.shape, coords)))


class Scenario:
    """Immutable bundle of fields and declared components on a flat torus.

    `components` are component specs in the JSON form that scenario_from_dict
    reads, such as {"type": "point", "location": [0.0]}; the scenario holds
    each as a Component: its held axes, its flow and its normal matrix. The
    arguments are checked as their JSON values would be: a string name, a
    dim that expr._dim accepts, a list of expression strings b, strings c
    and L, a list of components with the keys of their type whose numeric
    fields are finite real numbers. Any other input raises
    ScenarioFormatError. No attribute can be assigned once the scenario is
    built.
    """

    def __init__(self, name, dim, b, c, L, components=()):
        try:
            if not isinstance(name, str):
                raise ValueError("name %r is not a string" % (name,))
            dim = _dim(dim)
            b = _sequence(b, "b")
            if not all(isinstance(e, str) for e in (*b, c, L)):
                raise ValueError("b must be a list of expression strings, c and L strings")
            components = _sequence(components, "components")
        except ValueError as exc:
            raise ScenarioFormatError("malformed scenario field: %s" % exc)
        b = tuple(parse_expr(e) for e in b)
        if len(b) != dim:
            raise ScenarioFormatError(
                "drift has %d components, expected %d" % (len(b), dim)
            )
        c, L = parse_expr(c), parse_expr(L)
        for e in (*b, c, L):
            if e.nvars > dim:
                raise ScenarioFormatError(
                    "expression %r uses more variables than dim=%d" % (str(e), dim)
                )
        # exact derivative fields: _component reads Db for each normal matrix,
        # validate_scenario reads Db and grad L
        db = tuple(tuple(bi.derivative(j) for j in range(dim)) for bi in b)
        grad_L = tuple(L.derivative(i) for i in range(dim))
        # differentiating multiplies coefficients by frequencies, which can
        # overflow a coefficient that parsed as finite
        for e in (*grad_L, *(f for row in db for f in row)):
            if not e.in_range():
                raise ScenarioFormatError(
                    "a derivative of b or L has a coefficient out of range: %r" % str(e))
        fields = dict(name=name, dim=dim, b=b, c=c, L=L, db=db, grad_L=grad_L)
        for key, value in fields.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "components", tuple(
            self._component(i, spec) for i, spec in enumerate(components)))

    def __setattr__(self, name, value):
        raise AttributeError("Scenario is immutable")

    def component_ids(self):
        return ["%d:%s" % (i, c.kind) for i, c in enumerate(self.components)]

    def _component(self, i, spec):
        """The i-th component from its JSON form: its held axes, flow and normal."""
        if not isinstance(spec, dict) or "type" not in spec:
            raise ScenarioFormatError("component %d has no type" % i)
        kind, flow = spec["type"], np.zeros(self.dim)
        if not isinstance(kind, str) or kind not in _KEYS:
            raise ScenarioFormatError("component %d: unknown type %r" % (i, kind))
        keys = {"type", *_KEYS[kind]}
        problems = ["%s keys: %s" % (what, ", ".join(sorted(map(repr, names))))
                    for what, names in (("unknown", set(spec) - keys),
                                        ("missing", keys - set(spec))) if names]
        if problems:
            raise ScenarioFormatError("component %d (%s) has %s"
                                      % (i, kind, "; ".join(problems)))
        try:
            if kind == "point":
                loc = [_finite(v) for v in _sequence(spec["location"], "location")]
                if len(loc) != self.dim:
                    raise ScenarioFormatError(
                        "point location needs %d coordinates" % self.dim)
                spec, held = {"type": kind, "location": tuple(loc)}, enumerate(loc)
            elif kind == "cycle":
                axis = _integer(spec["axis"]) - 1
                level = _finite(spec["level"])
                period = _finite(spec["period"])
                if self.dim == 1:
                    raise ScenarioFormatError("a cycle needs a transverse axis")
                if not 0 <= axis < self.dim:
                    raise ScenarioFormatError("cycle axis out of range")
                if not period > 0:
                    raise ScenarioFormatError("cycle period must be positive")
                spec = {"type": kind, "axis": axis + 1, "level": level, "period": period}
                held = [(j, level) for j in range(self.dim) if j != axis]
                flow[axis] = math.tau / period
            else:  # a torus
                if self.dim != 2:
                    raise ScenarioFormatError("a torus needs dim 2")
                k = [_finite(v) for v in _sequence(spec["k"], "k")]
                if len(k) != 2:
                    raise ScenarioFormatError("torus k needs two entries")
                spec = {"type": kind, "k": tuple(k), "C": _finite(spec["C"]),
                        "alpha": _finite(spec["alpha"])}
                held, flow[:] = (), k
        except ScenarioFormatError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioFormatError("component %d malformed: %s" % (i, exc))
        # an angle far off the circle would overflow m.x; spec keeps it as given
        held = tuple((a, x % math.tau) for a, x in held)
        axes, base = [a for a, _ in held], np.zeros(self.dim)
        base[axes] = [x for _, x in held]
        normal = np.array([[self.db[p][q](*base) for q in axes] for p in axes])
        normal = normal.reshape(len(axes), len(axes))
        for arr in (flow, normal):
            arr.setflags(write=False)
        return Component(types.MappingProxyType(spec), held, flow, normal)


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
            "checks": [asdict(c) for c in self.checks],
        }


def _excess(x):
    """max(0, x) that keeps a NaN, so a NaN residual fails its check."""
    return 0.0 if x <= 0.0 else x


def _bound(comp, dim, fields):
    """The largest abs_sum of the fields' restrictions to comp, f.hold(
    comp.held): it bounds |field| on all of comp. NaN if any sum is."""
    return float(np.max([f.hold(comp.held).abs_sum(dim) for f in fields]))


def validate_scenario(scenario):
    """Numerically re-check the declared structure; failures are non-fatal.

    Each component is read one way: b equals its flow on it (the check named
    in _FLOW_CHECK), its normal is hyperbolic if it holds any axis, Db is its
    normal on the held rows if it also has free axes, and a torus's flow has
    an irrational ratio and the declared small-divisor bound. An equality has
    the residual _bound(field - value), which bounds the deviation on all of
    the component. The two inequalities are checked on the validation grid:
    L >= 0 from on_grid, and b . grad L <= 0 near each attracting component
    from __call__ at the points of the sparse mesh of grid_angles within
    NEIGHBORHOOD_RADIUS of it."""
    tol = VALIDATION_TOL
    dim = scenario.dim
    checks = []
    n = VALIDATION_RESOLUTION
    angles = grid_angles(n)
    mesh = np.meshgrid(*[angles] * dim, indexing="ij", sparse=True)
    ids = scenario.component_ids()

    def residual_check(name, res, detail=""):
        checks.append(ValidationCheck(name, res <= tol, res, detail))

    for cid, comp in zip(ids, scenario.components):
        axes = [a for a, _ in comp.held]
        res = _bound(comp, dim, [bi - v for bi, v in zip(scenario.b, comp.flow)])
        residual_check("%s %s" % (cid, _FLOW_CHECK[comp.kind]), res,
                       "bounds max |b - flow| on the component")
        if axes:
            res = float(np.min(np.abs(np.real(np.linalg.eigvals(comp.normal)))))
            checks.append(ValidationCheck(
                cid + " hyperbolic", res >= HYPERBOLICITY_TOL, res, "min |Re eig(normal)|"))
        if 0 < len(axes) < dim:
            want = np.zeros((dim, dim))  # normal on the held block, 0 in the free columns
            want[np.ix_(axes, axes)] = comp.normal
            res = _bound(comp, dim, [scenario.db[i][j] - want[i, j]
                                     for i in axes for j in range(dim)])
            residual_check(cid + " constant normal form", res,
                           "bounds max |Db - normal| on the held rows of the component")
        if comp.kind == "torus":
            k1, k2 = (float(v) for v in comp.flow)
            ok = k2 != 0 and is_irrational(k1 / k2, IRRATIONALITY_DEPTH)
            checks.append(ValidationCheck(
                cid + " irrational ratio", ok, 0.0 if ok else 1.0,
                "continued fraction of k1/k2 needs %d terms" % IRRATIONALITY_DEPTH))
            C, alpha = comp.spec["C"], comp.spec["alpha"]
            ok, margin = check_declared_bound(comp.flow, SMALL_DIVISOR_RANGE, C, alpha)
            checks.append(ValidationCheck(
                cid + " small-divisor bound", ok, _excess(1.0 - margin),
                "declared (C, alpha) margin %.3g on |m| <= %d" % (margin, SMALL_DIVISOR_RANGE)))

    residual_check("L nonnegative", _excess(-float(np.min(scenario.L.on_grid(n, dim)))))

    for cid, comp in zip(ids, scenario.components):
        if comp.is_attracting:
            residual_check(cid + " L vanishes at order 2",
                           _bound(comp, dim, (scenario.L, *scenario.grad_L)),
                           "bounds max(|L|, |grad L|) on the component")
            mask = comp.distance(mesh) <= NEIGHBORHOOD_RADIUS
            nc = [angles[i] for i in np.nonzero(mask)]
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
        "components": [{"type": "cycle", "axis": 1, "level": 0.0, "period": math.tau},
                       {"type": "cycle", "axis": 1, "level": math.pi, "period": math.tau}],
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
        "components": [{"type": "cycle", "axis": 1, "level": 0.0, "period": math.tau},
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
    if not _is_int(value):
        raise ValueError("%r is not an integer" % (value,))
    return int(value)


def _finite(value):
    if not _is_real(value):
        raise ValueError("%r is not a number" % (value,))
    if not math.isfinite(value):
        raise ValueError("%r is not finite" % (value,))
    return float(value)


def _sequence(value, field):
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (field, value))
    return value


def scenario_from_dict(data):
    """The Scenario of a JSON object with the keys name, dim, b, c, L and
    optionally components; any other key raises ScenarioFormatError."""
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    keys = ("name", "dim", "b", "c", "L")
    try:
        fields = [data[key] for key in keys]
    except KeyError as exc:
        raise ScenarioFormatError("missing scenario field: %s" % exc)
    unknown = set(data) - {*keys, "components"}
    if unknown:
        raise ScenarioFormatError("unknown scenario fields: %s"
                                  % ", ".join(sorted(map(repr, unknown))))
    return Scenario(*fields, data.get("components", []))


def scenario_to_dict(scenario):
    return {
        "name": scenario.name,
        "dim": scenario.dim,
        "b": [str(e) for e in scenario.b],
        "c": str(scenario.c),
        "L": str(scenario.L),
        # fresh dicts, with the spec's tuples as JSON lists
        "components": [{k: list(v) if isinstance(v, tuple) else v for k, v in comp.spec.items()}
                       for comp in scenario.components],
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
