"""Workload definitions and output checks for the driftlab benchmark.

Every workload is one closed-loop client: operations run one after another in
this process. The timed bodies call only the public API that the planned
operator and solver rewrites keep (`builtin_scenario`, `scenario_from_dict`,
`validate_scenario`, `Grid`, `assemble`, `SparseOperator.apply`/`is_metzler`,
`eigen_sweep`, `extrapolate_limit` and the `EigenPair` fields). Layer
functions are looked up on their modules at call time, so the tracer in
`tracing.py` can wrap them there.

The output checks trust no solver output: they rebuild each operator and
compute the Collatz-Wielandt enclosure themselves, outside the timed region.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from driftlab import eigen, operator, scenario

EPS_SCHEDULE = (0.2, 0.1, 0.05)

# The 3D sink of the sweep-3d workload: one attracting point at 0, so the
# predicted limit is c(0) = 2. Built through the public JSON form on purpose.
SINK_3D = {
    "name": "sink-3d",
    "dim": 3,
    "b": ["-sin(x1)", "-sin(x2)", "-sin(x3)"],
    "c": "cos(x1) + cos(x2)*cos(x3)",
    "L": "3 - cos(x1) - cos(x2) - cos(x3)",
    "components": [{"type": "point", "location": [0.0, 0.0, 0.0]}],
}

# Predicted eps -> 0 limit of the principal eigenvalue: the largest average
# of c over an attracting component (point value, cycle or torus average).
PREDICTED_LIMIT = {
    "stable-point": 1.0,
    "stable-cycle": 0.0,
    "irrational-torus": 0.0,
    "mixed": 0.25,  # gap/2 with the default gap 0.5
    "sink-3d": 2.0,
}

# Slack for rounding when testing lam against its enclosure.
BRACKET_SLACK = 1e-12

# assemble-1m: op.apply(ones) must equal c at the grid points to this,
# relative to max|c|.
ROWSUM_RTOL = 1e-10

# assemble-1m: applies of each operator to the seeded vector
APPLIES = 4


@dataclass(frozen=True)
class Sweep:
    """validate -> eigen_sweep over EPS_SCHEDULE -> extrapolate_limit, per case."""

    cases: tuple  # (scenario name, n) pairs
    lambda0_tol: float = 0.05  # |lambda0 - predicted|; seed worst case 0.0232

    kind = "sweep"

    def scenario_names(self):
        return [name for name, _ in self.cases]


@dataclass(frozen=True)
class Assemble:
    """Per eps: assemble, then apply APPLIES times to a seeded positive vector."""

    scenario: str
    n: int

    kind = "assemble"

    def scenario_names(self):
        return [self.scenario]


WORKLOADS = {
    # small N, bound by the solver's per-iteration work
    "sweep-builtins": Sweep(cases=(("stable-point", 512), ("stable-cycle", 64),
                                   ("irrational-torus", 64), ("mixed", 64))),
    # few iterations on 32^3 rows: bound by operator.apply
    "sweep-3d": Sweep(cases=(("sink-3d", 32),)),
    # 1,048,576 rows: bound by expression evaluation and assembly, no solve
    "assemble-1m": Assemble(scenario="mixed", n=1024),
}

# Tiny sizes for the self-test. Upwind's O(h) grid error at n=16 puts
# stable-cycle's lambda0 0.089 from its limit, hence the wider tolerance.
TINY = {
    "sweep-builtins": Sweep(cases=(("stable-point", 16), ("stable-cycle", 16),
                                   ("irrational-torus", 16), ("mixed", 16)),
                            lambda0_tol=0.15),
    "sweep-3d": Sweep(cases=(("sink-3d", 8),), lambda0_tol=0.15),
    "assemble-1m": replace(WORKLOADS["assemble-1m"], n=64),
}


def load_scenario(name):
    if name == SINK_3D["name"]:
        return scenario.scenario_from_dict(SINK_3D)
    return scenario.builtin_scenario(name)


def setup(spec):
    """Load every scenario the workload needs and validate it.

    Returns ({name: Scenario}, names whose validation failed).
    """
    loaded = {name: load_scenario(name) for name in spec.scenario_names()}
    invalid = [name for name, s in loaded.items()
               if not scenario.validate_scenario(s).passed]
    return loaded, invalid


@dataclass
class Outcome:
    """Timed wall time of one body repetition and what the checks found."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    bracket_width_max: float = 0.0
    lambda0_err_max: float = 0.0
    lambda0: dict = field(default_factory=dict)


class Region:
    """Sums the wall time of the timed segments of one body repetition.

    With a tracer, its wrappers are installed only inside those segments, so
    the output checks are neither timed nor traced.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall_s = 0.0

    @contextmanager
    def timed(self):
        installed = self.tracer.installed() if self.tracer else nullcontext()
        with installed:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.wall_s += time.perf_counter() - t0


def run_body(spec, scenarios, invalid, seed, tracer=None):
    """Run the timed body once, then the untimed output checks."""
    region = Region(tracer)
    if spec.kind == "sweep":
        return _run_sweep(spec, scenarios, invalid, region)
    return _run_assemble(spec, scenarios, invalid, seed, region)


def _run_sweep(spec, scenarios, invalid, region):
    results = []
    with region.timed():
        for name, n in spec.cases:
            try:
                entries = eigen.eigen_sweep(scenarios[name], n, EPS_SCHEDULE)
            except Exception as exc:  # checked below, never aborts the run
                entries = exc
            try:
                limit = eigen.extrapolate_limit(entries)
            except Exception as exc:
                limit = exc
            results.append((name, n, entries, limit))

    out = Outcome(wall_s=region.wall_s)
    for name, n, entries, limit in results:
        s = scenarios[name]
        grid = operator.Grid(s.dim, n)
        problems = []
        if isinstance(entries, Exception):
            problems.append("%s: eigen_sweep raised %s: %s"
                            % (name, type(entries).__name__, entries))
            entries = []
        for entry in entries:
            width, problem = check_entry(s, grid, entry)
            out.bracket_width_max = max(out.bracket_width_max, width)
            if problem:
                problems.append("%s eps=%g: %s" % (name, entry.eps, problem))
        # a failed validation or an unusable lambda0 spoils the whole sweep
        whole = []
        if name in invalid:
            whole.append("%s: validate_scenario failed" % name)
        if isinstance(limit, Exception):
            whole.append("%s: %s: %s" % (name, type(limit).__name__, limit))
        else:
            out.lambda0[name] = limit.lambda0
            err = abs(limit.lambda0 - PREDICTED_LIMIT[name])
            out.lambda0_err_max = max(out.lambda0_err_max, err)
            if not err <= spec.lambda0_tol:
                whole.append("%s: lambda0 %.6g is %.3g from the predicted %g (tol %g)"
                             % (name, limit.lambda0, err, PREDICTED_LIMIT[name],
                                spec.lambda0_tol))
        attempted = len(entries) or len(EPS_SCHEDULE)
        out.attempted += attempted
        out.failed += attempted if whole or not entries else len(problems)
        out.errors.extend(problems + whole)
    return out


def check_entry(s, grid, entry):
    """Collatz-Wielandt check of one sweep entry at its returned u.

    For a Metzler irreducible A and any u > 0, min (Au)_i/u_i <= lambda <=
    max (Au)_i/u_i. Returns (enclosure width, problem text or "").
    """
    pair = entry.pair
    if pair is None:
        return 0.0, "no eigenpair (%s)" % entry.error
    if not pair.certified:
        return 0.0, "not certified (residual %.3g after %d iterations)" % (
            pair.residual, pair.iterations)
    u = np.asarray(pair.u, dtype=float)
    if not np.all(u > 0):
        return 0.0, "u is not positive"
    op = operator.assemble(s, grid, entry.eps)
    ratio = op.apply(u) / u
    lo, hi = float(ratio.min()), float(ratio.max())
    slack = BRACKET_SLACK * max(1.0, abs(pair.lam))
    if not lo - slack <= pair.lam <= hi + slack:
        return hi - lo, "lam %.12g outside its enclosure [%.12g, %.12g]" % (pair.lam, lo, hi)
    return hi - lo, ""


def _run_assemble(spec, scenarios, invalid, seed, region):
    s = scenarios[spec.scenario]
    grid = operator.Grid(s.dim, spec.n)
    v = 0.5 + np.random.default_rng(seed).random(grid.size)
    c_vals = np.asarray(s.c(*grid.coord_arrays()), dtype=float)
    out = Outcome(wall_s=0.0)
    for eps in EPS_SCHEDULE:
        out.attempted += 1
        with region.timed():
            try:
                op = operator.assemble(s, grid, eps)
                first = op.apply(v)
                last = np.empty_like(first)
                for _ in range(APPLIES - 1):
                    op.apply(v, out=last)
            except Exception as exc:  # counted as a failed operation
                op = exc
        if isinstance(op, Exception):
            problem = "%s: %s" % (type(op).__name__, op)
        else:
            width, err, problem = check_assembled(op, v, first, last, c_vals,
                                                  PREDICTED_LIMIT[spec.scenario])
            out.bracket_width_max = max(out.bracket_width_max, width)
            out.lambda0_err_max = max(out.lambda0_err_max, err)
            if spec.scenario in invalid:
                problem = problem or "validate_scenario failed"
        if problem:
            out.failed += 1
            out.errors.append("eps=%g: %s" % (eps, problem))
        op = first = last = None  # free the 1M-row operator before the next one
    out.wall_s = region.wall_s
    return out


def check_assembled(op, v, first, last, c_vals, limit):
    """Checks of one assembled operator, from its public interface only.

    Row sums: op.apply(ones) must equal c. They also give the Collatz-Wielandt
    enclosure at u = 1, [min c, max c], which is the only enclosure of lambda
    this workload has; the returned error is the largest |lambda - limit| that
    enclosure allows. Returns (width, error, problem text or "").
    """
    if not op.is_metzler:
        return 0.0, 0.0, "operator is not Metzler"
    rowsum = op.apply(np.ones_like(v))
    lo, hi = float(rowsum.min()), float(rowsum.max())
    err = max(abs(lo - limit), abs(hi - limit))
    scale = float(np.max(np.abs(c_vals)))
    dev = float(np.max(np.abs(rowsum - c_vals)))
    if dev > ROWSUM_RTOL * scale:
        return hi - lo, err, "apply(ones) differs from c by %.3g (max|c| %.3g)" % (dev, scale)
    # the enclosure at the seeded v also contains lambda, so the two must meet
    ratio = first / v
    if ratio.min() > hi or ratio.max() < lo:
        return hi - lo, err, "enclosures at v and at 1 are disjoint"
    if not np.array_equal(first, last):
        return hi - lo, err, "repeated apply to the same vector changed the result"
    return hi - lo, err, ""
