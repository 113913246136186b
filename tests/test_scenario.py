import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import SINK_3D, sparse_mesh
from driftlab.diophantine import check_declared_bound, continued_fraction
from driftlab.errors import DriftlabError
from driftlab.expr import ExprSyntaxError, TrigExpr
from driftlab.operator import Grid
from driftlab.scenario import (
    BUILTIN_NAMES,
    BUILTINS,
    PHI,
    Component,
    Scenario,
    ScenarioFormatError,
    _bound,
    builtin_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)


# the check names of each report, in order
REPORT_CHECKS = {
    "stable-point": [
        "0:point field vanishes", "0:point hyperbolic",
        "1:point field vanishes", "1:point hyperbolic",
        "L nonnegative",
        "0:point L vanishes at order 2", "0:point local Lyapunov decrease",
        "1:point L critical point",
    ],
    "stable-cycle": [
        "0:cycle orbit of the field", "0:cycle hyperbolic", "0:cycle constant normal form",
        "1:cycle orbit of the field", "1:cycle hyperbolic", "1:cycle constant normal form",
        "L nonnegative",
        "0:cycle L vanishes at order 2", "0:cycle local Lyapunov decrease",
        "1:cycle L critical point",
    ],
    "irrational-torus": [
        "0:torus constant flow matches k", "0:torus irrational ratio",
        "0:torus small-divisor bound",
        "L nonnegative",
        "0:torus L vanishes at order 2", "0:torus local Lyapunov decrease",
    ],
    "mixed": [
        "0:cycle orbit of the field", "0:cycle hyperbolic", "0:cycle constant normal form",
        "1:point field vanishes", "1:point hyperbolic",
        "L nonnegative",
        "0:cycle L vanishes at order 2", "0:cycle local Lyapunov decrease",
        "1:point L vanishes at order 2", "1:point local Lyapunov decrease",
    ],
    "sink-3d": [
        "0:point field vanishes", "0:point hyperbolic",
        "L nonnegative",
        "0:point L vanishes at order 2", "0:point local Lyapunov decrease",
    ],
}


CYCLE_X2_0 = {"type": "cycle", "axis": 1, "level": 0.0, "period": math.tau}

# a 3D cycle along x1 holds two axes: attracting at level 0, repelling at pi
CYCLE_3D = {
    "name": "cycle-3d", "dim": 3, "b": ["1", "-sin(x2)", "-sin(x3)"], "c": "cos(x1)",
    "L": "2 - cos(x2) - cos(x3)",
    "components": [CYCLE_X2_0, {"type": "cycle", "axis": 1, "level": math.pi,
                                "period": math.tau}],
}

# 2D scenarios whose declared structure fails only between equally spaced
# points of the component: a harmonic in 256*x1 (64*x1) vanishes at 256 (64)
# such points of the circle, so a check on those points alone passes them
ALIASED = {
    "alias-cycle": {
        "name": "alias-cycle", "dim": 2, "c": "cos(x1)", "L": "1 - cos(x2)",
        "b": ["1", "-sin(x2) + 0.001 - 0.001*cos(256*x1)"], "components": [CYCLE_X2_0],
    },
    "alias-torus": {
        "name": "alias-torus", "dim": 2, "c": "cos(x1)", "L": "0",
        "b": ["1 + 0.001*sin(64*x1)", repr(PHI)],
        "components": [{"type": "torus", "k": [1.0, PHI], "C": 0.5, "alpha": 0.5}],
    },
    "alias-L": {
        "name": "alias-L", "dim": 2, "c": "cos(x1)", "b": ["1", "-sin(x2)"],
        "L": "1 - cos(x2) + 0.001 - 0.001*cos(256*x1)", "components": [CYCLE_X2_0],
    },
}


# the checks whose residual is a bound from the held harmonics
HELD_CHECKS = ("field vanishes", "orbit of the field", "constant normal form",
               "constant flow matches k", "L vanishes at order 2", "L critical point")


def torus_scenario(k, C, alpha=0.5):
    return scenario_from_dict({
        "name": "torus", "dim": 2, "b": [repr(v) for v in k], "c": "0", "L": "0",
        "components": [{"type": "torus", "k": k, "C": C, "alpha": alpha}],
    })


class TestFields:
    def test_point_linearization(self):
        s = builtin_scenario("stable-point")
        assert s.b[0](0.0) == 0.0
        assert s.db[0][0](0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_weight_taylor(self):
        s = builtin_scenario("stable-cycle")
        p = (1.3, 0.0)
        assert s.L(*p) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose([g(*p) for g in s.grad_L], [0.0, 0.0], atol=1e-15)

    def test_potential_value(self):
        s = builtin_scenario("stable-point")
        assert s.c(math.pi / 3) == pytest.approx(0.5, abs=1e-15)


class TestValidation:
    def test_all_builtins_pass(self):
        for s in map(builtin_scenario, BUILTIN_NAMES):
            report = validate_scenario(s)
            assert report.passed, [c.name for c in report.failures()]

    @pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
    def test_check_names_pinned(self, name):
        s = scenario_from_dict(SINK_3D) if name == "sink-3d" else builtin_scenario(name)
        assert [c.name for c in validate_scenario(s).checks] == REPORT_CHECKS[name]

    def test_3d_cycle_holds_two_axes(self):
        # the validation mesh masks the points near a cycle over both held
        # axes; the report has stable-cycle's ten checks
        s = scenario_from_dict(CYCLE_3D)
        report = validate_scenario(s)
        assert report.passed, [c.name for c in report.failures()]
        assert [c.name for c in report.checks] == REPORT_CHECKS["stable-cycle"]
        assert [c.normal.tolist() for c in s.components] == [[[-1.0, 0.0], [0.0, -1.0]],
                                                             [[1.0, 0.0], [0.0, 1.0]]]

    @pytest.mark.parametrize("k, C, failed", [
        ([1.0, 0.0], 0.5, "0:torus irrational ratio"),
        ([0.0, 0.0], 0.5, "0:torus irrational ratio"),
        ([1e300, 1e-10], 0.5, "0:torus irrational ratio"),
        ([1e306, 3.0], 0.5, "0:torus irrational ratio"),
        ([1.0, PHI], 0.0, "0:torus small-divisor bound"),
        ([1.0, PHI], -0.5, "0:torus small-divisor bound"),
    ], ids=["k2-zero", "k-zero", "ratio-overflow", "weighted-divisor-overflow", "C-zero",
            "C-negative"])
    def test_degenerate_torus_fails_its_check(self, k, C, failed):
        # a numpy warning on the way fails this too: the suite makes warnings errors
        report = validate_scenario(torus_scenario(k, C))
        assert failed in [c.name for c in report.failures()]

    def test_nan_residual_fails(self):
        # the JSON form rejects a NaN alpha, so it is set on a loaded scenario;
        # its margin is NaN
        s = torus_scenario([1.0, PHI], 0.5)
        comp = s.components[0]
        object.__setattr__(s, "components",  # past the read-only guard
                           (dataclasses.replace(comp, spec=dict(comp.spec, alpha=math.nan)),))
        check = {c.name: c for c in validate_scenario(s).checks}["0:torus small-divisor bound"]
        assert not check.passed
        assert math.isnan(check.residual)

    @pytest.mark.parametrize("k, ok", [([1.0, PHI], True), ([1.0, 3.0], False)],
                             ids=["golden", "rational"])
    def test_large_alpha_no_overflow(self, k, ok):
        # (m1^2 + m2^2)^400 passes the float range from m1^2 + m2^2 = 6; the suite
        # makes the overflow warning an error
        assert check_declared_bound(k, 64, 0.5, 400.0) == ((True, 2.0) if ok else (False, 0.0))
        report = validate_scenario(torus_scenario(k, 0.5, alpha=400.0))
        check = {c.name: c for c in report.checks}["0:torus small-divisor bound"]
        assert check.passed is ok

    @pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
    def test_held_residuals_at_rounding(self, name):
        s = scenario_from_dict(SINK_3D) if name == "sink-3d" else builtin_scenario(name)
        held = [c for c in validate_scenario(s).checks if c.name.endswith(HELD_CHECKS)]
        assert held and all(c.residual <= 1e-15 for c in held), held

    @pytest.mark.parametrize("name, failed", [
        ("alias-cycle", {"0:cycle orbit of the field": 0.002,
                         "0:cycle constant normal form": 0.256}),
        ("alias-torus", {"0:torus constant flow matches k": 0.001}),
        ("alias-L", {"0:cycle L vanishes at order 2": 0.256}),
    ])
    def test_structure_false_between_samples_fails(self, name, failed):
        # the held harmonics bound each field on the whole component
        report = validate_scenario(scenario_from_dict(ALIASED[name]))
        got = {c.name: c.residual for c in report.failures()}
        assert got.keys() == failed.keys()
        for check, want in failed.items():
            assert got[check] == pytest.approx(want, rel=1e-12)

    def test_bound_holds_at_every_sample(self):
        # sum |a| of the held harmonics is never below the field's largest
        # value at points of the component, whatever its level
        x1 = np.linspace(0.0, math.tau, 1001)
        for level in (0.0, 1.0, math.pi, -2.5, 40.0):
            s = scenario_from_dict(dict(ALIASED["alias-L"], b=["1", "-sin(x2)*cos(x1)"],
                                        components=[dict(CYCLE_X2_0, level=level)]))
            for f in (*s.b, s.c, s.L, *s.grad_L):
                sampled = np.max(np.abs(f(x1, np.full_like(x1, level))))
                assert _bound(s.components[0], 2, [f]) >= sampled - 1e-15, (str(f), level)

    def test_constant_field_fails_point_check(self):
        s = load_scenario({
            "name": "bad-point", "dim": 1, "b": ["1"], "c": "0", "L": "0",
            "components": [{"type": "point", "location": [0.0]}],
        })
        report = validate_scenario(s)
        names = [c.name for c in report.failures()]
        assert any("field vanishes" in n for n in names)

    def test_rational_torus_fails_irrationality(self):
        s = load_scenario({
            "name": "rational", "dim": 2, "b": ["1", "1"], "c": "0", "L": "0",
            "components": [{"type": "torus", "k": [1.0, 1.0], "C": 0.5, "alpha": 0.5}],
        })
        report = validate_scenario(s)
        names = [c.name for c in report.failures()]
        assert any("irrational" in n for n in names)

    def test_fields_evaluated_where_checked(self, monkeypatch):
        # L is needed on the whole 64^3 grid, b . grad L only near the sink:
        # two whole-grid fields are already more than validation evaluates
        points = []
        call, on_grid = TrigExpr.__call__, TrigExpr.on_grid

        def counting(self, *coords):
            values = call(self, *coords)
            points.append(np.size(values))  # the coordinates may be an open mesh
            return values

        def counting_grid(self, n, dim):
            points.append(n**dim)
            return on_grid(self, n, dim)

        monkeypatch.setattr(TrigExpr, "__call__", counting)
        monkeypatch.setattr(TrigExpr, "on_grid", counting_grid)
        assert validate_scenario(scenario_from_dict(SINK_3D)).passed
        assert sum(points) < 2 * 64**3

    def test_no_point_cloud_allocated(self):
        # the near-component points come from the open mesh: the peak stays
        # below one (64^3, 3) float64 point cloud
        tracemalloc.start()
        try:
            assert validate_scenario(scenario_from_dict(SINK_3D)).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64**3 * 3 * 8

    def test_report_dict_shape(self):
        report = validate_scenario(builtin_scenario("stable-point"))
        d = report.to_dict()
        assert d["passed"] is True
        assert d["resolution"] == 64 and d["tol"] == 1e-8
        assert all({"name", "passed", "residual", "detail"} <= set(c) for c in d["checks"])


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {
            "stable-point", "stable-cycle", "irrational-torus", "mixed"}

    def test_stable_cycle_orbit(self):
        s = builtin_scenario("stable-cycle")
        cyc = s.components[0]
        assert isinstance(cyc, Component) and cyc.kind == "cycle"
        np.testing.assert_allclose([f(0.7, 0.0) for f in s.b], [1.0, 0.0], atol=1e-15)
        assert cyc.flow[0] == pytest.approx(1.0)
        assert cyc.normal[0, 0] == pytest.approx(-1.0, abs=1e-15)
        unstable = s.components[1]
        assert unstable.normal[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert cyc.is_attracting and not unstable.is_attracting

    def test_golden_ratio_continued_fraction(self):
        s = builtin_scenario("irrational-torus")
        torus = s.components[0]
        assert isinstance(torus, Component) and torus.kind == "torus"
        cf = continued_fraction(torus.flow[0] / torus.flow[1], max_terms=20)
        assert cf[0] == 0 and all(a == 1 for a in cf[1:])

    def test_stable_point_jacobians(self):
        s = builtin_scenario("stable-point")
        p0, p1 = s.components
        assert p0.normal[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert p1.normal[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert p0.is_attracting and not p1.is_attracting

    def test_mixed_linearizations(self):
        s = builtin_scenario("mixed")
        cyc, pt = s.components
        assert cyc.normal[0, 0] == pytest.approx(-2.0, abs=1e-14)
        np.testing.assert_allclose(
            sorted(np.linalg.eigvals(pt.normal).real), [-2.0, -1.0], atol=1e-14)
        np.testing.assert_allclose([f(*(x for _, x in pt.held)) for f in s.b], [0.0, 0.0],
                                   atol=1e-15)

    def test_linearization_from_the_field(self):
        # Scenario takes component specs: Db(0) = cos(0) = +1 makes the point
        # a hyperbolic source whatever else the scenario says
        s = Scenario("source", 1, ["sin(x1)"], "0", "0",
                     [{"type": "point", "location": [0.0]}])
        p = s.components[0]
        assert p.normal.tolist() == [[1.0]]
        assert not p.is_attracting
        checks = {c.name: c for c in validate_scenario(s).checks}
        assert checks["0:point hyperbolic"].residual == 1.0

    def test_mixed_potential(self):
        # pressure +0.25 on the cycle x2 = 0, -0.25 at the point (0, pi)
        s = builtin_scenario("mixed")
        assert s.c(1.3, 0.0) == 0.25
        assert s.c(0.0, math.pi) == -0.25

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioFormatError):
            builtin_scenario("sink-3d")

    @pytest.mark.parametrize("name", [None, 3, ["mixed"], {"a": 1}],
                             ids=["none", "int", "list", "dict"])
    def test_non_string_name_rejected(self, name):
        # a list or dict is not hashable: looking it up would raise TypeError
        with pytest.raises(ScenarioFormatError, match="unknown builtin scenario"):
            builtin_scenario(name)

    def test_periodicity_of_fields(self):
        rng = np.random.default_rng(5)
        for s in map(builtin_scenario, BUILTIN_NAMES):
            p = rng.uniform(0, 2 * np.pi, size=s.dim)
            for i in range(s.dim):
                q = p.copy()
                q[i] += 2 * np.pi
                for e in (*s.b, s.c, s.L):
                    assert abs(e(*p) - e(*q)) <= 1e-12


class TestJsonForm:
    def test_round_trip_builtins(self):
        for s in map(builtin_scenario, BUILTIN_NAMES):
            d = scenario_to_dict(s)
            back = scenario_from_dict(json.loads(json.dumps(d)))
            assert scenario_to_dict(back) == d
            assert validate_scenario(back).passed == validate_scenario(s).passed

    def test_file_loading(self, tmp_path):
        d = scenario_to_dict(builtin_scenario("stable-cycle"))
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(d))
        s = load_scenario(str(p))
        assert s.name == "stable-cycle"
        assert s.dim == 2
        assert scenario_to_dict(load_scenario(p)) == d  # an os.PathLike path

    def test_load_rejects_file_descriptor(self, tmp_path):
        # open() takes an int as a file descriptor, which loaded this file
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(scenario_to_dict(builtin_scenario("stable-point"))))
        fd = os.open(p, os.O_RDONLY)
        try:
            with pytest.raises(ScenarioFormatError, match="scenario source"):
                load_scenario(fd)
        finally:
            os.close(fd)

    @pytest.mark.parametrize("source", [987654, 2.5, ["stable-point"], None],
                             ids=["int", "float", "list", "none"])
    def test_load_rejects_other_sources(self, source):
        with pytest.raises(ScenarioFormatError, match="scenario source"):
            load_scenario(source)

    @pytest.mark.parametrize("content", [b'{"name": "x", "dim": 1,', b"\xff\xfe{}"],
                             ids=["truncated", "not-utf8"])
    def test_file_not_json_rejected(self, tmp_path, content):
        p = tmp_path / "scn.json"
        p.write_bytes(content)
        with pytest.raises(ScenarioFormatError, match="scn.json is not a JSON file") as info:
            load_scenario(p)
        assert isinstance(info.value.__cause__, ValueError)
        if content.startswith(b"{"):
            assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_unreadable_path_is_an_os_error(self, tmp_path):
        # no data was read, so nothing in it is malformed
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "missing.json")
        with pytest.raises(OSError):
            load_scenario(str(tmp_path))

    def test_missing_field_rejected(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"name": "x", "dim": 1, "b": ["0"], "c": "0"})

    def test_unknown_component_rejected(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({
                "name": "x", "dim": 1, "b": ["0"], "c": "0", "L": "0",
                "components": [{"type": "attractor"}],
            })

    def test_drift_length_mismatch(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({
                "name": "x", "dim": 2, "b": ["0"], "c": "0", "L": "0",
                "components": [],
            })

    def test_variable_beyond_dim(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({
                "name": "x", "dim": 1, "b": ["cos(x2)"], "c": "0", "L": "0",
                "components": [],
            })

    def test_torus_needs_dim2(self):
        with pytest.raises(ScenarioFormatError, match="torus needs dim 2"):
            scenario_from_dict({
                "name": "x", "dim": 1, "b": ["1"], "c": "0", "L": "0",
                "components": [{"type": "torus", "k": [1.0, 1.5], "C": 0.5, "alpha": 0.5}],
            })

    @pytest.mark.parametrize("text", [
        '{"name": "x", "dim": 1, "b": "1", "c": "0", "L": "0"}',
        '{"name": "x", "dim": 1, "b": "-sin(x1)", "c": "0", "L": "0"}',
        '{"name": "x", "dim": 2.5, "b": ["1", "0"], "c": "0", "L": "0"}',
        '{"name": "x", "dim": 1, "b": ["1"], "c": 1.5, "L": "0"}',
        '{"name": "x", "dim": 1, "b": ["0"], "c": "0", "L": "0",'
        ' "components": [{"type": "point", "location": [NaN]}]}',
        '{"name": "x", "dim": 2, "b": ["1", "0"], "c": "0", "L": "0",'
        ' "components": [{"type": "cycle", "axis": 1, "level": NaN, "period": 6.28}]}',
        '{"name": "x", "dim": 2, "b": ["1", "0"], "c": "0", "L": "0",'
        ' "components": [{"type": "cycle", "axis": 1, "level": 0.0, "period": Infinity}]}',
        '{"name": "x", "dim": 2, "b": ["1", "1.5"], "c": "0", "L": "0",'
        ' "components": [{"type": "torus", "k": [1.0, NaN], "C": 0.5, "alpha": 0.5}]}',
        '{"name": "x", "dim": 2, "b": ["1", "1.5"], "c": "0", "L": "0",'
        ' "components": [{"type": "torus", "k": [1.0, 1.5], "C": Infinity, "alpha": 0.5}]}',
        '{"name": "x", "dim": 2, "b": ["1", "1.5"], "c": "0", "L": "0",'
        ' "components": [{"type": "torus", "k": [1.0, 1.5], "C": 0.5, "alpha": -Infinity}]}',
        '{"name": "x", "dim": 1, "b": ["1"], "c": "0", "L": "0",'
        ' "components": [{"type": "cycle", "axis": 1, "level": 0.0, "period": 6.28}]}',
        '{"name": "x", "dim": 2, "b": ["0", "0"], "c": "0", "L": "0",'
        ' "components": [{"type": "point", "location": [0.0]}]}',
        '{"name": "x", "dim": 2, "b": ["1", "1.5"], "c": "0", "L": "0",'
        ' "components": [{"type": "torus", "k": [1.0, 1.5, 2.0], "C": 0.5, "alpha": 0.5}]}',
        '{"name": "x", "dim": 3, "b": ["1", "1.5", "0"], "c": "0", "L": "0",'
        ' "components": [{"type": "torus", "k": [1.0, 1.5], "C": 0.5, "alpha": 0.5}]}',
        '{"name": null, "dim": 1, "b": ["0"], "c": "0", "L": "0"}',
        '{"name": "x", "dim": 2, "b": ["1", "1.5"], "c": "0", "L": "0",'
        ' "components": [{"type": "torus", "k": "12", "C": 0.5, "alpha": 0.5}]}',
        '{"name": "x", "dim": 1, "b": ["0"], "c": "0", "L": "0",'
        ' "components": [{"type": "point", "location": "0"}]}',
        '{"name": "x", "dim": 2, "b": ["1", "1.5"], "c": "0", "L": "0",'
        ' "components": [{"type": "torus", "k": [1.0, 1.5], "C": true, "alpha": 0.5}]}',
        '{"name": "x", "dim": 2, "b": ["1", "0"], "c": "0", "L": "0",'
        ' "components": [{"type": "cycle", "axis": 1, "level": "0", "period": 6.28}]}',
    ], ids=["b-string", "b-expression-string", "dim-float", "c-number", "location-nan",
            "level-nan", "period-inf", "k-nan", "C-inf", "alpha-inf", "cycle-in-dim-1",
            "location-length", "k-three-entries", "torus-in-dim-3", "name-null",
            "k-string", "location-string", "C-bool", "level-string"])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(json.loads(text))

    @pytest.mark.parametrize("components", [{"type": "point", "location": [0.0]}, "point"],
                             ids=["dict", "string"])
    def test_components_must_be_a_list(self, components):
        # the list itself is malformed, not its first entry
        with pytest.raises(ScenarioFormatError, match="components must be a list"):
            scenario_from_dict({"name": "x", "dim": 1, "b": ["-sin(x1)"], "c": "0",
                                "L": "0", "components": components})

    @pytest.mark.parametrize("args", [
        ("x", 2.5, ["-sin(x1)", "-sin(x2)"], "cos(x1)", "0"),
        ("x", True, ["-sin(x1)"], "cos(x1)", "0"),
        ("x", 1, "-sin(x1)", "cos(x1)", "0"),
        ("x", 1, ["-sin(x1)"], 3.0, "0"),
        (None, 1, ["-sin(x1)"], "cos(x1)", "0"),
    ], ids=["dim-float", "dim-bool", "b-string", "c-number", "name-none"])
    def test_constructor_checks_as_json_does(self, args):
        # Scenario(...) and scenario_from_dict share one input path
        with pytest.raises(ScenarioFormatError):
            Scenario(*args)

    @pytest.mark.parametrize("data, match", [
        ({**BUILTINS["stable-point"], "name": "x", "component": []}, "'component'"),
        ({**BUILTINS["stable-point"], "name": "x", "components": [
            {"type": "point", "location": [0.0], "jacobian": [[5.0]]}]}, "'jacobian'"),
        ({**BUILTINS["stable-cycle"], "name": "x", "components": [
            dict(CYCLE_X2_0, location=[0.0, 0.0])]}, "'location'"),
        ({**BUILTINS["irrational-torus"], "name": "x", "components": [
            {"type": "torus", "k": [1.0, PHI], "C": 0.5, "alpha": 0.5, "axis": 1}]}, "'axis'"),
    ], ids=["top-level", "point", "cycle", "torus"])
    def test_unknown_keys_rejected(self, data, match):
        # a key that the format does not know used to be dropped: with
        # "component" for "components" the scenario loaded with none, and
        # its validation passed
        with pytest.raises(ScenarioFormatError, match=match):
            scenario_from_dict(data)

    @pytest.mark.parametrize("data, unknown, missing", [
        ({**BUILTINS["stable-point"], "components": [{"type": "point", "locaton": [0.0]}]},
         "'locaton'", "'location'"),
        ({**BUILTINS["stable-cycle"], "components": [
            {"type": "cycle", "axis": 1, "levle": 0.0, "period": math.tau}]}, "'levle'", "'level'"),
        ({**BUILTINS["irrational-torus"], "components": [
            {"type": "torus", "k": [1.0, PHI], "c": 0.5, "alpha": 0.5}]}, "'c'", "'C'"),
        ({**BUILTINS["stable-point"], "components": [{"type": "point"}]}, None, "'location'"),
    ], ids=["point", "cycle", "torus", "point-without-location"])
    def test_misspelled_component_keys_named(self, data, unknown, missing):
        # a misspelled key used to be reported only as the missing one, as
        # "component 0 malformed: 'location'"
        with pytest.raises(ScenarioFormatError) as info:
            scenario_from_dict({**data, "name": "x"})
        message = str(info.value)
        assert "missing keys: %s" % missing in message
        if unknown is None:
            assert "unknown" not in message
        else:
            assert "unknown keys: %s" % unknown in message

    def test_constructor_rejects_unknown_component_keys(self):
        with pytest.raises(ScenarioFormatError, match="'jacobian'"):
            Scenario("x", 1, ["-sin(x1)"], "0", "0",
                     [{"type": "point", "location": [0.0], "jacobian": [[5.0]]}])

    def test_cycle_axis_range(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({
                "name": "x", "dim": 2, "b": ["1", "0"], "c": "0", "L": "0",
                "components": [{"type": "cycle", "axis": 3, "level": 0.0,
                                "period": 6.283185307179586}],
            })

    @pytest.mark.parametrize("field", ["b", "L"])
    def test_derivative_overflow_rejected(self, field):
        # 1e308 parses, but its derivative 2e308 is inf: the bound point's
        # jacobian (from b) or the Lyapunov check (from L) would be non-finite
        spec = {"name": "x", "dim": 1, "b": ["-sin(x1)"], "c": "0", "L": "1 - cos(x1)",
                "components": [{"type": "point", "location": [0.0]}]}
        if field == "b":
            spec["b"] = ["1e308*sin(2*x1)"]
        else:
            spec["L"] = "1e308*cos(2*x1)"
        with pytest.raises(ScenarioFormatError, match="out of range"):
            scenario_from_dict(spec)


class TestComponentGeometry:
    def test_cycle_points_and_distance(self):
        s = builtin_scenario("stable-cycle")
        cyc = s.components[0]
        q = (np.array([1.0, 2.0]), np.array([0.3, 2 * math.pi - 0.2]))
        np.testing.assert_allclose(cyc.distance(q), [0.3, 0.2], atol=1e-12)

    def test_point_periodic_distance(self):
        s = builtin_scenario("stable-point")
        p = s.components[0]
        q = (np.array([2 * math.pi - 0.1, 0.1]),)
        np.testing.assert_allclose(p.distance(q), [0.1, 0.1], atol=1e-12)

    @pytest.mark.parametrize("coords", [[True], [np.array([True, False])], [["0.1"]],
                                        [None], [1j]],
                             ids=["bool", "bool-array", "string", "none", "complex"])
    def test_distance_rejects_coords_that_are_not_real(self, coords):
        # an angle is a real number: numpy would read a bool as 0 or 1
        p = builtin_scenario("stable-point").components[0]
        with pytest.raises(ValueError, match="coords must be real"):
            p.distance(coords)

    @pytest.mark.parametrize("coords", [[], [0.1, 0.2, 0.3]], ids=["none", "three"])
    def test_distance_needs_one_coordinate_per_axis(self, coords):
        # no coordinate raised an untyped IndexError, and three read the first
        p = builtin_scenario("stable-point").components[0]
        with pytest.raises(ValueError, match="one coordinate per axis of dim 1, got %d"
                           % len(coords)):
            p.distance(coords)

    @pytest.mark.parametrize("name", ["mixed", "irrational-torus", "sink-3d", "cycle-3d"])
    def test_distance_on_open_mesh_equals_flat(self, name):
        extra = {"sink-3d": SINK_3D, "cycle-3d": CYCLE_3D}
        s = scenario_from_dict(extra[name]) if name in extra else builtin_scenario(name)
        g = Grid(s.dim, 16)
        for comp in s.components:
            d = comp.distance(sparse_mesh(g))
            assert d.shape == (16,) * s.dim
            np.testing.assert_array_equal(d.ravel(), comp.distance(g.coord_arrays()))

    def test_component_ids(self):
        s = builtin_scenario("mixed")
        assert s.component_ids() == ["0:cycle", "1:point"]


def load(name):
    return scenario_from_dict(SINK_3D) if name == "sink-3d" else builtin_scenario(name)


class TestComponentModel:
    @pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
    def test_held_flow_and_normal(self, name):
        # a point holds every axis, a cycle all but its own, a torus none;
        # the flow is 0 on the held axes, and normal is Db on them
        s = load(name)
        for comp in s.components:
            axes = [a for a, _ in comp.held]
            assert len(axes) == {"point": s.dim, "cycle": s.dim - 1, "torus": 0}[comp.kind]
            assert axes == sorted(axes)
            assert all(0.0 <= x < math.tau for _, x in comp.held)
            assert comp.flow.shape == (s.dim,)
            assert all(comp.flow[a] == 0.0 for a in axes)
            assert comp.normal.shape == (len(axes),) * 2

    def test_flow_of_each_kind(self):
        cyc = builtin_scenario("stable-cycle").components[0]
        assert cyc.held == ((1, 0.0),) and cyc.flow.tolist() == [1.0, 0.0]
        torus = builtin_scenario("irrational-torus").components[0]
        assert torus.held == () and torus.flow.tolist() == [1.0, PHI]
        assert torus.normal.shape == (0, 0) and torus.is_attracting
        pt = builtin_scenario("mixed").components[1]
        assert pt.held == ((0, 0.0), (1, math.pi)) and pt.flow.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
    def test_round_trip_keeps_the_model(self, name):
        s = load(name)
        back = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s))))
        for a, b in zip(s.components, back.components, strict=True):
            assert a.spec == b.spec and a.held == b.held
            assert a.flow.tobytes() == b.flow.tobytes()
            assert a.normal.shape == b.normal.shape
            assert a.normal.tobytes() == b.normal.tobytes()

    def test_editing_the_dict_leaves_the_scenario(self):
        s = builtin_scenario("mixed")
        d = scenario_to_dict(s)
        d["components"][1]["location"][0] = 1.0
        d["components"][0]["level"] = 2.0
        d["components"].append({"type": "point", "location": [0.0, 0.0]})
        assert scenario_to_dict(s) == scenario_to_dict(builtin_scenario("mixed"))

    @pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
    def test_components_are_read_only(self, name):
        # a writable normal could turn a repeller into an attractor, and a
        # writable spec would change what scenario_to_dict writes
        s = load(name)
        for comp in s.components:
            with pytest.raises(ValueError, match="read-only"):
                comp.normal[...] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                comp.flow[0] = 1.0
            with pytest.raises(TypeError):
                comp.spec["type"] = "point"
            for v in comp.spec.values():
                if isinstance(v, tuple):
                    with pytest.raises(TypeError):
                        v[0] = 2.0
        source = SINK_3D if name == "sink-3d" else BUILTINS[name]
        assert scenario_to_dict(s)["components"] == source["components"]

    @pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
    def test_scenario_is_read_only(self, name):
        # an assigned field would leave db, grad_L and the components out of
        # step with the fields they were made from
        s = load(name)
        before = scenario_to_dict(s)
        for field in ("name", "dim", "b", "c", "L", "db", "grad_L", "components"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(s, field, getattr(builtin_scenario("stable-point"), field))
        assert scenario_to_dict(s) == before

    def test_far_off_point_reduced_on_the_circle(self):
        # m*x overflows at x = 1e308; the angle is reduced mod 2*pi when the
        # component is built, and the spec keeps the value as given (the
        # suite makes a numpy warning an error)
        s = Scenario("big", 1, ["sin(2*x1)"], "0", "0",
                     [{"type": "point", "location": [1e308]}])
        p = s.components[0]
        x = 1e308 % math.tau
        assert p.held == ((0, x),) and p.spec["location"] == (1e308,)
        assert p.normal.tolist() == [[2 * math.cos(2 * x)]]
        assert p.normal[0, 0] == pytest.approx(0.863, abs=1e-3)
        checks = {c.name: c for c in validate_scenario(s).checks}
        vanish = checks["0:point field vanishes"]
        assert not vanish.passed
        assert vanish.residual == pytest.approx(abs(math.sin(2 * x)), rel=1e-12)

    def test_far_off_cycle_level_reduced_on_the_circle(self):
        s = scenario_from_dict({"name": "big", "dim": 2, "b": ["1", "-sin(x2)"],
                                "c": "0", "L": "1 - cos(x2)",
                                "components": [dict(CYCLE_X2_0, level=-1e308)]})
        cyc = s.components[0]
        x = -1e308 % math.tau
        assert cyc.held == ((1, x),) and scenario_to_dict(s)["components"][0]["level"] == -1e308
        assert cyc.normal.tolist() == [[-math.cos(x)]]
        checks = {c.name: c for c in validate_scenario(s).checks}
        orbit = checks["0:cycle orbit of the field"]
        assert not orbit.passed
        assert orbit.residual == pytest.approx(abs(math.sin(x)), rel=1e-12)


CYCLE_2D = {"name": "x", "dim": 2, "b": ["0", "1"], "c": "0", "L": "0"}


@pytest.mark.parametrize("data, match", [
    ({"name": "x", "dim": 0, "b": [], "c": "0", "L": "0"}, "dim must be an integer in 1..3"),
    ({"name": "x", "dim": 4, "b": ["0"] * 4, "c": "0", "L": "0"},
     "dim must be an integer in 1..3"),
    ({**CYCLE_2D, "components": [{"axis": 1, "level": 0.0, "period": 1.0}]},
     "component 0 has no type"),
    ({**CYCLE_2D, "components": [["cycle"]]}, "component 0 has no type"),
    ({**CYCLE_2D, "components": [{"type": "cycle", "axis": 1, "level": 0.0,
                                  "period": 0.0}]}, "cycle period must be positive"),
    ({**CYCLE_2D, "components": [{"type": "cycle", "axis": 1, "level": 0.0,
                                  "period": -1.0}]}, "cycle period must be positive"),
    ([("name", "x")], "scenario must be a JSON object"),
], ids=["dim-0", "dim-4", "component-without-type", "component-not-object",
        "cycle-period-zero", "cycle-period-negative", "not-a-dict"])
def test_format_errors(data, match):
    with pytest.raises(ScenarioFormatError, match=match):
        scenario_from_dict(data)


def test_format_errors_are_driftlab_errors():
    assert issubclass(ScenarioFormatError, DriftlabError)
    assert issubclass(ExprSyntaxError, DriftlabError)
    with pytest.raises(DriftlabError):
        scenario_from_dict({"name": "x", "dim": 1, "b": ["cos(x1"], "c": "0", "L": "0"})
