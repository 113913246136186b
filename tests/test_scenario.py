import json
import math

import numpy as np
import pytest

from conftest import SINK_3D
from driftlab.diophantine import continued_fraction
from driftlab.expr import TrigExpr
from driftlab.scenario import (
    BUILTIN_NAMES,
    PHI,
    Cycle,
    ScenarioFormatError,
    Torus,
    builtin_scenario,
    builtin_scenarios,
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


def torus_scenario(k, C):
    return scenario_from_dict({
        "name": "torus", "dim": 2, "b": [repr(v) for v in k], "c": "0", "L": "0",
        "components": [{"type": "torus", "k": k, "C": C, "alpha": 0.5}],
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
        assert s.lap_L(*p) == pytest.approx(1.0, abs=1e-15)

    def test_potential_value(self):
        s = builtin_scenario("stable-point")
        assert s.c(math.pi / 3) == pytest.approx(0.5, abs=1e-15)


class TestValidation:
    def test_all_builtins_pass(self):
        for s in builtin_scenarios():
            report = validate_scenario(s)
            assert report.passed, [c.name for c in report.failures()]

    @pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
    def test_check_names_pinned(self, name):
        s = scenario_from_dict(SINK_3D) if name == "sink-3d" else builtin_scenario(name)
        assert [c.name for c in validate_scenario(s).checks] == REPORT_CHECKS[name]

    @pytest.mark.parametrize("k, C, failed", [
        ([1.0, 0.0], 0.5, "0:torus irrational ratio"),
        ([0.0, 0.0], 0.5, "0:torus irrational ratio"),
        ([1e300, 1e-10], 0.5, "0:torus irrational ratio"),
        ([1.0, PHI], 0.0, "0:torus small-divisor bound"),
        ([1.0, PHI], -0.5, "0:torus small-divisor bound"),
    ], ids=["k2-zero", "k-zero", "ratio-overflow", "C-zero", "C-negative"])
    def test_degenerate_torus_fails_its_check(self, k, C, failed):
        # a numpy warning on the way fails this too: the suite makes warnings errors
        report = validate_scenario(torus_scenario(k, C))
        assert failed in [c.name for c in report.failures()]

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
        call = TrigExpr.__call__

        def counting(self, *coords):
            points.append(max((np.size(c) for c in coords), default=1))
            return call(self, *coords)

        monkeypatch.setattr(TrigExpr, "__call__", counting)
        assert validate_scenario(scenario_from_dict(SINK_3D)).passed
        assert sum(points) < 2 * 64**3

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
        assert isinstance(cyc, Cycle)
        np.testing.assert_allclose([f(0.7, 0.0) for f in s.b], [1.0, 0.0], atol=1e-15)
        assert cyc.speed == pytest.approx(1.0)
        assert cyc.transverse_matrix[0, 0] == pytest.approx(-1.0, abs=1e-15)
        unstable = s.components[1]
        assert unstable.transverse_matrix[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert cyc.is_attracting and not unstable.is_attracting

    def test_golden_ratio_continued_fraction(self):
        s = builtin_scenario("irrational-torus")
        torus = s.components[0]
        assert isinstance(torus, Torus)
        cf = continued_fraction(torus.k[0] / torus.k[1], max_terms=20)
        assert cf[0] == 0 and all(a == 1 for a in cf[1:])

    def test_stable_point_jacobians(self):
        s = builtin_scenario("stable-point")
        p0, p1 = s.components
        assert p0.jacobian[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert p1.jacobian[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert p0.is_attracting and not p1.is_attracting

    def test_mixed_linearizations(self):
        s = builtin_scenario("mixed")
        cyc, pt = s.components
        assert cyc.transverse_matrix[0, 0] == pytest.approx(-2.0, abs=1e-14)
        np.testing.assert_allclose(
            sorted(np.linalg.eigvals(pt.jacobian).real), [-2.0, -1.0], atol=1e-14)
        np.testing.assert_allclose([f(*pt.location) for f in s.b], [0.0, 0.0], atol=1e-15)

    def test_mixed_gap_parameter(self):
        s0 = builtin_scenario("mixed", gap=0.0)
        assert s0.c == TrigExpr.zero()
        s1 = builtin_scenario("mixed", gap=0.8)
        assert s1.c(0.0, 0.0) == pytest.approx(0.4, abs=1e-15)

    def test_periodicity_of_fields(self):
        rng = np.random.default_rng(5)
        for s in builtin_scenarios():
            p = rng.uniform(0, 2 * np.pi, size=s.dim)
            for i in range(s.dim):
                q = p.copy()
                q[i] += 2 * np.pi
                for e in (*s.b, s.c, s.L):
                    assert abs(e(*p) - e(*q)) <= 1e-12


class TestJsonForm:
    def test_round_trip_builtins(self):
        for s in builtin_scenarios():
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
        s = scenario_from_dict({
            "name": "x", "dim": 1, "b": ["1"], "c": "0", "L": "0",
            "components": [{"type": "torus", "k": [1.0, 1.5], "C": 0.5, "alpha": 0.5}],
        })
        report = validate_scenario(s)
        assert not report.passed

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
    ], ids=["b-string", "b-expression-string", "dim-float", "c-number", "location-nan",
            "level-nan", "period-inf", "k-nan", "C-inf", "alpha-inf"])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(json.loads(text))

    def test_cycle_axis_range(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({
                "name": "x", "dim": 2, "b": ["1", "0"], "c": "0", "L": "0",
                "components": [{"type": "cycle", "axis": 3, "level": 0.0,
                                "period": 6.283185307179586}],
            })


class TestComponentGeometry:
    def test_cycle_points_and_distance(self):
        s = builtin_scenario("stable-cycle")
        cyc = s.components[0]
        thetas = np.array([0.0, math.pi / 2, math.pi])
        pts = cyc.points(thetas)
        np.testing.assert_allclose(pts[:, 0], thetas, atol=1e-15)
        np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-15)
        q = np.array([[1.0, 0.3], [2.0, 2 * math.pi - 0.2]])
        np.testing.assert_allclose(cyc.distance(q), [0.3, 0.2], atol=1e-12)

    def test_point_periodic_distance(self):
        s = builtin_scenario("stable-point")
        p = s.components[0]
        q = np.array([[2 * math.pi - 0.1], [0.1]])
        np.testing.assert_allclose(p.distance(q), [0.1, 0.1], atol=1e-12)

    def test_component_ids(self):
        s = builtin_scenario("mixed")
        assert s.component_ids() == ["0:cycle", "1:point"]
