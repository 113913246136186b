"""Self-test of the benchmark at tiny sizes (2D n=16, 3D n=8, assemble n=64).

Each workload body runs once, untraced and traced. The test asserts that every
metric BENCHMARK.json declares is emitted with its unit, that the output
checks pass, and that the tracer leaves the program as it found it.

Run with: python -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from driftlab import eigen, expr, operator, scenario  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload(name, trace, tmp_path):
    originals = (eigen.assemble, scenario.check_declared_bound,
                 expr.TrigExpr.__dict__["__call__"],
                 operator.SparseOperator.__dict__["apply"])

    result, record = run.run_workload(name, seed=3, seconds=0, trace=trace,
                                      spec=workloads.TINY[name], probes=1,
                                      out_dir=tmp_path)

    kind = "per_layer" if trace else "end_to_end"
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == run.declared_metrics()[kind]
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert result["correct"], record["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    stem = "%s-seed3-trace%d" % (name, trace)
    assert json.loads((tmp_path / (stem + ".json")).read_text())["result"] == result
    assert (tmp_path / (stem + ".spans.json")).exists() == bool(trace)
    assert originals == (eigen.assemble, scenario.check_declared_bound,
                         expr.TrigExpr.__dict__["__call__"],
                         operator.SparseOperator.__dict__["apply"])
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_traced_counts_match_the_solver(tmp_path):
    result, _ = run.run_workload("sweep-3d", seed=0, seconds=0, trace=1,
                                 spec=workloads.TINY["sweep-3d"], probes=1,
                                 out_dir=tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # power iteration applies the operator once per iteration
    assert m["operator.apply_calls"] == m["eigen.iterations"]
    assert m["eigen.solve_calls"] == len(workloads.EPS_SCHEDULE)
    assert m["operator.assemble_calls"] == len(workloads.EPS_SCHEDULE)
    assert m["eigen.certified_ratio"] == 1.0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-3d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
