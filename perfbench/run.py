"""Run one workload of the driftlab benchmark and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of `sweep-builtins`, `sweep-3d`, `assemble-1m`, or `all` to run
each in turn. The workload body repeats, one operation after another in this
process, for about S seconds. With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it alternates untraced and traced repetitions,
and prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. A fuller record, with the environment, goes to
`perfbench/out/`. Metric names and units come from `BENCHMARK.json`.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one client, single-threaded numerics
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES = 7  # least number of set-up probes per run; setup_s is their median
PROBE_TIMEOUT_S = 60


def import_program():
    """Put this checkout's src/ first on the path, or exit without a result."""
    package = SRC / "driftlab"
    if not (package / "__init__.py").is_file():
        sys.exit("perfbench: driftlab sources not found at %s" % package)
    sys.path[:0] = [str(SRC), str(HERE)]
    import driftlab
    if Path(driftlab.__file__).resolve().parent != package.resolve():
        sys.exit("perfbench: imported driftlab from %s, not %s"
                 % (driftlab.__file__, package))


def declared_metrics():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure_setup(workload):
    """Seconds from interpreter start to validated scenarios, in a fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError("setup probe failed (exit %s): %s" % (proc.returncode, err))
    return elapsed


def repeat(budget_s, once, between=None):
    """Call `once` at least once, and again while another call fits in budget_s.

    `between` runs before each call, inside the budget but outside the call.
    """
    outcomes = []
    start = time.perf_counter()
    while True:
        if between is not None:
            between()
        outcomes.append(once())
        elapsed = time.perf_counter() - start
        if elapsed * (len(outcomes) + 1) / len(outcomes) > budget_s:
            return outcomes


def describe(samples):
    """Median, the highest percentile with at least ten samples above it, and n."""
    n = len(samples)
    text = "median %.6g of n=%d" % (statistics.median(samples), n)
    if n < 20:  # below 20, no percentile above the median qualifies
        return text + ", too few samples for a tail percentile"
    ordered = sorted(samples)
    return text + ", p%.0f %.6g" % (100.0 * (n - 10) / n, ordered[n - 11])


def environment(seed):
    def first_line(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    return {
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name, seed, seconds, trace, spec=None, probes=PROBES, out_dir=OUT):
    """Run one workload; return (result object of the last line, full record)."""
    import workloads
    from tracing import Tracer

    spec = spec or workloads.WORKLOADS[name]
    declared = declared_metrics()
    setup_times = []

    def probe():
        # spread over the run, so set-up samples the same machine state as the body
        setup_times.append(measure_setup(name))

    tracer = Tracer() if trace else None
    if tracer:
        with tracer.installed():
            scenarios, invalid = workloads.setup(spec)
        setup_end = tracer.mark()
    else:
        scenarios, invalid = workloads.setup(spec)

    def untraced_once():
        return workloads.run_body(spec, scenarios, invalid, seed)

    ranges = []

    def traced_pair():
        # alternate untraced and traced repetitions, so drift cancels in the overhead
        untraced = untraced_once()
        start = tracer.mark()
        traced = workloads.run_body(spec, scenarios, invalid, seed, tracer)
        ranges.append((start, tracer.mark()))
        return untraced, traced

    if tracer:
        pairs = repeat(seconds, traced_pair, between=probe)
        untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
    else:
        untraced, traced = repeat(seconds, untraced_once, between=probe), []
    while len(setup_times) < probes:
        probe()

    outcomes = untraced + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    walls = [o.wall_s for o in untraced]
    if tracer:
        per_rep = [tracer.layer_metrics([(0, setup_end), r]) for r in ranges]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics.update({k: int(v) for k, v in metrics.items()  # equal in every repetition
                        if declared["per_layer"].get(k) == "count"})
        traced_walls = [o.wall_s for o in traced]
        metrics["trace.overhead"] = 100.0 * (statistics.median(traced_walls)
                                             / statistics.median(walls) - 1.0)
        units = declared["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
            "bracket_width.max": max(o.bracket_width_max for o in outcomes),
            "lambda0_err.max": max(o.lambda0_err_max for o in outcomes),
        }
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(metrics), sorted(units)))

    result = {
        "correct": failed == 0 and not invalid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    errors = sorted({e for o in outcomes for e in o.errors})
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "environment": environment(seed),
        "invalid_scenarios": invalid,
        "samples": {"setup_s": setup_times, "wall_s": walls,
                    "traced_wall_s": [o.wall_s for o in traced]},
        "lambda0": outcomes[-1].lambda0,
        "errors": errors,
        "result": result,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = "%s-seed%d-trace%d" % (name, seed, int(bool(trace)))
        with open(out_dir / (stem + ".json"), "w") as fh:
            json.dump(record, fh, indent=1)
        if tracer:
            tracer.dump(out_dir / (stem + ".spans.json"))
    return result, record


def report(record):
    """Human-readable lines for one workload; the JSON result comes last."""
    result = record["result"]
    samples = record["samples"]
    print("%s seed=%d trace=%d: %d operations, %d failed, %d+%d repetitions"
          % (record["workload"], record["seed"], record["trace"], result["attempted"],
             result["failed"], len(samples["wall_s"]), len(samples["traced_wall_s"])))
    print("  environment %s" % json.dumps(record["environment"], sort_keys=True))
    for err in record["errors"]:
        print("  FAILED %s" % err)
    for name, lam0 in sorted(record["lambda0"].items()):
        print("  lambda0 %-18s %.6f" % (name, lam0))
    for key in ("setup_s", "wall_s", "traced_wall_s"):
        if samples[key]:
            print("  %-14s %s" % (key, describe(samples[key])))
    for name, m in result["metrics"].items():
        print("  %-30s %.6g %s" % (name, m["value"], m["unit"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error("unknown workload %s; choose from %s or all"
                     % (unknown[0], ", ".join(workloads.WORKLOADS)))
    results = {}
    for name in names:
        results[name], record = run_workload(name, args.seed, args.seconds, args.trace)
        report(record)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
