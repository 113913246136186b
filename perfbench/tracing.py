"""Span tracer for the traced benchmark run.

It wraps each layer's public callables at the attributes where the program
looks them up: `eigen_sweep` finds `assemble` and `principal_eigenpair` on
`driftlab.eigen`, `validate_scenario` finds `check_declared_bound` on
`driftlab.scenario`, and instances find `__call__` and `apply` on their
classes. Nothing in `src/` is edited. Spans stay in memory until `dump`.

A span is (name, start_ns, end_ns, parent index, operation id, work, ok).
`work` is the layer's own count (points, rows or iterations) and `ok` is False
when the call raised or, for a solve, returned an uncertified pair. All spans
of one operation (one eps entry, or one assemble-and-apply) share its id.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from driftlab import eigen, expr, operator, scenario


def _points(args, result):
    return max((np.size(c) for c in args[1:]), default=1)


def _rows(args, result):
    return np.size(args[1])  # apply(self, x): one row per entry of x


def _grid_rows(args, result):
    return args[1].size  # assemble(scenario, grid, eps)


def _iterations(args, result):
    return result.iterations


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = ["setup"]  # operation id -> description
        self.op = 0
        self._stack = []

    def new_op(self, description):
        self.ops.append(description)
        self.op = len(self.ops) - 1

    def _targets(self):
        """(owner, attribute, span name, work counter, starts an operation)."""
        def assembling(args):
            self.new_op("assemble %s eps=%g" % (args[0].name, args[2]))

        def sweeping(args):
            self.new_op("sweep %s n=%d" % (args[0].name, args[1]))

        def extrapolating(args):
            self.new_op("extrapolate")

        return (
            (scenario, "builtin_scenario", "scenario.load", None, None),
            (scenario, "scenario_from_dict", "scenario.load", None, None),
            (scenario, "validate_scenario", "scenario.validate", None, None),
            (scenario, "check_declared_bound", "diophantine.check", None, None),
            (expr.TrigExpr, "__call__", "expr.eval", _points, None),
            (operator, "assemble", "operator.assemble", _grid_rows, assembling),
            (eigen, "assemble", "operator.assemble", _grid_rows, assembling),
            (operator.SparseOperator, "apply", "operator.apply", _rows, None),
            (eigen, "eigen_sweep", "eigen.sweep", None, sweeping),
            (eigen, "principal_eigenpair", "eigen.solve", _iterations, None),
            (eigen, "extrapolate_limit", "eigen.extrapolate", None, extrapolating),
        )

    def _wrap(self, fn, name, work, starts_op):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if starts_op is not None:
                starts_op(args)
            op = self.op
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if ok and name == "eigen.solve":
                    ok = bool(result.certified)
                count = work(args, result) if work is not None and result is not None else 0
                spans[index] = (name, t0, t1, parent, op, count, ok)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, work, starts_op in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, work, starts_op))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self):
        return len(self.spans)

    def layer_metrics(self, ranges):
        """Per-layer metrics over the spans in the given [start, end) ranges.

        Times are self times: a span's duration minus its child spans.
        """
        child = np.zeros(len(self.spans), dtype=np.int64)
        for name, t0, t1, parent, op, work, ok in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns, calls, work_sum, work_max, oks = {}, {}, {}, {}, {}
        for start, end in ranges:
            for i in range(start, end):
                name, t0, t1, parent, op, work, ok = self.spans[i]
                self_ns[name] = self_ns.get(name, 0) + (t1 - t0) - int(child[i])
                calls[name] = calls.get(name, 0) + 1
                work_sum[name] = work_sum.get(name, 0) + work
                work_max[name] = max(work_max.get(name, 0), work)
                oks[name] = oks.get(name, 0) + ok

        def seconds(name):
            return self_ns.get(name, 0) / 1e9

        def per(name):
            units = work_sum.get(name, 0)
            return self_ns.get(name, 0) / units if units else 0.0

        solves = calls.get("eigen.solve", 0)
        return {
            "scenario.load_s": seconds("scenario.load"),
            "scenario.validate_s": seconds("scenario.validate"),
            "diophantine.check_s": seconds("diophantine.check"),
            "diophantine.check_calls": calls.get("diophantine.check", 0),
            "expr.eval_s": seconds("expr.eval"),
            "expr.eval_calls": calls.get("expr.eval", 0),
            "expr.eval_points": work_sum.get("expr.eval", 0),
            "expr.ns_per_point": per("expr.eval"),
            "operator.assemble_s": seconds("operator.assemble"),
            "operator.assemble_calls": calls.get("operator.assemble", 0),
            "operator.assemble_ns_per_row": per("operator.assemble"),
            "operator.apply_s": seconds("operator.apply"),
            "operator.apply_calls": calls.get("operator.apply", 0),
            "operator.apply_ns_per_row": per("operator.apply"),
            "eigen.sweep_s": seconds("eigen.sweep"),
            "eigen.solve_s": seconds("eigen.solve"),
            "eigen.solve_calls": solves,
            "eigen.extrapolate_s": seconds("eigen.extrapolate"),
            "eigen.iterations": work_sum.get("eigen.solve", 0),
            "eigen.iterations.max": work_max.get("eigen.solve", 0),
            "eigen.certified_ratio": oks.get("eigen.solve", 0) / solves if solves else 0.0,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op",
                                  "work", "ok"],
                       "ops": self.ops, "spans": self.spans}, fh)
