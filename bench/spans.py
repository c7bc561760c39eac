"""Span tracing of chwplan's layers from outside the package.

A Tracer replaces chwplan functions with timing wrappers in every module
namespace that holds them (a module's own attribute and each
``from .x import f`` binding), records one span per call, and puts the
original objects back when it is uninstalled. Nothing in ``src/`` knows
about it, so an untraced run executes exactly the package's own code.

A span is ``[name, start, end, parent, command, info]``: ``parent`` is the
index of the enclosing span (-1 for none), ``command`` the id of the CLI
command it ran under, and ``info`` whatever the call's outcome says about
the work done (a set size, QP iterations, bytes written).
"""

import contextlib
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "chwplan"
NAME, START, END, PARENT, COMMAND, INFO = range(6)


def _size_of_result(args, kwargs, result, exc):
    return None if exc is not None else len(result)


def _qp_outcome(args, kwargs, result, exc):
    """(status, iterations, n, m) of one solve_qp call."""
    q, A = args[1], args[2]
    n, m = len(q), len(A)
    if exc is not None:
        iterations = getattr(exc, "iterations", None)
        if iterations is None:
            return None
        return ("nonconverged", iterations, n, m)
    return (result.status, result.iterations, n, m)


def _bytes_at_path(args, kwargs, result, exc):
    return None if exc is not None else os.path.getsize(args[0])


# Functions timed as spans, by module, with what each call's outcome adds.
# Hot scalar helpers (model.benefit, policy.single_patient_action) are not
# wrapped: at millions of calls per run the wrapper would dominate.
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("engine", "capacity_sweep", None),
    ("engine", "simulate", None),
    ("engine", "summarize", None),
    ("policy", "select_visits", _size_of_result),
    ("policy", "interest_set", _size_of_result),
    ("policy", "rollout_single", None),
    ("scenarios", "sample_cohort", None),
    ("estimation", "estimate_patient", None),
    ("estimation", "solve_inner", None),
    ("qp", "solve_qp", _qp_outcome),
    ("clustering", "cluster_params", None),
    ("clustering", "elbow_curve", None),
    ("storage", "load_scenario", None),
    ("storage", "ingest_histories", None),
    ("storage", "read_feature_table", None),
    ("storage", "read_results_csv", None),
    ("storage", "read_summary_csv", None),
    ("storage", "read_manifest", None),
    ("storage", "write_results_csv", None),
    ("storage", "write_summary_csv", None),
    ("storage", "write_estimates_csv", None),
    ("storage", "write_table", _bytes_at_path),
    ("storage", "write_manifest", None),
    ("charts", "line_chart", None),
    ("charts", "box_chart", None),
)

# Functions only counted: too fine-grained to time per call.
COUNT_TARGETS: Tuple[Tuple[str, str], ...] = (("model", "step_patient"),)


class Tracer:
    """Records spans and call counts while installed; see the module doc."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.command = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.command, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                stack.pop()
                if info is not None:
                    rec[INFO] = info(args, kwargs, None, exc)
                raise
            rec[END] = clock()
            stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _modules():
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Swap every binding of each target for its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        replacements = []
        for mod_name, fn_name, info in SPAN_TARGETS:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            replacements.append(
                (orig, self._span_wrapper(f"{mod_name}.{fn_name}", orig, info)))
        for mod_name, fn_name in COUNT_TARGETS:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            replacements.append(
                (orig, self._count_wrapper(f"{mod_name}.{fn_name}", orig)))
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                for orig, wrapper in replacements:
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))
                        break

    def uninstall(self) -> None:
        """Put every original object back where install found it."""
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Wrapped calls nest strictly (one thread, no recursion through a
    wrapper), so the children of a span cover disjoint parts of it.
    """
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def _flops_per_iteration(n: int, m: int) -> int:
    """Matrix-vector flops of one ADMM iteration on dense shapes.

    Two n x n products (the cached inverse, P x) and five m x n products
    (A x~, A x, A'(rho z - y), A'y, and A'e in the infeasibility test),
    at 2 flops per multiply-add. Computed from shapes, not counted.
    """
    return 4 * n * n + 10 * m * n


def layer_metrics(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """The benchmark's per-layer metrics from one traced iteration."""
    selfs = self_times(spans)
    idx: Dict[str, List[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        idx[rec[NAME]].append(i)

    def inclusive(name):
        return sum((spans[i][END] - spans[i][START] for i in idx[name]), 0.0)

    def self_s(name):
        return sum((selfs[i] for i in idx[name]), 0.0)

    def infos(name):
        return [spans[i][INFO] for i in idx[name] if spans[i][INFO] is not None]

    rollouts_under: Dict[int, int] = defaultdict(int)
    for i in idx["policy.rollout_single"]:
        parent = spans[i][PARENT]
        if parent >= 0 and spans[parent][NAME] == "policy.select_visits":
            rollouts_under[parent] += 1
    ranked_selected = sum(spans[p][INFO] for p in rollouts_under)
    rolled_out = sum(rollouts_under.values())

    sizes = infos("policy.interest_set")
    qp = infos("qp.solve_qp")
    iterations = [it for _, it, _, _ in qp]
    qp_s = inclusive("qp.solve_qp")
    flops = sum(it * _flops_per_iteration(n, m) for _, it, n, m in qp)

    return {
        "model.step_patient.calls": counts.get("model.step_patient", 0),
        "engine.simulate.s": inclusive("engine.simulate"),
        "engine.simulate.self_s": self_s("engine.simulate"),
        "engine.cells": len(idx["engine.simulate"]),
        "engine.summarize.s": inclusive("engine.summarize"),
        "policy.select_visits.s": inclusive("policy.select_visits"),
        "policy.select_visits.calls": len(idx["policy.select_visits"]),
        "policy.rollout_single.s": inclusive("policy.rollout_single"),
        "policy.rollout_single.calls": len(idx["policy.rollout_single"]),
        "policy.rollout_useful_frac": (ranked_selected / rolled_out
                                       if rolled_out else 0.0),
        "policy.interest_set.s": inclusive("policy.interest_set"),
        "policy.interest_set.mean_size": (sum(sizes) / len(sizes)
                                          if sizes else 0.0),
        "scenarios.sample_cohort.s": inclusive("scenarios.sample_cohort"),
        "estimation.estimate_patient.s": inclusive("estimation.estimate_patient"),
        "estimation.solve_inner.self_s": self_s("estimation.solve_inner"),
        "estimation.cells": len(idx["estimation.solve_inner"]),
        "estimation.cells_infeasible": sum(
            1 for status, _, _, _ in qp if status == "primal_infeasible"),
        "estimation.cells_nonconverged": sum(
            1 for status, _, _, _ in qp if status == "nonconverged"),
        "qp.solve_qp.s": qp_s,
        "qp.solve_qp.calls": len(idx["qp.solve_qp"]),
        "qp.iterations": sum(iterations),
        "qp.iterations_p50": statistics.median(iterations) if iterations else 0,
        "qp.iterations_max": max(iterations, default=0),
        "qp.us_per_iteration": (1e6 * qp_s / sum(iterations)
                                if iterations else 0.0),
        "qp.gflops_computed": flops / qp_s / 1e9 if qp_s > 0 else 0.0,
        "clustering.cluster_params.s": inclusive("clustering.cluster_params"),
        "clustering.cluster_params.calls": len(idx["clustering.cluster_params"]),
        "storage.write_results_csv.s": inclusive("storage.write_results_csv"),
        "storage.read_results_csv.s": inclusive("storage.read_results_csv"),
        "storage.write_summary_csv.s": inclusive("storage.write_summary_csv"),
        "storage.ingest_histories.s": inclusive("storage.ingest_histories"),
        "storage.write_estimates_csv.s": inclusive("storage.write_estimates_csv"),
        "storage.bytes_written": sum(infos("storage.write_table")),
        "charts.line_chart.s": inclusive("charts.line_chart"),
        "charts.box_chart.s": inclusive("charts.box_chart"),
        "cli.s": inclusive("cli.main"),
        "cli.self_s": self_s("cli.main"),
    }


# Unit of each metric layer_metrics returns, plus the tracing overhead.
METRIC_UNITS = {
    "model.step_patient.calls": "count",
    "engine.simulate.s": "s", "engine.simulate.self_s": "s",
    "engine.cells": "count", "engine.summarize.s": "s",
    "policy.select_visits.s": "s", "policy.select_visits.calls": "count",
    "policy.rollout_single.s": "s", "policy.rollout_single.calls": "count",
    "policy.rollout_useful_frac": "frac",
    "policy.interest_set.s": "s", "policy.interest_set.mean_size": "count",
    "scenarios.sample_cohort.s": "s",
    "estimation.estimate_patient.s": "s", "estimation.solve_inner.self_s": "s",
    "estimation.cells": "count", "estimation.cells_infeasible": "count",
    "estimation.cells_nonconverged": "count",
    "qp.solve_qp.s": "s", "qp.solve_qp.calls": "count",
    "qp.iterations": "count", "qp.iterations_p50": "count",
    "qp.iterations_max": "count", "qp.us_per_iteration": "us",
    "qp.gflops_computed": "GFLOP/s",
    "clustering.cluster_params.s": "s", "clustering.cluster_params.calls": "count",
    "storage.write_results_csv.s": "s", "storage.read_results_csv.s": "s",
    "storage.write_summary_csv.s": "s", "storage.ingest_histories.s": "s",
    "storage.write_estimates_csv.s": "s", "storage.bytes_written": "bytes",
    "charts.line_chart.s": "s", "charts.box_chart.s": "s",
    "cli.s": "s", "cli.self_s": "s",
    "trace_overhead_frac": "frac",
}

# Metrics that count work rather than time it: they must repeat exactly.
EXACT_METRICS = (
    "model.step_patient.calls", "engine.cells", "policy.select_visits.calls",
    "policy.rollout_single.calls", "policy.rollout_useful_frac",
    "policy.interest_set.mean_size", "estimation.cells",
    "estimation.cells_infeasible", "estimation.cells_nonconverged",
    "qp.solve_qp.calls", "qp.iterations", "qp.iterations_p50",
    "qp.iterations_max", "clustering.cluster_params.calls",
    "storage.bytes_written",
)


def layer_shares(spans: List[list], command: Optional[int] = None, top: int = 6):
    """Top layers and top functions by self time, as shares of CLI time.

    With ``command`` given, only the spans of that CLI command count.
    Returns (total_s, [(layer, self_s, share)], [(function, self_s, share)]).
    Time inside unwrapped callees (model.step_patient among them) counts
    toward the nearest wrapped caller.
    """
    picked = [(rec, s) for rec, s in zip(spans, self_times(spans))
              if command is None or rec[COMMAND] == command]
    total = sum(rec[END] - rec[START] for rec, _ in picked if rec[NAME] == "cli.main")
    by_fn: Dict[str, float] = defaultdict(float)
    for rec, s in picked:
        by_fn[rec[NAME]] += s
    by_layer: Dict[str, float] = defaultdict(float)
    for name, s in by_fn.items():
        by_layer[name.split(".")[0]] += s

    def ranked(table):
        rows = sorted(table.items(), key=lambda kv: -kv[1])[:top]
        return [(k, v, v / total if total > 0 else math.nan) for k, v in rows]

    return total, ranked(by_layer), ranked(by_fn)


def write_spans(path: str, traced: List[Tuple[int, List[list]]]) -> None:
    """Write every recorded span as CSV: iteration, index, name, times, parent, command."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,index,name,start,end,parent,command,info\n")
        for iteration, spans in traced:
            for i, rec in enumerate(spans):
                info = "" if rec[INFO] is None else str(rec[INFO]).replace(",", ";")
                fh.write(f"{iteration},{i},{rec[NAME]},{rec[START]!r},{rec[END]!r},"
                         f"{rec[PARENT]},{rec[COMMAND]},{info}\n")
