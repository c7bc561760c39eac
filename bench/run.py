"""chwplan benchmark: runs one workload through ``chwplan.cli.main`` for a
fixed time and prints its metrics.

    python3 bench/run.py --workload sim --seed 0 --seconds 60 --trace 0

The workload's inputs are generated from --seed in set-up, timed as
``setup_s``: the median of SETUP_REPS fresh processes that import chwplan
and build the inputs, the first before the timed loop and one after each
iteration. The workload's CLI commands run in this process, one at a time
(a closed loop with one client and no extra threads), until --seconds are
spent. The first iteration is a warm-up: its outputs are checked but its
time is not counted. Every iteration's outputs are checked.

--trace 0 reports the end-to-end metrics, measured with nothing wrapped.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics from the traced ones (see spans.py), the tracing
overhead, and tables of layer shares per command.

The last line of stdout is one JSON object: correct, attempted, failed
(ops: simulate result cells, estimated patients, report/cluster commands)
and metrics. Outputs, spans and a run record go to .bench_work/<workload>/.
The benchmark changes no system setting (CPU governor, caches, affinity).
On a shared machine the speed drifts in phases of tens of seconds rather
than in single outliers, so the timings are means over the whole run: the
median of a few iterations would pick one phase.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 9

# One process, one command at a time, no extra threads: numpy's BLAS runs
# on the calling thread. At the QP's 65 x 185 shapes its worker threads
# only spin (same wall time, twice the CPU time) and make timings depend on
# whatever else holds the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, BENCH_DIR)
import spans  # noqa: E402
import workloads as wl  # noqa: E402

NOTES = (
    "No system setting is changed: CPU governor, caches and affinity are"
    " left as found.",
    "On a shared 2-core box single ~1.5 s ea_desc_vtg cells varied between"
    " 1.43 and 1.88 s across six back-to-back runs, and whole iterations"
    " by up to 1.8x in phases of tens of seconds; each run therefore"
    " repeats its workload for about a minute and reports means over it.",
    "fit: clustering is under 2% of the workload; it cannot show an"
    " end-to-end gain from a k-means change.",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "notes": list(NOTES),
    }


def _setup_once(workload: str, seed: int, directory: str) -> float:
    """Import chwplan and build the inputs in a fresh process; wall seconds."""
    code = ("import sys; sys.path[:0] = sys.argv[1:4];"
            " import workloads; workloads.build_inputs(sys.argv[4], int(sys.argv[5]), sys.argv[6])")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", code, BENCH_DIR, SRC, TESTS,
         workload, str(seed), directory],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def setup(workload: str, seed: int, work: str, rep: int, expected=None):
    """Time set-up number rep; return (seconds, inputs dir, input digests).

    Raises if the inputs differ from the expected digests of an earlier rep.
    """
    directory = os.path.join(work, f"inputs{rep}")
    elapsed = _setup_once(workload, seed, directory)
    names = sorted(n for n in os.listdir(directory) if n != "manifest.json")
    digests = {n: wl.sha256_file(os.path.join(directory, n)) for n in names}
    if expected is not None and digests != expected:
        raise RuntimeError("set-up is not deterministic: inputs differ between builds")
    return elapsed, directory, digests


def import_chwplan():
    if not os.path.isfile(os.path.join(SRC, "chwplan", "cli.py")):
        raise RuntimeError(f"no chwplan sources under {SRC}")
    sys.path.insert(0, SRC)
    import chwplan.cli
    if not os.path.abspath(chwplan.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported chwplan from {chwplan.cli.__file__}, not {SRC}")
    return chwplan.cli


def run_command(cli, argv) -> Tuple[int, float]:
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return code, elapsed


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _print_metric(name: str, values: List[float], unit: str, value: float) -> None:
    """The reported value, then the median and quartiles of its samples."""
    q1, med, q3 = _quartiles(values)
    print(f"{name:<32} {value:.6g} {unit}  (samples: median {med:.6g},"
          f" q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_chwplan()
    env = environment()
    print("env: " + json.dumps(env))
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # The first set-up builds the inputs the run uses. The other set-ups
    # run one after each iteration, so that their median samples the whole
    # run rather than the few seconds before it.
    first_setup_s, inputs, input_digests = setup(workload, seed, work, 0)
    setup_times = [first_setup_s]
    cmds = wl.commands(workload, seed, inputs, os.path.join(work, "out"))

    attempted = failed = 0
    errors: List[str] = []
    reference = None          # output fingerprint of the warm-up iteration
    # per timed iteration: wall seconds of all commands, traced or not
    run_s: Dict[bool, List[float]] = {False: [], True: []}
    main_s: List[float] = []  # untraced: wall seconds of the unit-counting commands
    traced: List[tuple] = []  # (iteration, spans)
    layer_runs: List[Dict[str, float]] = []
    iteration, start = 0, time.perf_counter()
    while True:
        # iteration 0 warms up; then untraced and (with --trace 1) traced
        # iterations alternate
        is_traced = trace and iteration % 2 == 1
        tracer = spans.Tracer() if is_traced else None
        walls, fingerprint = [], {}
        for command_id, cmd in enumerate(cmds):
            attempted += cmd.ops
            if tracer is not None:
                tracer.command = command_id
                with tracer.installed():
                    code, wall = run_command(cli, cmd.argv)
            else:
                code, wall = run_command(cli, cmd.argv)
            walls.append(wall)
            if code != 0:
                failed += cmd.ops
                errors.append(f"{cmd.argv[0]} exited {code}")
                continue
            check = wl.check_command(cmd, seed)
            failed += check.failed_ops
            errors.extend(check.errors)
            fingerprint.update(check.fingerprint)
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            failed += sum(c.ops for c in cmds)
            errors.append(f"iteration {iteration}: outputs differ from iteration 0")
        if iteration == 0:
            warmup_s = sum(walls)
        else:
            run_s[is_traced].append(sum(walls))
            if not is_traced:
                main_s.append(sum(w for w, c in zip(walls, cmds) if c.units))
        if tracer is not None:
            traced.append((iteration, tracer.spans))
            layer_runs.append(spans.layer_metrics(tracer.spans, tracer.counts))
        iteration += 1
        if len(setup_times) < SETUP_REPS:
            setup_times.append(setup(workload, seed, work, len(setup_times),
                                     input_digests)[0])
        elapsed = time.perf_counter() - start
        done = iteration >= (3 if trace else 2)
        if done and elapsed + sum(walls) > seconds:
            break
    while len(setup_times) < SETUP_REPS:
        setup_times.append(setup(workload, seed, work, len(setup_times),
                                 input_digests)[0])

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name in spans.EXACT_METRICS:
        if len({m[name] for m in layer_runs}) > 1:
            errors.append(f"{name} differs between traced iterations")
    print(f"workload {workload}: seed {seed}, {iteration} iterations in"
          f" {time.perf_counter() - start:.1f} s (1 warm-up, {len(run_s[True])} traced)")
    print(f"inputs: {json.dumps(input_digests)}")
    print(f"output digests: {json.dumps(reference)}")
    if workload == "fit":
        recovered = wl.planted_cell_recovered(cmds[0].out)
        print(f"planted cell {wl.PLANTED_CELL} recovered: {json.dumps(recovered)}")
        if seed != wl.DEFAULT_SEED:
            print("estimates: " + json.dumps(wl.estimate_pins(cmds[0].out)))
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(f"{'ops_failed_frac':<32} {failed / attempted:.6g}"
          f"  ({failed} of {attempted} ops)")

    metrics: Dict[str, dict] = {}
    if not trace:
        units = sum(c.units for c in cmds)
        _print_metric("setup_s", setup_times, "s", statistics.median(setup_times))
        _print_metric("run_s", run_s[False], "s", statistics.fmean(run_s[False]))
        _print_metric("work_units_per_s", [units / s for s in main_s], "1/s",
                      units * len(main_s) / sum(main_s))
        print(f"{'peak_rss_mb':<32} {peak_rss_mb:.6g} MB")
        metrics = {
            "run_s": {"value": statistics.fmean(run_s[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "work_units_per_s": {"value": units * len(main_s) / sum(main_s),
                                 "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        layer = {name: statistics.median(m[name] for m in layer_runs)
                 for name in layer_runs[0]}
        layer["trace_overhead_frac"] = (statistics.fmean(run_s[True])
                                        / statistics.fmean(run_s[False]) - 1.0)
        for name, value in layer.items():
            print(f"{name:<32} {value:.6g} {spans.METRIC_UNITS[name]}")
        for command_id, cmd in enumerate(cmds):
            total, by_layer, by_fn = spans.layer_shares(traced[-1][1], command_id)
            print(f"command {command_id} ({' '.join(cmd.argv[:3])}): layer shares of"
                  f" its traced time ({total:.3f} s), by self time:")
            for name, s, share in by_layer:
                print(f"  layer {name:<12} {s:9.3f} s  {share:6.1%}")
            for name, s, share in by_fn:
                print(f"  span  {name:<32} {s:9.3f} s  {share:6.1%}")
        for name in ("policy.rollout_single.s", "engine.simulate.self_s",
                     "qp.solve_qp.s"):
            print(f"  share of workload {name:<24} {layer[name] / layer['cli.s']:6.1%}")
        spans.write_spans(os.path.join(work, "spans.csv"), traced)
        metrics = {name: {"value": value, "unit": spans.METRIC_UNITS[name]}
                   for name, value in layer.items()}

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "setup_s": setup_times,
              "warmup_s": warmup_s, "run_s": run_s[False], "traced_run_s": run_s[True],
              "main_command_s": main_s, "input_digests": input_digests,
              "output_digests": reference, "errors": errors, "metrics": metrics}
    with open(os.path.join(work, f"record_trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return {"correct": not errors and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
