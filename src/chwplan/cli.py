"""Command-line surface: simulate, estimate, cluster, scenario-gen, report.

Thin orchestration over the library modules. All heavy lifting stays in
those modules; this layer parses flags and resolves scenario names/files.
Each command writes its tables or charts and returns a _Run; main times
it, writes the output directory's manifest, prints one summary line, and
maps failures to exit codes (0 success, 1 user error, 2 internal error).
"""

import argparse
import functools
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import charts, clustering, estimation, qp, storage
from .clustering import cluster_params
from .engine import (WORK, SimulationConfig, capacity_pct, capacity_sweep, period_shares,
                     summarize)
from .estimation import EstimationConfig, EstimationFailedError, estimate_patient
from .policy import POLICY_KINDS, PolicySpec
from .scenarios import SamplingError, ScenarioSpec, sample_cohort

OUT_DIR_ENV = "CHWPLAN_OUT"
DEFAULT_OUT_DIR = "chwplan-out"
MAX_CAPACITY_RANGE = 10_000  # values a --capacities lo:hi:step may expand to
_GRIDS = ("grid_s_base", "grid_beta", "grid_gamma", "grid_rho")


class _Run(NamedTuple):
    """What a command wrote: its manifest's fields and summary text."""

    out_dir: str
    config: dict
    seed: int
    inputs: List[str]
    outputs: List[str]
    summary: str
    work: Optional[Dict[str, int]] = None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; our contract reserves 2 for bugs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir(flag_value: Optional[str]) -> str:
    """The output directory, made if it does not exist."""
    out_dir = flag_value or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _parse_capacities(text: str) -> Tuple[float, ...]:
    """Percent list: either lo:hi:step or comma-separated values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad capacity range {text!r}; expected lo:hi:step")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad capacity range {text!r}; expected numbers")
        for name, value in (("lo", lo), ("hi", hi), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"bad capacity range {text!r}; {name} must be finite")
        if step <= 0 or lo > hi:
            raise ValueError(f"bad capacity range {text!r}; need lo <= hi, step > 0")
        pcts = []
        v = lo
        # the slack absorbs the running sum's rounding and stays under half a step
        while v <= hi + min(1e-9, step / 2):
            pcts.append(round(v, 10))
            if not 0.0 < pcts[-1] <= 100.0:
                break  # rejected below, before the rest of the range is built
            if len(pcts) > MAX_CAPACITY_RANGE:
                raise ValueError(f"bad capacity range {text!r}; step too fine: more than"
                                 f" {MAX_CAPACITY_RANGE:,} values")
            v += step
    else:
        try:
            pcts = [float(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise ValueError(f"bad capacity list {text!r}")
    if not pcts:
        raise ValueError("no capacity values given")
    for pct in pcts:
        if not (0.0 < pct <= 100.0):
            raise ValueError(f"capacity {pct}% outside (0, 100]")
    fractions = tuple(round(pct / 100.0, 12) for pct in pcts)
    if len(set(fractions)) != len(fractions):
        raise ValueError(f"duplicate capacity values in {text!r}")
    return tuple(sorted(fractions))


def _seed(text: str) -> int:
    """A --seed that numpy's generators take: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_float_list(text: str, flag: str) -> Tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"{flag}: bad number in {text!r}")


def _constants(module, *names: str) -> dict:
    """Module constants a command's outputs depend on, keyed
    "module.NAME", for its manifest."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    return {f"{prefix}.{name}": getattr(module, name) for name in names}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_scenario(args) -> Tuple[ScenarioSpec, List[str]]:
    """--scenario with --population applied, and the input file, if any,
    to digest into the manifest."""
    spec, spec_path = storage.load_scenario(args.scenario)
    if args.population is not None:
        spec = replace(spec, population=args.population)
    return spec, [spec_path] if spec_path else []


def _cmd_simulate(args) -> _Run:
    spec, inputs = _load_scenario(args)
    kinds = [k.strip() for k in args.policies.split(",") if k.strip()]
    policies = [PolicySpec(kind=k) for k in kinds]
    fractions = (SimulationConfig.capacity_fractions if args.capacities is None
                 else _parse_capacities(args.capacities))
    config = SimulationConfig(
        horizon=args.horizon,
        capacity_fractions=fractions,
        replications=args.reps,
        base_seed=args.seed,
        sigma_xi=args.sigma_xi,
        delta_mgdl=args.delta_mgdl,
    )
    results = capacity_sweep(lambda seed: sample_cohort(spec, seed).cohort, policies, config)
    out_dir = _out_dir(args.out)
    storage.write_results_csv(os.path.join(out_dir, "results.csv"), results)
    storage.write_summary_csv(os.path.join(out_dir, "summary.csv"),
                              summarize(results))
    manifest_config = {
        "scenario": storage.scenario_to_dict(spec),
        "policies": kinds,
        "capacity_pct": [capacity_pct(f) for f in fractions],
        "replications": args.reps,
        "horizon": args.horizon,
        "sigma_xi": args.sigma_xi,
        "delta_mgdl": config.delta_mgdl,
        "population": spec.population,
    }
    work = {key: sum(getattr(r, key) for r in results) for key in WORK}
    work["row_periods"] = len(results) * config.horizon
    work["row_periods_stepped"] = work.pop("periods_stepped")
    return _Run(out_dir, manifest_config, args.seed, inputs, ["results.csv", "summary.csv"],
                f"{len(results)} result cells ({len(kinds)} policies x"
                f" {len(fractions)} capacities x {args.reps} replications) -> {out_dir}",
                work)


def _cmd_estimate(args) -> _Run:
    histories = storage.ingest_histories(args.histories)
    if not histories:
        raise ValueError(f"{args.histories}: no visit records")
    grids = {name: _parse_float_list(getattr(args, name), "--" + name.replace("_", "-"))
             for name in _GRIDS if getattr(args, name) is not None}
    config = EstimationConfig(**grids, sigma_eps=args.sigma_eps, sigma_xi=args.sigma_xi)
    estimates = []
    for h in histories:
        try:
            estimates.append((h.patient_id, estimate_patient(h, config)))
        except MemoryError as exc:
            raise MemoryError(f"{args.histories}: patient {h.patient_id!r}: {exc}") from exc
    out_dir = _out_dir(args.out)
    storage.write_estimates_csv(os.path.join(out_dir, "estimates.csv"),
                                estimates)
    manifest_config = {
        "histories": args.histories,
        **asdict(config),
        **_constants(qp, "QP_TOLERANCE", "MAX_ITERATIONS", "CHECK_INTERVAL",
                     "POOL_WIDTH", "INFEASIBILITY_EPS", "SIGMA", "RELAXATION",
                     "RHO_INITIAL"),
        **_constants(estimation, "PARAM_UPPER_BOUND", "STRICT_GAP",
                     "NLL_TIE_TOLERANCE"),
    }
    work = {
        "grid_cells_solved": sum(e.cells_solved for _, e in estimates),
        "grid_cells_primal_infeasible": sum(e.cells_infeasible for _, e in estimates),
        "grid_cells_nonconverged": sum(e.cells_nonconverged for _, e in estimates),
        "grid_cells_pruned": sum(e.cells_pruned for _, e in estimates),
        "grid_cells_reused": sum(e.cells_reused for _, e in estimates),
        "qp_iterations": sum(e.qp_iterations for _, e in estimates),
    }
    return _Run(out_dir, manifest_config, 0, [args.histories], ["estimates.csv"],
                f"{len(estimates)} patients -> {out_dir}", work)


def _cmd_cluster(args) -> _Run:
    ids, rows = storage.read_feature_table(args.params)
    # every k is checked against the table before the first fit runs
    if not 1 <= args.k <= len(rows):
        raise ValueError(f"--k {args.k} must be between 1 and the number of rows ({len(rows)})")
    ks: List[int] = []
    if args.elbow:
        parts = args.elbow.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad --elbow {args.elbow!r}; expected kmin:kmax")
        try:
            k_min, k_max = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad --elbow {args.elbow!r}; expected integers")
        if not (1 <= k_min <= k_max <= len(rows)):
            raise ValueError(f"bad --elbow {args.elbow!r}; need 1 <= kmin <= kmax"
                             f" <= the number of rows ({len(rows)})")
        ks = list(range(k_min, k_max + 1))
    # one fit per k (--k's is the elbow's when the sweep covers it), all
    # from one converted table
    table = clustering.feature_table(rows)
    fits = {k: cluster_params(table, k, seed=args.seed) for k in sorted({args.k, *ks})}
    result = fits[args.k]
    out_dir = _out_dir(args.out)
    outputs = ["centroids.csv", "assignments.csv"]
    storage.write_table(
        os.path.join(out_dir, "centroids.csv"),
        ("cluster",) + clustering.FEATURE_NAMES,
        [(i,) + c for i, c in enumerate(result.centroids)],
    )
    storage.write_table(
        os.path.join(out_dir, "assignments.csv"),
        ("patient_id", "cluster"),
        list(zip(ids, result.assignments)),
    )
    if ks:
        storage.write_table(os.path.join(out_dir, "elbow.csv"), ("k", "inertia"),
                            [(k, fits[k].inertia) for k in ks])
        outputs.append("elbow.csv")
    return _Run(
        out_dir,
        {"params": args.params, "k": args.k,
         "elbow": [ks[0], ks[-1]] if ks else None,
         **_constants(clustering, "MAX_ITERATIONS", "TOLERANCE", "RESTARTS")},
        args.seed, [args.params], outputs,
        f"k={args.k} inertia={result.inertia!r} -> {out_dir}",
        {"lloyd_iterations": sum(f.lloyd_iterations for f in fits.values()),
         "restarts_run": clustering.RESTARTS * len(fits),
         "distance_rows": sum(f.distance_rows for f in fits.values())},
    )


def _cmd_scenario_gen(args) -> _Run:
    spec, inputs = _load_scenario(args)
    sampled = sample_cohort(spec, args.seed)
    out_file = args.out or os.path.join(_out_dir(None), "cohort.csv")
    out_dir = _out_dir(os.path.dirname(out_file) or ".")
    storage.write_cohort_csv(out_file, sampled)
    return _Run(out_dir, {"scenario": storage.scenario_to_dict(spec),
                          "population": spec.population},
                args.seed, inputs, [os.path.basename(out_file)],
                f"{len(sampled)} patients -> {out_file}")


def _representative_pct(pcts: Sequence[float], target: float = 20.0) -> float:
    return min(sorted(set(pcts)), key=lambda p: (abs(p - target), p))


def _share_series(rows: Dict[str, np.ndarray], policy: str, pct: float, population: int,
                  path: str):
    """Per-period screening and enrollment shares, averaged over replications.

    A period that was idle in every replication has no screening share.
    Every replication of the cell must hold each of its periods once.
    """
    at = np.flatnonzero((rows["policy"] == policy) & (rows["capacity_pct"] == pct))
    at = at[np.lexsort((rows["period"][at], rows["replication"][at]))]
    cell = f"{path}: policy {policy} at {_fmt_pct(pct)}% capacity"
    if not len(at):
        raise ValueError(f"{cell} has no rows")
    rep, period = rows["replication"][at], rows["period"][at]
    reps = np.unique(rep).tolist()
    for r in reps:
        if not np.array_equal(period[rep == r], np.unique(period)):
            raise ValueError(f"{cell}: replication {r} does not hold each period of the cell once")

    def table(key):
        return rows[key][at].reshape(len(reps), -1)

    screening, enrollment = period_shares(
        table("screening_visits"), table("visits"), table("enrolled"), population)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-idle periods
        screening = np.nanmean(screening, axis=0)
    periods = [float(t) for t in table("period")[0]]
    return (list(zip(periods, screening.tolist())),
            list(zip(periods, enrollment.mean(axis=0).tolist())))


def _cmd_report(args) -> _Run:
    res_dir = args.results
    manifest = storage.read_manifest(res_dir)
    results_path = os.path.join(res_dir, "results.csv")
    summary_path = os.path.join(res_dir, "summary.csv")
    for p in (results_path, summary_path):
        if not os.path.exists(p):
            raise ValueError(f"{res_dir}: missing {os.path.basename(p)}")
    rows = storage.read_results_csv(results_path)
    summary = storage.read_summary_csv(summary_path)
    if not len(rows["policy"]) or not len(summary["policy"]):
        raise ValueError(f"{res_dir}: results are empty")
    config = manifest.get("config")
    population = config.get("population") if isinstance(config, dict) else None
    if isinstance(population, bool) or not isinstance(population, int) or population < 1:
        raise ValueError(f"{res_dir}: manifest lacks a usable population")
    delta_mgdl = config.get("delta_mgdl", SimulationConfig.delta_mgdl)
    try:  # the check simulate made of the threshold it ran with
        SimulationConfig(delta_mgdl=delta_mgdl)
    except (TypeError, ValueError):
        raise ValueError(f"{os.path.join(res_dir, storage.MANIFEST_NAME)}: config.delta_mgdl"
                         f" must be a finite number above 1 mg/dL, got {delta_mgdl!r}")

    policies = sorted(set(rows["policy"].tolist()))
    pcts = sorted(set(rows["capacity_pct"].tolist()))
    detail_pct = _representative_pct(pcts)

    shares = {p: _share_series(rows, p, detail_pct, population, results_path) for p in policies}
    cap, mean, half = summary["capacity_pct"], summary["ppc_mean"], summary["ppc_ci_halfwidth"]
    in_policy = [(p, summary["policy"] == p) for p in policies]
    ppc_series = {p: list(zip(cap[at].tolist(), mean[at].tolist())) for p, at in in_policy}
    ppc_bands = {p: list(zip(cap[at].tolist(), (mean[at] - half[at]).tolist(),
                             (mean[at] + half[at]).tolist())) for p, at in in_policy}
    at = cap == detail_pct
    for p, of_policy in in_policy:
        if np.count_nonzero(at & of_policy) != 1:
            raise ValueError(f"{summary_path}: policy {p} at {_fmt_pct(detail_pct)}% capacity"
                             " needs exactly one row")
    box_stats = dict(zip(summary["policy"][at].tolist(), zip(*(
        summary[f"final_fbg_p{q}"][at].tolist() for q in (25, 50, 75, 90)))))

    out_dir = _out_dir(args.out or os.path.join(res_dir, "charts"))
    charts.line_chart(
        os.path.join(out_dir, "ppc_vs_capacity.svg"),
        "Patient-periods in control vs capacity (95% CI)",
        "capacity (% of cohort)", "PPC fraction", ppc_series, ppc_bands,
    )
    charts.line_chart(
        os.path.join(out_dir, "screening_share.svg"),
        f"Screening share of visits per period at {_fmt_pct(detail_pct)}% capacity",
        "period", "screening visits / all visits",
        {p: screening for p, (screening, _) in shares.items()},
    )
    charts.line_chart(
        os.path.join(out_dir, "enrollment_share.svg"),
        f"Enrollment share per period at {_fmt_pct(detail_pct)}% capacity",
        "period", "enrolled fraction of cohort",
        {p: enrollment for p, (_, enrollment) in shares.items()},
    )
    charts.box_chart(
        os.path.join(out_dir, "final_fbg.svg"),
        f"Final log-FBG quartiles (p90 whisker) at {_fmt_pct(detail_pct)}% capacity",
        "log-FBG", box_stats,
        reference=(f"in-control threshold ln({_fmt_pct(delta_mgdl)})",
                   math.log(delta_mgdl)),
    )
    outputs = ["ppc_vs_capacity.svg", "screening_share.svg",
               "enrollment_share.svg", "final_fbg.svg"]
    return _Run(out_dir, {"results_dir": res_dir, "detail_capacity_pct": detail_pct},
                0, [results_path, summary_path], outputs, f"{len(outputs)} charts -> {out_dir}")


def _fmt_pct(v: float) -> str:
    return f"{v:g}"


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

@functools.cache  # built once per process: parsing leaves no state on the parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chwplan",
                     description="Simulate and plan community-health-worker"
                                 " visit schedules.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a policy x capacity sweep")
    sim.add_argument("--scenario", required=True,
                     help="builtin scenario name or JSON file")
    sim.add_argument("--policies", required=True,
                     help=f"comma list from: {', '.join(POLICY_KINDS)}")
    pcts = (_fmt_pct(capacity_pct(f)) for f in SimulationConfig.capacity_fractions)
    sim.add_argument("--capacities", help="percent range lo:hi:step or comma list"
                                          f" (default {','.join(pcts)})")
    sim.add_argument("--reps", type=int, default=SimulationConfig.replications)
    sim.add_argument("--seed", type=int, default=SimulationConfig.base_seed)
    sim.add_argument("--horizon", type=int, default=SimulationConfig.horizon)
    sim.add_argument("--population", type=int, default=None,
                     help="override the scenario's population")
    sim.add_argument("--sigma-xi", type=float, default=SimulationConfig.sigma_xi)
    sim.add_argument("--delta-mgdl", type=float, default=SimulationConfig.delta_mgdl,
                     help="in-control FBG threshold in mg/dL")
    sim.add_argument("--out", default=None,
                     help=f"output directory (default ${OUT_DIR_ENV}"
                          f" or {DEFAULT_OUT_DIR})")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="fit patient parameters from"
                                          " visit histories")
    est.add_argument("--histories", required=True,
                     help="CSV: patient_id,period,visited,enrolled,fbg_mgdl")
    est.add_argument("--out", default=None)
    est.add_argument("--sigma-eps", type=float, default=EstimationConfig.sigma_eps)
    est.add_argument("--sigma-xi", type=float, default=EstimationConfig.sigma_xi)
    for name in _GRIDS:
        est.add_argument("--" + name.replace("_", "-"))
    est.set_defaults(func=_cmd_estimate)

    clu = sub.add_parser("cluster", help="k-means over fitted parameters")
    clu.add_argument("--params", required=True,
                     help="CSV with columns " + ",".join(clustering.FEATURE_NAMES))
    clu.add_argument("--k", type=int, required=True)
    clu.add_argument("--elbow", default=None, help="kmin:kmax inertia sweep")
    clu.add_argument("--seed", type=_seed, default=0)
    clu.add_argument("--out", default=None)
    clu.set_defaults(func=_cmd_cluster)

    gen = sub.add_parser("scenario-gen", help="sample a cohort parameter table")
    gen.add_argument("--scenario", required=True)
    gen.add_argument("--population", type=int, default=None)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", default=None, help="output CSV file")
    gen.set_defaults(func=_cmd_scenario_gen)

    rep = sub.add_parser("report", help="render SVG charts from a results"
                                        " directory")
    rep.add_argument("--results", required=True,
                     help="directory written by simulate")
    rep.add_argument("--out", default=None,
                     help="chart directory (default <results>/charts)")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        start = time.perf_counter()
        run = args.func(args)
        storage.write_manifest(run.out_dir, args.command, run.config, run.seed, run.inputs,
                               run.outputs, time.perf_counter() - start, work=run.work)
        print(f"{args.command}: {run.summary}")
        return 0
    except (ValueError, OSError, EstimationFailedError, SamplingError, MemoryError) as exc:
        note = "not enough memory: " if isinstance(exc, MemoryError) else ""
        print(f"chwplan {args.command}: error: {note}{exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # noqa: BLE001 - contract: bugs exit 2
        print(f"chwplan {args.command}: internal error:"
              f" {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
