"""The benchmark's workloads: their inputs, their CLI commands, and the
checks on what those commands write.

Every input is derived from the benchmark's one seed argument; the program
receives only generated files and the derived ``--seed`` values.

Why these workloads (shares measured by the traced run, see README.md):

- ``sim``: two ``simulate`` commands and a ``report``. The first
  (scenario3, the value-to-go rankings at tight capacity) has an interest
  set larger than C every period, so ``policy.rollout_single`` runs for
  every member and dominates it. The second (scenario1, only rankings
  without rollouts, 20 capacities) is dominated by the engine's
  per-patient step loop, then ``select_visits``; it writes and re-reads
  the largest ``results.csv`` (7,200 rows) and ``report`` renders the
  charts from it. Estimation and the QP never run.
- ``fit``: the only workload that runs ``estimation`` and ``qp``; no
  simulation runs. The k-means step (``cluster``) is under 2% of it, so no
  end-to-end gain may be claimed for a clustering change from this
  workload.

The two simulate commands share one workload rather than having one each
because, on a shared machine whose speed drifts in phases of tens of
seconds, a run has to last about a minute to average those phases out, and
the benchmark's total time allows minute-long runs for two workloads.
"""

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

DEFAULT_SEED = 0

# Sized so each simulate command takes about 4 s on a 2-core box and a run
# repeats the workload several times. Population 126 is a third of the
# paper's 378; capacities are percentages, so the per-period budget C
# scales with it.
SIM_POPULATION = 126
HORIZON = 60


@dataclass(frozen=True)
class SimPart:
    """One simulate command of the sim workload."""

    scenario: str
    policies: Tuple[str, ...]
    capacities: str
    with_report: bool

    def capacity_pcts(self) -> List[float]:
        if ":" in self.capacities:
            lo, hi, step = (float(x) for x in self.capacities.split(":"))
            return [lo + k * step for k in range(int(round((hi - lo) / step)) + 1)]
        return [float(x) for x in self.capacities.split(",")]

    def cells(self) -> int:
        return len(self.policies) * len(self.capacity_pcts())


SIM_PARTS: Dict[str, SimPart] = {
    "rollout": SimPart(
        "scenario3", ("ea_desc_vtg", "ea_desc_vtg_per_visit"), "5,10,15,20",
        with_report=False),
    "sweep": SimPart(
        "scenario1", ("visit_no_one", "visit_everyone", "asc_fbg", "desc_fbg",
                      "ea_asc_fbg", "ea_desc_fbg"), "5:100:5",
        with_report=True),
}
WORKLOAD_NAMES = ("sim", "fit")

# fit: a planted patient sitting exactly on the default grid cell
# (s_base=0, beta=1, gamma=0.2, rho=0.2) with the visit plan of the
# estimator's own recovery tests: an 8-period cycle of three visits, a
# dropout, a re-recruiting visit and three quiet periods. Its 400 cells take
# a median of ~120 ADMM iterations and a maximum of ~3,700. The seed drives
# only the observation and process noise, so the solver work barely depends
# on it. One patient keeps an iteration near 7 s, so a run repeats it
# several times; a second visit plan (a 6-period cycle) would double that.
PLANTED_PARAMS = dict(p=1.0, mu=0.22, alpha=1.2, beta=1.0, lam=0.02,
                      gamma=0.2, rho=0.2, s_base=0.0, theta_base=1.0)
PLANTED_CELL = (0.0, 1.0, 0.2, 0.2)
PLANTED_B0 = 2.0
PLANTED_NOISE = 0.01
VISIT_PLANS = (
    ("cycle8", tuple(t for t in range(HORIZON) if t % 8 in (0, 1, 2, 4))),
)
DEFAULT_GRID = ((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0),
                (0.2, 0.5, 0.8, 0.9, 0.99), (0.2, 0.5, 0.8, 0.9, 0.99))
GRID_CELLS = 4 * 4 * 5 * 5
PARAM_UPPER_BOUND = 20.0
# estimate's default EstimationConfig.qp_tolerance. Fitted values may move
# by solver slack when the ADMM changes, so they are pinned to within
# FIT_TOLERANCE (absolute, and relative for nll) rather than bit for bit.
QP_TOLERANCE = 1e-6
FIT_TOLERANCE = 100 * QP_TOLERANCE
CLUSTER_K = 4
ELBOW = (1, 8)
COHORT_ROWS = 378

# Outputs at DEFAULT_SEED. Simulation and clustering outputs are pinned
# byte for byte; estimates by grid cell exactly and values to FIT_TOLERANCE.
PINNED_SIM_DIGESTS: Dict[str, Dict[str, str]] = {
    "rollout": {
        "results.csv": "2e47a2634ca9ae0335a363590ee36e11442ca1e0426562050b238cf18211a36a",
        "summary.csv": "d6cd70973aa3fb9c7f13a70da9835ad72eb32e14402047979a3de8b5bffee4df",
    },
    "sweep": {
        "results.csv": "c7897e897182966dc5b99a41c3962ddac15e3a47fba2ff6fa5a4d78f805a497b",
        "summary.csv": "ae4a837127e7d445da41b553e98055565ea1f89af60c3b27f02ec7f9e74f747f",
    },
}
ESTIMATE_FIELDS = ("nll", "p", "mu", "alpha", "theta_base", "lam")
PINNED_ESTIMATES: Dict[str, Dict[str, object]] = {
    "cycle8": {"grid_cell": [0.0, 1.0, 0.2, 0.2], "nll": 0.2810497619668667,
               "p": 0.9890912724713796, "mu": 0.20855430574130615,
               "alpha": 1.2019667720372134, "theta_base": 0.9058135802498157,
               "lam": 0.006954429940051874},
}
PINNED_ASSIGNMENTS_SHA256 = "a19c4fc55207788e5e7904cf465bde6422d619fbc4f8951c2b56fff1e92ccda9"


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one input stream, from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# setup: the generated inputs
# ---------------------------------------------------------------------------

def build_inputs(workload: str, seed: int, directory: str) -> None:
    """Write the workload's input files into directory."""
    import contextlib
    import io

    from chwplan import cli, storage
    os.makedirs(directory, exist_ok=True)
    if workload == "sim":
        for name, part in SIM_PARTS.items():
            spec, _ = storage.load_scenario(part.scenario)
            spec = replace(spec, population=SIM_POPULATION)
            with open(os.path.join(directory, f"scenario_{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(storage.scenario_to_dict(spec), fh, indent=2)
                fh.write("\n")
        return

    from _synthetic import generate_history
    from chwplan.model import PatientParams
    params = PatientParams(**PLANTED_PARAMS)
    with open(os.path.join(directory, "histories.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("patient_id", "period", "visited", "enrolled", "fbg_mgdl"))
        for name, plan in VISIT_PLANS:
            history, _ = generate_history(
                params, PLANTED_B0, plan, HORIZON,
                sigma_eps=PLANTED_NOISE, sigma_xi=PLANTED_NOISE,
                seed=derive_seed(seed, f"history/{name}"), patient_id=name)
            observed = history.observed_map
            for t in range(HORIZON):
                writer.writerow((name, t, history.visited[t], history.enrolled[t],
                                 repr(math.exp(observed[t]))))
    argv = ["scenario-gen", "--scenario", "nanohealth-like",
            "--seed", str(derive_seed(seed, "cohort")),
            "--out", os.path.join(directory, "cohort.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"scenario-gen exited {code}")


# ---------------------------------------------------------------------------
# the timed commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    ops: int          # result cells, estimated patients, or 1 per command
    units: int        # work units the throughput counts: patient-periods of a
                      # simulate, patient grid cells of an estimate, else 0
    out: str          # directory the command writes
    part: str = ""    # the SIM_PARTS entry a simulate command runs


def commands(workload: str, seed: int, inputs: str, work: str) -> List[Command]:
    if workload == "sim":
        cmds = []
        for name, part in SIM_PARTS.items():
            sim_out = os.path.join(work, f"simulate_{name}")
            cmds.append(Command(
                ("simulate", "--scenario", os.path.join(inputs, f"scenario_{name}.json"),
                 "--policies", ",".join(part.policies),
                 "--capacities", part.capacities, "--reps", "1",
                 "--horizon", str(HORIZON),
                 "--seed", str(derive_seed(seed, "simulate")),
                 "--out", sim_out),
                part.cells(), part.cells() * SIM_POPULATION * HORIZON, sim_out, name))
            if part.with_report:
                chart_out = os.path.join(work, f"charts_{name}")
                cmds.append(Command(("report", "--results", sim_out, "--out", chart_out),
                                    1, 0, chart_out))
        return cmds
    est_out = os.path.join(work, "estimate")
    clu_out = os.path.join(work, "cluster")
    return [
        Command(("estimate", "--histories", os.path.join(inputs, "histories.csv"),
                 "--out", est_out), len(VISIT_PLANS), len(VISIT_PLANS) * GRID_CELLS,
                est_out),
        Command(("cluster", "--params", os.path.join(inputs, "cohort.csv"),
                 "--k", str(CLUSTER_K), "--elbow", f"{ELBOW[0]}:{ELBOW[1]}",
                 "--seed", str(derive_seed(seed, "kmeans")), "--out", clu_out),
                1, 0, clu_out),
    ]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class Check:
    """Outcome of checking one command's outputs."""

    failed_ops: int
    errors: List[str]
    fingerprint: Dict[str, str]   # must repeat exactly across iterations


def _read_rows(path: str, header: Sequence[str]) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != list(header):
        raise ValueError(f"{os.path.basename(path)}: unexpected header {rows[:1]}")
    return rows[1:]


def check_simulate(part: str, out: str, seed: int) -> Check:
    """results.csv/summary.csv: invariants, cross-consistency and digests."""
    w = SIM_PARTS[part]
    errors: List[str] = []
    fingerprint: Dict[str, str] = {}
    try:
        results = _read_rows(os.path.join(out, "results.csv"), (
            "policy", "capacity_pct", "replication", "period", "in_control",
            "enrolled", "visits", "screening_visits"))
        summary = _read_rows(os.path.join(out, "summary.csv"), (
            "policy", "capacity_pct", "ppc_mean", "ppc_ci_halfwidth",
            "final_fbg_p25", "final_fbg_p50", "final_fbg_p75", "final_fbg_p90"))
        for name in ("results.csv", "summary.csv"):
            fingerprint[name] = sha256_file(os.path.join(out, name))
    except (OSError, ValueError) as exc:
        return Check(w.cells(), [f"simulate {part}: {exc}"], fingerprint)

    n, pcts = SIM_POPULATION, w.capacity_pcts()
    if len(results) != w.cells() * HORIZON:
        errors.append(f"{part} results.csv has {len(results)} rows,"
                      f" expected {w.cells() * HORIZON}")
    in_control: Dict[Tuple[str, float], int] = {}
    for row in results:
        policy, pct = row[0], float(row[1])
        period, n_in, n_enr, visits, screening = (int(v) for v in row[3:])
        cap = math.floor(pct / 100.0 * n + 0.5)
        limit = {"visit_no_one": 0, "visit_everyone": n}.get(policy, cap)
        if (policy not in w.policies or pct not in pcts or not 1 <= period <= HORIZON
                or not 0 <= n_in <= n or not 0 <= n_enr <= n
                or not 0 <= screening <= visits <= limit
                or (policy == "visit_everyone" and visits != n)):
            errors.append(f"{part} results.csv: impossible row {row}")
            break
        in_control[(policy, pct)] = in_control.get((policy, pct), 0) + n_in
    if len(summary) != w.cells():
        errors.append(f"{part} summary.csv has {len(summary)} rows, expected {w.cells()}")
    for row in summary:
        key = (row[0], float(row[1]))
        ppc, half, *quartiles = (float(v) for v in row[2:])
        if key not in in_control or ppc != in_control[key] / (n * HORIZON):
            errors.append(f"{part} summary.csv: ppc_mean {row[2]} for {key} disagrees"
                          " with results.csv")
            break
        if half != 0.0 or quartiles != sorted(quartiles):
            errors.append(f"{part} summary.csv: bad ci/quartiles in row {row}")
            break

    pins = PINNED_SIM_DIGESTS[part]
    if seed == DEFAULT_SEED:
        for name, digest in fingerprint.items():
            if digest != pins[name]:
                errors.append(f"{part} {name} sha256 {digest} differs from the pinned"
                              f" {pins[name] or '(none)'}")
    return Check(w.cells() if errors else 0, errors,
                 {f"{part}/{name}": digest for name, digest in fingerprint.items()})


def check_report(out: str) -> Check:
    names = ("ppc_vs_capacity.svg", "screening_share.svg",
             "enrollment_share.svg", "final_fbg.svg")
    errors = []
    for name in names:
        try:
            root = ElementTree.parse(os.path.join(out, name)).getroot()
        except (OSError, ElementTree.ParseError) as exc:
            errors.append(f"report: {name}: {exc}")
            continue
        if not root.tag.endswith("svg") or len(root) == 0:
            errors.append(f"report: {name} is not a nonempty SVG document")
    return Check(1 if errors else 0, errors, {})


def read_estimates(out: str) -> Dict[str, Dict[str, float]]:
    rows = _read_rows(os.path.join(out, "estimates.csv"), (
        "patient_id", "nll", "p", "mu", "alpha", "theta_base", "lam",
        "s_base", "beta", "gamma", "rho"))
    fields = ("nll", "p", "mu", "alpha", "theta_base", "lam",
              "s_base", "beta", "gamma", "rho")
    return {row[0]: dict(zip(fields, map(float, row[1:]))) for row in rows}


def check_estimate(out: str, seed: int) -> Check:
    """Per patient: a grid cell and in-range values; pins at the default seed."""
    try:
        estimates = read_estimates(out)
        fingerprint = {"estimates.csv": sha256_file(os.path.join(out, "estimates.csv"))}
    except (OSError, ValueError) as exc:
        return Check(len(VISIT_PLANS), [f"estimate: {exc}"], {})
    errors, failed = [], 0
    for name, _ in VISIT_PLANS:
        est = estimates.get(name)
        problems = []
        if est is None:
            problems.append("missing")
        else:
            cell = (est["s_base"], est["beta"], est["gamma"], est["rho"])
            if any(v not in grid for v, grid in zip(cell, DEFAULT_GRID)):
                problems.append(f"cell {cell} is not on the grid")
            if not (math.isfinite(est["nll"]) and est["nll"] >= 0.0):
                problems.append(f"nll {est['nll']}")
            if not all(0.0 <= est[f] <= PARAM_UPPER_BOUND for f in ESTIMATE_FIELDS[1:]):
                problems.append("a parameter outside [0, upper bound]")
            pin = PINNED_ESTIMATES.get(name)
            if seed == DEFAULT_SEED and pin is None:
                problems.append("no pinned estimate")
            elif seed == DEFAULT_SEED:
                if cell != tuple(pin["grid_cell"]):
                    problems.append(f"cell {cell} differs from the pinned {pin['grid_cell']}")
                for f in ESTIMATE_FIELDS:
                    scale = 1.0 + abs(pin[f]) if f == "nll" else 1.0
                    if abs(est[f] - pin[f]) > FIT_TOLERANCE * scale:
                        problems.append(f"{f} {est[f]!r} differs from the pinned"
                                        f" {pin[f]!r} by more than {FIT_TOLERANCE:g}")
        if problems:
            failed += 1
            errors.extend(f"estimate {name}: {p}" for p in problems)
    return Check(failed, errors, fingerprint)


def planted_cell_recovered(out: str) -> Dict[str, bool]:
    estimates = read_estimates(out)
    return {name: (est["s_base"], est["beta"], est["gamma"], est["rho"]) == PLANTED_CELL
            for name, est in estimates.items()}


def check_cluster(out: str, seed: int) -> Check:
    errors: List[str] = []
    fingerprint: Dict[str, str] = {}
    try:
        assignments = _read_rows(os.path.join(out, "assignments.csv"),
                                 ("patient_id", "cluster"))
        elbow = _read_rows(os.path.join(out, "elbow.csv"), ("k", "inertia"))
        fingerprint["assignments.csv"] = sha256_file(os.path.join(out, "assignments.csv"))
    except (OSError, ValueError) as exc:
        return Check(1, [f"cluster: {exc}"], fingerprint)
    if (len(assignments) != COHORT_ROWS
            or {int(c) for _, c in assignments} != set(range(CLUSTER_K))):
        errors.append("cluster: assignments.csv is not a 4-way partition of the cohort")
    inertias = [float(v) for _, v in elbow]
    if ([int(k) for k, _ in elbow] != list(range(ELBOW[0], ELBOW[1] + 1))
            or not all(math.isfinite(v) and v >= 0.0 for v in inertias)):
        errors.append("cluster: elbow.csv rows are not k=1..8 with finite inertia")
    if seed == DEFAULT_SEED and fingerprint["assignments.csv"] != PINNED_ASSIGNMENTS_SHA256:
        errors.append(f"assignments.csv sha256 {fingerprint['assignments.csv']}"
                      f" differs from the pinned {PINNED_ASSIGNMENTS_SHA256 or '(none)'}")
    return Check(1 if errors else 0, errors, fingerprint)


def check_command(command: Command, seed: int) -> Check:
    kind = command.argv[0]
    if kind == "simulate":
        return check_simulate(command.part, command.out, seed)
    if kind == "report":
        return check_report(command.out)
    if kind == "estimate":
        return check_estimate(command.out, seed)
    return check_cluster(command.out, seed)


def estimate_pins(out: str) -> Dict[str, Dict[str, object]]:
    """The PINNED_ESTIMATES entries for a run's estimates.csv."""
    return {name: {"grid_cell": [est["s_base"], est["beta"], est["gamma"], est["rho"]],
                   **{f: est[f] for f in ESTIMATE_FIELDS}}
            for name, est in read_estimates(out).items()}
