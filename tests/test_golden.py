"""Golden digests of CLI `simulate`, `estimate` and `cluster` outputs.

A small but complete sweep (all eight policies, two builtin scenarios,
three capacities, two replications, default process noise) is pinned byte
for byte. Any change to the dynamics, the policies, the engine or the
writers that alters a single result shows up here. The smallest capacity
is tight enough that the interest set exceeds C, so the rankings (and the
value-to-go rollouts) decide who is visited.
"""

import csv
import hashlib
import json
import math

import pytest

from chwplan import cli
from chwplan.model import PatientParams

from _synthetic import generate_history

POLICIES = ("visit_no_one,visit_everyone,asc_fbg,desc_fbg,"
            "ea_asc_fbg,ea_desc_fbg,ea_desc_vtg,ea_desc_vtg_per_visit")

GOLDEN = {
    "scenario3": {
        "results.csv": "9a7f3e463ac1aa67242e9747f1e13d5c097f1b0f1c4bc04fbb9e8d40f1588f0d",
        "summary.csv": "f18cf301be219a4d8a76bf131aaf58750b9e6950fad049cd1f44e35a34831594",
    },
    "scenario1": {
        "results.csv": "adf176d042f15b156430607831c6e99a4d3e4f03f27ce8ad56d50d00e17c369e",
        "summary.csv": "cfb5e0f471b0362c54c5eb4b23642589d18d78f9ef8b20d36b250f5a4a077d11",
    },
}


# The manifest's work counts for the same runs: the selection and rollout
# work, and the row-periods of the sweep against those it decided and
# stepped itself (the rest repeat an earlier row's decision in an equal state)
GOLDEN_WORK = {
    "scenario3": {"interest_set_members": 7200, "members_ranked_by_rollout": 2400,
                  "rollout_member_steps": 25200, "rollout_steps_run": 7820,
                  "rollouts_run": 752, "row_periods": 960, "row_periods_stepped": 680},
    "scenario1": {"interest_set_members": 8640, "members_ranked_by_rollout": 2880,
                  "rollout_member_steps": 30240, "rollout_steps_run": 9080,
                  "rollouts_run": 872, "row_periods": 960, "row_periods_stepped": 680},
}


def _cell_rows(path, policy, pct):
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[2:] for row in csv.reader(fh)
                if row[0] == policy and row[1] == pct]


@pytest.mark.filterwarnings("ignore:group D")
@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(scenario, tmp_path):
    out = tmp_path / scenario
    code = cli.main([
        "simulate", "--scenario", scenario, "--policies", POLICIES,
        "--capacities", "5,20,60", "--reps", "2", "--horizon", "20",
        "--population", "30", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    # the tight capacity really is tight: value-to-go ranking picks a
    # different visit set than FBG ranking
    results = str(out / "results.csv")
    assert (_cell_rows(results, "ea_desc_vtg", "5.0")
            != _cell_rows(results, "ea_desc_fbg", "5.0"))
    for name, digest in GOLDEN[scenario].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, f"{scenario} {name}"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["work"] == GOLDEN_WORK[scenario]


# A 20-period noisy history fitted on the default 400-cell grid, and a
# 40-patient scenario3 cohort clustered with k=3 and an elbow over 1..4.
# Neither command runs a policy, so these pin the estimator, k-means and
# their writers.
ESTIMATE_GOLDEN = {
    "estimates.csv": "bf077885fff768f15363178aa54be79493edd2829881c13eb2a347f6d8f62ab1",
}
CLUSTER_GOLDEN = {
    "centroids.csv": "c4e39ae11224091d3f7d721b6651e3e022233c7aedcc68e22fa04d8402b752a2",
    "assignments.csv": "c1d90bd192ae3b35fd855cc0aab989ec3f2bdf08e00a4a9e3947ce3b4801f25b",
    "elbow.csv": "613489fd4c9862b4733084453a66eb5fc2017f357ba4194c93c534dc0e9bb3e1",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def test_estimate_output_matches_golden_digest(tmp_path):
    params = PatientParams(p=1.0, mu=0.22, alpha=1.2, beta=1.0, lam=0.02,
                           gamma=0.2, rho=0.2, s_base=0.0, theta_base=1.0)
    visits = tuple(t for k in range(3) for t in (8 * k, 8 * k + 1, 8 * k + 2, 8 * k + 4))
    hist, _ = generate_history(params, 2.0, visits, 20, sigma_eps=0.01,
                               sigma_xi=0.01, seed=6)
    obs = hist.observed_map
    path = tmp_path / "histories.csv"
    path.write_text("patient_id,period,visited,enrolled,fbg_mgdl\n" + "".join(
        f"demo,{t},{hist.visited[t]},{hist.enrolled[t]},{math.exp(obs[t])!r}\n"
        for t in range(20)))
    out = tmp_path / "est"
    assert cli.main(["estimate", "--histories", str(path), "--out", str(out)]) == 0
    assert _digests(out, ESTIMATE_GOLDEN) == ESTIMATE_GOLDEN


# Two 60-period scenario1 records (seed 2, patients 0 and 29) driven by
# step_cohort with a visit probability of 0.25 per period, process noise
# sd 0.05, and FBG read at visits with log noise sd 0.1. Neither patient
# enrolls. One runs the whole 400-cell grid; in both, many cells share
# their constraints, so later cells reuse an earlier cell's QP.
FULL_GRID_RECORDS = {
    "p0000": ("000000000000000010000000000000000000100000110000101000000100",
              (1215.1646584172051, 18585.159337853125, 30268.840432744844,
               47751.83202314685, 73102.70054485524, 112460.9300568427,
               258229.64008867342)),
    "p0029": ("100000000000001000000000000000010010000000010111000000000010",
              (203.11648811525268, 211416820.2397133, 1653377803005146.8,
               3.0727538755954104e+16, 1.7516562304253565e+20,
               1.3575108753924455e+21, 3.2132508357629365e+21,
               7.719537844642935e+21, 2.6522461363047554e+26)),
}
FULL_GRID_GOLDEN = {
    "estimates.csv": "9dad20045d95ea4adfa5ba051de2fca3149f037e29e48621c03e28e69cb5d2e8",
}
FULL_GRID_WORK = {
    "grid_cells_solved": 506,
    "grid_cells_primal_infeasible": 0,
    "grid_cells_nonconverged": 0,
    "grid_cells_pruned": 294,
    "grid_cells_reused": 440,
    "qp_iterations": 3636,
}


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
def test_estimate_full_grid_with_reuse_matches_golden(tmp_path):
    rows = []
    for pid, (visited, readings) in FULL_GRID_RECORDS.items():
        fbg = iter(readings)
        rows += [f"{pid},{t},{v},0,{repr(next(fbg)) if v == '1' else ''}\n"
                 for t, v in enumerate(visited)]
    path = tmp_path / "histories.csv"
    path.write_text("patient_id,period,visited,enrolled,fbg_mgdl\n" + "".join(rows))
    out = tmp_path / "est"
    assert cli.main(["estimate", "--histories", str(path), "--out", str(out)]) == 0
    assert _digests(out, FULL_GRID_GOLDEN) == FULL_GRID_GOLDEN
    assert json.loads((out / "manifest.json").read_text())["work"] == FULL_GRID_WORK


def test_cluster_outputs_match_golden_digests(tmp_path):
    cohort = tmp_path / "cohort.csv"
    assert cli.main(["scenario-gen", "--scenario", "scenario3", "--population", "40",
                     "--seed", "1", "--out", str(cohort)]) == 0
    out = tmp_path / "clu"
    assert cli.main(["cluster", "--params", str(cohort), "--k", "3", "--elbow", "1:4",
                     "--seed", "0", "--out", str(out)]) == 0
    assert _digests(out, CLUSTER_GOLDEN) == CLUSTER_GOLDEN
