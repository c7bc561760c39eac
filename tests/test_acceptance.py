"""Desk-scale acceptance battery: one test per headline guarantee.

Each test pins a user-facing promise end to end — the single-patient
visit rule is exactly optimal on archetype-box instances, enrollment
never lowers the attainable value, planning inside the interest set is
lossless, the enroll/visit trichotomy is exhaustive, the state
recurrences reproduce their hand-derived series, the estimator and the
clusterer recover planted structure, the enrollment-aware planner beats
FBG ranking under tight capacity while keeping late screening low and
enrollment in band, and CLI runs are byte-deterministic.

Tests declare their own runtime budgets so a regression that trades
correctness for blowup is caught here rather than in production.
"""

import dataclasses
import functools
import json
import math
import time

import numpy as np
import pytest

import chwplan.cli as cli_mod
from chwplan.clustering import cluster_params, elbow_curve
from chwplan.engine import (
    Cohort,
    SimulationConfig,
    capacity_sweep,
    period_shares,
)
from chwplan.estimation import EstimationConfig, estimate_patient
from chwplan.model import (
    PatientParams,
    PatientState,
    benefit,
    enroll_decision,
    step_adverse,
    step_patient,
    step_perception,
)
from chwplan.policy import PolicySpec, single_patient_action
from chwplan.scenarios import builtin_groups, builtin_scenarios, sample_cohort

from _oracle import brute_force_plan
from _synthetic import generate_history

DELTA = math.log(125.0)

# ---------------------------------------------------------------------------
# random single-patient instances for the oracle comparisons
#
# Instances live in +/-10% boxes around the five built-in archetypes
# (gamma = rho = 0.2 as shipped). Inside these boxes the shipped visit
# rule is exactly optimal; far outside them there are corners (benefit
# nonnegative either way but alpha < theta*beta) where an "indifferent"
# visit can still flip the in-control indicator, so the boxes are part
# of the guarantee being pinned, not a convenience.
# ---------------------------------------------------------------------------

#                  p      mu     alpha  theta0 lam    s0     beta
ARCHETYPE_BOXES = {
    "A": (0.05, 0.025, 0.1, 0.7, 0.5, 1.0, 0.3),
    "B": (5.0, 4.0, 2.0, 0.7, 0.5, 0.2, 1.5),
    "C": (5.0, 2.0, 4.0, 0.7, 0.5, 0.2, 1.5),
    "D": (7.5, 4.0, 2.0, 0.7, 0.5, 0.2, 1.5),
    "E": (0.05, 0.025, 0.35, 2.0, 1.5, 0.2, 1.5),
}
PARAM_ORDER = ("p", "mu", "alpha", "theta_base", "lam", "s_base", "beta")


def draw_instance(rng):
    """One patient near a random archetype, in a reachable state.

    Parameters are uniform within 10% of the archetype's values; the
    state is drawn from the set the dynamics can actually visit: no
    adversity unless enrolled, perception between its baseline and the
    repeated-visit floor, and FBG between 90 and 350 mg/dL.
    """
    names = sorted(ARCHETYPE_BOXES)
    center = ARCHETYPE_BOXES[names[int(rng.integers(len(names)))]]
    fields = {nm: float(rng.uniform(0.9 * v, 1.1 * v))
              for nm, v in zip(PARAM_ORDER, center)}
    params = PatientParams(gamma=0.2, rho=0.2, **fields)
    z_prev = int(rng.integers(0, 2))
    s = float(rng.uniform(0.0, params.s_base + params.beta)) if z_prev else 0.0
    theta_floor = max(0.0, params.theta_base - params.lam / (1.0 - params.rho))
    theta = float(rng.uniform(theta_floor, params.theta_base))
    b = math.log(float(rng.uniform(90.0, 350.0)))
    return params, PatientState(b=b, s=s, theta=theta, z_prev=z_prev)


def rule_value(params, state, horizon):
    """In-control periods collected by following the shipped visit rule."""
    value = 0
    for _ in range(horizon):
        y = single_patient_action(state, params)
        state, _ = step_patient(state, params, y, xi=0.0)
        value += state.b <= DELTA
    return value


def test_criterion_01_visit_rule_matches_exhaustive_optimum():
    started = time.perf_counter()
    assert {g.name: g.centroid for g in builtin_groups()} == ARCHETYPE_BOXES
    rng = np.random.default_rng(0)
    mismatches = []
    for i in range(200):
        params, state = draw_instance(rng)
        horizon = int(rng.integers(1, 13))
        best, _ = brute_force_plan(
            Cohort((params,), (state,)), C=1, N=horizon, delta=DELTA
        )
        got = rule_value(params, state, horizon)
        if got != best:
            mismatches.append((i, horizon, got, best, params, state))
    elapsed = time.perf_counter() - started
    assert not mismatches, (
        f"{len(mismatches)} of 200 instances fell short of the exhaustive"
        f" optimum; first: {mismatches[0]}"
    )
    assert elapsed <= 30.0, f"oracle comparison took {elapsed:.1f}s"
    print(f"criterion 01: 200/200 instances optimal in {elapsed:.1f}s")


def test_criterion_02_starting_enrolled_never_lowers_the_optimum():
    rng = np.random.default_rng(0)
    violations = []
    for i in range(200):
        params, state = draw_instance(rng)
        horizon = int(rng.integers(1, 9))
        values = {}
        for z_prev in (1, 0):
            start = dataclasses.replace(state, z_prev=z_prev)
            values[z_prev], _ = brute_force_plan(
                Cohort((params,), (start,)), C=1, N=horizon, delta=DELTA
            )
        if values[1] < values[0]:
            violations.append((i, horizon, values, params, state))
    assert not violations, (
        f"enrollment hurt the optimum on {len(violations)} of 200 instances;"
        f" first: {violations[0]}"
    )
    print("criterion 02: 200/200 instances monotone in prior enrollment")


def test_criterion_03_interest_set_restriction_is_lossless():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    diffs = []
    for i in range(100):
        population = int(rng.integers(1, 4))
        drawn = [draw_instance(rng) for _ in range(population)]
        cohort = Cohort(tuple(p for p, _ in drawn), tuple(s for _, s in drawn))
        horizon = int(rng.integers(1, 6))
        full, _ = brute_force_plan(cohort, C=1, N=horizon, delta=DELTA)
        restricted, _ = brute_force_plan(
            cohort, C=1, N=horizon, delta=DELTA, interest_only=True
        )
        if full != restricted:
            diffs.append((i, population, horizon, full, restricted))
    elapsed = time.perf_counter() - started
    assert not diffs, (
        f"restricting to the interest set lost value on {len(diffs)} of 100"
        f" instances; first: {diffs[0]}"
    )
    assert elapsed <= 60.0, f"restriction comparison took {elapsed:.1f}s"
    print(f"criterion 03: 100/100 restricted optima equal in {elapsed:.1f}s")


def test_criterion_04_enroll_and_visit_trichotomy_is_exhaustive():
    # Sweep every sign combination of (benefit unvisited, benefit visited,
    # improvement) across both prior-enrollment states, through parameters
    # that hit the targets exactly: with theta=1 and s=s_base the decayed
    # adversity equals s_base, so B(0)=mu-s_base and B(1)-B(0)=alpha-beta.
    started = time.perf_counter()
    levels = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
    for target0, target1, z_prev in (
        (a, b, z) for a in levels for b in levels for z in (0, 1)
    ):
        prm = PatientParams(
            p=0.01, mu=target0 + 1.0, alpha=3.0 + (target1 - target0),
            beta=3.0, lam=0.5, gamma=0.2, rho=0.2, s_base=1.0,
            theta_base=1.0,
        )
        state = PatientState(b=5.0, s=1.0, theta=1.0, z_prev=z_prev)
        b0, b1 = benefit(state, prm, 0), benefit(state, prm, 1)
        assert b0 == pytest.approx(target0, abs=1e-12)
        assert b1 == pytest.approx(target1, abs=1e-12)

        must_visit = (z_prev == 0 and b1 >= 0) or (
            z_prev == 1 and b0 < 0 and b1 >= 0
        )
        must_not = z_prev == 1 and b0 >= 0 and b1 < 0
        indifferent = (
            (z_prev == 1 and b0 < 0 and b1 < 0)
            or (z_prev == 1 and b0 >= 0 and b1 >= 0)
            or (z_prev == 0 and b1 < 0)
        )
        assert [must_visit, must_not, indifferent].count(True) == 1

        action = single_patient_action(state, prm)
        if must_visit:
            assert action == 1
        elif must_not:
            assert action == 0
        else:
            # indifferent cases spend the visit only on a strict
            # improvement for an already-enrolled patient
            assert action == (
                1 if (z_prev == 1 and b0 >= 0 and b1 >= 0 and b1 > b0) else 0
            )

        # the enrollment the model realizes agrees with the benefit signs
        for y in (0, 1):
            by = benefit(state, prm, y)
            assert enroll_decision(z_prev, y, by) == (
                1 if ((z_prev or y) and by >= 0) else 0
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"
    print(f"criterion 04: 72 sign/branch combinations consistent"
          f" in {elapsed * 1000:.0f}ms")


def test_criterion_05_state_recurrences_match_hand_derived_series():
    # An enrolled patient visited once at t=0 and then left alone. Both
    # series were unrolled by hand: adversity spikes by beta then decays
    # geometrically back toward its baseline at rate gamma; perception
    # dips by lam then recovers toward its baseline at rate rho.
    prm = PatientParams(p=1.0, mu=1.0, alpha=1.0, beta=0.5, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=0.5, theta_base=0.5)
    adversity = [0.5]
    perception = [0.5]
    for t in range(6):
        y = 1 if t == 0 else 0
        adversity.append(step_adverse(adversity[-1], prm, y, z=1))
        perception.append(step_perception(perception[-1], prm, y, z=1))
    assert adversity == pytest.approx(
        (0.5, 1.0, 0.6, 0.52, 0.504, 0.5008, 0.50016), abs=1e-12
    )
    assert perception == pytest.approx(
        (0.5, 0.0, 0.4, 0.48, 0.496, 0.4992, 0.49984), abs=1e-12
    )
    print("criterion 05: both recurrence series exact to 1e-12")


def test_criterion_06_estimator_recovers_planted_patient():
    # Planted truth sits exactly on a default-grid cell. The visit plan
    # cycles every 8 periods (three visits, a dropout, a re-recruiting
    # visit, three quiet periods), which keeps mu, p, and alpha all
    # identified. Noise at sigma=0.01 is small but nonzero.
    started = time.perf_counter()
    true_params = PatientParams(p=1.0, mu=0.22, alpha=1.2, beta=1.0,
                                lam=0.02, gamma=0.2, rho=0.2, s_base=0.0,
                                theta_base=1.0)
    visits = [t for t in range(60) if t % 8 in (0, 1, 2, 4)]
    history, _ = generate_history(
        true_params, b0=2.0, visit_periods=visits, horizon=60,
        sigma_eps=0.01, sigma_xi=0.01, seed=6,
    )
    config = EstimationConfig(sigma_eps=0.01, sigma_xi=0.01)
    cells = (len(config.grid_s_base) * len(config.grid_beta)
             * len(config.grid_gamma) * len(config.grid_rho))
    assert cells == 400
    estimate = estimate_patient(history, config)
    elapsed = time.perf_counter() - started

    assert estimate.grid_cell == (0.0, 1.0, 0.2, 0.2)
    for name in ("p", "mu", "alpha"):
        got = getattr(estimate.params, name)
        want = getattr(true_params, name)
        rel = abs(got - want) / want
        assert rel <= 0.05, f"{name}: {got} vs {want} ({rel:.2%} off)"
    assert elapsed <= 120.0, f"grid search took {elapsed:.1f}s"
    print(f"criterion 06: true cell + (p, mu, alpha) within 5%"
          f" over {cells} cells in {elapsed:.1f}s")


def test_criterion_07_clustering_recovers_archetypes_and_elbow():
    # Four tight blobs planted at the fitted-cohort cluster rows.
    archetypes = (
        (0.091, 0.006, 0.109, 0.001, 0.0, 0.072, 0.0),
        (6.994, 6.899, 0.125, 0.0, 0.0, 0.0, 0.011),
        (0.039, 0.009, 0.050, 0.002, 0.001, 0.060, 1.040),
        (6.990, 0.011, 6.997, 0.0, 0.0, 0.0, 0.0),
    )
    rng = np.random.default_rng(99)
    table = []
    for center in archetypes:
        noise = rng.normal(0.0, 0.01, size=(10, 7))
        table.extend(tuple(map(float, row))
                     for row in np.maximum(np.asarray(center) + noise, 0.0))

    result = cluster_params(table, k=4, seed=7)
    matched = set()
    for target in archetypes:
        errors = [max(abs(a - b) for a, b in zip(c, target))
                  for c in result.centroids]
        best = min(range(4), key=errors.__getitem__)
        matched.add(best)
        assert errors[best] < 0.1, (
            f"archetype {target} recovered only to {errors[best]:.3f}"
        )
    assert matched == {0, 1, 2, 3}

    inertias = elbow_curve(table, range(1, 7), seed=5)
    drops = [(inertias[i - 1] - inertias[i]) / inertias[i - 1]
             for i in range(1, 6)]
    assert int(np.argmax(drops)) + 2 == 4, (
        f"largest relative inertia drop not at k=4: {inertias}"
    )
    print("criterion 07: archetypes within 0.1, elbow at k=4")


# ---------------------------------------------------------------------------
# desk-scale cohort battery shared by the planner-pattern tests
# ---------------------------------------------------------------------------

PLANNER = "ea_desc_vtg_per_visit"
BASELINE = "asc_fbg"
BATTERY_FRACTIONS = {
    "scenario1": (0.2,),
    "scenario2": (0.2,),
    "scenario3": (0.05, 0.2),
}


@functools.lru_cache(maxsize=None)
def desk_runs(scenario_name):
    spec = next(s for s in builtin_scenarios() if s.name == scenario_name)
    spec = dataclasses.replace(spec, population=100)
    config = SimulationConfig(
        horizon=60,
        capacity_fractions=BATTERY_FRACTIONS[scenario_name],
        replications=10,
        base_seed=0,
    )
    policies = [PolicySpec(kind=BASELINE), PolicySpec(kind=PLANNER)]
    return capacity_sweep(
        lambda seed: sample_cohort(spec, seed).cohort, policies, config
    )


def runs_cell(results, kind, fraction):
    cell = [r for r in results if r.policy_kind == kind
            and abs(r.capacity_fraction - fraction) < 1e-12]
    assert len(cell) == 10
    return cell


def mean_ppc(cell):
    return sum(r.ppc_fraction for r in cell) / len(cell)


def window_shares(cell, first_period, last_period):
    """Mean screening share (over cells with visits) and mean enrollment
    share over every (replication, period) cell of a 1-based inclusive
    period window."""
    screening, enrollment = period_shares(
        *(np.array([getattr(r, name) for r in cell])
          for name in ("screening_visits", "visits_total", "enrolled")),
        cell[0].population,
    )
    window = slice(first_period - 1, last_period)
    return (float(np.nanmean(screening[:, window])),
            float(enrollment[:, window].mean()))


def test_criterion_08_planner_beats_fbg_ranking_at_tight_capacity():
    started = time.perf_counter()
    results = desk_runs("scenario3")
    elapsed = time.perf_counter() - started
    planner = mean_ppc(runs_cell(results, PLANNER, 0.05))
    baseline = mean_ppc(runs_cell(results, BASELINE, 0.05))
    assert planner >= 1.5 * baseline, (
        f"planner ppc {planner:.4f} < 1.5x baseline ppc {baseline:.4f}"
    )
    assert elapsed <= 300.0, f"battery took {elapsed:.1f}s"
    print(f"criterion 08: ppc {planner:.4f} vs {baseline:.4f}"
          f" ({planner / baseline:.2f}x) in {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore:group D")
def test_criterion_09_planner_stops_screening_after_rampup():
    # Once the opening periods are over the planner spends essentially no
    # visits on screening. Compositions with never-enrolling archetypes
    # (scenario1's A, scenario3's E) keep the FBG-ranking baseline
    # screening forever; in scenario2 every contacted patient enrolls
    # immediately, so both policies stop screening after period one and
    # the shares tie at zero. The ordering is therefore asserted weakly
    # per composition and strictly across the battery.
    planner_shares = {}
    baseline_shares = {}
    for name in ("scenario1", "scenario2", "scenario3"):
        results = desk_runs(name)
        planner_shares[name], _ = window_shares(
            runs_cell(results, PLANNER, 0.2), 10, 60
        )
        baseline_shares[name], _ = window_shares(
            runs_cell(results, BASELINE, 0.2), 10, 60
        )
        assert planner_shares[name] < 0.10, (
            f"{name}: late screening share {planner_shares[name]:.4f}"
        )
        assert planner_shares[name] <= baseline_shares[name], (
            f"{name}: planner screens more than the baseline"
        )
    assert (sum(planner_shares.values()) / 3
            < sum(baseline_shares.values()) / 3), (
        f"planner does not screen strictly less across the battery:"
        f" {planner_shares} vs {baseline_shares}"
    )
    print(f"criterion 09: planner shares {planner_shares}"
          f" vs baseline {baseline_shares}")


@pytest.mark.filterwarnings("ignore:group D")
def test_criterion_10_planner_holds_enrollment_in_band():
    for name in ("scenario1", "scenario2", "scenario3"):
        _, share = window_shares(
            runs_cell(desk_runs(name), PLANNER, 0.2), 20, 60
        )
        assert 0.15 <= share <= 0.50, f"{name}: enrollment share {share:.4f}"
    print("criterion 10: enrollment within [0.15, 0.50] on all three")


def test_criterion_11_cli_runs_are_byte_deterministic(tmp_path):
    def run(seed, where):
        code = cli_mod.main([
            "simulate", "--scenario", "scenario3",
            "--policies", f"{PLANNER},{BASELINE}",
            "--capacities", "25,50", "--reps", "2", "--seed", str(seed),
            "--horizon", "6", "--population", "8", "--out", str(where),
        ])
        assert code == 0
        return where

    first = run(11, tmp_path / "first")
    again = run(11, tmp_path / "again")
    for name in ("results.csv", "summary.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
    manifests = []
    for where in (first, again):
        data = json.loads((where / "manifest.json").read_text())
        data.pop("duration_seconds")
        manifests.append(data)
    assert manifests[0] == manifests[1]

    reseeded = run(12, tmp_path / "reseeded")
    assert ((first / "results.csv").read_bytes()
            != (reseeded / "results.csv").read_bytes())
    print("criterion 11: identical bytes on rerun, different on reseed")
