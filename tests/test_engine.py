"""Engine tests: capacity arithmetic, simulation loop, common random
numbers, the exhaustive schedule oracle, and result aggregation."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from chwplan.engine import (
    Cohort,
    RunResult,
    SimulationConfig,
    capacity_from_fraction,
    capacity_sweep,
    cohort_stream_seed,
    noise_stream_seed,
    period_shares,
    simulate,
    stable_hash64,
    summarize,
)
from chwplan.model import PatientParams, PatientState
from chwplan.policy import POLICY_KINDS, PolicySpec

from _oracle import InstanceTooLargeError, brute_force_plan

DELTA = math.log(125.0)

GROUP_A = PatientParams(p=0.05, mu=0.025, alpha=0.1, beta=0.3, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=1.0, theta_base=0.7)
GROUP_B = PatientParams(p=5.0, mu=4.0, alpha=2.0, beta=1.5, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=0.2, theta_base=0.7)


def fresh_cohort(bs, prm):
    params = tuple(prm for _ in bs)
    states = tuple(PatientState(b=b, s=0.0, theta=prm.theta_base, z_prev=0) for b in bs)
    return Cohort(params=params, initial_states=states)


def quiet_config(**kw):
    base = dict(horizon=10, capacity_fractions=(0.5,), replications=1,
                base_seed=11, sigma_xi=0.0)
    base.update(kw)
    return SimulationConfig(**base)


# ---------------------------------------------------------------------------
# capacity arithmetic and config hygiene
# ---------------------------------------------------------------------------

def test_capacity_examples():
    assert capacity_from_fraction(0.45, 378) == 170
    assert capacity_from_fraction(1.0, 100) == 100
    assert capacity_from_fraction(0.05, 100) == 5


def test_capacity_rounds_half_up():
    assert capacity_from_fraction(0.125, 4) == 1   # 0.5 -> 1
    assert capacity_from_fraction(0.375, 4) == 2   # 1.5 -> 2
    assert capacity_from_fraction(0.1, 4) == 0     # 0.4 -> 0


def test_capacity_rejects_bad_inputs():
    # simulate checks its fraction as SimulationConfig checks a sweep's
    cohort = fresh_cohort([4.0], GROUP_A)
    spec = PolicySpec(kind="asc_fbg")
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match=f"capacity fraction {fraction} outside"):
            simulate(cohort, spec, quiet_config(), fraction)


def test_config_validation():
    with pytest.raises(ValueError):
        quiet_config(horizon=0)
    with pytest.raises(ValueError):
        quiet_config(replications=0)
    with pytest.raises(ValueError):
        quiet_config(capacity_fractions=())
    with pytest.raises(ValueError):
        quiet_config(capacity_fractions=(0.5, 0.1))  # not ascending
    with pytest.raises(ValueError, match="strictly ascending"):
        quiet_config(capacity_fractions=(0.1, 0.1))  # two rows of one label
    # distinct fractions that record one percent would label two cells alike
    with pytest.raises(ValueError, match=r"both record 10\.0%"):
        quiet_config(capacity_fractions=(0.05, 0.1, 0.1 + 1e-13))
    assert quiet_config(capacity_fractions=(0.1, 0.1 + 1e-11)).capacity_fractions[1] > 0.1
    with pytest.raises(ValueError):
        quiet_config(capacity_fractions=(0.0,))
    with pytest.raises(ValueError):
        quiet_config(sigma_xi=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="SimulationConfig.sigma_xi must be finite"):
            quiet_config(sigma_xi=bad)
    # the in-control threshold: log(delta_mgdl) must be finite and > 0
    for bad in (math.nan, math.inf, -math.inf, 0.0, -5.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="SimulationConfig.delta_mgdl must be a finite"
                                             " number above 1 mg/dL"):
            quiet_config(delta_mgdl=bad)
    assert quiet_config(delta_mgdl=1.0 + 1e-9).delta_mgdl > 1.0


def test_cohort_validation():
    with pytest.raises(ValueError):
        Cohort(params=(), initial_states=())
    with pytest.raises(ValueError):
        Cohort(params=(GROUP_A,), initial_states=())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_unvisited_rising_patient_never_in_control():
    cohort = fresh_cohort([5.0], GROUP_A)  # starts above threshold
    res = simulate(cohort, PolicySpec("visit_no_one"), quiet_config(), 0.5)
    assert res.ppc_fraction == 0.0
    assert all(v == 0 for v in res.visits_total)


def test_crossing_time_matches_closed_form():
    prm = PatientParams(p=0.1, mu=0.025, alpha=0.1, beta=0.3, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=1.0, theta_base=0.7)
    b0 = 4.0
    cohort = fresh_cohort([b0], prm)
    cfg = quiet_config(horizon=20)
    res = simulate(cohort, PolicySpec("visit_no_one"), cfg, 0.5)
    expected_periods = math.floor((DELTA - b0) / prm.p)  # = 8
    assert expected_periods == 8
    assert sum(res.in_control) == expected_periods
    assert res.ppc_fraction == pytest.approx(expected_periods / 20)


def test_in_control_counts_at_the_sweep_threshold():
    # b stays at 4.9, between log 125 and log 150: in control exactly when
    # the sweep's delta_mgdl is 150
    prm = PatientParams(p=0.0, mu=0.025, alpha=0.1, beta=0.3, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=1.0, theta_base=0.7)
    cohort = fresh_cohort([4.9], prm)
    assert math.log(125.0) < 4.9 < math.log(150.0)
    for mgdl, ppc in ((150.0, 1.0), (125.0, 0.0)):
        spec = PolicySpec("visit_no_one")
        (row,) = capacity_sweep(lambda seed: cohort, [spec], quiet_config(delta_mgdl=mgdl))
        assert row.final_log_fbg == (4.9,)
        assert row.ppc_fraction == ppc, mgdl


def test_readme_library_example_runs(capsys):
    # the README's "Library" code block, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Library"):]
    code = section[section.index("```python\n") + 10:section.index("\n```\n")]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["ea_desc_vtg_per_visit", "0.05"], ["ea_desc_vtg_per_visit", "0.2"]]


def test_simulate_is_deterministic():
    cohort = fresh_cohort([5.0, 6.0, 4.5], GROUP_B)
    cfg = quiet_config(sigma_xi=0.2, horizon=15)
    spec = PolicySpec("ea_desc_vtg_per_visit")
    a = simulate(cohort, spec, cfg, 0.5, replication=2)
    b = simulate(cohort, spec, cfg, 0.5, replication=2)
    assert a == b


def test_changing_replication_changes_noise():
    cohort = fresh_cohort([5.0, 6.0], GROUP_A)
    cfg = quiet_config(sigma_xi=0.3, horizon=5)
    spec = PolicySpec("visit_no_one")
    a = simulate(cohort, spec, cfg, 0.5, replication=0)
    b = simulate(cohort, spec, cfg, 0.5, replication=1)
    assert a.final_log_fbg != b.final_log_fbg


def test_common_random_numbers_across_policies():
    # asc_fbg at a fraction yielding zero capacity behaves like no visits;
    # identical noise then forces identical trajectories
    cohort = fresh_cohort([5.0, 6.0, 4.5], GROUP_B)
    cfg = quiet_config(sigma_xi=0.25, horizon=12)
    no_one = simulate(cohort, PolicySpec("visit_no_one"), cfg, 0.5, replication=4)
    asc_c0 = simulate(cohort, PolicySpec("asc_fbg"), cfg, 0.1, replication=4)
    assert no_one.final_log_fbg == asc_c0.final_log_fbg
    assert no_one.in_control == asc_c0.in_control


def test_ppc_additivity_and_visit_bounds():
    rng = np.random.default_rng(5)
    cohort = fresh_cohort(list(rng.uniform(3.5, 7.5, size=6)), GROUP_B)
    cfg = quiet_config(sigma_xi=0.1, horizon=9)
    for kind in ("asc_fbg", "ea_desc_fbg", "ea_desc_vtg"):
        res = simulate(cohort, PolicySpec(kind), cfg, 0.4, replication=1)
        C = capacity_from_fraction(0.4, len(cohort))
        assert round(res.ppc_fraction * len(cohort) * 9) == sum(res.in_control)
        for scr, tot in zip(res.screening_visits, res.visits_total):
            assert 0 <= scr <= tot <= C


# ---------------------------------------------------------------------------
# seeding helpers
# ---------------------------------------------------------------------------

def test_stable_hash_is_reproducible_and_sensitive():
    assert stable_hash64(1, "a", 2) == stable_hash64(1, "a", 2)
    assert stable_hash64(1, "a", 2) != stable_hash64(1, "a", 3)
    assert stable_hash64(1, "a", 2) != stable_hash64(2, "a", 2)
    assert 0 <= stable_hash64(0) < 2 ** 64


def test_stream_seeds_do_not_depend_on_policy_or_fraction():
    # the cohort/noise streams are functions of (base_seed, replication) only
    assert cohort_stream_seed(9, 4) == cohort_stream_seed(9, 4)
    assert noise_stream_seed(9, 4) != noise_stream_seed(9, 5)


# ---------------------------------------------------------------------------
# capacity_sweep
# ---------------------------------------------------------------------------

def test_sweep_cardinality_and_order():
    cohort = fresh_cohort([5.0, 6.0], GROUP_B)
    cfg = quiet_config(capacity_fractions=(0.25, 0.5, 1.0), replications=2,
                       sigma_xi=0.05, horizon=6)
    specs = [PolicySpec("asc_fbg"), PolicySpec("ea_asc_fbg")]
    rows = capacity_sweep(lambda seed: cohort, specs, cfg)
    assert len(rows) == 2 * 3 * 2
    keys = [(r.policy_kind, r.capacity_fraction, r.replication) for r in rows]
    assert keys == sorted(keys)


def test_sweep_single_replication_composes_from_simulate():
    # the sweep runs all capacities of a policy as one array simulation;
    # each row must be that capacity's simulation on its own
    cohort = fresh_cohort([5.0, 6.0], GROUP_B)
    cfg = quiet_config(capacity_fractions=(0.5, 1.0), replications=1,
                       sigma_xi=0.05, horizon=6)
    for kind in POLICY_KINDS:
        spec = PolicySpec(kind)
        rows = capacity_sweep(lambda seed: cohort, [spec], cfg)
        direct = [simulate(cohort, spec, cfg, f, 0) for f in cfg.capacity_fractions]
        assert rows == direct, kind


def test_sweep_shares_rollouts_across_policies_without_changing_rows():
    # the two enrolled patients of
    # test_policy.py::test_value_per_visit_ranking_differs_from_value_ranking,
    # where the two value-to-go rankings visit different patients; one sweep
    # runs both policies over one rollout table per replication
    cohort = Cohort(
        params=(PatientParams(p=1.3, mu=2.3, alpha=0.8, beta=1.5, lam=0.3,
                              gamma=0.2, rho=0.2, s_base=1.0, theta_base=1.5),
                PatientParams(p=0.3, mu=0.1, alpha=2.2, beta=0.5, lam=0.9,
                              gamma=0.2, rho=0.2, s_base=1.6, theta_base=1.1)),
        initial_states=(PatientState(b=8.5, s=0.8, theta=0.3, z_prev=1),
                        PatientState(b=3.8, s=0.2, theta=0.5, z_prev=1)))
    cfg = quiet_config(capacity_fractions=(0.5, 1.0), replications=2,
                       sigma_xi=0.05, horizon=5)
    specs = [PolicySpec(kind) for kind in ("ea_desc_vtg", "ea_desc_vtg_per_visit")]
    both = capacity_sweep(lambda seed: cohort, specs, cfg)
    alone = [r for spec in specs for r in capacity_sweep(lambda seed: cohort, [spec], cfg)]

    def outputs(r):
        return dataclasses.replace(r, rollouts_run=0, rollout_steps_run=0)

    assert [outputs(r) for r in both] == [outputs(r) for r in alone]
    by_value, per_visit = ([r.final_log_fbg for r in both
                            if r.policy_kind == spec.kind and r.capacity_fraction == 0.5]
                           for spec in specs)
    assert by_value != per_visit
    # the second policy reuses the first one's rollouts where states agree
    assert (sum(r.rollouts_run for r in both)
            < sum(r.rollouts_run for r in alone)
            <= sum(r.members_ranked_by_rollout for r in alone))


def test_sweep_rejects_a_repeated_policy_kind():
    # rows are labelled by kind: two specs of one kind would pool
    specs = [PolicySpec("ea_desc_vtg"), PolicySpec("ea_desc_vtg")]
    with pytest.raises(ValueError, match="'ea_desc_vtg'"):
        capacity_sweep(lambda seed: fresh_cohort([5.0], GROUP_A), specs, quiet_config())


def test_sweep_rejects_an_empty_policy_list():
    drawn = []

    def gen(seed):
        drawn.append(seed)
        return fresh_cohort([5.0], GROUP_A)

    with pytest.raises(ValueError, match="need at least one policy"):
        capacity_sweep(gen, [], quiet_config())
    assert drawn == []  # refused before any cohort is drawn


def test_sweep_generator_receives_replication_keyed_seed():
    seeds = []

    def gen(seed):
        seeds.append(seed)
        return fresh_cohort([5.0], GROUP_A)

    cfg = quiet_config(capacity_fractions=(0.5, 1.0), replications=3)
    capacity_sweep(gen, [PolicySpec("visit_no_one")], cfg)
    assert seeds == [cohort_stream_seed(cfg.base_seed, r) for r in range(3)]


def test_visit_everyone_dominates_visit_no_one_on_always_enroll_cohort():
    # group-B patients enroll on sight and never drop out; visits only help
    rng = np.random.default_rng(3)
    cohort = fresh_cohort(list(rng.uniform(5.0, 7.0, size=5)), GROUP_B)
    cfg = quiet_config(capacity_fractions=(1.0,), replications=3,
                       sigma_xi=0.05, horizon=12)
    specs = [PolicySpec("visit_everyone"), PolicySpec("visit_no_one")]
    rows = capacity_sweep(lambda seed: cohort, specs, cfg)
    mean = lambda kind: np.mean([r.ppc_fraction for r in rows if r.policy_kind == kind])
    assert mean("visit_everyone") >= mean("visit_no_one")


# ---------------------------------------------------------------------------
# exhaustive schedule oracle
# ---------------------------------------------------------------------------

def brittle_patient():
    # in control only if visited in the very first period
    return PatientParams(p=0.05, mu=2.0, alpha=1.0, beta=0.1, lam=0.1,
                         gamma=0.2, rho=0.2, s_base=0.1, theta_base=0.1)


def test_brute_force_hand_enumerated_instance():
    prm = brittle_patient()
    cohort = fresh_cohort([5.0], prm)
    value, schedule = brute_force_plan(cohort, C=1, N=3, delta=DELTA)
    assert value == 3
    # ties resolve to the lexicographically smallest schedule: visit once,
    # as early as possible, then nothing
    assert schedule == ((0,), (), ())


def test_brute_force_zero_capacity_matches_no_visit_simulation():
    cohort = fresh_cohort([4.0, 5.0], GROUP_B)
    cfg = quiet_config(horizon=4)
    value, schedule = brute_force_plan(cohort, C=0, N=4, delta=DELTA)
    res = simulate(cohort, PolicySpec("visit_no_one"), cfg, 0.5)
    assert value == sum(res.in_control)
    assert schedule == ((), (), (), ())


def test_brute_force_budget_guard():
    cohort = fresh_cohort([5.0] * 10, GROUP_B)
    with pytest.raises(InstanceTooLargeError) as exc:
        brute_force_plan(cohort, C=10, N=10, delta=DELTA)
    assert exc.value.enumeration_count == 1024 ** 10


def test_brute_force_interest_only_restricts_candidates():
    # a lone group-A patient is never of interest, so the restricted search
    # can only produce the empty schedule
    cohort = fresh_cohort([4.0], GROUP_A)
    value, schedule = brute_force_plan(cohort, C=1, N=3, delta=DELTA, interest_only=True)
    assert schedule == ((), (), ())
    value_free, _ = brute_force_plan(cohort, C=1, N=3, delta=DELTA)
    assert value_free == value  # visiting group A is useless anyway


# ---------------------------------------------------------------------------
# summarize and period shares
# ---------------------------------------------------------------------------

def fake_result(kind, fraction, replication, ppc, in_control=None, visits=None,
                screening=None, enrolled=None, finals=(4.0, 5.0)):
    n = 4
    return RunResult(
        policy_kind=kind, capacity_fraction=fraction, replication=replication,
        in_control=tuple(in_control or [1] * n),
        enrolled=tuple(enrolled or [1] * n),
        visits_total=tuple(visits or [2] * n),
        screening_visits=tuple(screening or [1] * n),
        final_log_fbg=tuple(finals),
        ppc_fraction=ppc,
    )


def test_summarize_known_ppc_spread():
    rows = [fake_result("asc_fbg", 0.2, r, ppc=(r + 1) / 10) for r in range(10)]
    [summary] = summarize(rows)
    assert summary.ppc_mean == pytest.approx(0.55, abs=1e-12)
    sd = np.std([(r + 1) / 10 for r in range(10)], ddof=1)
    assert sd == pytest.approx(0.30276503540974917, abs=1e-15)
    assert summary.ppc_ci_halfwidth == pytest.approx(1.96 * sd / math.sqrt(10), abs=1e-12)


def test_summarize_single_and_constant_replications_have_zero_halfwidth():
    [one] = summarize([fake_result("asc_fbg", 0.2, 0, ppc=0.4)])
    assert one.ppc_ci_halfwidth == 0.0
    [const] = summarize([fake_result("asc_fbg", 0.2, r, ppc=0.4) for r in range(5)])
    assert const.ppc_ci_halfwidth == pytest.approx(0.0, abs=1e-15)


def test_summarize_pooled_percentiles():
    rows = [
        fake_result("asc_fbg", 0.2, 0, ppc=0.5, finals=(1.0, 2.0)),
        fake_result("asc_fbg", 0.2, 1, ppc=0.5, finals=(3.0, 4.0)),
    ]
    [summary] = summarize(rows)
    assert summary.final_fbg_percentiles == pytest.approx((1.75, 2.5, 3.25, 3.7))


def test_summarize_percentiles_equal_per_cell_calls():
    # cells pooling 126 to 3,780 values, several of each length, with ties
    # and signed zeros: one batched call per length gives each cell's own
    # floats, bit for bit
    rng = np.random.default_rng(4)
    rows = []
    for c, (population, reps) in enumerate([(126, 1), (126, 1), (378, 10), (126, 3),
                                           (378, 10), (378, 1), (2, 1), (2, 2), (4, 1)]):
        for rep in range(reps):
            finals = rng.choice([0.0, -0.0, 4.0, 5.5], population) * (rng.random(population) < 0.7)
            finals = np.where(rng.random(population) < 0.5, finals, rng.gamma(9.0, 0.6, population))
            rows.append(fake_result("asc_fbg", 0.05 * (c + 1), rep, ppc=0.5,
                                    finals=finals.tolist()))
    summaries = summarize(rows)
    assert len(summaries) == 9
    for summary in summaries:
        pooled = np.concatenate([r.final_log_fbg for r in rows
                                 if r.capacity_fraction == summary.capacity_fraction])
        assert (np.array(summary.final_fbg_percentiles).tobytes()
                == np.percentile(pooled, (25, 50, 75, 90)).tobytes())


def shares_of(results):
    """period_shares of RunResults: (replication, period) arrays."""
    return period_shares(
        *(np.array([getattr(r, name) for r in results])
          for name in ("screening_visits", "visits_total", "enrolled")),
        results[0].population,
    )


def test_summarize_share_series_skips_idle_periods():
    row = fake_result("asc_fbg", 0.2, 0, ppc=0.5,
                      visits=[2, 0, 4, 0], screening=[1, 0, 1, 0],
                      enrolled=[0, 1, 2, 2])
    [screening], [enrollment] = shares_of([row])
    assert screening[0] == pytest.approx(0.5)
    assert math.isnan(screening[1])
    assert screening[2] == pytest.approx(0.25)
    assert enrollment == pytest.approx((0.0, 0.5, 1.0, 1.0))


def test_summarize_rejects_empty_input():
    with pytest.raises(ValueError):
        summarize([])


def test_share_window_helpers():
    rows = [
        fake_result("x", 0.2, 0, 0.5, visits=[2, 0, 4, 1], screening=[1, 0, 1, 1],
                    enrolled=[0, 1, 2, 2]),
        fake_result("x", 0.2, 1, 0.5, visits=[2, 2, 0, 0], screening=[2, 1, 0, 0],
                    enrolled=[2, 2, 2, 2]),
    ]
    screening, enrollment = shares_of(rows)
    # periods 1..2: defined shares are 0.5, 1.0, 0.5 -> mean 2/3
    assert np.nanmean(screening[:, 0:2]) == pytest.approx(2 / 3)
    # periods 3..4: defined shares are 0.25, 1.0 -> mean 0.625
    assert np.nanmean(screening[:, 2:4]) == pytest.approx(0.625)
    # enrollment over periods 1..4, population 2
    expected = np.mean([0, 0.5, 1, 1, 1, 1, 1, 1])
    assert enrollment.mean() == pytest.approx(expected)


@pytest.mark.filterwarnings("ignore:Mean of empty slice")
def test_share_window_all_idle_is_nan():
    rows = [fake_result("x", 0.2, 0, 0.5, visits=[0, 0, 0, 0], screening=[0, 0, 0, 0])]
    screening, _ = shares_of(rows)
    assert np.isnan(screening).all()
    assert math.isnan(np.nanmean(screening))
