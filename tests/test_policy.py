"""Tests for visit-selection rules: the single-patient policy, the
interest-set filter, deterministic rollouts, and capacity tie-breaking."""

import math
import itertools

import numpy as np
import pytest

from chwplan.model import PatientParams, PatientState, benefit
from chwplan.policy import (
    EA_KINDS,
    POLICY_KINDS,
    PolicySpec,
    RolloutSummary,
    _value_per_visit_key,
    interest_set,
    rollout_single,
    select_visits,
    single_patient_action,
)

GROUP_A = PatientParams(p=0.05, mu=0.025, alpha=0.1, beta=0.3, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=1.0, theta_base=0.7)
GROUP_B = PatientParams(p=5.0, mu=4.0, alpha=2.0, beta=1.5, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=0.2, theta_base=0.7)

DELTA = math.log(125.0)

fresh = lambda b, prm: PatientState(b=b, s=0.0, theta=prm.theta_base, z_prev=0)


# ---------------------------------------------------------------------------
# PolicySpec hygiene
# ---------------------------------------------------------------------------

def test_policy_spec_rejects_unknown_kind_and_bad_delta():
    with pytest.raises(ValueError):
        PolicySpec(kind="visit_furiously", delta=DELTA)
    with pytest.raises(ValueError):
        PolicySpec(kind="asc_fbg", delta=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="PolicySpec.delta must be finite"):
            PolicySpec(kind="asc_fbg", delta=bad)


def test_policy_kind_enumeration_is_closed():
    assert set(POLICY_KINDS) == {
        "visit_no_one", "visit_everyone", "asc_fbg", "desc_fbg",
        "ea_asc_fbg", "ea_desc_fbg", "ea_desc_vtg", "ea_desc_vtg_per_visit",
    }


# ---------------------------------------------------------------------------
# single-patient rule
# ---------------------------------------------------------------------------

def test_action_zero_when_visit_benefit_negative():
    # fresh group-A patient: benefit of a visit is -0.645
    state = fresh(5.0, GROUP_A)
    assert benefit(state, GROUP_A, 1) < 0
    assert single_patient_action(state, GROUP_A) == 0


def test_action_one_when_visit_prevents_dropout():
    # enrolled patient about to drop out unless visited
    prm = PatientParams(p=0.1, mu=0.5, alpha=2.0, beta=1.0, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=1.0, theta_base=1.0)
    state = PatientState(b=5.0, s=1.0, theta=1.0, z_prev=1)
    assert benefit(state, prm, 0) < 0 <= benefit(state, prm, 1)
    assert single_patient_action(state, prm) == 1


def test_action_one_for_strict_improvement_group_b():
    state = PatientState(b=5.0, s=0.2, theta=0.7, z_prev=1)
    b0 = benefit(state, GROUP_B, 0)
    b1 = benefit(state, GROUP_B, 1)
    assert b0 == pytest.approx(3.86, abs=1e-12)
    assert b1 - b0 == pytest.approx(0.95, abs=1e-12)
    assert single_patient_action(state, GROUP_B) == 1


# ---------------------------------------------------------------------------
# exhaustive sign-case enumeration (trichotomy of visit/never/indifferent)
# ---------------------------------------------------------------------------

SIGN_CASES = [
    # (B0, B1) targets covering every sign/tie combination reachable
    # through the closed form
    (1.0, 2.0),
    (1.0, 0.5),
    (1.0, -1.0),
    (-0.5, 0.5),
    (-0.5, -0.2),
    (-0.5, -1.0),
    (1.0, 1.0),   # zero improvement tie
    (0.0, 0.0),   # boundary: benefit exactly zero
]


def _case_state_params(B0, B1):
    """Construct (state, params) hitting given benefit targets exactly.

    With theta=1 and s=s_base the decayed adversity equals s_base, so
    B(0)=mu-s_base and B(1)-B(0)=alpha-beta.
    """
    prm = PatientParams(p=0.01, mu=B0 + 1.0, alpha=3.0 + (B1 - B0), beta=3.0,
                        lam=0.5, gamma=0.2, rho=0.2, s_base=1.0, theta_base=1.0)
    return prm


@pytest.mark.parametrize("B0,B1", SIGN_CASES)
@pytest.mark.parametrize("z_prev", [0, 1])
def test_trichotomy_and_action_agreement(B0, B1, z_prev):
    prm = _case_state_params(B0, B1)
    state = PatientState(b=5.0, s=1.0, theta=1.0, z_prev=z_prev)
    assert benefit(state, prm, 0) == pytest.approx(B0, abs=1e-12)
    assert benefit(state, prm, 1) == pytest.approx(B1, abs=1e-12)

    must_visit = (z_prev == 0 and B1 >= 0) or (z_prev == 1 and B0 < 0 and B1 >= 0)
    must_not = z_prev == 1 and B0 >= 0 and B1 < 0
    indifferent = (
        (z_prev == 1 and B0 < 0 and B1 < 0)
        or (z_prev == 1 and B0 >= 0 and B1 >= 0)
        or (z_prev == 0 and B1 < 0)
    )
    # the three cases partition every sign combination
    assert [must_visit, must_not, indifferent].count(True) == 1

    action = single_patient_action(state, prm)
    if must_visit:
        assert action == 1
    elif must_not:
        assert action == 0
    else:
        # indifferent: the rule spends the visit only on a strict
        # improvement for an already-enrolled patient
        expected = 1 if (z_prev == 1 and B0 >= 0 and B1 >= 0 and B1 > B0) else 0
        assert action == expected


# ---------------------------------------------------------------------------
# interest set
# ---------------------------------------------------------------------------

def test_interest_set_empty_when_no_one_benefits():
    states = [fresh(4.0, GROUP_A), fresh(6.0, GROUP_A)]
    assert interest_set(states, [GROUP_A, GROUP_A]) == set()


def test_interest_set_single_patient_consistency():
    state = fresh(6.0, GROUP_B)
    expected = {0} if single_patient_action(state, GROUP_B) else set()
    assert interest_set([state], [GROUP_B]) == expected == {0}


def test_interest_set_mixed_cohort_only_group_b():
    params = [GROUP_A, GROUP_B, GROUP_A, GROUP_B]
    states = [fresh(5.0, p) for p in params]
    assert interest_set(states, params) == {1, 3}


@pytest.mark.parametrize("pick", [
    interest_set, lambda states, params: select_visits(states, params, 1, PolicySpec(
        "ea_desc_vtg", DELTA), 10)], ids=["interest_set", "select_visits"])
def test_length_mismatch_is_an_error(pick):
    with pytest.raises(ValueError, match="misaligned"):
        pick([fresh(5.0, GROUP_A)], [GROUP_A, GROUP_B])


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

def test_rollout_zero_periods():
    assert rollout_single(fresh(5.0, GROUP_B), GROUP_B, 0, DELTA) == RolloutSummary(0, 0)


def test_rollout_stable_patient_stays_in_control_for_free():
    prm = PatientParams(p=0.0, mu=0.025, alpha=0.1, beta=0.3, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=1.0, theta_base=0.7)
    rs = rollout_single(fresh(4.0, prm), prm, 7, DELTA)
    assert rs == RolloutSummary(v_tilde=7, visits=0)


def test_rollout_group_b_from_130_five_periods():
    # hand-rolled recurrence oracle: patient enrolls at once, is visited
    # every period (strict improvement), and stays in control throughout
    rs = rollout_single(fresh(math.log(130.0), GROUP_B), GROUP_B, 5, DELTA)
    assert rs == RolloutSummary(v_tilde=5, visits=5)


def test_rollout_group_b_from_high_fbg_four_periods():
    # hand-rolled oracle: b walks 8 -> 7 -> 6 -> 5 -> 4, crossing the
    # threshold only on the final transition
    rs = rollout_single(fresh(8.0, GROUP_B), GROUP_B, 4, DELTA)
    assert rs == RolloutSummary(v_tilde=1, visits=4)


def test_rollout_counts_bounded_by_window():
    rng = np.random.default_rng(7)
    for _ in range(50):
        prm = PatientParams(
            p=float(rng.uniform(0, 6)), mu=float(rng.uniform(0, 6)),
            alpha=float(rng.uniform(0, 6)), beta=float(rng.uniform(0, 2)),
            lam=float(rng.uniform(0, 2)), gamma=0.2, rho=0.2,
            s_base=float(rng.uniform(0, 2)), theta_base=float(rng.uniform(0, 2)),
        )
        R = int(rng.integers(0, 12))
        rs = rollout_single(fresh(float(rng.uniform(3, 9)), prm), prm, R, DELTA)
        assert 0 <= rs.v_tilde <= R
        assert 0 <= rs.visits <= R


# ---------------------------------------------------------------------------
# select_visits
# ---------------------------------------------------------------------------

def _b_cohort(bs):
    params = [GROUP_B] * len(bs)
    return [fresh(b, GROUP_B) for b in bs], params


def test_visit_no_one_selects_nothing():
    states, params = _b_cohort([5.0, 6.0, 7.0])
    spec = PolicySpec("visit_no_one", DELTA)
    for C in (0, 1, 3):
        assert select_visits(states, params, C, spec, 10) == set()


def test_visit_everyone_ignores_capacity():
    states, params = _b_cohort([5.0, 6.0, 7.0])
    spec = PolicySpec("visit_everyone", DELTA)
    assert select_visits(states, params, 1, spec, 10) == {0, 1, 2}


def test_ea_returns_whole_interest_set_under_capacity():
    states, params = _b_cohort([5.0, 6.0, 7.0])
    for kind in EA_KINDS:
        spec = PolicySpec(kind, DELTA)
        assert select_visits(states, params, 5, spec, 10) == {0, 1, 2}


def test_ea_desc_fbg_tie_breaks_by_lower_index():
    states, params = _b_cohort([5.0, 7.0, 7.0, 3.0, 6.0])
    spec = PolicySpec("ea_desc_fbg", DELTA)
    assert select_visits(states, params, 2, spec, 10) == {1, 2}


def test_ea_asc_fbg_prefers_low_fbg():
    states, params = _b_cohort([5.0, 7.0, 7.0, 3.0, 6.0])
    spec = PolicySpec("ea_asc_fbg", DELTA)
    assert select_visits(states, params, 2, spec, 10) == {3, 0}


def test_baselines_skip_interest_filtering():
    # group-A patients benefit from nothing, yet the naive rankings still
    # spend capacity on them
    states = [fresh(9.0, GROUP_A), fresh(4.0, GROUP_A)]
    params = [GROUP_A, GROUP_A]
    assert select_visits(states, params, 1, PolicySpec("asc_fbg", DELTA), 10) == {1}
    assert select_visits(states, params, 1, PolicySpec("desc_fbg", DELTA), 10) == {0}
    assert interest_set(states, params) == set()


def test_zero_capacity_blocks_everything_but_visit_everyone():
    states, params = _b_cohort([5.0, 6.0])
    for kind in POLICY_KINDS:
        got = select_visits(states, params, 0, PolicySpec(kind, DELTA), 10)
        if kind == "visit_everyone":
            assert got == {0, 1}
        else:
            assert got == set()


def test_capacity_bound_and_interest_subset_on_random_cohorts():
    rng = np.random.default_rng(20240818)
    group_pool = [GROUP_A, GROUP_B]
    for _ in range(40):
        n = int(rng.integers(1, 12))
        params = [group_pool[int(rng.integers(0, 2))] for _ in range(n)]
        states = [
            PatientState(b=float(rng.uniform(0, 10)), s=float(rng.uniform(0, 2)),
                         theta=float(rng.uniform(0, 1.5)), z_prev=int(rng.integers(0, 2)))
            for _ in range(n)
        ]
        C = int(rng.integers(0, n + 2))
        members = interest_set(states, params)
        for kind in POLICY_KINDS:
            got = select_visits(states, params, C, PolicySpec(kind, DELTA), 8)
            if kind != "visit_everyone":
                assert len(got) <= C
            if kind in EA_KINDS:
                assert got <= members


def test_ranking_stable_under_permutation_with_distinct_keys():
    bs = [5.1, 7.3, 6.9, 3.2, 6.0, 8.4]
    states, params = _b_cohort(bs)
    rng = np.random.default_rng(99)
    for kind in ("ea_asc_fbg", "ea_desc_fbg", "asc_fbg", "desc_fbg"):
        spec = PolicySpec(kind, DELTA)
        base = select_visits(states, params, 3, spec, 10)
        base_bs = sorted(bs[i] for i in base)
        for _ in range(5):
            perm = rng.permutation(len(bs))
            p_states = [states[j] for j in perm]
            got = select_visits(p_states, [GROUP_B] * len(bs), 3, spec, 10)
            got_bs = sorted(bs[perm[j]] for j in got)
            assert got_bs == base_bs


def test_value_per_visit_key_ordering():
    # more value per visit comes first; a stable sort breaks residual ties
    # by index, as the tuple (-v_tilde/visits, index) does. Every ranked
    # member rolls out at least one visit (see test_equivalence)
    v_tilde, visits = [9, 6, 3, 4, 2, 4], [1, 3, 2, 2, 1, 2]
    key = _value_per_visit_key(RolloutSummary(np.array(v_tilde), np.array(visits)))
    assert np.argsort(key, kind="stable").tolist() == [0, 1, 3, 4, 5, 2]
    # every summary with visits >= 1 a rollout over P periods can return,
    # against the tuple
    for periods in range(1, 6):
        pairs = list(itertools.product(range(periods + 1), range(1, periods + 1)))
        rs = RolloutSummary(*(np.array(a) for a in zip(*pairs)))
        order = np.argsort(_value_per_visit_key(rs), kind="stable")
        assert order.tolist() == sorted(range(len(pairs)), key=lambda i: (
            -pairs[i][0] / pairs[i][1], i))


def test_value_per_visit_ranking_differs_from_value_ranking():
    # two enrolled patients compete for one visit with five periods left:
    # patient 0 is forecast 3 in-control periods for 1 visit, patient 1 is
    # forecast 5 for 5 visits; more value and more value per visit disagree
    states = [PatientState(b=8.5, s=0.8, theta=0.3, z_prev=1),
              PatientState(b=3.8, s=0.2, theta=0.5, z_prev=1)]
    params = [PatientParams(p=1.3, mu=2.3, alpha=0.8, beta=1.5, lam=0.3,
                            gamma=0.2, rho=0.2, s_base=1.0, theta_base=1.5),
              PatientParams(p=0.3, mu=0.1, alpha=2.2, beta=0.5, lam=0.9,
                            gamma=0.2, rho=0.2, s_base=1.6, theta_base=1.1)]
    assert interest_set(states, params) == {0, 1}
    assert [rollout_single(s, p, 5, DELTA) for s, p in zip(states, params)] == [
        RolloutSummary(v_tilde=3, visits=1), RolloutSummary(v_tilde=5, visits=5)]
    by_value = select_visits(states, params, 1, PolicySpec("ea_desc_vtg", DELTA), 5)
    per_visit = select_visits(states, params, 1,
                              PolicySpec("ea_desc_vtg_per_visit", DELTA), 5)
    assert by_value == {1}
    assert per_visit == {0}
