"""The cohort (struct-of-arrays) paths against the per-patient scalar ones.

One array step, the visit mask and the batched rollout must reproduce,
element by element and exactly (compared with ==), what step_patient,
single_patient_action and a per-patient rollout loop give for each patient
on its own; each row of a batched visit_mask (one row per capacity
level) must be what a one-row call on that row alone decides; and a
RolloutTable shared by rows, policies and calls must rank exactly as a
rollout of each member on its own.
Byte-identical simulation outputs rest on this.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chwplan.model import (
    ParamArrays,
    PatientParams,
    PatientState,
    StateArrays,
    benefit,
    benefits,
    step_cohort,
    step_fbg,
    step_patient,
)
from chwplan.policy import (
    POLICY_KINDS,
    PolicySpec,
    RolloutSummary,
    RolloutTable,
    interest_set,
    rollout_cohort,
    rollout_single,
    single_patient_action,
    visit_mask,
)

DELTA = math.log(125.0)

unit = dict(allow_nan=False, allow_infinity=False)
params_st = st.builds(
    PatientParams,
    p=st.floats(0.0, 8.0, **unit), mu=st.floats(0.0, 8.0, **unit),
    alpha=st.floats(0.0, 8.0, **unit), beta=st.floats(0.0, 5.0, **unit),
    lam=st.floats(0.0, 5.0, **unit), gamma=st.floats(0.05, 0.95, **unit),
    rho=st.floats(0.05, 0.95, **unit), s_base=st.floats(0.0, 3.0, **unit),
    theta_base=st.floats(0.0, 3.0, **unit),
)
# b = 0 and theta = 0 sit on the clamps; small b with negative noise
# pushes the raw log-FBG update below 0, and a large lam floors theta
state_st = st.builds(
    PatientState,
    b=st.one_of(st.just(0.0), st.floats(0.0, 10.0, **unit)),
    s=st.floats(0.0, 5.0, **unit),
    theta=st.one_of(st.just(0.0), st.floats(0.0, 5.0, **unit)),
    z_prev=st.integers(0, 1),
)
patient_st = st.tuples(params_st, state_st, st.booleans(),
                       st.floats(-3.0, 3.0, **unit))
cohort_st = st.lists(patient_st, min_size=1, max_size=12)


# K rows of one cohort: shared params, per-row states and capacity C
rows_st = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(params_st, min_size=n, max_size=n),
    st.lists(st.tuples(st.lists(state_st, min_size=n, max_size=n),
                       st.integers(0, n + 1)), min_size=1, max_size=5),
    st.integers(1, 10),
))


def _stacked(rows):
    """(K, n) StateArrays from K lists of PatientStates."""
    return StateArrays(*(np.stack(a) for a in zip(*map(StateArrays.of, rows))))


def _assert_rows_independent(params, rows, C, periods):
    states = _stacked(rows)
    for kind in POLICY_KINDS:
        spec = PolicySpec(kind, DELTA)
        batched = visit_mask(states, params, C, spec, periods)
        if batched.benefit is not None:  # step_cohort's B, computed once
            expected = benefit(states, params, batched.mask)
            assert batched.benefit.tobytes() == expected.tobytes(), kind
        for k, row in enumerate(rows):
            alone = visit_mask(_stacked([row]), params, C[k:k + 1], spec, periods)
            assert batched.mask[k].tolist() == alone.mask[0].tolist(), (kind, k)
            assert batched.members[k] == alone.members[0], (kind, k)
            assert batched.rolled_out[k] == alone.rolled_out[0], (kind, k)


def _arrays(cohort):
    params = [p for p, _, _, _ in cohort]
    states = [s for _, s, _, _ in cohort]
    return StateArrays.of(states), ParamArrays.of(params)


def _scalar_rollout(state, params, periods, delta):
    """The per-patient rollout loop the batched rollout replaces."""
    v_tilde = visits = 0
    for _ in range(periods):
        y = int(single_patient_action(state, params))
        state, _ = step_patient(state, params, y, xi=0.0)
        visits += y
        v_tilde += state.b <= delta
    return v_tilde, visits


def _assert_step_matches(cohort):
    states, params = _arrays(cohort)
    y = np.array([v for _, _, v, _ in cohort])
    xi = np.array([x for _, _, _, x in cohort])
    nxt, z = step_cohort(states, params, y, xi)
    for i, (prm, state, visit, noise) in enumerate(cohort):
        ref, ref_z = step_patient(state, prm, int(visit), noise)
        assert z[i] == ref_z
        assert nxt.b[i] == ref.b
        assert nxt.s[i] == ref.s
        assert nxt.theta[i] == ref.theta
        assert nxt.z_prev[i] == ref.z_prev


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
@given(cohort=cohort_st)
@settings(max_examples=150, deadline=None)
def test_array_step_equals_per_patient_steps(cohort):
    _assert_step_matches(cohort)


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
@given(cohort=cohort_st)
@settings(max_examples=150, deadline=None)
def test_action_mask_equals_per_patient_actions(cohort):
    states, params = _arrays(cohort)
    mask = single_patient_action(states, params)
    expected = [bool(single_patient_action(s, p)) for p, s, _, _ in cohort]
    assert mask.tolist() == expected
    assert interest_set(states, params) == {i for i, v in enumerate(expected) if v}


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
@given(cohort=cohort_st, periods=st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_batched_rollout_equals_per_patient_rollouts(cohort, periods):
    states, params = _arrays(cohort)
    batched = rollout_cohort(states, params, periods, DELTA)
    for i, (prm, state, _, _) in enumerate(cohort):
        single = rollout_single(state, prm, periods, DELTA)
        assert (batched.v_tilde[i], batched.visits[i]) == (single.v_tilde, single.visits)
        assert (single.v_tilde, single.visits) == _scalar_rollout(state, prm, periods, DELTA)


def test_clamps_fire_and_match_in_the_array_step():
    plain = PatientParams(p=0.0, mu=1.0, alpha=1.0, beta=0.5, lam=0.5,
                          gamma=0.5, rho=0.5, s_base=0.5, theta_base=0.5)
    heavy = PatientParams(p=0.1, mu=1.0, alpha=1.0, beta=0.5, lam=5.0,
                          gamma=0.5, rho=0.5, s_base=0.0, theta_base=0.2)
    low = PatientState(b=0.1, s=0.5, theta=0.5, z_prev=1)
    floored = PatientState(b=5.0, s=0.0, theta=0.3, z_prev=1)
    at_zero = PatientState(b=0.0, s=0.0, theta=0.0, z_prev=0)
    cohort = [
        (plain, low, True, -0.5),      # raw log-FBG update goes negative
        (heavy, floored, True, 0.0),   # raw perception update goes negative
        (plain, at_zero, False, 0.0),  # starts on both clamps
    ]
    assert step_fbg(low, plain, 1, 1, -0.5) < 0.0
    states, params = _arrays(cohort)
    nxt, _ = step_cohort(states, params, np.array([True, True, False]),
                         np.array([-0.5, 0.0, 0.0]))
    assert nxt.b[0] == 0.0
    assert nxt.theta[1] == 0.0
    _assert_step_matches(cohort)


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
@given(case=rows_st)
@settings(max_examples=150, deadline=None)
def test_visit_mask_rows_equal_one_row_calls(case):
    params, rows, periods = case
    _assert_rows_independent(ParamArrays.of(params), [s for s, _ in rows],
                             np.array([c for _, c in rows]), periods)


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
def test_visit_mask_mixes_over_and_under_capacity_rows():
    # one call where some rows' interest sets exceed their capacity and
    # others' do not, so ranked and unranked rows share the flattened
    # rollout and the row-keyed lexsort
    rng = np.random.default_rng(5)
    n = 10
    params = ParamArrays.of([PatientParams(
        p=float(rng.uniform(0.5, 5.0)), mu=float(rng.uniform(0.5, 4.0)),
        alpha=float(rng.uniform(0.5, 2.0)), beta=float(rng.uniform(0.0, 1.5)),
        lam=0.5, gamma=0.2, rho=0.2, s_base=float(rng.uniform(0.0, 0.5)),
        theta_base=float(rng.uniform(0.1, 0.7))) for _ in range(n)])
    rows = [[PatientState(b=float(rng.uniform(3.0, 9.0)), s=float(rng.uniform(0.0, 1.0)),
                          theta=float(rng.uniform(0.0, 0.7)), z_prev=int(rng.integers(0, 2)))
             for _ in range(n)] for _ in range(6)]
    C = np.array([0, 1, 2, 3, n, n + 1])
    members = single_patient_action(_stacked(rows), params).sum(axis=1)
    assert (members > C).any() and (members <= C).any()
    assert (members[members > C] > 1).any()  # a row that truly ranks
    for periods in (1, 4):
        _assert_rows_independent(params, rows, C, periods)


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
@given(patient=patient_st)
@settings(max_examples=150, deadline=None)
def test_benefits_equal_the_closed_form_up_to_the_sign_of_a_zero(patient):
    # == treats -0.0 and 0.0 as equal, and a zero's sign only feeds >= 0
    prm, state, visit, _ = patient
    decayed = prm.gamma * (state.s - prm.s_base) + prm.s_base
    slope = prm.alpha - state.theta * prm.beta
    b0, b1 = benefits(state, prm)
    assert b0 == prm.mu - state.theta * decayed + slope * 0
    assert b1 == prm.mu - state.theta * decayed + slope * 1
    assert benefit(state, prm, int(visit)) == (b1 if visit else b0)


def _visits_alone(states, params, C, kind, periods):
    """One row's visit set, each ranked member rolled out on its own."""
    members = np.flatnonzero(single_patient_action(states, params)).tolist()
    if len(members) <= C:
        return set(members)
    alone = {}
    for i in members:
        rs = rollout_cohort(states.take([i]), params.take([i]), periods, DELTA)
        alone[i] = RolloutSummary(int(rs.v_tilde[0]), int(rs.visits[0]))
    if kind == "ea_desc_vtg":
        ranked = sorted(members, key=lambda i: (-alone[i].v_tilde, i))
    else:
        ranked = sorted(members, key=lambda i: (alone[i].visits > 0,
                                                -alone[i].v_tilde / max(alone[i].visits, 1), i))
    return set(ranked[:C])


def _start(states, i, periods):
    """The exact start of member i: index, periods and state bits."""
    bits = np.array([states.b[i], states.s[i], states.theta[i]]).view(np.int64)
    return (i, periods, *bits.tolist(), int(states.z_prev[i]))


# rows mixed patient by patient from a small pool of cohort states, so
# rows share some patients' exact states and not others'
table_st = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(params_st, min_size=n, max_size=n),
    st.lists(st.lists(state_st, min_size=n, max_size=n), min_size=1, max_size=3),
    st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                       st.integers(0, n)), min_size=1, max_size=6),
    st.lists(st.integers(0, 10), min_size=1, max_size=3),
))


@pytest.mark.filterwarnings("ignore:intervention cannot offset progression")
@given(case=table_st)
@settings(max_examples=100, deadline=None)
def test_shared_rollout_table_ranks_as_members_rolled_out_alone(case):
    params, pool, rows, periods_seq = case
    params = ParamArrays.of(params)
    states = _stacked([[pool[pick % len(pool)][j] for j, pick in enumerate(picks)]
                       for picks, _ in rows])
    C = np.array([c for _, c in rows])
    table, seen = RolloutTable(), set()
    for periods in periods_seq:
        for kind in ("ea_desc_vtg", "ea_desc_vtg_per_visit"):
            got = visit_mask(states, params, C, PolicySpec(kind, DELTA), periods, table)
            starts = set()
            for k in range(len(rows)):
                row = StateArrays(*(a[k] for a in states))
                assert set(np.flatnonzero(got.mask[k]).tolist()) == _visits_alone(
                    row, params, int(C[k]), kind, periods), (kind, k)
                if got.members[k] > C[k]:
                    starts |= {_start(row, int(i), periods)
                               for i in np.flatnonzero(single_patient_action(row, params))}
            # the table ran each start it had not seen exactly once
            assert got.rollouts_run.sum() == len(starts - seen)
            seen |= starts


def test_rollout_table_keeps_signed_zeros_apart():
    # three pairs of starts that differ only in the sign of one zero
    prm = PatientParams(p=0.5, mu=1.0, alpha=1.0, beta=0.5, lam=0.5,
                        gamma=0.5, rho=0.5, s_base=0.5, theta_base=0.5)
    pairs = [dict(b=z, s=0.1, theta=0.1) for z in (0.0, -0.0)]
    pairs += [dict(b=1.0, s=z, theta=0.1) for z in (0.0, -0.0)]
    pairs += [dict(b=2.0, s=0.1, theta=z) for z in (0.0, -0.0)]
    states = StateArrays.of([PatientState(z_prev=0, **f) for f in pairs])
    params = ParamArrays.of([prm])
    col = np.zeros(len(pairs), dtype=int)
    table = RolloutTable()
    rs, ran = table.lookup(states, params, col, 4, DELTA)
    assert sorted(ran.tolist()) == list(range(len(pairs)))
    for i in range(len(pairs)):
        alone = rollout_cohort(states.take([i]), params, 4, DELTA)
        assert (rs.v_tilde[i], rs.visits[i]) == (alone.v_tilde[0], alone.visits[0])
    again, ran = table.lookup(states, params, col, 4, DELTA)
    assert len(ran) == 0
    assert again.v_tilde.tolist() == rs.v_tilde.tolist()
    assert again.visits.tolist() == rs.visits.tolist()

    # two capacity rows differing only in the sign of patient 0's theta:
    # the second row reruns patient 0 and shares patient 1
    rows = [[PatientState(b=1.0, s=0.0, theta=z, z_prev=0),
             PatientState(b=2.0, s=0.0, theta=0.5, z_prev=0)] for z in (0.0, -0.0)]
    got = visit_mask(_stacked(rows), ParamArrays.of([prm, prm]), 0,
                     PolicySpec("ea_desc_vtg", DELTA), 4)
    assert got.rolled_out.tolist() == [2, 2]
    assert got.rollouts_run.tolist() == [2, 1]
