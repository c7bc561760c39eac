"""The cohort (struct-of-arrays) paths against the per-patient scalar ones.

One array step, the visit mask and the batched rollout must reproduce,
element by element and exactly (compared with ==), what step_patient,
single_patient_action and a per-patient rollout loop give for each patient
on its own; each row of a batched visit_mask (one row per capacity
level) must be what a one-row call on that row alone decides; and the
rollouts one call shares among its rows and policies must rank exactly as
a rollout of each member on its own; and rollouts walked over one RuleTable
shared by many calls must count exactly what fresh tables and the
reference rollout count.
Byte-identical simulation outputs rest on this.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chwplan.engine import Cohort, SimulationConfig, capacity_sweep, simulate
from chwplan.model import (
    ParamArrays,
    PatientParams,
    PatientState,
    StateArrays,
    benefit,
    benefits,
    fbg_update,
    step_cohort,
    step_fbg,
    step_patient,
)
from chwplan.policy import (
    POLICY_KINDS,
    PolicySpec,
    RolloutSummary,
    RuleTable,
    interest_set,
    rollout_single,
    single_patient_action,
    visit_mask,
)

from _reference import Params as RefParams
from _reference import rollout as reference_rollout

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
    xi = np.random.default_rng(0).normal(0.0, 0.5, len(params.p))
    for kind in POLICY_KINDS:
        spec = (PolicySpec(kind),)
        batched = visit_mask(states, params, C, spec, periods, DELTA)
        # step_cohort's B, computed once per decision, steps as its own benefit
        decided = states.take(batched.state)
        assert batched.benefit.tobytes() == benefit(decided, params, batched.mask).tobytes(), kind
        stepped = [[a.tobytes() for a in (*nxt, z)] for nxt, z in (
            step_cohort(decided, params, batched.mask, xi, batched.benefit),
            step_cohort(decided, params, batched.mask, xi))]
        assert stepped[0] == stepped[1], kind
        for k, row in enumerate(rows):
            alone = visit_mask(_stacked([row]), params, C[k:k + 1], spec, periods, DELTA)
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


@given(cohort=cohort_st)
@settings(max_examples=150, deadline=None)
def test_array_step_equals_per_patient_steps(cohort):
    _assert_step_matches(cohort)


@given(cohort=cohort_st)
@settings(max_examples=150, deadline=None)
def test_action_mask_equals_per_patient_actions(cohort):
    states, params = _arrays(cohort)
    mask = single_patient_action(states, params)
    expected = [bool(single_patient_action(s, p)) for p, s, _, _ in cohort]
    assert mask.tolist() == expected
    assert interest_set([s for _, s, _, _ in cohort], [p for p, _, _, _ in cohort]) == {
        i for i, v in enumerate(expected) if v}


@given(cohort=cohort_st, periods=st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_batched_rollout_equals_per_patient_rollouts(cohort, periods):
    states, params = _arrays(cohort)
    batched = RuleTable(params).rollout(np.arange(len(cohort)), states, periods, DELTA)
    for i, (prm, state, _, _) in enumerate(cohort):
        single = rollout_single(state, prm, periods, DELTA)
        assert (batched.v_tilde[i], batched.visits[i]) == (single.v_tilde, single.visits)
        assert (single.v_tilde, single.visits) == _scalar_rollout(state, prm, periods, DELTA)


@given(cohort=cohort_st, periods=st.integers(1, 15))
@settings(max_examples=150, deadline=None)
def test_every_interest_set_member_rolls_out_a_visit(cohort, periods):
    # a member's rollout starts from its state under the rule that made it
    # a member, so the value-per-visit key never sees zero visits
    states, params = _arrays(cohort)
    members = single_patient_action(states, params)
    rs = RuleTable(params).rollout(np.arange(len(cohort)), states, periods, DELTA)
    assert (rs.visits[members] >= 1).all()


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


@given(case=rows_st)
@settings(max_examples=150, deadline=None)
def test_visit_mask_rows_equal_one_row_calls(case):
    params, rows, periods = case
    _assert_rows_independent(ParamArrays.of(params), [s for s, _ in rows],
                             np.array([c for _, c in rows]), periods)


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


def _visits_alone(states, params, C, kind, periods, delta):
    """One row's visit set, each ranked member rolled out on its own."""
    members = np.flatnonzero(single_patient_action(states, params)).tolist()
    if len(members) <= C:
        return set(members)
    alone = {}
    for i in members:
        rs = RuleTable(params).rollout(np.array([i]), states.take([i]), periods, delta)
        alone[i] = RolloutSummary(int(rs.v_tilde[0]), int(rs.visits[0]))
    if kind == "ea_desc_vtg":
        ranked = sorted(members, key=lambda i: (-alone[i].v_tilde, i))
    else:
        ranked = sorted(members, key=lambda i: (alone[i].visits > 0,
                                                -alone[i].v_tilde / max(alone[i].visits, 1), i))
    return set(ranked[:C])


def _start(states, i):
    """The exact start of member i: index, state bits and z_prev."""
    bits = np.array([states.b[i], states.s[i], states.theta[i]]).view(np.int64)
    return (i, *bits.tolist(), int(states.z_prev[i]))


# capacity levels whose rows are mixed patient by patient from a small pool
# of cohort states, so rows share some patients' exact states and not
# others'; and value-to-go policies, all at one of two thresholds per call
VTG_KINDS = ("ea_desc_vtg", "ea_desc_vtg_per_visit")
shared_st = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(params_st, min_size=n, max_size=n),
    st.lists(st.lists(state_st, min_size=n, max_size=n), min_size=1, max_size=3),
    st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                       st.integers(0, n)), min_size=1, max_size=6),
    st.lists(st.sampled_from(VTG_KINDS), min_size=1, max_size=3),
    st.sampled_from((DELTA, 1.0)),
    st.integers(0, 10),
))


@given(case=shared_st)
@settings(max_examples=100, deadline=None)
def test_shared_rollouts_rank_as_members_rolled_out_alone(case):
    params, pool, levels, kinds, delta, periods = case
    params = ParamArrays.of(params)
    states = _stacked([[pool[pick % len(pool)][j] for j, pick in enumerate(picks)]
                       for picks, _ in levels])
    C = np.array([c for _, c in levels])
    specs = [PolicySpec(kind) for kind in kinds]
    got = visit_mask(states, params, C, specs, periods, delta,
                     np.tile(np.arange(len(C)), len(specs)))
    first_row = {}
    for r, (spec, k) in enumerate((spec, k) for spec in specs for k in range(len(C))):
        level = StateArrays(*(a[k] for a in states))
        assert set(np.flatnonzero(got.mask[got.row[r]]).tolist()) == _visits_alone(
            level, params, int(C[k]), spec.kind, periods, delta), (spec, k)
        if got.members[r] > C[k]:
            for i in np.flatnonzero(single_patient_action(level, params)):
                first_row.setdefault(_start(level, int(i)), r)
    # the call ran each distinct start once, counted in the first row holding it
    assert got.rollouts_run.tolist() == np.bincount(
        list(first_row.values()), minlength=len(specs) * len(C)).tolist()


def test_rollout_starts_keep_signed_zeros_apart():
    # three patients, each in three rows: the second row differs from the
    # first only in the sign of one zero per patient, the third equals the first
    prm = PatientParams(p=0.5, mu=1.0, alpha=1.0, beta=0.5, lam=0.5,
                        gamma=0.5, rho=0.5, s_base=0.5, theta_base=0.5)
    rows = [[PatientState(b=z, s=0.1, theta=0.1, z_prev=0),
             PatientState(b=1.0, s=z, theta=0.1, z_prev=0),
             PatientState(b=2.0, s=0.1, theta=z, z_prev=0)] for z in (0.0, -0.0, 0.0)]
    params = ParamArrays.of([prm] * 3)
    got = visit_mask(_stacked(rows), params, np.zeros(3, dtype=int),
                     (PolicySpec("ea_desc_vtg"),), 4, DELTA)
    assert got.rolled_out.tolist() == [3, 3, 3]
    assert got.rollouts_run.tolist() == [3, 3, 0]
    # two rows differing only in the sign of patient 0's theta: the second
    # row reruns patient 0 and shares patient 1, whose rollouts tie, so both
    # rows keep patient 0
    rows = [[PatientState(b=1.0, s=0.0, theta=z, z_prev=0),
             PatientState(b=2.0, s=0.0, theta=0.5, z_prev=0)] for z in (0.0, -0.0)]
    got = visit_mask(_stacked(rows), ParamArrays.of([prm, prm]), np.array([1, 1]),
                     (PolicySpec("ea_desc_vtg"),), 4, DELTA)
    assert got.rolled_out.tolist() == [2, 2]
    assert got.rollouts_run.tolist() == [2, 1]
    for k, row in enumerate(rows):
        assert set(np.flatnonzero(got.mask[got.row[k]]).tolist()) == _visits_alone(
            StateArrays.of(row), ParamArrays.of([prm, prm]), 1, "ea_desc_vtg", 4, DELTA)


# a sweep over every kind at once, at one of three thresholds; fractions
# that round to C = 0 or C = n on these small cohorts, deduplicated in the
# test (a config takes each fraction once), while distinct fractions may
# still round to one C
sweep_st = st.tuples(
    st.lists(st.tuples(params_st, state_st), min_size=1, max_size=6),
    st.permutations(POLICY_KINDS),
    st.sampled_from((125.0, math.exp(1.0), math.exp(2.5))),
    st.lists(st.sampled_from((0.01, 0.2, 0.34, 0.5, 0.75, 1.0)), min_size=1, max_size=4),
    st.integers(1, 6),
    st.integers(1, 2),
    st.sampled_from((0.0, 0.3)),
)


@given(case=sweep_st)
@settings(max_examples=40, deadline=None)
def test_sweep_rows_equal_one_spec_simulations(case):
    patients, kinds, delta_mgdl, fractions, horizon, reps, sigma_xi = case
    cohort = Cohort(params=tuple(p for p, _ in patients),
                    initial_states=tuple(s for _, s in patients))
    config = SimulationConfig(horizon=horizon, capacity_fractions=tuple(sorted(set(fractions))),
                              replications=reps, base_seed=3, sigma_xi=sigma_xi,
                              delta_mgdl=delta_mgdl)
    specs = [PolicySpec(kind) for kind in kinds]
    swept = capacity_sweep(lambda seed: cohort, specs, config)
    per_spec = [r for spec in specs for r in capacity_sweep(lambda seed: cohort, [spec], config)]
    alone = {(spec.kind, f, rep): simulate(cohort, spec, config, f, rep)
             for spec in specs for f in config.capacity_fractions for rep in range(reps)}

    def outputs(r):
        return dataclasses.replace(r, rollouts_run=0, rollout_steps_run=0)

    for r in swept:
        assert outputs(r) == outputs(alone[r.policy_kind, r.capacity_fraction, r.replication])
    for key in ("rollouts_run", "rollout_steps_run"):
        assert (sum(getattr(r, key) for r in swept) <= sum(getattr(r, key) for r in per_spec)
                <= sum(getattr(r, key) for r in alone.values()))
    assert all(r.periods_stepped == horizon for r in alone.values())
    # the first row steps every period; later rows step only what is new
    stepped = [r.periods_stepped for r in swept]
    assert max(stepped) == horizon and sum(stepped) <= len(swept) * horizon


# rollouts over one RuleTable of a cohort: starts (patient, b, s, theta,
# z_prev) drawn from a small pool, so that they repeat within and across
# calls, with both signed zeros of s and theta and theta on its floor;
# then calls, each a list of pool picks, a threshold and a horizon
zero_st = st.sampled_from((0.0, -0.0))
start_st = st.tuples(st.one_of(zero_st, st.floats(0.0, 10.0, **unit)),
                     st.one_of(zero_st, st.floats(0.0, 5.0, **unit)),
                     st.one_of(zero_st, st.floats(0.0, 5.0, **unit)),
                     st.integers(0, 1))
calls_st = st.lists(st.tuples(
    st.lists(st.integers(0, 99), min_size=1, max_size=8),
    st.sampled_from((DELTA, 1.0, 2.5)),
    st.integers(0, 60)), min_size=1, max_size=5)


def _table_case(params=params_st):
    return st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(params, min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), start_st), min_size=1, max_size=6),
        calls_st))


def _starts(pool, picks):
    """The patients and StateArrays of the picked pool starts."""
    members = [pool[k % len(pool)] for k in picks]
    return (np.array([i for i, _ in members], dtype=np.intp),
            StateArrays.of([PatientState(*start) for _, start in members]))


def _counts(rs):
    return rs.v_tilde.tolist(), rs.visits.tolist()


def _assert_as_reference(rs, params, patient, states, periods, delta):
    for j, i in enumerate(patient.tolist()):
        ref = RefParams(*(getattr(params[i], f) for f in RefParams._fields))
        assert (rs.v_tilde[j], rs.visits[j]) == reference_rollout(
            ref, states.b[j], states.s[j], states.theta[j], int(states.z_prev[j]),
            periods, delta), j


@given(case=_table_case())
@settings(max_examples=100, deadline=None)
def test_shared_rule_table_rolls_out_as_fresh_tables_and_the_reference(case):
    params, pool, calls = case
    cohort = ParamArrays.of(params)
    table = RuleTable(cohort)
    for picks, delta, periods in calls:
        patient, states = _starts(pool, picks)
        shared = table.rollout(patient, states, periods, delta)
        assert _counts(shared) == _counts(
            RuleTable(cohort).rollout(patient, states, periods, delta))
        _assert_as_reference(shared, params, patient, states, periods, delta)


@given(case=_table_case(), b=st.lists(st.floats(0.0, 10.0, **unit), min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_starts_differing_only_in_b_share_every_node(case, b):
    params, pool, calls = case
    cohort = ParamArrays.of(params)
    picks, _, periods = calls[0]
    patient, states = _starts(pool, picks)
    table = RuleTable(cohort)
    table.rollout(patient, states, periods, DELTA)
    nodes, rule = len(table.keys), table.rule.copy()
    moved = states._replace(b=np.array(b[:len(patient)]))
    got = table.rollout(patient, moved, periods, DELTA)
    assert len(table.keys) == nodes and table.rule.tolist() == rule.tolist()
    assert _counts(got) == _counts(RuleTable(cohort).rollout(patient, moved, periods, DELTA))


@given(case=_table_case(params_st.map(
    lambda prm: dataclasses.replace(prm, gamma=0.99, rho=0.99))))
@settings(max_examples=100, deadline=None)
def test_rollout_expands_no_more_levels_than_its_horizon(case):
    # with gamma and rho near 1, a walk keeps reaching new states for
    # thousands of steps: only the 3 levels a 3-step walk reads are expanded
    params, pool, calls = case
    patient, states = _starts(pool, calls[0][0])
    table = RuleTable(ParamArrays.of(params))
    got = table.rollout(patient, states, 3, DELTA)
    bits = np.column_stack((states.s, states.theta)).view(np.int64)
    starts = set(zip(patient.tolist(), map(tuple, bits.tolist()), states.z_prev.tolist()))
    assert np.count_nonzero(table.rule[:, 2] >= 0) <= 3 * len(starts)
    assert len(table.keys) <= 4 * len(starts)
    _assert_as_reference(got, params, patient, states, 3, DELTA)


def test_rule_table_expands_each_level_once():
    prm = PatientParams(p=0.5, mu=1.0, alpha=1.0, beta=0.5, lam=0.5,
                        gamma=0.99, rho=0.99, s_base=0.5, theta_base=0.5)
    table = RuleTable(ParamArrays.of([prm]))
    start = StateArrays.of([PatientState(b=5.0, s=0.1, theta=0.1, z_prev=1)])
    for periods in (3, 60, 60):
        rs = table.rollout(np.array([0]), start, periods, DELTA)
        assert (int(rs.v_tilde[0]), int(rs.visits[0])) == _scalar_rollout(
            PatientState(b=5.0, s=0.1, theta=0.1, z_prev=1), prm, periods, DELTA)
        # every step reached a new state: one node per level, expanded once
        assert np.count_nonzero(table.rule[:, 2] >= 0) == periods
        assert len(table.keys) == periods + 1


def _stepwise_log_fbg(prm, start, periods):
    """A noise-free rollout's post-transition log-FBG per step, and its
    visits, one step at a time: y, z, s and theta from the rule and
    step_patient, b from fbg_update floored by np.where, each a new value."""
    state, b, visits = start, [], 0
    for _ in range(periods):
        y = int(single_patient_action(state, prm))
        nxt, z = step_patient(state, prm, y, 0.0)
        step = fbg_update(state.b, prm.p, prm.mu * z, prm.alpha * (y * z), 0.0)
        b.append(float(np.where(step < 0.0, 0.0, step)))
        state = dataclasses.replace(nxt, b=b[-1])
        visits += y
    return b, visits


# drift slower than enrollment and visits pull log-FBG down, from starts
# near 0, so the floor binds on many steps
floored_params_st = st.builds(
    PatientParams,
    p=st.floats(0.0, 0.5, **unit), mu=st.floats(0.0, 3.0, **unit),
    alpha=st.floats(0.0, 3.0, **unit), beta=st.floats(0.0, 1.0, **unit),
    lam=st.floats(0.0, 1.0, **unit), gamma=st.floats(0.05, 0.95, **unit),
    rho=st.floats(0.05, 0.95, **unit), s_base=st.floats(0.0, 1.0, **unit),
    theta_base=st.floats(0.0, 1.0, **unit),
)
floored_start_st = st.builds(PatientState, b=st.one_of(zero_st, st.floats(0.0, 2.0, **unit)),
                             s=st.floats(0.0, 1.0, **unit), theta=st.floats(0.0, 1.0, **unit),
                             z_prev=st.integers(0, 1))


@given(starts=st.lists(st.tuples(floored_params_st, floored_start_st), min_size=1, max_size=6),
       periods=st.integers(1, 30), pick=st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_rollout_advances_log_fbg_as_stepwise_updates(starts, periods, pick):
    # thresholds at the stepwise log-FBG values themselves: a count moves if
    # any step's b differs by one ulp from the stepwise update's
    params = ParamArrays.of([prm for prm, _ in starts])
    patient = np.arange(len(starts))
    states = StateArrays.of([start for _, start in starts])
    walks = [_stepwise_log_fbg(prm, start, periods) for prm, start in starts]
    values = sorted({v for b, _ in walks for v in b})
    for delta in (0.0, values[pick % len(values)], values[-1 - pick % len(values)]):
        rs = RuleTable(params).rollout(patient, states, periods, delta)
        assert rs.v_tilde.tolist() == [sum(v <= delta for v in b) for b, _ in walks], delta
        assert rs.visits.tolist() == [visits for _, visits in walks], delta


def test_rule_table_walk_floors_log_fbg():
    # two visits pull b below 0 and the floor holds it at 0; without the
    # floor the patient would stay in control for 9 of 12 periods, not 3
    prm = PatientParams(p=0.6, mu=1.5, alpha=1.2, beta=0.9, lam=0.4,
                        gamma=0.5, rho=0.5, s_base=1.8, theta_base=2.3)
    start = PatientState(b=0.5, s=1.8, theta=0.0, z_prev=0)
    ref = RefParams(*(getattr(prm, f) for f in RefParams._fields))
    assert reference_rollout(ref, 0.5, 1.8, 0.0, 0, 12, 1.0) == (3, 2)
    rs = RuleTable(ParamArrays.of([prm])).rollout(np.array([0]), StateArrays.of([start]), 12, 1.0)
    assert (int(rs.v_tilde[0]), int(rs.visits[0])) == (3, 2)
