"""The array model against an independent oracle.

tests/_reference.py restates PAPER.md's model, visit rule and rollout in
plain Python, one patient at a time, with no chwplan code. step_cohort,
single_patient_action and RuleTable.rollout must match it for every patient,
exactly: floats are compared with ==. visit_mask must keep, row by row,
the C best candidates that a plain sorted() over the reference picks.

== holds -0.0 and 0.0 equal, and that is the only slack. The reference
floors with max(x, 0.0), which keeps a -0.0, while the array path's theta
floor gives 0.0; and PAPER.md's y=0 benefit adds (alpha - theta*beta)*0,
a signed zero, which the array path does not. No decision reads the sign
of a zero (each compares with >= 0, < 0 or >). Compared bit for bit on
20,000 generated cohorts, the two sides did not differ at all.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chwplan.model import ParamArrays, StateArrays, step_cohort
from chwplan.policy import EA_KINDS, PolicySpec, RuleTable, single_patient_action, visit_mask

from _reference import Params, rollout, step, visit_pays

DELTA = math.log(125.0)

unit = dict(allow_nan=False, allow_infinity=False)


def _value(lo, hi):
    # 0 hits the ties (a benefit of exactly 0) and the clamps
    return st.one_of(st.just(0.0), st.floats(lo, hi, **unit))


params_st = st.builds(
    Params, p=_value(0.0, 8.0), mu=_value(0.0, 8.0), alpha=_value(0.0, 8.0),
    beta=_value(0.0, 5.0), lam=_value(0.0, 5.0), gamma=st.floats(0.05, 0.95, **unit),
    rho=st.floats(0.05, 0.95, **unit), s_base=_value(0.0, 3.0),
    theta_base=_value(0.0, 3.0))
# (b, s, theta, z_prev)
state_st = st.tuples(_value(0.0, 10.0), _value(0.0, 5.0), _value(0.0, 5.0), st.integers(0, 1))
# (params, state, y, xi) per patient
patient_st = st.tuples(params_st, state_st, st.integers(0, 1), st.floats(-3.0, 3.0, **unit))
cohort_st = st.lists(patient_st, min_size=1, max_size=12)


def _arrays(cohort):
    params = ParamArrays(*(np.array(f) for f in zip(*(prm for prm, _, _, _ in cohort))))
    b, s, theta, z_prev = zip(*(state for _, state, _, _ in cohort))
    return StateArrays(np.array(b), np.array(s), np.array(theta), np.array(z_prev)), params


@given(cohort=cohort_st)
@settings(max_examples=200, deadline=None)
def test_step_cohort_matches_the_reference_step(cohort):
    states, params = _arrays(cohort)
    y = np.array([visit for _, _, visit, _ in cohort], dtype=bool)
    xi = np.array([noise for _, _, _, noise in cohort])
    nxt, z = step_cohort(states, params, y, xi)
    for i, (prm, state, visit, noise) in enumerate(cohort):
        got = (nxt.b[i], nxt.s[i], nxt.theta[i], z[i])
        assert got == step(prm, *state, visit, noise), i


@given(cohort=cohort_st)
@settings(max_examples=200, deadline=None)
def test_single_patient_action_matches_the_reference_rule(cohort):
    states, params = _arrays(cohort)
    mask = single_patient_action(states, params)
    for i, (prm, (_, s, theta, z_prev), _, _) in enumerate(cohort):
        assert mask[i] == visit_pays(prm, s, theta, z_prev), i


@given(cohort=cohort_st, periods=st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_rule_table_rollout_matches_the_reference_rollout(cohort, periods):
    states, params = _arrays(cohort)
    rs = RuleTable(params).rollout(np.arange(len(cohort)), states, periods, DELTA)
    for i, (prm, state, _, _) in enumerate(cohort):
        assert (rs.v_tilde[i], rs.visits[i]) == rollout(prm, *state, periods, DELTA), i


RANKED_KINDS = ("asc_fbg", "desc_fbg") + EA_KINDS
# n patients' params, K rows of (n states, capacity), periods remaining
rows_st = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(params_st, min_size=n, max_size=n),
    st.lists(st.tuples(st.lists(state_st, min_size=n, max_size=n), st.integers(0, n)),
             min_size=1, max_size=3),
    st.integers(0, 10)))


def _reference_visits(kind, params, states, C, periods):
    """The C best candidates of one row, by sorted() over reference keys."""
    candidates = [i for i, (prm, (_, s, theta, z_prev)) in enumerate(zip(params, states))
                  if not kind.startswith("ea_") or visit_pays(prm, s, theta, z_prev)]

    def key(i):
        b = states[i][0]
        if kind.endswith("fbg"):
            return (b if "asc" in kind else -b, i)
        v_tilde, visits = rollout(params[i], *states[i], periods, DELTA)
        if kind == "ea_desc_vtg":
            return (-v_tilde, i)
        return (visits > 0, -v_tilde / max(visits, 1), i)

    return set(sorted(candidates, key=key)[:C])


@given(case=rows_st)
@settings(max_examples=100, deadline=None)
def test_visit_mask_keeps_the_reference_c_best(case):
    params, rows, periods = case
    arrays = ParamArrays(*(np.array(f) for f in zip(*params)))
    states = StateArrays(*(np.array([[state[j] for state in row] for row, _ in rows])
                           for j in range(4)))
    C = np.array([c for _, c in rows])
    for kind in RANKED_KINDS:
        mask = visit_mask(states, arrays, C, (PolicySpec(kind),), periods, DELTA).mask
        for k, (row, c) in enumerate(rows):
            assert (set(np.flatnonzero(mask[k]).tolist())
                    == _reference_visits(kind, params, row, c, periods)), (kind, k)
