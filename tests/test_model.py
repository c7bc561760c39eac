"""Unit and property tests for the patient state model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chwplan.engine import SimulationConfig
from chwplan.model import (
    PatientParams,
    PatientState,
    benefit,
    enroll_decision,
    step_adverse,
    step_fbg,
    step_patient,
    step_perception,
)

# Reference patient groups used across the test suite (means from the builtin
# scenario table; discounts fixed at 0.2).
GROUP_A = PatientParams(p=0.05, mu=0.025, alpha=0.1, beta=0.3, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=1.0, theta_base=0.7)
GROUP_B = PatientParams(p=5.0, mu=4.0, alpha=2.0, beta=1.5, lam=0.5,
                        gamma=0.2, rho=0.2, s_base=0.2, theta_base=0.7)


def make_params(**kw):
    base = dict(p=0.1, mu=1.0, alpha=1.0, beta=0.5, lam=0.5,
                gamma=0.5, rho=0.5, s_base=0.5, theta_base=0.5)
    base.update(kw)
    return PatientParams(**base)


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------

def test_params_reject_negative_fields():
    with pytest.raises(ValueError):
        make_params(mu=-0.1)
    with pytest.raises(ValueError):
        make_params(lam=-1e-9)


def test_params_reject_bad_discounts():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            make_params(gamma=bad)
        with pytest.raises(ValueError):
            make_params(rho=bad)


@pytest.mark.parametrize("name", ["p", "mu", "alpha", "beta", "lam", "gamma", "rho",
                                  "s_base", "theta_base"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(name, bad):
    # nan slips past every comparison-based range check (nan < 0 is False)
    with pytest.raises(ValueError, match=f"PatientParams.{name} must be finite"):
        make_params(**{name: bad})


def test_params_construct_silently_when_intervention_cannot_offset_progression():
    # the regime is a scenario group's property, reported once where a
    # cohort is sampled (test_scenarios), not once per patient: a fit or a
    # draw in it, like an effective one, constructs without a warning
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = make_params(p=7.5, mu=4.0, alpha=2.0)  # group-D-like regime
        make_params(p=0.5, mu=1.0, alpha=1.0)
    assert params.p >= params.mu + params.alpha


def test_state_clamps_b_at_zero_but_rejects_negative_s_theta():
    st_ = PatientState(b=-0.3, s=0.0, theta=0.0, z_prev=0)
    assert st_.b == 0.0
    with pytest.raises(ValueError):
        PatientState(b=1.0, s=-0.1, theta=0.0, z_prev=0)
    with pytest.raises(ValueError):
        PatientState(b=1.0, s=0.0, theta=-0.1, z_prev=0)
    with pytest.raises(ValueError):
        PatientState(b=1.0, s=0.0, theta=0.0, z_prev=2)


@pytest.mark.parametrize("name", ["b", "s", "theta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_rejects_non_finite_fields(name, bad):
    # -inf log-FBG is rejected rather than clamped to 0
    fields = dict(b=1.0, s=0.0, theta=0.0, z_prev=0)
    fields[name] = bad
    with pytest.raises(ValueError, match=f"PatientState.{name} must be finite"):
        PatientState(**fields)


def test_noise_model_validation():
    # the process noise's sd is a SimulationConfig field
    assert SimulationConfig().sigma_xi == 0.05
    with pytest.raises(ValueError):
        SimulationConfig(sigma_xi=-0.1)


# ---------------------------------------------------------------------------
# frozen single-step examples
# ---------------------------------------------------------------------------

def test_step_fbg_unenrolled_drift():
    s = PatientState(b=5.0, s=0.0, theta=0.7, z_prev=0)
    assert step_fbg(s, make_params(p=0.05), y=0, z=0, xi=0.0) == pytest.approx(5.05, abs=1e-12)


def test_step_fbg_enrolled_visited_group_b():
    s = PatientState(b=5.0, s=0.0, theta=0.7, z_prev=1)
    assert step_fbg(s, GROUP_B, y=1, z=1, xi=0.0) == pytest.approx(4.0, abs=1e-12)


def test_step_fbg_identity():
    prm = PatientParams(p=0.0, mu=1.0, alpha=1.0, beta=0.5, lam=0.5,
                        gamma=0.5, rho=0.5, s_base=0.5, theta_base=0.5)
    s = PatientState(b=5.0, s=0.0, theta=0.5, z_prev=0)
    assert step_fbg(s, prm, y=0, z=0, xi=0.0) == 5.0


def test_step_adverse_visit_while_enrolled():
    prm = make_params(s_base=0.5, beta=0.5, gamma=0.2)
    assert step_adverse(0.5, prm, y=1, z=1) == pytest.approx(1.0, abs=1e-12)


def test_step_adverse_decay_step():
    prm = make_params(s_base=0.5, beta=0.5, gamma=0.2)
    assert step_adverse(1.0, prm, y=0, z=1) == pytest.approx(0.6, abs=1e-12)


def test_step_adverse_zero_when_unenrolled():
    prm = make_params()
    for s in (0.0, 0.3, 7.7):
        assert step_adverse(s, prm, y=1, z=0) == 0.0


def test_step_perception_visit_wipes_out_importance():
    prm = make_params(theta_base=0.5, lam=0.5, rho=0.2)
    assert step_perception(0.5, prm, y=1, z=1) == pytest.approx(0.0, abs=1e-12)


def test_step_perception_decays_back_toward_base():
    prm = make_params(theta_base=0.5, lam=0.5, rho=0.2)
    assert step_perception(0.0, prm, y=0, z=1) == pytest.approx(0.4, abs=1e-12)


def test_step_perception_steady_state():
    prm = make_params(theta_base=0.5)
    assert step_perception(0.5, prm, y=0, z=0) == pytest.approx(0.5, abs=1e-12)


def test_benefit_zero_importance_equals_mu():
    prm = make_params(mu=2.5)
    for s in (0.0, 1.0, 4.0):
        state = PatientState(b=5.0, s=s, theta=0.0, z_prev=0)
        assert benefit(state, prm, y=0) == pytest.approx(2.5, abs=1e-12)


def test_benefit_group_a_at_steady_state():
    state = PatientState(b=5.0, s=1.0, theta=0.7, z_prev=1)
    assert benefit(state, GROUP_A, y=0) == pytest.approx(-0.675, abs=1e-12)
    assert benefit(state, GROUP_A, y=1) == pytest.approx(-0.785, abs=1e-12)


def test_benefit_never_reads_noise():
    # the closed form has no xi argument at all; spot-check it is stable
    # across states that differ only through a noisy b
    prm = make_params()
    b_vals = [0.0, 2.0, 9.9]
    outs = {benefit(PatientState(b=b, s=0.5, theta=0.5, z_prev=1), prm, 1) for b in b_vals}
    assert len(outs) == 1


def test_enroll_decision_cases():
    assert enroll_decision(0, 0, 10.0) == 0   # never offered
    assert enroll_decision(1, 0, 0.0) == 1    # tie breaks toward enrolling
    assert enroll_decision(1, 0, -0.1) == 0   # drops out
    assert enroll_decision(0, 1, 0.0) == 1
    assert enroll_decision(0, 1, -1e-12) == 0


def test_lemma_enrollment_monotone_in_z_prev_exhaustive():
    # 8-point domain: sign of B x y x z_prev step
    for B in (-1.0, 0.0, 1.0):
        for y in (0, 1):
            assert enroll_decision(0, y, B) <= enroll_decision(1, y, B)


# ---------------------------------------------------------------------------
# frozen one-period composition examples
# ---------------------------------------------------------------------------

def test_step_patient_group_a_declines():
    state = PatientState(b=5.0, s=0.0, theta=0.7, z_prev=0)
    nxt, z = step_patient(state, GROUP_A, y=1, xi=0.0)
    assert z == 0
    assert nxt.b == pytest.approx(5.05, abs=1e-12)
    assert nxt.s == 0.0
    assert nxt.z_prev == 0


def test_step_patient_group_b_enrolls():
    state = PatientState(b=6.0, s=0.0, theta=0.7, z_prev=0)
    nxt, z = step_patient(state, GROUP_B, y=1, xi=0.0)
    assert z == 1
    assert nxt.b == pytest.approx(5.0, abs=1e-12)
    assert nxt.z_prev == 1


def test_step_patient_unvisited_unenrolled_advances_quietly():
    prm = make_params(theta_base=0.5, rho=0.2)
    state = PatientState(b=5.0, s=0.0, theta=0.9, z_prev=0)
    nxt, z = step_patient(state, prm, y=0, xi=0.0)
    assert z == 0
    assert nxt.s == 0.0
    # theta decays toward its base
    assert abs(nxt.theta - 0.5) < abs(state.theta - 0.5)


# ---------------------------------------------------------------------------
# decay / growth properties
# ---------------------------------------------------------------------------

def test_fbg_exponential_growth_interpretation():
    prm = make_params(p=0.07)
    b = 4.2
    state = PatientState(b=b, s=0.0, theta=0.5, z_prev=0)
    for n in range(1, 25):
        state, _ = step_patient(state, prm, y=0, xi=0.0)
        expected = math.exp(b) * math.exp(n * prm.p)
        assert math.exp(state.b) == pytest.approx(expected, rel=1e-12)


def test_adverse_decay_exact_for_dyadic_gamma():
    prm = make_params(gamma=0.5, s_base=0.5, beta=0.5)
    s = 4.5
    for t in range(1, 20):
        s = step_adverse(s, prm, y=0, z=1)
        assert abs(s - prm.s_base) == 0.5 ** t * abs(4.5 - prm.s_base)


@given(
    gamma=st.floats(min_value=0.01, max_value=0.99),
    s0=st.floats(min_value=0.0, max_value=50.0),
    s_base=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_adverse_decay_contraction(gamma, s0, s_base):
    prm = make_params(gamma=gamma, s_base=s_base)
    s = s0
    # the exact bound holds up to accumulated rounding around s_base
    dust = 8 * np.finfo(float).eps * max(1.0, s0, s_base)
    for t in range(1, 8):
        s = step_adverse(s, prm, y=0, z=1)
        bound = gamma ** t * abs(s0 - s_base)
        assert abs(s - s_base) <= bound + t * dust


@given(
    rho=st.floats(min_value=0.01, max_value=0.99),
    th0=st.floats(min_value=0.0, max_value=50.0),
    th_base=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_perception_decay_contraction_without_visits(rho, th0, th_base):
    prm = make_params(rho=rho, theta_base=th_base)
    th = th0
    dust = 8 * np.finfo(float).eps * max(1.0, th0, th_base)
    for t in range(1, 8):
        th = step_perception(th, prm, y=0, z=1)
        bound = rho ** t * abs(th0 - th_base)
        assert abs(th - th_base) <= bound + t * dust


def test_perception_floor_activates_only_for_large_lam():
    prm = make_params(theta_base=0.2, lam=5.0, rho=0.5)
    assert step_perception(0.3, prm, y=1, z=1) == 0.0


# ---------------------------------------------------------------------------
# composition consistency
# ---------------------------------------------------------------------------

def test_step_patient_matches_manual_composition_on_random_inputs():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        prm = PatientParams(
            p=float(rng.uniform(0, 8)),
            mu=float(rng.uniform(0, 8)),
            alpha=float(rng.uniform(0, 8)),
            beta=float(rng.uniform(0, 3)),
            lam=float(rng.uniform(0, 3)),
            gamma=float(rng.uniform(0.05, 0.95)),
            rho=float(rng.uniform(0.05, 0.95)),
            s_base=float(rng.uniform(0, 3)),
            theta_base=float(rng.uniform(0, 3)),
        )
        state = PatientState(
            b=float(rng.uniform(0, 10)),
            s=float(rng.uniform(0, 5)),
            theta=float(rng.uniform(0, 5)),
            z_prev=int(rng.integers(0, 2)),
        )
        y = int(rng.integers(0, 2))
        xi = float(rng.normal(0, 0.5))

        nxt, z = step_patient(state, prm, y, xi)

        B = benefit(state, prm, y)
        z_manual = enroll_decision(state.z_prev, y, B)
        assert z == z_manual
        assert nxt.b == max(0.0, step_fbg(state, prm, y, z_manual, xi))
        assert nxt.s == step_adverse(state.s, prm, y, z_manual)
        assert nxt.theta == step_perception(state.theta, prm, y, z_manual)
        assert nxt.z_prev == z_manual
