"""Patient-level state model for CHW diabetes interventions.

A patient carries four pieces of state: log fasting blood glucose (b),
an adverse-factors level (s, social stigma / cognitive burden of being
in the program), the perceived importance of those adverse factors
(theta), and whether they were enrolled in the previous period (z_prev).
Each period the provider decides whether to visit (y); the patient then
decides whether to (stay) enrolled (z) by thresholding a closed-form
net benefit, and all states advance through linear dynamics.

Everything in this module is a pure function of its arguments. The
dynamics read their inputs by attribute and use only elementwise
operations, so the same functions advance one patient (PatientState,
PatientParams, Python numbers) or a whole cohort held as struct-of-arrays
(StateArrays, ParamArrays, numpy arrays) with identical floating-point
results per patient.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def _require_finite(record, names) -> None:
    """Reject nan and +-inf: no comparison-based range check catches nan."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(record).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class PatientParams:
    """Per-patient behavioral constants.

    Attributes:
        p: log-FBG drift per period (disease progression, log units).
        mu: log-FBG reduction per period while enrolled.
        alpha: extra log-FBG reduction in a period with a management visit.
        beta: adverse-factor increase per visit received while enrolled.
        lam: drop in perceived importance per visit received while enrolled.
        gamma: adverse-factor carryover per period, in (0, 1).
        rho: perception carryover per period, in (0, 1).
        s_base: steady-state adverse-factor level while enrolled.
        theta_base: steady-state perceived importance.
    """

    p: float
    mu: float
    alpha: float
    beta: float
    lam: float
    gamma: float
    rho: float
    s_base: float
    theta_base: float

    def __post_init__(self):
        _require_finite(self, self.__dataclass_fields__)
        for name in ("p", "mu", "alpha", "beta", "lam", "s_base", "theta_base"):
            if getattr(self, name) < 0:
                raise ValueError(f"PatientParams.{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"PatientParams.gamma must be in (0, 1), got {self.gamma}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"PatientParams.rho must be in (0, 1), got {self.rho}")


@dataclass(frozen=True)
class PatientState:
    """Evolving patient state (b, s, theta, z_prev).

    b is clamped at 0 on construction; process noise may push the raw
    update negative but log-FBG is kept in the model's feasible region.
    """

    b: float
    s: float
    theta: float
    z_prev: int

    def __post_init__(self):
        _require_finite(self, ("b", "s", "theta"))
        if self.b < 0.0:
            object.__setattr__(self, "b", 0.0)
        if self.s < 0:
            raise ValueError(f"PatientState.s must be >= 0, got {self.s}")
        if self.theta < 0:
            raise ValueError(f"PatientState.theta must be >= 0, got {self.theta}")
        if self.z_prev not in (0, 1):
            raise ValueError(f"PatientState.z_prev must be 0 or 1, got {self.z_prev}")


class ParamArrays(NamedTuple):
    """A cohort's PatientParams as aligned float arrays, one entry per patient."""

    p: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    rho: np.ndarray
    s_base: np.ndarray
    theta_base: np.ndarray

    @classmethod
    def of(cls, params: Sequence[PatientParams]) -> "ParamArrays":
        return cls(*(np.array([getattr(x, f) for x in params], dtype=float)
                     for f in cls._fields))

    def take(self, index: np.ndarray) -> "ParamArrays":
        return ParamArrays(*(a[index] for a in self))


class StateArrays(NamedTuple):
    """A cohort's PatientStates as aligned arrays (z_prev as ints)."""

    b: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    z_prev: np.ndarray

    @classmethod
    def of(cls, states: Sequence[PatientState]) -> "StateArrays":
        return cls(*(np.array([getattr(x, f) for x in states],
                              dtype=int if f == "z_prev" else float)
                     for f in cls._fields))

    def take(self, index: np.ndarray) -> "StateArrays":
        return StateArrays(*(a[index] for a in self))


# One patient or a whole cohort; numbers are Python scalars or arrays.
State = Union[PatientState, StateArrays]
Params = Union[PatientParams, ParamArrays]
Num = Union[float, np.ndarray]

# ---------------------------------------------------------------------------
# state dynamics
# ---------------------------------------------------------------------------


def step_fbg(state: State, params: Params, y: Num, z: Num, xi: Num) -> Num:
    """Next log-FBG: b + p - mu*z - alpha*y*z + xi.

    Unmitigated, log-FBG drifts up by p each period; enrollment pulls it
    down by mu and a management visit by a further alpha. The return value
    may be any real — clamping to >= 0 happens in the period step.
    """
    return fbg_update(state.b, params.p, params.mu * z, params.alpha * (y * z), xi)


def fbg_update(b: Num, p: Num, mu_z: Num, alpha_yz: Num, xi: Num) -> Num:
    """step_fbg from its two products, mu_z = mu*z and alpha_yz = alpha*y*z:
    b + p - mu_z - alpha_yz + xi, evaluated left to right. A caller that
    holds the products for many periods forms them once."""
    return b + p - mu_z - alpha_yz + xi


def carried_adverse(s: Num, gamma: Num, s_base: Num) -> Num:
    """The adversity an enrolled patient carries from level s into the next
    period: gamma*(s - s_base) + s_base."""
    return gamma * (s - s_base) + s_base


def step_adverse(s: Num, params: Params, y: Num, z: Num) -> Num:
    """Next adverse-factor level: z*carried_adverse(s) + beta*y*z.

    Deviations from the enrolled steady state s_base decay geometrically at
    rate gamma; each visit adds beta. Unenrolled patients carry none.
    """
    return z * carried_adverse(s, params.gamma, params.s_base) + params.beta * (y * z)


def step_perception(theta: Num, params: Params, y: Num, z: Num) -> Num:
    """Next perceived importance, floored at zero.

    Reverts toward theta_base at rate rho; a visit while enrolled reduces
    it by lam. The raw recurrence can go negative when lam is large, so the
    result is clamped at 0 to stay in the model's feasible region (exactly
    max(0.0, raw), elementwise).
    """
    raw = params.rho * (theta - params.theta_base) + params.theta_base - params.lam * (y * z)
    return np.where(raw > 0.0, raw, 0.0)


def benefits(state: State, params: Params) -> Tuple[Num, Num]:
    """Net benefit of enrolling this period without and with a visit: (b0, b1).

    Closed form: b0 = mu - theta*carried_adverse(s) and
    b1 = b0 + (alpha - theta*beta). Deterministic: the FBG disturbance
    cancels out of the comparison.
    """
    base = params.mu - state.theta * carried_adverse(state.s, params.gamma, params.s_base)
    return base, base + (params.alpha - state.theta * params.beta)


def benefit(state: State, params: Params, y: Num) -> Num:
    """Net benefit of enrolling this period, given the visit decision y."""
    b0, b1 = benefits(state, params)
    return np.where(y, b1, b0)[()]


def floor_fbg(b: Num) -> Num:
    """Log-FBG floored at 0 as PatientState floors it: np.where(b < 0.0, 0.0, b)."""
    return np.where(b < 0.0, 0.0, b)


def enroll_decision(z_prev: Num, y: Num, B: Num) -> Num:
    """Enrollment indicator (z_prev OR y) * 1[B >= 0], as an int (or int array).

    A patient can only be enrolled if already enrolled or visited this
    period, and stays/joins exactly when the net benefit is nonnegative
    (ties break in favor of enrolling).
    """
    return (z_prev | y) & (B >= 0.0)


def _advance(state: State, params: Params, y: Num, xi: Num, B: Optional[Num] = None):
    """One period on a patient or a cohort: (b, s, theta, z) after it.

    The provider's y precedes the patient's z within the period; the benefit
    is evaluated at the current (s, theta). B is benefit(state, params, y)
    when the caller already has it. Log-FBG is clamped at 0 by floor_fbg.
    """
    if B is None:
        B = benefit(state, params, y)
    z = enroll_decision(state.z_prev, y, B)
    return (floor_fbg(step_fbg(state, params, y, z, xi)), step_adverse(state.s, params, y, z),
            step_perception(state.theta, params, y, z), z)


def step_patient(
    state: PatientState, params: PatientParams, y: int, xi: float
) -> Tuple[PatientState, int]:
    """Advance one patient one period: visit -> enrollment -> dynamics.

    Returns the next state (with z_prev set to the realized z) and the
    realized z itself.
    """
    b, s, theta, z = _advance(state, params, y, xi)
    z = int(z)
    return PatientState(b=float(b), s=float(s), theta=float(theta), z_prev=z), z


def step_cohort(state: StateArrays, params: ParamArrays, y: np.ndarray, xi: Num,
                B: Optional[np.ndarray] = None) -> Tuple[StateArrays, np.ndarray]:
    """step_patient for every patient of a cohort at once.

    y is the visit mask (bool or 0/1 per patient) and xi the noise draw per
    patient (or one scalar for all); B, if given, is the benefit at y
    (np.where(y, b1, b0) of benefits). Returns the next states and z.
    """
    nxt = StateArrays(*_advance(state, params, y, xi, B))
    return nxt, nxt.z_prev
