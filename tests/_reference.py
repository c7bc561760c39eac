"""A pure-Python reference for the patient model, the single-patient
visit rule and the rollout, transcribed from the Model section of
PAPER.md one patient at a time.

It shares no code with chwplan and imports none of it: it takes and
returns plain floats and ints, in PAPER.md's notation. Two conventions
that PAPER.md leaves implicit come from the model's feasible region:
log-FBG and the perceived importance theta are floored at 0 after each
step.
"""

from typing import NamedTuple


class Params(NamedTuple):
    p: float
    mu: float
    alpha: float
    beta: float
    lam: float
    gamma: float
    rho: float
    s_base: float
    theta_base: float


def benefit(prm: Params, s: float, theta: float, y: int) -> float:
    """Net benefit of enrolling this period, given the visit decision y:
    mu - theta*(gamma*(s - s_base) + s_base) + (alpha - theta*beta)*y."""
    return (prm.mu - theta * (prm.gamma * (s - prm.s_base) + prm.s_base)
            + (prm.alpha - theta * prm.beta) * y)


def step(prm: Params, b: float, s: float, theta: float, z_prev: int, y: int,
         xi: float):
    """One period: (b, s, theta, z) after the visit decision y and noise xi.

    The patient enrolls or stays exactly when already enrolled or visited
    and the benefit is nonnegative. Then log-FBG drifts up by p, down by mu
    while enrolled and by a further alpha with a visit; the adverse factors
    decay toward s_base at rate gamma while enrolled, jump by beta per
    visit and vanish on dropout; theta reverts to theta_base at rate rho
    and drops by lam per visit while enrolled.
    """
    z = 1 if (z_prev or y) and benefit(prm, s, theta, y) >= 0 else 0
    b_next = b + prm.p - prm.mu * z - prm.alpha * y * z + xi
    s_next = prm.gamma * (s - prm.s_base) + prm.s_base + prm.beta * y if z else 0.0
    theta_next = prm.rho * (theta - prm.theta_base) + prm.theta_base - prm.lam * y * z
    return max(b_next, 0.0), s_next, max(theta_next, 0.0), z


def visit_pays(prm: Params, s: float, theta: float, z_prev: int) -> int:
    """The single-patient rule: 1 to visit, else 0.

    Without a visit the patient ends the period enrolled exactly when
    z_prev and b0 >= 0; with one, exactly when b1 >= 0. Visit when the
    visit leaves the patient enrolled and either they would not be enrolled
    without it or it strictly raises their benefit.
    """
    b0, b1 = benefit(prm, s, theta, 0), benefit(prm, s, theta, 1)
    enrolled_anyway = z_prev == 1 and b0 >= 0
    return 1 if b1 >= 0 and (not enrolled_anyway or b1 > b0) else 0


def rollout(prm: Params, b: float, s: float, theta: float, z_prev: int,
            periods: int, delta: float):
    """(in-control periods, visits) of a noise-free run of the rule over
    periods decisions, counting b <= delta after each step."""
    in_control = visits = 0
    for _ in range(periods):
        y = visit_pays(prm, s, theta, z_prev)
        b, s, theta, z_prev = step(prm, b, s, theta, z_prev, y, 0.0)
        visits += y
        in_control += b <= delta
    return in_control, visits
