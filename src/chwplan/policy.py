"""Visit-selection policies.

The optimal single-patient rule reduces to a sign test on the enrollment
benefit with and without a visit. The multi-patient heuristic filters the
cohort to the "patients of interest" (those the single-patient rule would
visit), then breaks capacity ties with one of four rankings. Naive
baselines rank everyone with no filtering.

The cohort functions take the cohort as struct-of-arrays (StateArrays,
ParamArrays) or as aligned sequences of PatientState/PatientParams;
visit_mask decides K rows of one cohort (one per capacity level) at once.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .model import (
    ParamArrays,
    Params,
    PatientParams,
    PatientState,
    State,
    StateArrays,
    benefits,
    step_cohort,
)

EA_KINDS = ("ea_asc_fbg", "ea_desc_fbg", "ea_desc_vtg", "ea_desc_vtg_per_visit")
BASELINE_KINDS = ("visit_no_one", "visit_everyone", "asc_fbg", "desc_fbg")
POLICY_KINDS = BASELINE_KINDS + EA_KINDS


@dataclass(frozen=True)
class PolicySpec:
    """Which rule picks the <=C patients to visit each period.

    delta is the in-control threshold on log-FBG, used by the
    rollout-based rankings.
    """

    kind: str
    delta: float

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if not self.delta > 0:
            raise ValueError(f"PolicySpec.delta must be > 0, got {self.delta}")


@dataclass(frozen=True)
class RolloutSummary:
    """Deterministic look-ahead forecast for one patient (ints) or for
    several at once (int arrays, one entry per patient).

    v_tilde counts future in-control periods; visits counts the visits the
    single-patient rule would spend producing them.
    """

    v_tilde: int
    visits: int


def single_patient_action(state: State, params: Params):
    """Optimal visit decision for an isolated patient, as a bool (or mask).

    Visit exactly when the visit either causes an enrollment that would not
    happen otherwise, prevents a dropout, or strictly raises an enrolled
    patient's benefit; in every remaining case (including indifference)
    don't spend the visit.
    """
    return _visit_pays(state.z_prev, *benefits(state, params))


def _visit_pays(z_prev, b0, b1):
    """single_patient_action from the benefits without (b0) and with (b1) a visit."""
    return (b1 >= 0.0) & ((b0 < 0.0) | (z_prev == 0) | ((b1 - b0) > 0.0))


CohortStates = Union[StateArrays, Sequence[PatientState]]
CohortParams = Union[ParamArrays, Sequence[PatientParams]]


def _as_arrays(
    states: CohortStates, params: CohortParams
) -> Tuple[StateArrays, ParamArrays]:
    """The cohort as struct-of-arrays, converting dataclass sequences."""
    if not isinstance(states, StateArrays):
        states, params = StateArrays.of(states), ParamArrays.of(params)
    if len(states.b) != len(params.p):
        raise ValueError(
            f"states/params misaligned: {len(states.b)} states vs {len(params.p)} params"
        )
    return states, params


def interest_set(states: CohortStates, params: CohortParams) -> Set[int]:
    """Indices of patients the single-patient rule would visit right now."""
    states, params = _as_arrays(states, params)
    return set(np.flatnonzero(single_patient_action(states, params)).tolist())


def rollout_cohort(
    states: StateArrays,
    params: ParamArrays,
    periods_remaining: int,
    delta: float,
) -> RolloutSummary:
    """Noise-free forward simulation under the single-patient rule.

    Every patient of the cohort is rolled out independently and all at
    once, one array step per remaining period; each step evaluates the
    benefits once and the action and the transition share them. A
    patient's result depends only on its own state, constants,
    periods_remaining and delta, which is what lets RolloutTable run each
    distinct start once.

    Args:
        states: current (pre-decision) patient states.
        params: patient constants.
        periods_remaining: number of decisions left, counting the current
            period's.
        delta: in-control threshold on log-FBG.

    Returns:
        RolloutSummary of int arrays counting each patient's
        post-transition in-control periods and visits over the window.
        periods_remaining=0 yields zeros.
    """
    if periods_remaining < 0:
        raise ValueError("periods_remaining must be >= 0")
    v_tilde = np.zeros(len(states.b), dtype=int)
    visits = np.zeros(len(states.b), dtype=int)
    for _ in range(periods_remaining):
        b0, b1 = benefits(states, params)
        y = _visit_pays(states.z_prev, b0, b1)
        states, _ = step_cohort(states, params, y, 0.0, np.where(y, b1, b0))
        visits += y
        v_tilde += states.b <= delta
    return RolloutSummary(v_tilde=v_tilde, visits=visits)


def rollout_single(
    state: PatientState,
    params: PatientParams,
    periods_remaining: int,
    delta: float,
) -> RolloutSummary:
    """rollout_cohort for one patient, with int counts."""
    rs = rollout_cohort(StateArrays.of([state]), ParamArrays.of([params]),
                        periods_remaining, delta)
    return RolloutSummary(v_tilde=int(rs.v_tilde[0]), visits=int(rs.visits[0]))


class RolloutTable:
    """rollout_cohort results for one cohort, each distinct start run once.

    A start is the patient's index into the cohort's params, periods
    remaining, delta and the exact state: the bit patterns of b, s and
    theta, and z_prev. Equal starts roll out to equal summaries, and
    comparing bits keeps -0.0 and 0.0 apart. Indices only mean the same
    patient within one cohort, so a table lives for one cohort:
    capacity_sweep keeps one per replication, shared by that
    replication's capacity rows and policies, and every other caller
    gets a fresh one.
    """

    def __init__(self):
        # (periods_remaining, delta) -> (sorted start keys, v_tilde, visits)
        self._done = {}

    def lookup(
        self,
        states: StateArrays,
        params: ParamArrays,
        col: np.ndarray,
        periods_remaining: int,
        delta: float,
    ) -> Tuple[RolloutSummary, np.ndarray]:
        """Rollout summaries for members i (state states[i], patient col[i]).

        Only starts the table has not seen are rolled out, each once, in
        one rollout_cohort call. Also returns the positions of the members
        that call rolled out: the first member of each new start.
        """
        keys = np.column_stack((col, states.b.view(np.int64), states.s.view(np.int64),
                                states.theta.view(np.int64), states.z_prev))
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        none = np.zeros(0, dtype=int)
        known, v_known, visits_known = self._done.get(
            (periods_remaining, delta), (keys[:0], none, none))
        starts, first, inverse = np.unique(np.concatenate((known, keys)),
                                           return_index=True, return_inverse=True)
        new = first >= len(known)
        v_tilde, visits = (np.empty(len(starts), dtype=int) for _ in range(2))
        v_tilde[~new], visits[~new] = v_known[first[~new]], visits_known[first[~new]]
        ran = first[new] - len(known)
        if len(ran):
            rs = rollout_cohort(states.take(ran), params.take(col[ran]),
                                periods_remaining, delta)
            v_tilde[new], visits[new] = rs.v_tilde, rs.visits
        self._done[periods_remaining, delta] = (starts, v_tilde, visits)
        mine = inverse[len(known):]
        return RolloutSummary(v_tilde=v_tilde[mine], visits=visits[mine]), ran


def _value_per_visit_key(rs: RolloutSummary) -> np.ndarray:
    """Sort key for the value-per-visit ranking (ascending): -v_tilde/visits.

    A member's rollout applies the rule that made it a member to the same
    state first, so visits >= 1 while a period remains; with none left,
    every summary is zero and every key ties.
    """
    return -rs.v_tilde / np.maximum(rs.visits, 1)


class Visits(NamedTuple):
    """One period's visit decision for K rows of a cohort, with the work
    it took per row."""

    mask: np.ndarray          # (K, n) bool: who is visited
    members: np.ndarray       # (K,) interest-set size, the candidates sorted
                              # over capacity; 0 for baselines (everyone)
    rolled_out: np.ndarray    # (K,) members ranked by a value-to-go rollout
    rollouts_run: np.ndarray  # (K,) rollouts this call ran, each counted in
                              # the first row holding its start
    benefit: Optional[np.ndarray]  # (K, n) benefit at the mask, as step_cohort's
                                   # B; None when the kind never computed it


def visit_mask(
    states: StateArrays,
    params: ParamArrays,
    C,
    spec: PolicySpec,
    periods_remaining: int,
    table: Optional[RolloutTable] = None,
) -> Visits:
    """Pick this period's visits for K rows of one cohort at once.

    states holds one row per capacity level ((K, n) arrays), params the
    cohort's shared (n,) constants and C the capacity of each row (shape
    (K,), or one int for all). Every row is decided on its own: row k of
    the mask is what a one-row call on row k alone returns.

    visit_everyone ignores the capacity (it is the unconstrained
    benchmark) and visit_no_one visits nobody. Every other kind keeps the
    C best of its candidates: the interest set (ea_* kinds) or the whole
    cohort (baselines). A row with more candidates than C keys each
    patient (+inf off the candidates) and keeps the first C of one stable
    sort of the row, so ties go to the lower index. The key is log-FBG or
    its negation, or a value-to-go rollout summary: the members of all
    over-capacity rows are looked up in table (a fresh RolloutTable if
    None), which rolls out each start it has not seen once, in one batch:
    rows that share a patient's exact state share its rollout, and so do
    calls that share the table.
    """
    K, n = states.b.shape
    C = np.broadcast_to(C, (K,))
    if (C < 0).any():
        raise ValueError("capacity must be >= 0")
    none = np.zeros(K, dtype=int)
    if spec.kind in ("visit_no_one", "visit_everyone"):
        return Visits(np.full((K, n), spec.kind == "visit_everyone"), none, none, none, None)

    filtered = spec.kind in EA_KINDS
    if filtered:
        b0, b1 = benefits(states, params)
        mask = _visit_pays(states.z_prev, b0, b1)
    else:
        mask = np.ones((K, n), dtype=bool)
    members = np.count_nonzero(mask, axis=1)
    over = np.flatnonzero(members > C)
    rolled_out = ran = none
    if len(over):
        candidates = mask[over]
        if spec.kind.endswith("fbg"):
            b = states.b[over]
            key = np.where(candidates, b if "asc" in spec.kind else -b, np.inf)
        else:
            table = RolloutTable() if table is None else table
            row, col = np.nonzero(candidates)
            rs, first = table.lookup(states.take((over[row], col)), params, col,
                                     periods_remaining, spec.delta)
            ran = np.bincount(over[row[first]], minlength=K)
            rolled_out = np.where(members > C, members, 0)
            key = np.full(candidates.shape, np.inf)
            key[row, col] = (-rs.v_tilde if spec.kind == "ea_desc_vtg"
                             else _value_per_visit_key(rs))
        np.put_along_axis(candidates, np.argsort(key, axis=1, kind="stable"),
                          np.arange(n) < C[over, None], axis=1)
        mask[over] = candidates
    return Visits(mask, members if filtered else none, rolled_out, ran,
                  np.where(mask, b1, b0) if filtered else None)


def select_visits(
    states: CohortStates,
    params: CohortParams,
    C: int,
    spec: PolicySpec,
    periods_remaining: int,
) -> Set[int]:
    """Pick this period's visit set for one cohort: visit_mask on one row."""
    states, params = _as_arrays(states, params)
    one = StateArrays(*(a[None, :] for a in states))
    mask = visit_mask(one, params, C, spec, periods_remaining).mask[0]
    return set(np.flatnonzero(mask).tolist())
