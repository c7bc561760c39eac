"""Visit-selection policies.

The optimal single-patient rule reduces to a sign test on the enrollment
benefit with and without a visit. The multi-patient heuristic filters the
cohort to the "patients of interest" (those the single-patient rule would
visit), then breaks capacity ties with one of four rankings. Naive
baselines rank everyone with no filtering.

interest_set and select_visits take one cohort as aligned sequences of
PatientState/PatientParams. single_patient_action, RuleTable and
visit_mask take struct-of-arrays (StateArrays, ParamArrays); visit_mask
decides every (policy, capacity) row of one cohort at once.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .model import (
    ParamArrays,
    Params,
    PatientParams,
    PatientState,
    State,
    StateArrays,
    benefits,
    floor_fbg,
    step_cohort,
    step_fbg,
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
    """single_patient_action from the benefits without (b0) and with (b1) a
    visit. b1 > b0 exactly when b1 - b0 > 0: gradual underflow keeps the
    difference of two unequal floats nonzero."""
    return (b1 >= 0.0) & ((b0 < 0.0) | (z_prev == 0) | (b1 > b0))


def _as_arrays(
    states: Sequence[PatientState], params: Sequence[PatientParams]
) -> Tuple[StateArrays, ParamArrays]:
    """A cohort's aligned sequences as struct-of-arrays."""
    if len(states) != len(params):
        raise ValueError(f"states/params misaligned: {len(states)} states vs {len(params)} params")
    return StateArrays.of(states), ParamArrays.of(params)


def interest_set(states: Sequence[PatientState], params: Sequence[PatientParams]) -> Set[int]:
    """Indices of patients the single-patient rule would visit right now."""
    states, params = _as_arrays(states, params)
    return set(np.flatnonzero(single_patient_action(states, params)).tolist())


class RuleTable:
    """The single-patient rule's decisions in each state a cohort's rollouts
    have reached. They never read log-FBG b, so a rollout walks a chain of
    nodes, one per distinct (patient, s bits, theta bits, z_prev), and
    advances only b. A node's y, z, y & z and successor come from one
    step_cohort, batched over the nodes a walk step first reaches: a walk
    of H steps expands at most H levels. delta does not enter the rule, so
    one table serves every threshold.
    """

    def __init__(self, params: ParamArrays):
        self.params = params  # the cohort's, indexed by patient
        self.keys = np.zeros((0, 4), dtype=np.int64)  # patient, s bits, theta bits, z_prev
        self.rule = np.zeros((0, 4), dtype=int)  # y, z, y & z, successor; -1s unexpanded
        self._index = {}

    def _find(self, patient, s, theta, z_prev) -> np.ndarray:
        """Each state's node, adding the ones not seen before unexpanded."""
        keys = np.column_stack((patient, s.view(np.int64), theta.view(np.int64), z_prev))
        index, known = self._index, len(self._index)
        node = np.array([index.setdefault(k, len(index)) for k in
                         keys.view(np.dtype((np.void, 32))).ravel().tolist()], dtype=np.intp)
        if len(index) > known:  # new nodes have the largest ids
            at = np.unique(node, return_index=True)[1][known - len(index):]
            self.keys = np.concatenate((self.keys, keys[at]))
            self.rule = np.concatenate((self.rule, np.full((len(at), 4), -1)))
        return node

    def _expand(self, node: np.ndarray) -> None:
        """Step distinct unexpanded nodes once under the rule."""
        patient, s, theta, z_prev = self.keys[node].T
        states = StateArrays(np.zeros(len(node)), s.view(float), theta.view(float), z_prev)
        params = self.params.take(patient)
        b0, b1 = benefits(states, params)
        y = _visit_pays(z_prev, b0, b1)
        nxt, z = step_cohort(states, params, y, 0.0, np.where(y, b1, b0))
        self.rule[node] = np.column_stack((y, z, y & z, self._find(patient, nxt.s, nxt.theta, z)))

    def rollout(self, patient: np.ndarray, states: StateArrays, periods_remaining: int,
                delta) -> RolloutSummary:
        """Noise-free forward simulation under the single-patient rule.

        Start i is patient[i] of the cohort in the pre-decision state
        states[i]; periods_remaining counts the decisions left, the current
        period's included, and delta is the in-control threshold on log-FBG
        (one, or one per start). Returns a RolloutSummary of int arrays: each
        start's post-transition in-control periods and visits over the
        window, zeros when periods_remaining = 0. All starts step at once,
        each step gathering the nodes' y, z and y & z and advancing b alone.
        A start's result depends only on its own (patient, state, delta) and
        periods_remaining, which is what lets visit_mask run each distinct
        start once.
        """
        if periods_remaining < 0:
            raise ValueError("periods_remaining must be >= 0")
        params = self.params.take(patient)
        node = self._find(patient, states.s, states.theta, states.z_prev)
        fbg = SimpleNamespace(b=states.b)  # all step_fbg reads of a state
        visits, b = [], []  # per step
        for _ in range(periods_remaining):
            rule = self.rule.take(node, 0)
            if np.minimum.reduce(rule, None, initial=0) < 0:  # an unexpanded row is all -1
                self._expand(np.unique(node[rule[:, 3] < 0]))
                rule = self.rule.take(node, 0)
            y, z, yz, node = rule.T
            fbg.b = floor_fbg(step_fbg(fbg, params, y, z, 0.0, yz))
            visits.append(y)
            b.append(fbg.b)
        shape = (periods_remaining, len(patient))
        return RolloutSummary(v_tilde=np.count_nonzero(np.reshape(b, shape) <= delta, axis=0),
                              visits=np.reshape(visits, shape).sum(axis=0))


def rollout_single(state: PatientState, params: PatientParams, periods_remaining: int,
                   delta: float) -> RolloutSummary:
    """RuleTable.rollout for one patient, with int counts."""
    rs = RuleTable(ParamArrays.of([params])).rollout(
        np.zeros(1, dtype=np.intp), StateArrays.of([state]), periods_remaining, delta)
    return RolloutSummary(v_tilde=int(rs.v_tilde[0]), visits=int(rs.visits[0]))


def _value_per_visit_key(rs: RolloutSummary) -> np.ndarray:
    """Sort key for the value-per-visit ranking (ascending): -v_tilde/visits.

    A member's rollout applies the rule that made it a member to the same
    state first, so visits >= 1 while a period remains; with none left,
    every summary is zero and every key ties.
    """
    return -rs.v_tilde / np.maximum(rs.visits, 1)


def _distinct(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of int64 columns, compared bit for bit: the index
    of each one's first occurrence, and each row's distinct row."""
    keys = np.column_stack(columns)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _smallest(key: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Mask of the C[k] smallest keys of each row k, ties to the lower index.

    This is the first C[k] of a stable sort of the row: every key below the
    row's C-th smallest, then the first of the keys equal to it. Rows have
    no nan and more than C finite keys.
    """
    nth = np.take_along_axis(np.sort(key, axis=1), np.maximum(C - 1, 0)[:, None], axis=1)
    below, tie = key < nth, key == nth
    room = C[:, None] - np.count_nonzero(below, axis=1)[:, None]
    return below | (tie & (np.cumsum(tie, axis=1) <= room))


class Visits(NamedTuple):
    """One period's visit decisions for R rows of a cohort, each distinct
    decision made once, with the work it took per row."""

    mask: np.ndarray          # (J, n) bool: who each distinct decision visits
    state: np.ndarray         # (J,) the state each decision was made in
    row: np.ndarray           # (R,) each row's decision: row r visits mask[row[r]]
    first: np.ndarray         # (J,) the first row holding each decision, ascending
    benefit: np.ndarray       # (J, n) benefit at the mask, as step_cohort's B
    members: np.ndarray       # (R,) interest-set size; 0 for baselines
    rolled_out: np.ndarray    # (R,) members ranked by a value-to-go rollout
    rollouts_run: np.ndarray  # (R,) rollouts run, each in the first row holding its start


# per kind: its candidates are the interest set, the sign of its log-FBG
# ranking key, and whether it ranks by a value-to-go rollout
_FILTERED = np.array([k in EA_KINDS for k in POLICY_KINDS])
_SIGN = np.array([1.0 if "asc" in k else -1.0 for k in POLICY_KINDS])
_VTG = np.array(["vtg" in k for k in POLICY_KINDS])


def visit_mask(
    states: StateArrays,
    params: ParamArrays,
    C,
    specs: Sequence[PolicySpec],
    periods_remaining: int,
    state: Optional[np.ndarray] = None,
    table: Optional[RuleTable] = None,
) -> Visits:
    """Pick this period's visits for R rows of one cohort at once.

    states holds G states of the cohort ((G, n) arrays), params its shared
    (n,) constants. The rows are the (policy, capacity) pairs of specs and
    C (one int or one per level), policy-major; row r is in state state[r]
    (default r). Each row's mask is what a one-row call on its state alone
    returns.

    Every kind keeps the C best of its candidates: the interest set (ea_*
    kinds) or the whole cohort (baselines; visit_no_one and visit_everyone
    are C = 0 and C = n). So a mask depends on the state and the class:
    every candidate (at most C of them), or the C smallest keys (+inf off
    the candidates, ties to the lower index) of its kind. Each distinct
    (state, class) is decided once, in the order of the first row holding
    it. The key is log-FBG or its negation, or a rollout summary: every
    distinct start (patient, state bits, delta) of the call's members is
    rolled out once, in one walk over table (the RuleTable of params; a
    fresh one if None).
    """
    n = states.b.shape[1]
    C = np.atleast_1d(C)
    if (C < 0).any():
        raise ValueError("capacity must be >= 0")
    kind = np.repeat([POLICY_KINDS.index(s.kind) for s in specs], len(C))
    delta = np.repeat([float(s.delta) for s in specs], len(C))
    cap = np.tile(C, len(specs))
    cap[kind == POLICY_KINDS.index("visit_no_one")] = 0
    cap[kind == POLICY_KINDS.index("visit_everyone")] = n
    state = np.arange(len(kind)) if state is None else state

    b0, b1 = benefits(states, params)
    interest = _visit_pays(states.z_prev, b0, b1)
    filtered = _FILTERED[kind]
    candidates = np.where(filtered, np.count_nonzero(interest, axis=1)[state], n)
    ranked = candidates > cap
    vtg = ranked & _VTG[kind]
    # a row's decision: its state and class, which is every candidate (-1
    # the cohort, -2 the interest set) or the C best by its kind (and by its
    # policy's delta, for the rollout kinds)
    first, inverse = _distinct(state, np.where(ranked, kind, -1 - filtered),
                               np.where(ranked, cap, 0),
                               np.where(vtg, np.arange(len(kind)) // len(C), 0))
    order = np.argsort(first)
    row, first = np.argsort(order)[inverse], first[order]
    at = state[first]

    mask = interest[at] | ~filtered[first, None]
    rollouts_run = np.zeros(len(kind), dtype=int)
    over = first[ranked[first]]  # the first row of each ranked decision
    ranked_mask = mask[row[over]]
    sort_key = np.where(ranked_mask, states.b[state[over]] * _SIGN[kind[over], None], np.inf)
    i, col = np.nonzero(ranked_mask & vtg[over, None])
    if len(i):
        by = over[i]  # the row each value-to-go member is ranked for
        start = states.take((state[by], col))
        ran, same = _distinct(col, start.b.view(np.int64), start.s.view(np.int64),
                              start.theta.view(np.int64), start.z_prev, delta[by].view(np.int64))
        table = RuleTable(params) if table is None else table
        rs = table.rollout(col[ran], start.take(ran), periods_remaining, delta[by[ran]])
        rollouts_run = np.bincount(by[ran], minlength=len(kind))
        per_visit = kind[by] == POLICY_KINDS.index("ea_desc_vtg_per_visit")
        sort_key[i, col] = np.where(per_visit, _value_per_visit_key(rs)[same], -rs.v_tilde[same])
    mask[row[over]] = _smallest(sort_key, cap[over])
    return Visits(mask, at, row, first, np.where(mask, b1[at], b0[at]),
                  np.where(filtered, candidates, 0), np.where(vtg, candidates, 0), rollouts_run)


def select_visits(states: Sequence[PatientState], params: Sequence[PatientParams], C: int,
                  spec: PolicySpec, periods_remaining: int) -> Set[int]:
    """Pick this period's visit set for one cohort: visit_mask on one row."""
    states, params = _as_arrays(states, params)
    one = StateArrays(*(a[None, :] for a in states))
    mask = visit_mask(one, params, C, (spec,), periods_remaining).mask[0]
    return set(np.flatnonzero(mask).tolist())
