"""Monte Carlo simulation of cohorts under a visit policy.

Runs the period loop (select visits -> patients decide -> states advance),
sweeps policies x capacity levels x replications with common random
numbers, summarizes the result table, and provides a small exhaustive
search over visit schedules used as a test oracle for the policy rules.
"""

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import ParamArrays, PatientParams, PatientState, StateArrays, step_cohort
from .policy import PolicySpec, RolloutTable, single_patient_action, visit_mask

DEFAULT_CAPACITY_FRACTIONS = tuple(round(0.05 * k, 2) for k in range(1, 21))


class InstanceTooLargeError(Exception):
    """Exhaustive schedule search would exceed the enumeration budget."""

    def __init__(self, enumeration_count: int, budget: int):
        self.enumeration_count = enumeration_count
        self.budget = budget
        super().__init__(
            f"schedule enumeration needs {enumeration_count} evaluations"
            f" (budget {budget})"
        )


@dataclass(frozen=True)
class Cohort:
    """A population to simulate: aligned parameter and initial-state tuples."""

    params: Tuple[PatientParams, ...]
    initial_states: Tuple[PatientState, ...]

    def __post_init__(self):
        if len(self.params) != len(self.initial_states):
            raise ValueError("cohort params/states misaligned")
        if not self.params:
            raise ValueError("cohort must be nonempty")

    def __len__(self):
        return len(self.params)


@dataclass(frozen=True)
class SimulationConfig:
    """The sweep's shape and its noise; the in-control threshold is each
    PolicySpec's delta. sigma_xi is the sd of the Gaussian process noise
    on log-FBG."""

    horizon: int = 60
    capacity_fractions: Tuple[float, ...] = DEFAULT_CAPACITY_FRACTIONS
    replications: int = 10
    base_seed: int = 0
    sigma_xi: float = 0.05

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.capacity_fractions:
            raise ValueError("need at least one capacity fraction")
        for f in self.capacity_fractions:
            if not (0.0 < f <= 1.0):
                raise ValueError(f"capacity fraction {f} outside (0, 1]")
        if list(self.capacity_fractions) != sorted(self.capacity_fractions):
            raise ValueError("capacity fractions must be sorted ascending")
        if self.sigma_xi < 0:
            raise ValueError("noise standard deviation must be >= 0")


@dataclass(frozen=True)
class RunResult:
    """Per-period metrics for one (policy, capacity, replication) cell."""

    policy_kind: str
    capacity_fraction: float
    replication: int
    in_control: Tuple[int, ...]
    enrolled: Tuple[int, ...]
    visits_total: Tuple[int, ...]
    screening_visits: Tuple[int, ...]
    final_log_fbg: Tuple[float, ...]
    ppc_fraction: float
    # work done, summed over periods (never written to the result tables):
    # interest-set members, members ranked by a value-to-go rollout, and
    # rollout steps taken by those members; and the distinct rollouts the
    # replication's RolloutTable ran for this row and their steps
    interest_set_members: int = 0
    members_ranked_by_rollout: int = 0
    rollout_member_steps: int = 0
    rollouts_run: int = 0
    rollout_steps_run: int = 0

    @property
    def population(self) -> int:
        return len(self.final_log_fbg)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregates for one (policy, capacity) cell across replications."""

    policy_kind: str
    capacity_fraction: float
    ppc_mean: float
    ppc_ci_halfwidth: float
    final_fbg_percentiles: Tuple[float, float, float, float]  # 25/50/75/90


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def stable_hash64(*parts) -> int:
    """Deterministic 64-bit hash of a tuple of ints/strings.

    Python's builtin hash() is salted per process, so reproducible seeds go
    through sha256 instead.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def cohort_stream_seed(base_seed: int, replication: int) -> int:
    """Seed for the cohort draw: shared by every policy and capacity level."""
    return stable_hash64(base_seed, "cohort", replication)


def noise_stream_seed(base_seed: int, replication: int) -> int:
    """Seed for the process-noise matrix: likewise shared across cells."""
    return stable_hash64(base_seed, "xi", replication)


# ---------------------------------------------------------------------------
# core simulation
# ---------------------------------------------------------------------------

def capacity_from_fraction(fraction: float, population: int) -> int:
    """Visit budget from a capacity fraction, rounding half up."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    if population < 1:
        raise ValueError("population must be >= 1")
    return int(math.floor(fraction * population + 0.5))


def _draw_noise_matrix(config: SimulationConfig, replication: int, population: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(noise_stream_seed(config.base_seed, replication)))
    return rng.normal(0.0, config.sigma_xi, size=(config.horizon, population))


def _simulate_rows(
    cohort: Cohort,
    spec: PolicySpec,
    config: SimulationConfig,
    fractions: Sequence[float],
    replication: int,
    table: RolloutTable,
) -> List[RunResult]:
    """Run one policy over one cohort at several capacity levels at once.

    The cohort is held as struct-of-arrays with one row per capacity level
    ((K, n) state arrays over the shared (n,) parameters). Per period: the
    policy selects at most C patients in each row (classified as screening
    visits when the patient was unenrolled), every patient of every row
    advances one step with its own noise draw, which all rows share, and
    metrics are recorded on the post-transition states (in control: b <=
    spec.delta, the threshold the policy plans with). Each row evolves
    exactly as it would alone. table holds this cohort's rollouts.
    """
    n_periods = config.horizon
    population = len(cohort)
    C = np.array([capacity_from_fraction(f, population) for f in fractions])
    xi = _draw_noise_matrix(config, replication, population)

    states = StateArrays(*(np.tile(a, (len(fractions), 1))
                           for a in StateArrays.of(cohort.initial_states)))
    params = ParamArrays.of(cohort.params)

    # per-period counts, one column per row, and per-row work counts
    in_control, enrolled, visits_total, screening = (
        np.zeros((n_periods, len(fractions)), dtype=int) for _ in range(4))
    members, rolled_out, rollout_steps, ran, ran_steps = (
        np.zeros(len(fractions), dtype=int) for _ in range(5))

    for t in range(1, n_periods + 1):
        remaining = n_periods - t + 1
        visits = visit_mask(states, params, C, spec, remaining, table)
        y = visits.mask
        screening[t - 1] = np.count_nonzero(y & (states.z_prev == 0), axis=1)
        visits_total[t - 1] = np.count_nonzero(y, axis=1)
        members += visits.members
        rolled_out += visits.rolled_out
        rollout_steps += visits.rolled_out * remaining
        ran += visits.rollouts_run
        ran_steps += visits.rollouts_run * remaining

        states, z = step_cohort(states, params, y, xi[t - 1], visits.benefit)
        in_control[t - 1] = np.count_nonzero(states.b <= spec.delta, axis=1)
        enrolled[t - 1] = np.count_nonzero(z, axis=1)

    return [
        RunResult(
            policy_kind=spec.kind,
            capacity_fraction=fraction,
            replication=replication,
            in_control=tuple(in_control[:, k].tolist()),
            enrolled=tuple(enrolled[:, k].tolist()),
            visits_total=tuple(visits_total[:, k].tolist()),
            screening_visits=tuple(screening[:, k].tolist()),
            final_log_fbg=tuple(states.b[k].tolist()),
            ppc_fraction=int(in_control[:, k].sum()) / (population * n_periods),
            interest_set_members=int(members[k]),
            members_ranked_by_rollout=int(rolled_out[k]),
            rollout_member_steps=int(rollout_steps[k]),
            rollouts_run=int(ran[k]),
            rollout_steps_run=int(ran_steps[k]),
        )
        for k, fraction in enumerate(fractions)
    ]


def simulate(
    cohort: Cohort,
    spec: PolicySpec,
    config: SimulationConfig,
    fraction: float,
    replication: int = 0,
) -> RunResult:
    """Run one policy over one cohort for one replication at one capacity.

    Fully deterministic given (cohort, spec, config, fraction,
    replication); the same as that capacity's row of a capacity sweep.
    """
    return _simulate_rows(cohort, spec, config, (fraction,), replication,
                          RolloutTable())[0]


def capacity_sweep(
    cohort_generator: Callable[[int], Cohort],
    specs: Sequence[PolicySpec],
    config: SimulationConfig,
) -> List[RunResult]:
    """Cartesian product of policy x capacity fraction x replication.

    The cohort and process-noise draws are keyed by replication alone, so
    every policy and capacity level sees identical patients and identical
    disturbances within a replication (common random numbers); all
    capacity levels of a (replication, policy) pair run as one array
    simulation. A patient that no row has treated differently so far
    starts the same rollout in every row and value-to-go policy, so each
    replication's rows and policies share one RolloutTable.
    """
    results: List[RunResult] = []
    for replication in range(config.replications):
        cohort = cohort_generator(cohort_stream_seed(config.base_seed, replication))
        table = RolloutTable()
        for spec in specs:
            results.extend(_simulate_rows(cohort, spec, config, config.capacity_fractions,
                                          replication, table))
    results.sort(key=lambda r: (r.policy_kind, r.capacity_fraction, r.replication))
    return results


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def summarize(results: Sequence[RunResult]) -> List[SummaryRow]:
    """Collapse replications into one row per (policy, capacity).

    PPC gets a mean and a normal-approximation 95% half-width (0 by
    convention for a single replication); final log-FBG percentiles pool
    every patient across replications.
    """
    if not results:
        raise ValueError("nothing to summarize")
    cells: Dict[Tuple[str, float], List[RunResult]] = {}
    for r in results:
        cells.setdefault((r.policy_kind, r.capacity_fraction), []).append(r)

    rows: List[SummaryRow] = []
    for (kind, fraction), group in sorted(cells.items()):
        ppcs = np.array([r.ppc_fraction for r in group])
        if len(ppcs) > 1:
            half = 1.96 * ppcs.std(ddof=1) / math.sqrt(len(ppcs))
        else:
            half = 0.0

        pooled = np.concatenate([np.asarray(r.final_log_fbg) for r in group])
        pcts = tuple(np.percentile(pooled, (25, 50, 75, 90)).tolist())

        rows.append(SummaryRow(
            policy_kind=kind,
            capacity_fraction=fraction,
            ppc_mean=float(ppcs.mean()),
            ppc_ci_halfwidth=float(half),
            final_fbg_percentiles=pcts,
        ))
    return rows


def period_shares(
    screening_visits, visits, enrolled, population: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Screening and enrollment share of each (replication, period) cell.

    Takes count arrays of any one shape and returns two float arrays of
    that shape: screening visits / visits, nan in a cell with no visits
    (an idle period says nothing about the screening mix), and enrolled /
    population. Means over cells skip the nan ones.
    """
    screening_visits = np.asarray(screening_visits, dtype=float)
    visits = np.asarray(visits, dtype=float)
    idle = visits == 0
    screening = np.where(idle, math.nan, screening_visits / np.where(idle, 1.0, visits))
    return screening, np.asarray(enrolled, dtype=float) / population


# ---------------------------------------------------------------------------
# exhaustive schedule oracle
# ---------------------------------------------------------------------------

ENUMERATION_BUDGET = 10_000_000
# Schedules of at most this many leaves are searched breadth-first in one
# batch of array steps; larger searches go depth-first down to that size.
SEARCH_BATCH_LEAVES = 1 << 15


def _expand(
    states: StateArrays,
    reward: np.ndarray,
    params: ParamArrays,
    visit_masks: np.ndarray,
    delta: float,
    interest_only: bool,
) -> Tuple[np.ndarray, np.ndarray, StateArrays, np.ndarray]:
    """Every child of every node of one search level, in one array step.

    states holds one row per node (node x patient arrays) and reward each
    node's in-control periods so far. A child visits one allowed subset
    (a row of visit_masks); with interest_only, only subsets of the node's
    interest set are allowed. Children come ordered by node, then by
    subset, and are returned as (parent node, subset index, states,
    rewards).
    """
    if interest_only:
        outside = ~single_patient_action(states, params)
        allowed = ~(outside[:, None, :] & visit_masks[None, :, :]).any(axis=2)
    else:
        allowed = np.ones((len(reward), len(visit_masks)), dtype=bool)
    parent, chosen = np.nonzero(allowed)
    nxt, _ = step_cohort(states.take(parent), params, visit_masks[chosen], 0.0)
    return parent, chosen, nxt, reward[parent] + np.count_nonzero(nxt.b <= delta, axis=1)


def brute_force_plan(
    cohort: Cohort,
    C: int,
    N: int,
    delta: float,
    interest_only: bool = False,
) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Exhaustively maximize total in-control periods under zero noise.

    Searches every per-period visit subset of size <= C (optionally only
    subsets of the current patients-of-interest set), advancing the cohort
    deterministically. Ties keep the lexicographically smallest schedule
    (periods compared first to last, each period's visit set as a sorted
    tuple). Raises InstanceTooLargeError when the full enumeration would
    exceed the evaluation budget.
    """
    population = len(cohort)
    per_period = sum(
        math.comb(population, k) for k in range(0, min(C, population) + 1)
    )
    total = per_period ** N
    if total > ENUMERATION_BUDGET:
        raise InstanceTooLargeError(total, ENUMERATION_BUDGET)

    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(population), k)
            for k in range(0, min(C, population) + 1)
        )
    )
    visit_masks = np.array([np.isin(np.arange(population), sub) for sub in subsets])
    params = ParamArrays.of(cohort.params)

    def expand(states, reward):
        return _expand(states, reward, params, visit_masks, delta, interest_only)

    def search_batch(states, reward, periods):
        # Breadth-first over the remaining periods; the first maximum of the
        # last level is the lexicographically smallest best schedule.
        levels = []
        for _ in range(periods):
            parent, chosen, states, reward = expand(states, reward)
            levels.append((parent, chosen))
        leaf = int(np.argmax(reward))
        value = int(reward[leaf])
        picks = []
        for parent, chosen in reversed(levels):
            picks.append(subsets[chosen[leaf]])
            leaf = parent[leaf]
        return value, tuple(reversed(picks))

    best_value = -1
    best_schedule: Optional[Tuple[Tuple[int, ...], ...]] = None

    def dfs(states: StateArrays, reward: np.ndarray, prefix: Tuple[Tuple[int, ...], ...]):
        nonlocal best_value, best_schedule
        periods = N - len(prefix)
        if per_period ** periods <= SEARCH_BATCH_LEAVES:
            value, rest = search_batch(states, reward, periods)
            if value > best_value:
                best_value = value
                best_schedule = prefix + rest
            return
        _, chosen, nxt, rewards = expand(states, reward)
        for k in range(len(chosen)):
            dfs(nxt.take([k]), rewards[k:k + 1], prefix + (subsets[chosen[k]],))

    start = StateArrays(*(a[None, :] for a in StateArrays.of(cohort.initial_states)))
    dfs(start, np.zeros(1, dtype=int), ())
    assert best_schedule is not None
    return best_value, best_schedule
