"""Monte Carlo simulation of cohorts under a visit policy.

Runs the period loop (select visits -> patients decide -> states advance),
sweeps policies x capacity levels x replications with common random
numbers, and summarizes the result table.
"""

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .model import (ParamArrays, PatientParams, PatientState, StateArrays, _require_finite,
                    step_cohort)
from .policy import PolicySpec, RuleTable, visit_mask

DEFAULT_CAPACITY_FRACTIONS = tuple(round(0.05 * k, 2) for k in range(1, 21))


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


def capacity_pct(fraction: float) -> float:
    """A capacity fraction as the percent the CSVs and manifests record."""
    return round(fraction * 100.0, 10)


@dataclass(frozen=True)
class SimulationConfig:
    """The sweep's shape, its noise and its one in-control threshold: sigma_xi
    is the sd of the Gaussian process noise on log-FBG, and rows count, and
    rollouts plan, at b <= log(delta_mgdl). Each capacity fraction records its
    own capacity_pct, so each (policy, percent, replication) labels one cell."""

    horizon: int = 60
    capacity_fractions: Tuple[float, ...] = DEFAULT_CAPACITY_FRACTIONS
    replications: int = 10
    base_seed: int = 0
    sigma_xi: float = 0.05
    delta_mgdl: float = 125.0

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
        for a, b in zip(self.capacity_fractions, self.capacity_fractions[1:]):
            if a >= b:
                raise ValueError("capacity fractions must be strictly ascending")
            if capacity_pct(a) == capacity_pct(b):
                raise ValueError(f"capacity fractions {a!r} and {b!r} both record"
                                 f" {capacity_pct(a)!r}%")
        _require_finite(self, ("sigma_xi",))
        if self.sigma_xi < 0:
            raise ValueError("noise standard deviation must be >= 0")
        if not 1.0 < self.delta_mgdl < math.inf:
            raise ValueError(f"SimulationConfig.delta_mgdl must be a finite number above"
                             f" 1 mg/dL, got {self.delta_mgdl!r}")


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
    # rollout steps taken by those members; the distinct rollouts run and
    # their steps, and the periods decided and stepped, each counted in the
    # first row of the replication holding that start or decision (so
    # periods_stepped depends on which rows ran together: equality skips it)
    interest_set_members: int = 0
    members_ranked_by_rollout: int = 0
    rollout_member_steps: int = 0
    rollouts_run: int = 0
    rollout_steps_run: int = 0
    periods_stepped: int = field(default=0, compare=False)

    @property
    def population(self) -> int:
        return len(self.final_log_fbg)


# RunResult's work counts
WORK = ("interest_set_members", "members_ranked_by_rollout", "rollout_member_steps",
        "rollouts_run", "rollout_steps_run", "periods_stepped")


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
    """Visit budget from a capacity fraction in (0, 1], rounding half up."""
    return int(math.floor(fraction * population + 0.5))


def _simulate_rows(
    cohort: Cohort,
    specs: Sequence[PolicySpec],
    config: SimulationConfig,
    replication: int,
) -> List[RunResult]:
    """Run every (policy, capacity) row of one cohort at once, policy-major.

    All rows start from the cohort's initial state and share the noise
    draws, so many hold equal states: the cohort is held as G states
    ((G, n) arrays over the shared (n,) parameters) and each row's index
    into them. Per period visit_mask decides each distinct (state, class)
    once (at most C visits per row; a visit to an unenrolled patient is a
    screening visit), each decision steps its state, and metrics are taken
    on the post-transition states (in control: b <= log config.delta_mgdl,
    the threshold the policies plan with). Each row evolves exactly as it
    would alone.
    """
    n_periods, fractions = config.horizon, config.capacity_fractions
    population = len(cohort)
    C = np.array([capacity_from_fraction(f, population) for f in fractions])
    rng = np.random.Generator(np.random.PCG64(noise_stream_seed(config.base_seed, replication)))
    xi = rng.normal(0.0, config.sigma_xi, size=(n_periods, population))
    delta = math.log(config.delta_mgdl)

    states = StateArrays(*(a[None, :] for a in StateArrays.of(cohort.initial_states)))
    state = np.zeros(len(specs) * len(C), dtype=int)
    params = ParamArrays.of(cohort.params)
    table = RuleTable(params)  # the rollouts' decisions, shared by every row and period

    # per-period counts, one column per row, and per-row work counts
    in_control, enrolled, visits_total, screening = (
        np.zeros((n_periods, len(state)), dtype=int) for _ in range(4))
    work = np.zeros((len(WORK), len(state)), dtype=int)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite log-FBG is refused below
        for t in range(1, n_periods + 1):
            remaining = n_periods - t + 1
            visits = visit_mask(states, params, C, specs, remaining, delta, state, table)
            y, state = visits.mask, visits.row
            states = states.take(visits.state)
            screening[t - 1] = np.count_nonzero(y & (states.z_prev == 0), axis=1)[state]
            visits_total[t - 1] = np.count_nonzero(y, axis=1)[state]
            work += (visits.members, visits.rolled_out, visits.rolled_out * remaining,
                     visits.rollouts_run, visits.rollouts_run * remaining,
                     np.bincount(visits.first, minlength=len(state)))

            states, z = step_cohort(states, params, y, xi[t - 1], visits.benefit)
            in_control[t - 1] = np.count_nonzero(states.b <= delta, axis=1)[state]
            enrolled[t - 1] = np.count_nonzero(z, axis=1)[state]
    # a non-finite log-FBG stays so: the floor keeps nan and inf turns only into nan
    if not np.isfinite(states.b).all():
        raise ValueError(f"SimulationConfig.sigma_xi={config.sigma_xi!r} drives log-FBG past"
                         " the largest float")

    return [
        RunResult(
            policy_kind=specs[r // len(C)].kind,
            capacity_fraction=fractions[r % len(C)],
            replication=replication,
            in_control=tuple(in_control[:, r].tolist()),
            enrolled=tuple(enrolled[:, r].tolist()),
            visits_total=tuple(visits_total[:, r].tolist()),
            screening_visits=tuple(screening[:, r].tolist()),
            final_log_fbg=tuple(states.b[state[r]].tolist()),
            ppc_fraction=int(in_control[:, r].sum()) / (population * n_periods),
            **dict(zip(WORK, work[:, r].tolist())),
        )
        for r in range(len(state))
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
    replication); the same as that row of a capacity sweep.
    """
    config = replace(config, capacity_fractions=(fraction,))
    return _simulate_rows(cohort, (spec,), config, replication)[0]


def capacity_sweep(
    cohort_generator: Callable[[int], Cohort],
    specs: Sequence[PolicySpec],
    config: SimulationConfig,
) -> List[RunResult]:
    """Cartesian product of policy x capacity fraction x replication.

    The cohort and process-noise draws are keyed by replication alone, so
    every policy and capacity level sees identical patients and identical
    disturbances within a replication (common random numbers); all
    (policy, capacity) rows of a replication run as one array simulation,
    which decides and steps each distinct row state once and rolls out
    each distinct start of the value-to-go rankings once per period.
    Rows are labelled by policy kind, so each kind may appear once.
    """
    kinds = [spec.kind for spec in specs]
    if not kinds:
        raise ValueError("need at least one policy")
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"policy kind {kind!r} given more than once")
    results: List[RunResult] = []
    for replication in range(config.replications):
        cohort = cohort_generator(cohort_stream_seed(config.base_seed, replication))
        results.extend(_simulate_rows(cohort, specs, config, replication))
    results.sort(key=lambda r: (r.policy_kind, r.capacity_fraction, r.replication))
    return results


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def summarize(results: Sequence[RunResult]) -> List[SummaryRow]:
    """Collapse replications into one row per (policy, capacity).

    PPC gets a mean and a normal-approximation 95% half-width (0 by
    convention for a single replication); final log-FBG percentiles pool
    every patient across replications, taken in one np.percentile(...,
    axis=1) call for all the cells that pool as many values, which gives
    each cell the floats a call on it alone gives.
    """
    if not results:
        raise ValueError("nothing to summarize")
    cells: Dict[Tuple[str, float], List[RunResult]] = {}
    for r in results:
        cells.setdefault((r.policy_kind, r.capacity_fraction), []).append(r)
    groups = sorted(cells.items())

    pooled = [np.concatenate([r.final_log_fbg for r in group]) for _, group in groups]
    same_length: Dict[int, List[int]] = {}
    for i, values in enumerate(pooled):
        same_length.setdefault(len(values), []).append(i)
    percentiles: Dict[int, Tuple[float, ...]] = {}
    for same in same_length.values():
        q = np.percentile([pooled[i] for i in same], (25, 50, 75, 90), axis=1)
        percentiles.update(zip(same, map(tuple, q.T.tolist())))

    rows: List[SummaryRow] = []
    for i, ((kind, fraction), group) in enumerate(groups):
        ppcs = np.array([r.ppc_fraction for r in group])
        half = 1.96 * ppcs.std(ddof=1) / math.sqrt(len(ppcs)) if len(ppcs) > 1 else 0.0
        rows.append(SummaryRow(
            policy_kind=kind,
            capacity_fraction=fraction,
            ppc_mean=float(ppcs.mean()),
            ppc_ci_halfwidth=float(half),
            final_fbg_percentiles=percentiles[i],
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

