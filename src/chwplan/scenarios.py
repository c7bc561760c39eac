"""Synthetic cohort generation from named patient archetypes.

Five hand-specified behavioral groups (A-E) cover the qualitative
corners of the parameter space — slow progressors who barely respond,
fast progressors the intervention can control, a fast progressor it
cannot (group D), and an adversity-dominated decliner (group E) — plus a
four-group mixture matching a real cohort's fitted-parameter clusters.

Sampling is a three-step recipe: apportion the population across groups
exactly (largest remainder, so stated percentages are honored), draw
each behavioral parameter from a normal truncated below at zero by
rejection, and draw initial FBG in mg/dL from a normal truncated below
at 1 mg/dL before taking logs. Everything is driven by one seed.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .engine import Cohort
from .model import PatientParams, PatientState

# one rejection loop may never terminate for pathological inputs (e.g. a
# degenerate FBG distribution entirely below the truncation bound)
MAX_REJECTION_DRAWS = 10**6


class SamplingError(Exception):
    """Rejection sampling exhausted its draw budget."""


@dataclass(frozen=True)
class GroupSpec:
    """A patient archetype: names, means, and spreads for the 7 sampled
    parameters, ordered (p, mu, alpha, theta_base, lam, s_base, beta)."""

    name: str
    centroid: Tuple[float, ...]
    sd: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "centroid", tuple(float(v) for v in self.centroid))
        object.__setattr__(self, "sd", tuple(float(v) for v in self.sd))
        if len(self.centroid) != 7 or len(self.sd) != 7:
            raise ValueError("centroid and sd must each have 7 entries")
        if not all(math.isfinite(v) and v >= 0 for v in self.centroid):
            raise ValueError(f"group {self.name!r}: centroid means must be >= 0")
        if not all(math.isfinite(v) and v >= 0 for v in self.sd):
            raise ValueError(f"group {self.name!r}: sd entries must be >= 0")
        if not self.name:
            raise ValueError("group name must be nonempty")


@dataclass(frozen=True)
class ScenarioSpec:
    """A weighted mixture of groups plus the shared cohort settings."""

    name: str
    groups: Tuple[Tuple[GroupSpec, float], ...]
    population: int = 378
    gamma: float = 0.2
    rho: float = 0.2
    initial_fbg_mean_mgdl: float = 175.1
    initial_fbg_sd_mgdl: float = 71.9

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple((g, float(w)) for g, w in self.groups)
        )
        if not self.groups:
            raise ValueError("scenario must have at least one group")
        weights = [w for _, w in self.groups]
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError("group weights must be finite and >= 0")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"group weights must sum to 1 (got {sum(weights)!r})")
        if self.population < 1:
            raise ValueError("population must be >= 1")
        for nm in ("gamma", "rho"):
            if not (0.0 < getattr(self, nm) < 1.0):
                raise ValueError(f"{nm} must lie in (0, 1)")
        if not (math.isfinite(self.initial_fbg_mean_mgdl)
                and self.initial_fbg_mean_mgdl > 0):
            raise ValueError("initial_fbg_mean_mgdl must be positive")
        if not (math.isfinite(self.initial_fbg_sd_mgdl)
                and self.initial_fbg_sd_mgdl >= 0):
            raise ValueError("initial_fbg_sd_mgdl must be >= 0")


@dataclass(frozen=True)
class SampledCohort:
    """A simulable cohort plus the group label of each patient."""

    cohort: Cohort
    group_names: Tuple[str, ...]

    def __post_init__(self):
        if len(self.group_names) != len(self.cohort):
            raise ValueError("group_names misaligned with cohort")

    def __len__(self):
        return len(self.cohort)


def default_sds(centroids: Sequence[Tuple[float, ...]]) -> Tuple[float, ...]:
    """Shared per-parameter spread: 10% of the across-group mean,
    floored at 0.01 so zero-mean parameters still vary a little."""
    means = np.mean(np.asarray(centroids, dtype=float), axis=0)
    return tuple(max(0.1 * float(m), 0.01) for m in means)


#                 p      mu     alpha  theta0 lam    s0     beta
_GROUPS = (
    ("A", (0.05, 0.025, 0.1, 0.7, 0.5, 1.0, 0.3)),
    ("B", (5.0, 4.0, 2.0, 0.7, 0.5, 0.2, 1.5)),
    ("C", (5.0, 2.0, 4.0, 0.7, 0.5, 0.2, 1.5)),
    ("D", (7.5, 4.0, 2.0, 0.7, 0.5, 0.2, 1.5)),
    ("E", (0.05, 0.025, 0.35, 2.0, 1.5, 0.2, 1.5)),
)

_CLUSTERS = (
    ("cluster0", (0.091, 0.006, 0.109, 0.001, 0.0, 0.072, 0.0)),
    ("cluster1", (6.994, 6.899, 0.125, 0.0, 0.0, 0.0, 0.011)),
    ("cluster2", (0.039, 0.009, 0.050, 0.002, 0.001, 0.060, 1.040)),
    ("cluster3", (6.990, 0.011, 6.997, 0.0, 0.0, 0.0, 0.0)),
)
# the mixture weights are the cluster's patient counts out of 378, not
# the rounded percentages (which add up to 100.1%)
_CLUSTER_COUNTS = (181, 90, 100, 7)


def builtin_groups() -> Tuple[GroupSpec, ...]:
    sds = default_sds([c for _, c in _GROUPS])
    return tuple(GroupSpec(name, centroid, sds) for name, centroid in _GROUPS)


def builtin_scenarios() -> Tuple[ScenarioSpec, ...]:
    """The three study mixtures plus the real-cohort-like one."""
    groups = {g.name: g for g in builtin_groups()}
    cluster_sds = default_sds([c for _, c in _CLUSTERS])
    clusters = tuple(GroupSpec(name, centroid, cluster_sds)
                     for name, centroid in _CLUSTERS)
    total = sum(_CLUSTER_COUNTS)
    return (
        ScenarioSpec("scenario1", tuple((groups[n], 0.2) for n in "ABCDE")),
        ScenarioSpec("scenario2", ((groups["B"], 0.5), (groups["D"], 0.5))),
        ScenarioSpec("scenario3", ((groups["B"], 0.5), (groups["E"], 0.5))),
        ScenarioSpec("nanohealth-like",
                     tuple(zip(clusters, (n / total for n in _CLUSTER_COUNTS)))),
    )


def apportion(weights: Sequence[float], population: int) -> Tuple[int, ...]:
    """Integer counts matching weights x population by largest remainder.

    Floors every share, then hands the leftover seats to the largest
    fractional remainders (earliest group on exact ties), so counts sum
    to the population and each is within 1 of its exact share.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    shares = [w * population for w in weights]
    counts = [math.floor(s) for s in shares]
    leftover = population - sum(counts)
    order = sorted(range(len(weights)),
                   key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return tuple(counts)


def _truncated_normal(rng: np.random.Generator, mean: float, sd: float,
                      lower: float) -> float:
    for _ in range(MAX_REJECTION_DRAWS):
        value = float(rng.normal(mean, sd))
        if value >= lower:
            return value
    raise SamplingError(
        f"rejection sampling failed after {MAX_REJECTION_DRAWS} draws"
        f" (mean={mean}, sd={sd}, lower bound {lower})"
    )


def sample_cohort(spec: ScenarioSpec, seed: int) -> SampledCohort:
    """Draw a full cohort for one scenario.

    Patients are generated group by group in spec order; within a
    patient, the 7 parameters are drawn in field order and then the
    initial FBG, all from one seeded stream, so cohorts are exactly
    reproducible. Initial states start unenrolled with no adversity and
    perception at the patient's own baseline.
    """
    rng = np.random.default_rng(seed)
    counts = apportion([w for _, w in spec.groups], spec.population)
    params, states, names = [], [], []
    for (group, _), count in zip(spec.groups, counts):
        if count == 0:
            continue
        p0, mu0, alpha0 = group.centroid[0], group.centroid[1], group.centroid[2]
        if p0 >= mu0 + alpha0:
            warnings.warn(
                f"group {group.name}: intervention cannot offset progression"
                f" at the centroid (p={p0} >= mu+alpha={mu0 + alpha0})"
            )
        for _ in range(count):
            draws = [_truncated_normal(rng, m, s, 0.0)
                     for m, s in zip(group.centroid, group.sd)]
            p, mu, alpha, theta0, lam, s0, beta = draws
            with warnings.catch_warnings():
                # individual draws near the centroid re-trigger the
                # effectiveness warning; one group-level report is enough
                warnings.simplefilter("ignore", UserWarning)
                pp = PatientParams(p=p, mu=mu, alpha=alpha, beta=beta, lam=lam,
                                   gamma=spec.gamma, rho=spec.rho,
                                   s_base=s0, theta_base=theta0)
            fbg = _truncated_normal(rng, spec.initial_fbg_mean_mgdl,
                                    spec.initial_fbg_sd_mgdl, 1.0)
            params.append(pp)
            states.append(PatientState(b=math.log(fbg), s=0.0,
                                       theta=theta0, z_prev=0))
            names.append(group.name)
    cohort = Cohort(params=tuple(params), initial_states=tuple(states))
    return SampledCohort(cohort=cohort, group_names=tuple(names))
