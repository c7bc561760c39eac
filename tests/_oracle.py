"""The exhaustive schedule oracle: the best visit schedule of a small
cohort, found by stepping every schedule with chwplan's own model.

The acceptance battery compares the policy rules against it. Unlike
_reference.py it is not independent of chwplan: it advances the cohort
with model.step_cohort and restricts visits with
policy.single_patient_action, so it checks the rules, not the model.
"""

import itertools
import math
from typing import Tuple

import numpy as np

from chwplan.engine import Cohort
from chwplan.model import ParamArrays, StateArrays, step_cohort
from chwplan.policy import single_patient_action

# the most leaves one search steps, as one breadth-first batch per period
ENUMERATION_BUDGET = 1 << 15


class InstanceTooLargeError(Exception):
    """Exhaustive schedule search would exceed the enumeration budget."""

    def __init__(self, enumeration_count: int, budget: int):
        self.enumeration_count = enumeration_count
        self.budget = budget
        super().__init__(
            f"schedule enumeration needs {enumeration_count} evaluations"
            f" (budget {budget})"
        )


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
    sizes = range(0, min(C, population) + 1)
    total = sum(math.comb(population, k) for k in sizes) ** N
    if total > ENUMERATION_BUDGET:
        raise InstanceTooLargeError(total, ENUMERATION_BUDGET)

    subsets = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(population), k) for k in sizes))
    visit_masks = np.array([np.isin(np.arange(population), sub) for sub in subsets])
    params = ParamArrays.of(cohort.params)

    # Breadth-first: each level holds one row per node, and a node's
    # children (one per allowed subset) come ordered by node, then by
    # subset. So the first maximum of the last level is the
    # lexicographically smallest best schedule.
    states = StateArrays(*(a[None, :] for a in StateArrays.of(cohort.initial_states)))
    reward = np.zeros(1, dtype=int)
    levels = []
    for _ in range(N):
        if interest_only:
            outside = ~single_patient_action(states, params)
            allowed = ~(outside[:, None, :] & visit_masks[None, :, :]).any(axis=2)
        else:
            allowed = np.ones((len(reward), len(visit_masks)), dtype=bool)
        parent, chosen = np.nonzero(allowed)
        states, _ = step_cohort(states.take(parent), params, visit_masks[chosen], 0.0)
        reward = reward[parent] + np.count_nonzero(states.b <= delta, axis=1)
        levels.append((parent, chosen))

    leaf = int(np.argmax(reward))
    value = int(reward[leaf])
    picks = []
    for parent, chosen in reversed(levels):
        picks.append(subsets[chosen[leaf]])
        leaf = parent[leaf]
    return value, tuple(reversed(picks))
