"""Scenario tests: builtin group/mixture definitions, largest-remainder
apportionment, truncated-normal sampling (degenerate, noisy, and failing
cases), the initial-FBG pipeline against a quadrature oracle, and seed
reproducibility."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import chwplan.scenarios as scen
from chwplan.scenarios import (
    GroupSpec,
    SamplingError,
    ScenarioSpec,
    apportion,
    builtin_groups,
    builtin_scenarios,
    sample_cohort,
)

GROUP_SD = (0.352, 0.201, 0.169, 0.096, 0.07, 0.036, 0.126)


def by_name(specs):
    return {s.name: s for s in specs}


def flat_sd_spec(centroid, population, name="flat", fbg_sd=0.0):
    g = GroupSpec(name + "-group", centroid, (0.0,) * 7)
    return ScenarioSpec(name, ((g, 1.0),), population=population,
                        initial_fbg_sd_mgdl=fbg_sd)


# ---------------------------------------------------------------------------
# builtin definitions
# ---------------------------------------------------------------------------

def test_builtin_scenario_names_and_weights():
    scenarios = by_name(builtin_scenarios())
    assert set(scenarios) == {"scenario1", "scenario2", "scenario3",
                              "nanohealth-like"}
    for s in scenarios.values():
        assert sum(w for _, w in s.groups) == pytest.approx(1.0, abs=1e-12)
    assert [(g.name, w) for g, w in scenarios["scenario2"].groups] == \
        [("B", 0.5), ("D", 0.5)]
    assert [(g.name, w) for g, w in scenarios["scenario3"].groups] == \
        [("B", 0.5), ("E", 0.5)]
    assert [w for _, w in scenarios["scenario1"].groups] == [0.2] * 5


def test_builtin_group_centroids():
    groups = {g.name: g for g in builtin_groups()}
    assert set(groups) == set("ABCDE")
    # (p, mu, alpha, theta_base, lam, s_base, beta)
    assert groups["A"].centroid == (0.05, 0.025, 0.1, 0.7, 0.5, 1.0, 0.3)
    assert groups["B"].centroid == (5.0, 4.0, 2.0, 0.7, 0.5, 0.2, 1.5)
    assert groups["C"].centroid == (5.0, 2.0, 4.0, 0.7, 0.5, 0.2, 1.5)
    assert groups["D"].centroid == (7.5, 4.0, 2.0, 0.7, 0.5, 0.2, 1.5)
    assert groups["E"].centroid == (0.05, 0.025, 0.35, 2.0, 1.5, 0.2, 1.5)


def test_builtin_group_shared_sd():
    # 10% of the across-group mean per parameter: e.g. mean p over A..E is
    # (0.05+5+5+7.5+0.05)/5 = 3.52, so sd_p = 0.352
    for g in builtin_groups():
        assert g.sd == pytest.approx(GROUP_SD, abs=1e-12)


def test_nanohealth_like_mixture():
    s = by_name(builtin_scenarios())["nanohealth-like"]
    names = [g.name for g, _ in s.groups]
    assert names == ["cluster0", "cluster1", "cluster2", "cluster3"]
    weights = [w for _, w in s.groups]
    assert weights == pytest.approx([181 / 378, 90 / 378, 100 / 378, 7 / 378])
    assert s.groups[1][0].centroid[:3] == (6.994, 6.899, 0.125)
    # zero-mean parameters fall back to the sd floor
    assert s.groups[0][0].sd[3] == 0.01   # theta_base
    assert s.groups[0][0].sd[4] == 0.01   # lam
    assert s.groups[0][0].sd[5] == 0.01   # s_base
    assert s.groups[0][0].sd[6] == pytest.approx(0.026275, abs=1e-12)


def test_scenario_defaults():
    for s in builtin_scenarios():
        assert s.gamma == 0.2 and s.rho == 0.2
        assert s.initial_fbg_mean_mgdl == 175.1
        assert s.initial_fbg_sd_mgdl == 71.9
        assert s.population == 378


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_group_spec_validation():
    with pytest.raises(ValueError, match="7 entries"):
        GroupSpec("x", (1.0,), (0.0,) * 7)
    with pytest.raises(ValueError, match="must be >= 0"):
        GroupSpec("x", (-1.0,) + (0.0,) * 6, (0.0,) * 7)
    with pytest.raises(ValueError, match="sd entries"):
        GroupSpec("x", (0.0,) * 7, (-0.1,) + (0.0,) * 6)
    with pytest.raises(ValueError, match="name must be nonempty"):
        GroupSpec("", (0.0,) * 7, (0.0,) * 7)


def test_scenario_spec_validation():
    g = GroupSpec("g", (1.0,) * 7, (0.0,) * 7)
    with pytest.raises(ValueError, match="sum to 1"):
        ScenarioSpec("s", ((g, 0.4), (g, 0.4)))
    with pytest.raises(ValueError, match=">= 0"):
        ScenarioSpec("s", ((g, 1.5), (g, -0.5)))
    with pytest.raises(ValueError, match="population"):
        ScenarioSpec("s", ((g, 1.0),), population=0)
    with pytest.raises(ValueError, match="gamma"):
        ScenarioSpec("s", ((g, 1.0),), gamma=1.0)
    with pytest.raises(ValueError, match="at least one group"):
        ScenarioSpec("s", ())
    with pytest.raises(ValueError, match="initial_fbg_mean_mgdl must be positive"):
        ScenarioSpec("s", ((g, 1.0),), initial_fbg_mean_mgdl=0.0)
    with pytest.raises(ValueError, match="initial_fbg_sd_mgdl must be >= 0"):
        ScenarioSpec("s", ((g, 1.0),), initial_fbg_sd_mgdl=-1.0)


# ---------------------------------------------------------------------------
# apportionment
# ---------------------------------------------------------------------------

def test_apportion_exact_splits():
    assert apportion([0.2] * 5, 100) == (20, 20, 20, 20, 20)
    assert apportion([0.5, 0.5], 8) == (4, 4)


def test_apportion_largest_remainder():
    # 7 seats at 50/50: both remainders are 0.5, the earlier group wins
    assert apportion([0.5, 0.5], 7) == (4, 3)
    # 0.479/0.238/0.265/0.019-ish mixture at its natural population
    s = by_name(builtin_scenarios())["nanohealth-like"]
    counts = apportion([w for _, w in s.groups], 378)
    assert counts == (181, 90, 100, 7)


def test_apportion_counts_always_sum():
    weights = [0.33, 0.33, 0.34]
    for pop in (1, 2, 3, 10, 97):
        counts = apportion(weights, pop)
        assert sum(counts) == pop
        for c, w in zip(counts, weights):
            assert abs(c - w * pop) < 1.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_zero_sd_reproduces_centroids_exactly():
    centroid = (5.0, 4.0, 2.0, 0.7, 0.5, 0.2, 1.5)
    sampled = sample_cohort(flat_sd_spec(centroid, population=6), seed=1)
    assert len(sampled) == 6
    for pp, st in zip(sampled.cohort.params, sampled.cohort.initial_states):
        assert (pp.p, pp.mu, pp.alpha, pp.theta_base, pp.lam, pp.s_base,
                pp.beta) == centroid
        assert pp.gamma == 0.2 and pp.rho == 0.2
        assert st.b == pytest.approx(math.log(175.1), abs=1e-12)
        assert st.s == 0.0
        assert st.theta == 0.7
        assert st.z_prev == 0


def test_scenario1_population_100_splits_evenly():
    s = by_name(builtin_scenarios())["scenario1"]
    s = ScenarioSpec(s.name, s.groups, population=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # group D is in the mix
        sampled = sample_cohort(s, seed=3)
    counts = {}
    for name in sampled.group_names:
        counts[name] = counts.get(name, 0) + 1
    assert counts == {"A": 20, "B": 20, "C": 20, "D": 20, "E": 20}
    # grouped contiguously in spec order
    assert list(sampled.group_names) == sorted(sampled.group_names)


def test_sampled_parameters_nonnegative_and_b0_positive():
    s = by_name(builtin_scenarios())["nanohealth-like"]
    s = ScenarioSpec(s.name, s.groups, population=200)
    sampled = sample_cohort(s, seed=11)
    for pp, st in zip(sampled.cohort.params, sampled.cohort.initial_states):
        for field in ("p", "mu", "alpha", "theta_base", "lam", "s_base", "beta"):
            assert getattr(pp, field) >= 0.0
        assert st.b > 0.0
        assert st.theta == pp.theta_base


def test_group_d_warns_once_per_cohort():
    s = by_name(builtin_scenarios())["scenario2"]
    s = ScenarioSpec(s.name, s.groups, population=40)
    with pytest.warns(UserWarning, match="group D") as record:
        sample_cohort(s, seed=5)
    effectiveness = [w for w in record
                     if "cannot offset progression" in str(w.message)]
    assert len(effectiveness) == 1


def test_scenario3_does_not_warn():
    s = by_name(builtin_scenarios())["scenario3"]
    s = ScenarioSpec(s.name, s.groups, population=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        sample_cohort(s, seed=5)


def test_same_seed_same_cohort_different_seed_differs():
    s = by_name(builtin_scenarios())["scenario3"]
    s = ScenarioSpec(s.name, s.groups, population=30)
    a = sample_cohort(s, seed=42)
    b = sample_cohort(s, seed=42)
    c = sample_cohort(s, seed=43)
    assert a.cohort.params == b.cohort.params
    assert a.cohort.initial_states == b.cohort.initial_states
    assert a.cohort.params != c.cohort.params


def test_initial_fbg_matches_quadrature_oracle():
    # E[ln X | X >= 1] for X ~ Normal(175.1, 71.9), computed by numeric
    # integration of the truncated density, vs the sampled mean of b0
    mean, sd = 175.1, 71.9
    lo, hi = 1.0, mean + 12 * sd

    def density(x):
        return math.exp(-0.5 * ((x - mean) / sd) ** 2)

    mass, _ = integrate.quad(density, lo, hi)
    weighted, _ = integrate.quad(lambda x: math.log(x) * density(x), lo, hi)
    expected = weighted / mass

    spec = flat_sd_spec((1.0,) * 7, population=10_000, fbg_sd=sd)
    sampled = sample_cohort(spec, seed=2026)
    b0_mean = float(np.mean([st.b for st in sampled.cohort.initial_states]))
    assert abs(b0_mean - expected) / expected < 0.02


def test_rejection_budget_exhaustion(monkeypatch):
    # FBG distribution entirely below the 1 mg/dL truncation bound
    monkeypatch.setattr(scen, "MAX_REJECTION_DRAWS", 200)
    spec = flat_sd_spec((1.0,) * 7, population=1)
    spec = ScenarioSpec(spec.name, spec.groups, population=1,
                        initial_fbg_mean_mgdl=0.5, initial_fbg_sd_mgdl=0.0)
    with pytest.raises(SamplingError, match="after 200 draws"):
        sample_cohort(spec, seed=0)
    assert scen.MAX_REJECTION_DRAWS == 200  # patched value was in effect


def test_rejection_budget_default_is_large():
    assert scen.MAX_REJECTION_DRAWS == 10**6
