"""Estimation tests: history validation, the closed-form latent
reconstructions, single-cell QP fits, grid-search mechanics (tie rule,
failure path, stall exclusion), and generate-then-fit recovery on a
synthetic patient with known parameters."""

import math
import os
from dataclasses import replace
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chwplan.estimation as est
from chwplan.estimation import (
    NLL_TIE_TOLERANCE,
    EstimationConfig,
    EstimationFailedError,
    EstimationResult,
    InnerSolution,
    VisitHistory,
    estimate_patient,
    perception_coefficients,
    reconstruct_adverse,
    solve_inner,
)
from chwplan.model import PatientParams
from chwplan.qp import MAX_ITERATIONS, QPResult, solve_qp

from _synthetic import generate_history

# ---------------------------------------------------------------------------
# the reference synthetic patient
#
# Grid-aligned at (s_base=0, beta=1, gamma=0.2, rho=0.2). The visit plan
# cycles every 8 periods: three visits in a row, a skipped period (the
# patient drops out once perception has sagged), a re-recruiting visit,
# then three quiet periods. That yields 8 dropout periods in 60, each an
# actively-declined offer, which pins mu against theta and leaves p
# identified from the unenrolled drift. Smallest |benefit| margin over
# the whole record is ~0.022, three orders of magnitude above the QP
# tolerance, so the enrollment record is insensitive to solver slack.
# ---------------------------------------------------------------------------

TRUE = PatientParams(p=1.0, mu=0.22, alpha=1.2, beta=1.0, lam=0.02,
                     gamma=0.2, rho=0.2, s_base=0.0, theta_base=1.0)
TRUE_CELL = (0.0, 1.0, 0.2, 0.2)
B0 = 2.0
HORIZON = 60
VISITS = tuple(t for k in range(8) for t in (8 * k, 8 * k + 1, 8 * k + 2, 8 * k + 4)
               if t < HORIZON)
SEED = 6


def reference_history(sigma=0.01, seed=SEED, observed_periods=None):
    return generate_history(TRUE, B0, VISITS, HORIZON, sigma_eps=sigma,
                            sigma_xi=sigma, seed=seed,
                            observed_periods=observed_periods)


def small_config(**kw):
    base = dict(sigma_eps=0.01, sigma_xi=0.01)
    base.update(kw)
    return EstimationConfig(**base)


def relerr(have, want):
    return abs(have - want) / abs(want)


def cell_constraints(h, cell):
    # A, l, u of one grid cell's inner QP, assembled as solve_cells does
    c, terms_h, big_m = est._cell_terms(h, [cell[:3]], [cell[3]])
    return est._assemble(h, c[0], terms_h[0], big_m[0, 0])


# ---------------------------------------------------------------------------
# VisitHistory validation
# ---------------------------------------------------------------------------

def test_history_rejects_empty():
    with pytest.raises(ValueError, match="at least one period"):
        VisitHistory(visited=(), enrolled=())


def test_history_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        VisitHistory(visited=(1, 0), enrolled=(1,))


def test_history_rejects_nonbinary():
    with pytest.raises(ValueError, match="visited entries"):
        VisitHistory(visited=(2, 0), enrolled=(0, 0))
    with pytest.raises(ValueError, match="enrolled entries"):
        VisitHistory(visited=(1, 0), enrolled=(1, -1))


def test_history_rejects_unreachable_enrollment():
    # enrolled at t=0 without a visit: nobody made an offer
    with pytest.raises(ValueError, match="inconsistent enrollment at period 0"):
        VisitHistory(visited=(0, 1), enrolled=(1, 1))
    # gap: enrolled again at t=2 after lapsing, without a visit
    with pytest.raises(ValueError, match="inconsistent enrollment at period 2"):
        VisitHistory(visited=(1, 0, 0), enrolled=(1, 0, 1))


def test_history_enrollment_can_persist_without_visits():
    h = VisitHistory(visited=(1, 0, 0), enrolled=(1, 1, 1))
    assert h.length == 3


def test_history_observation_validation():
    with pytest.raises(ValueError, match="period 5 outside"):
        VisitHistory(visited=(1,), enrolled=(1,), observations={5: 1.0})
    with pytest.raises(ValueError, match="duplicate observation"):
        VisitHistory(visited=(1, 0), enrolled=(1, 1),
                     observations=((0, 1.0), (0, 2.0)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            VisitHistory(visited=(1,), enrolled=(1,), observations={0: bad})
    # a reading below 1 mg/dL is a negative log-FBG; only the latent b is floored
    h = VisitHistory(visited=(1,), enrolled=(1,), observations={0: -0.5})
    assert h.observed_map == {0: -0.5}


def test_history_normalizes_observations():
    from_dict = VisitHistory(visited=(1, 0, 0), enrolled=(1, 1, 1),
                             observations={2: 3.0, 0: 1.0})
    from_pairs = VisitHistory(visited=(1, 0, 0), enrolled=(1, 1, 1),
                              observations=[(2, 3.0), (0, 1.0)])
    assert from_dict.observations == ((0, 1.0), (2, 3.0))
    assert from_pairs.observations == from_dict.observations
    assert from_dict.observed_map == {0: 1.0, 2: 3.0}


# ---------------------------------------------------------------------------
# closed-form latent reconstructions
# ---------------------------------------------------------------------------

def test_adverse_zero_when_never_enrolled():
    h = VisitHistory(visited=(1, 0, 1, 0), enrolled=(0, 0, 0, 0))
    assert reconstruct_adverse(h, 2.0, 1.5, 0.5) == (0.0, 0.0, 0.0, 0.0)


def test_adverse_visit_spike_then_decay():
    # s_base=0.5, beta=0.5, gamma=0.2, one visit then enrolled quietly:
    # s = 0.5 -> 0.5+0.5 -> 0.2*0.5+0.5 -> 0.2*0.1+0.5 -> ...
    h = VisitHistory(visited=(1, 0, 0, 0, 0), enrolled=(1, 1, 1, 1, 1))
    s = reconstruct_adverse(h, 0.5, 0.5, 0.2)
    expected = (0.5, 1.0, 0.6, 0.52, 0.504)
    assert s == pytest.approx(expected, abs=1e-12)


def test_adverse_geometric_reset_without_visit_term():
    # beta=0: after (re)enrollment from a lapsed state the trajectory
    # climbs from 0 toward s_base geometrically: gaps to s_base halve
    # each period at gamma=0.5
    h = VisitHistory(visited=(0, 0, 1, 0, 0, 0), enrolled=(0, 0, 1, 1, 1, 1))
    s = reconstruct_adverse(h, 2.0, 0.0, 0.5)
    assert s == pytest.approx((0.0, 0.0, 0.0, 1.0, 1.5, 1.75), abs=1e-12)


def test_adverse_starts_at_base_when_initially_enrolled():
    h = VisitHistory(visited=(1, 0), enrolled=(1, 1))
    assert reconstruct_adverse(h, 0.7, 0.0, 0.9)[0] == 0.7


def test_perception_coefficients_visit_then_recovery():
    h = VisitHistory(visited=(1, 0, 0, 0), enrolled=(1, 1, 1, 1))
    c = perception_coefficients(h, 0.2)
    assert c == pytest.approx((0.0, -1.0, -0.2, -0.04), abs=1e-12)
    # theta_base=0.5, lam=0.5 reproduces the dip-to-zero trajectory
    theta = [0.5 + 0.5 * ct for ct in c]
    assert theta == pytest.approx((0.5, 0.0, 0.4, 0.48), abs=1e-12)


def test_perception_coefficients_never_positive():
    h = VisitHistory(visited=(1, 1, 0, 1, 0, 0, 1), enrolled=(1, 1, 1, 1, 0, 0, 1))
    for rho in (0.2, 0.5, 0.99):
        assert all(ct <= 0.0 for ct in perception_coefficients(h, rho))


# ---------------------------------------------------------------------------
# single-cell fits
# ---------------------------------------------------------------------------

def test_inner_recovers_drift_from_clean_line():
    # never offered, never enrolled: the only dynamics are b' = b + p,
    # so exact observations on a line of slope 0.3 pin p
    T = 8
    obs = {t: 2.0 + 0.3 * t for t in range(T)}
    h = VisitHistory(visited=(0,) * T, enrolled=(0,) * T, observations=obs)
    sol = solve_inner(h, 1.0, 0.0, 0.5, 0.5, EstimationConfig())
    assert sol.feasible
    assert sol.nll <= 1e-6
    assert sol.p == pytest.approx(0.3, abs=1e-4)
    assert np.allclose(sol.latent_log_fbg, [obs[t] for t in range(T)], atol=1e-4)


def test_inner_single_period():
    h = VisitHistory(visited=(1,), enrolled=(1,), observations={0: 3.0})
    sol = solve_inner(h, 1.0, 0.0, 0.2, 0.2, EstimationConfig())
    assert sol.feasible
    assert sol.nll <= 1e-8
    assert sol.latent_log_fbg[0] == pytest.approx(3.0, abs=1e-5)
    assert sol.innovations == ()


def test_inner_no_observations():
    h = VisitHistory(visited=(0,) * 5, enrolled=(0,) * 5)
    sol = solve_inner(h, 1.0, 0.0, 0.5, 0.5, EstimationConfig())
    assert sol.feasible
    assert sol.nll <= 1e-8
    assert np.allclose(sol.innovations, 0.0, atol=1e-4)


def test_inner_exact_on_noise_free_record():
    h, truth = reference_history(sigma=0.0)
    assert truth.enrolled == h.enrolled  # generator self-consistency
    sol = solve_inner(h, *TRUE_CELL, small_config())
    assert sol.feasible
    assert sol.nll <= 1e-6
    # a one-cell grid's pool steps only that cell's QP
    P, q = est._objective(h, small_config())
    assert sol.iterations == solve_qp(P, q, *cell_constraints(h, TRUE_CELL)).iterations
    assert sol.p == pytest.approx(TRUE.p, abs=1e-4)
    assert sol.mu == pytest.approx(TRUE.mu, abs=1e-4)
    assert sol.alpha == pytest.approx(TRUE.alpha, abs=1e-4)


def test_inner_fit_penalty_kills_wrong_shape_cell():
    # at (s_base=0, beta=0) the reconstructed adversity is identically
    # zero, benefit reduces to mu + alpha*y, and the dropout periods
    # force mu ~ 0; the fitted drift then contradicts the enrolled-period
    # slowdown in the data, costing hundreds of nll units
    h, _ = reference_history(sigma=0.0)
    cfg = small_config()
    wrong = solve_inner(h, 0.0, 0.0, 0.2, 0.2, cfg)
    right = solve_inner(h, *TRUE_CELL, cfg)
    assert wrong.feasible  # the sign constraints alone cannot reject it
    assert wrong.nll > 100.0
    assert right.nll < 1e-6


def test_inner_solution_respects_benefit_signs():
    h, _ = reference_history()
    sol = solve_inner(h, *TRUE_CELL, small_config())
    s_base, beta, gamma, rho = TRUE_CELL
    s = reconstruct_adverse(h, s_base, beta, gamma)
    c = perception_coefficients(h, rho)
    tol = 1e-4
    for t in range(h.length):
        theta_t = sol.theta_base + sol.lam * c[t]
        g = gamma * (s[t] - s_base) + s_base
        benefit = (sol.mu + sol.alpha * h.visited[t]
                   - theta_t * (g + beta * h.visited[t]))
        if h.enrolled[t] == 1:
            assert benefit >= -tol
        else:
            assert benefit <= tol


def test_inner_excludes_stalled_cell(monkeypatch):
    def always_stalls(P, q, constraints):
        for _ in constraints:
            yield QPResult("nonconverged", None, None, 17, pool_iterations=17)

    monkeypatch.setattr(est, "solve_qps", always_stalls)
    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0})
    sol = solve_inner(h, 1.0, 0.0, 0.2, 0.2, EstimationConfig())
    assert not sol.feasible
    assert sol.nll == math.inf
    assert sol.iterations == 17


def test_intermittent_infeasibility_certified_over_the_interval(monkeypatch):
    # With a 0.1 strict gap the record contradicts this cell. The last
    # step's dual increment certifies that at no check (every
    # CHECK_INTERVAL-th iteration) within the MAX_ITERATIONS budget, so on
    # that test alone the cell ends nonconverged; the increment over the
    # whole interval certifies it.
    monkeypatch.setattr(est, "STRICT_GAP", 0.1)
    h = VisitHistory(
        visited=(0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
        enrolled=(0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        observations={0: 1.144833, 1: 3.707108, 2: 1.888736, 3: 1.191087,
                      4: 3.905185, 5: 2.623981, 6: 2.229287, 7: 0.66933,
                      8: 0.83149, 10: 0.880101, 13: 0.558384, 14: 0.362858})
    P, q = est._objective(h, EstimationConfig())
    A, l, u = cell_constraints(h, (0.0, 2.0, 0.2, 0.8))
    result = solve_qp(P, q, A, l, u)
    assert result.status == "primal_infeasible"
    assert result.iterations < MAX_ITERATIONS
    # the reported direction is a Farkas certificate: A'y ~ 0 while the
    # support function of [l, u] at y is negative
    y = result.y
    assert np.max(np.abs(A.T @ y)) <= 1e-6
    active = np.where(y > 0, u, np.where(y < 0, l, 0.0))
    assert np.all(np.isfinite(active))
    assert float(active @ y) < 0.0


def test_objective_ignores_theta_base_and_lam():
    # theta_base and lam (the last two variables) enter only the cell
    # constraints, never the likelihood, so any point of a cell's feasible
    # segment in them is optimal: the values estimates.csv reports there
    # are where the solver stopped
    h, _ = reference_history()
    T = h.length
    P, q = est._objective(h, EstimationConfig())
    assert not np.any(P[T + 3:]) and not np.any(P[:, T + 3:]) and not np.any(q[T + 3:])
    assert np.any(P[T:T + 3]) and np.any(q[:T])
    A, _, _ = cell_constraints(h, TRUE_CELL)
    assert np.all(np.any(A[:, T + 3:], axis=0))


# ---------------------------------------------------------------------------
# grid-search mechanics
# ---------------------------------------------------------------------------

def _fake_solution(nll):
    return InnerSolution(status="solved", nll=nll, p=0.5, mu=0.5, alpha=0.5,
                         theta_base=1.0, lam=0.0, latent_log_fbg=(1.0, 1.0),
                         innovations=(0.0,), iterations=1)


def test_grid_visits_every_cell_once(monkeypatch):
    calls = []

    def counting(history, config):
        cells = est.grid_cells(config)
        calls.extend(cells)
        return [_fake_solution(1.0) for _ in cells]

    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0})
    monkeypatch.setattr(est, "solve_cells", counting)
    result = estimate_patient(h, EstimationConfig())
    assert len(calls) == 400
    assert len(set(calls)) == 400
    # all ties: the first cell in (s_base, beta, gamma, rho) order wins
    assert result.grid_cell == (0.0, 0.0, 0.2, 0.2)
    assert calls[0] == result.grid_cell


def test_grid_tie_slack_keeps_earlier_cell(monkeypatch):
    # an improvement smaller than the tie tolerance is solver noise, not
    # evidence; a real improvement still wins
    def scripted(history, config):
        def one(cell):
            if cell == (0.0, 0.0, 0.2, 0.2):
                return _fake_solution(10.0)
            if cell == (0.0, 0.0, 0.2, 0.5):
                return _fake_solution(10.0 - 5e-5)  # within 1e-5 * (1 + 10)
            if cell == (1.0, 2.0, 0.5, 0.8):
                return _fake_solution(1.0)
            return _fake_solution(50.0)
        return [one(cell) for cell in est.grid_cells(config)]

    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0})
    monkeypatch.setattr(est, "solve_cells", scripted)
    result = estimate_patient(h, EstimationConfig())
    assert result.grid_cell == (1.0, 2.0, 0.5, 0.8)

    def scripted_ties_only(history, config):
        def one(cell):
            if cell == (0.0, 0.0, 0.2, 0.2):
                return _fake_solution(10.0)
            if cell == (0.0, 0.0, 0.2, 0.5):
                return _fake_solution(10.0 - 5e-5)
            return _fake_solution(50.0)
        return [one(cell) for cell in est.grid_cells(config)]

    monkeypatch.setattr(est, "solve_cells", scripted_ties_only)
    result = estimate_patient(h, EstimationConfig())
    assert result.grid_cell == (0.0, 0.0, 0.2, 0.2)


def test_reading_below_one_mgdl_is_estimated():
    # noise takes the 0.9 mg/dL reading below the model's floor of 1 mg/dL:
    # the fit boxes the latent log-FBG at 0, not the reading
    h = VisitHistory(visited=(1, 0, 0), enrolled=(1, 1, 1),
                     observations={0: math.log(1.5), 1: math.log(0.9), 2: math.log(1.2)})
    cfg = EstimationConfig(grid_s_base=(0.0, 1.0), grid_beta=(0.0,),
                           grid_gamma=(0.2,), grid_rho=(0.2, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = estimate_patient(h, cfg)
    assert math.isfinite(result.nll)
    assert result.cells_solved >= 1
    assert min(result.latent_log_fbg) >= 0.0


def test_estimation_failed_when_every_cell_infeasible(monkeypatch):
    def never_feasible(history, config):
        return [InnerSolution("primal_infeasible", math.inf, 0, 0, 0, 0, 0, (), (), 3)
                for _ in est.grid_cells(config)]

    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0},
                     patient_id="pt-042")
    monkeypatch.setattr(est, "solve_cells", never_feasible)
    with pytest.raises(EstimationFailedError, match="pt-042"):
        estimate_patient(h, EstimationConfig())


def test_infeasible_and_nonconverged_cells_dropped_from_one_batch(monkeypatch):
    # all four cells fit this record exactly, so the earliest would win;
    # the batch reports the first infeasible and the second out of budget,
    # and the best remaining cell (the third, by the tie rule) wins. The
    # visit while enrolled at period 1 makes c depend on rho, so the four
    # cells' constraints differ and all four reach the solver
    h = VisitHistory(visited=(1, 1, 0), enrolled=(1, 1, 1), observations={0: 1.0})
    cfg = EstimationConfig(grid_s_base=(0.0, 1.0), grid_beta=(0.0,),
                           grid_gamma=(0.2,), grid_rho=(0.2, 0.5))
    cells = est.grid_cells(cfg)
    assert estimate_patient(h, cfg).grid_cell == cells[0]
    # solve_inner goes through solve_qps too, so the reference comes first
    third_nll = solve_inner(h, *cells[2], cfg).nll
    real_solve_qps = est.solve_qps

    def first_two_fail(P, q, constraints, **kwargs):
        results = list(real_solve_qps(P, q, constraints, **kwargs))
        assert len(results) == 4 and all(r.status == "solved" for r in results)
        results[0] = QPResult("primal_infeasible", None, None, 25)
        results[1] = QPResult("nonconverged", None, None, 10000)
        return results

    monkeypatch.setattr(est, "solve_qps", first_two_fail)
    result = estimate_patient(h, cfg)
    assert result.grid_cell == cells[2]
    # the third cell fits exactly, so the search stops there
    assert (result.cells_solved, result.cells_infeasible,
            result.cells_nonconverged, result.cells_pruned) == (1, 1, 1, 1)
    assert result.nll == third_nll


def test_config_validation():
    with pytest.raises(ValueError, match="grid_s_base"):
        EstimationConfig(grid_s_base=())
    with pytest.raises(ValueError, match="outside"):
        EstimationConfig(grid_gamma=(0.2, 1.0))
    with pytest.raises(ValueError, match=">= 0"):
        EstimationConfig(grid_beta=(-1.0,))
    with pytest.raises(ValueError, match="noise scales"):
        EstimationConfig(sigma_eps=0.0)
    for bad in (math.nan, math.inf):
        for name in ("sigma_eps", "sigma_xi"):
            with pytest.raises(ValueError, match=f"EstimationConfig.{name} must be finite"):
                EstimationConfig(**{name: bad})
        with pytest.raises(ValueError, match="finite and >= 0"):
            EstimationConfig(grid_s_base=(0.0, bad))
        with pytest.raises(ValueError, match="outside"):
            EstimationConfig(grid_rho=(bad,))


# ---------------------------------------------------------------------------
# the relaxed bound and the pruned search
# ---------------------------------------------------------------------------

DEGENERATE_RECORDS = {
    "no observations": VisitHistory(visited=(1, 0, 1, 0), enrolled=(1, 1, 1, 0)),
    "never enrolled": VisitHistory(visited=(1, 0, 1, 0, 0), enrolled=(0,) * 5,
                                   observations={0: 1.0, 2: 2.5, 4: 0.3}),
    "never visited": VisitHistory(visited=(0,) * 6, enrolled=(0,) * 6,
                                  observations={0: 2.0, 1: 2.4, 3: 2.8, 5: 3.7}),
    "single period": VisitHistory(visited=(1,), enrolled=(1,), observations={0: 3.0}),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_RECORDS))
def test_relaxed_bound_below_every_solved_cell(name):
    h = DEGENERATE_RECORDS[name]
    cfg = EstimationConfig()
    bound = est.relaxed_lower_bound(h, cfg)
    assert math.isfinite(bound)
    nlls = [sol.nll for sol in est.solve_cells(h, cfg) if sol.feasible]
    assert len(nlls) > 0
    assert all(bound <= nll for nll in nlls)


def test_relaxed_bound_below_every_solved_cell_of_noisy_record():
    h, _ = reference_history()
    cfg = small_config(grid_s_base=(0.0, 1.0), grid_beta=(0.0, 1.0, 3.0),
                       grid_gamma=(0.2, 0.99), grid_rho=(0.2, 0.9))
    bound = est.relaxed_lower_bound(h, cfg)
    nlls = [sol.nll for sol in est.solve_cells(h, cfg) if sol.feasible]
    assert len(nlls) == 24
    assert all(bound <= nll for nll in nlls)
    # the record fits the planted cell to within the tie slack of the bound
    assert min(nlls) - NLL_TIE_TOLERANCE * (1.0 + min(nlls)) <= bound


def test_overflowing_innovation_weights_are_refused_before_any_solve(monkeypatch):
    # w_xi = 1e308 is finite, but three innovations sum it three times into
    # P's p entry: refused by name, with no overflow warning and no QP run
    h = VisitHistory(patient_id="x", visited=(1, 0, 0, 1), enrolled=(1, 1, 1, 1),
                     observations={0: 5.0, 3: 5.0})
    monkeypatch.setattr(est, "solve_qps", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"patient 'x': the likelihood overflows a float"
                                             r" at EstimationConfig.sigma_eps=0.1 and"
                                             r" sigma_xi=1e-154"):
            estimate_patient(h, EstimationConfig(sigma_xi=1e-154))


def outer_product_objective(h, config):
    """_objective's P and q, P as the sum of the T-1 innovations' rank-one
    terms w_xi*d_t*d_t': the reference the entry-by-entry P must equal."""
    T, n = h.length, h.length + 5
    P, q = np.zeros((n, n)), np.zeros(n)
    for t, val in h.observations:
        P[t, t] += config.w_eps
        q[t] -= config.w_eps * val
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1):
            d = np.zeros(n)
            d[t + 1], d[t], d[T] = 1.0, -1.0, -1.0
            d[T + 1], d[T + 2] = float(h.enrolled[t]), float(h.visited[t] * h.enrolled[t])
            P += config.w_xi * np.outer(d, d)
    return P, q


def test_objective_equals_the_outer_product_sum():
    # w_xi = 1/0.37**2 rounds, so a border entry's 299 additions round as
    # they are ordered; 2.5e305 sums to near the largest float at T = 300,
    # and 1e308 overflows an entry once it adds two terms, which both refuse
    rng = np.random.default_rng(11)
    refused = 0
    for T in (1, 2, 3, 4, 5, 8, 13, 60, 61, 99, 128, 200, 255, 300):
        visited = rng.integers(0, 2, T)
        enrolled = []
        for t in range(T):
            offered = visited[t] == 1 or (t > 0 and enrolled[-1] == 1)
            enrolled.append(int(rng.integers(0, 2)) if offered else 0)
        observed = np.flatnonzero(rng.random(T) < 0.6)
        h = VisitHistory(tuple(visited.tolist()), tuple(enrolled),
                         {int(t): float(rng.uniform(3.0, 6.0)) for t in observed})
        for sigma_xi in (0.37, 2e-153, 1e-154):
            config = EstimationConfig(sigma_xi=sigma_xi)
            P, q = outer_product_objective(h, config)
            if not np.isfinite(P).all():
                refused += 1
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="the likelihood overflows a float"):
                        est._objective(h, config)
                continue
            got_P, got_q = est._objective(h, config)
            assert got_P.tobytes() == P.tobytes(), (T, sigma_xi)
            assert got_q.tobytes() == q.tobytes(), (T, sigma_xi)
    assert refused == 12  # every T >= 3 at 1e308


def test_box_qp_step_ratio_overflow_is_silent():
    # z - x is subnormal in the first coordinate, so its step ratio
    # overflows; only coordinates leaving the box read the ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = est._box_qp(np.eye(2), np.array([-1e-310, 1.0]), np.zeros(2),
                        np.full(2, 20.0))
    assert x.tolist() == [1e-310, 0.0]


def test_criterion_06_fixture_stops_early():
    h, _ = reference_history()
    result = estimate_patient(h, small_config())
    assert result.grid_cell == TRUE_CELL
    assert result.cells_pruned > 0
    assert (result.cells_solved + result.cells_infeasible
            + result.cells_nonconverged + result.cells_pruned) == 400


def test_search_stops_at_first_cell_within_tie_slack_of_bound(monkeypatch):
    # this record fits exactly, so the bound is 0: a first cell 5e-4 above
    # it is no stopping point, the second cell at 0 is
    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0})
    assert est.relaxed_lower_bound(h, EstimationConfig()) == 0.0
    walked, closed = [], []

    def scripted(history, config):
        try:
            for cell in est.grid_cells(config):
                walked.append(cell)
                yield _fake_solution(5e-4 if len(walked) == 1 else 0.0)
        finally:
            closed.append(True)

    monkeypatch.setattr(est, "solve_cells", scripted)
    result = estimate_patient(h, EstimationConfig())
    cells = est.grid_cells(EstimationConfig())
    assert result.grid_cell == cells[1]
    assert walked == cells[:2] and closed == [True]
    assert (result.cells_solved, result.cells_pruned) == (2, 398)


@st.composite
def records(draw):
    T = draw(st.integers(1, 10))
    visited = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
    enrolled = []
    for t in range(T):
        offered = visited[t] == 1 or (t > 0 and enrolled[-1] == 1)
        enrolled.append(draw(st.integers(0, 1)) if offered else 0)
    values = draw(st.lists(st.none() | st.floats(0.0, 4.0), min_size=T, max_size=T))
    return VisitHistory(tuple(visited), tuple(enrolled),
                        {t: v for t, v in enumerate(values) if v is not None})


SMALL_GRID = EstimationConfig(grid_s_base=(0.0, 1.0), grid_beta=(0.0, 2.0),
                              grid_gamma=(0.2, 0.9), grid_rho=(0.5, 0.99))


def _fit_or_none(h):
    try:
        return estimate_patient(h, SMALL_GRID)
    except EstimationFailedError:
        return None


@settings(max_examples=30, deadline=None)
@given(records())
def test_pruned_search_equals_full_search(h):
    pruned = _fit_or_none(h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(est, "relaxed_lower_bound", lambda history, config: -math.inf)
        full = _fit_or_none(h)
    assert (pruned is None) == (full is None)
    if full is None:
        return
    assert full.cells_pruned == 0
    assert pruned.grid_cell == full.grid_cell
    assert pruned.nll == full.nll
    assert pruned.params == full.params
    assert pruned.latent_log_fbg == full.latent_log_fbg


def _fields_but_work(sol):
    # repr round-trips every float, so equal reprs are bit-equal fields
    return repr(replace(sol, iterations=0, reused=False))


@settings(max_examples=30, deadline=None)
@given(records())
@example(DEGENERATE_RECORDS["never enrolled"])
@example(reference_history()[0])
def test_solve_cells_equals_solve_inner_per_cell(h):
    # solving only the byte-distinct cell QPs, and handing a later equal
    # cell the earlier one's solution, changes no field but the work counts
    cells = est.grid_cells(SMALL_GRID)
    batched = list(est.solve_cells(h, SMALL_GRID))
    assert len(batched) == len(cells)
    for cell, sol in zip(cells, batched):
        alone = solve_inner(h, *cell, SMALL_GRID)
        assert _fields_but_work(sol) == _fields_but_work(alone)
        assert not alone.reused
        if sol.reused:
            assert sol.iterations == 0


shape_values = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3)
decay_values = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3)


@settings(max_examples=50, deadline=None)
@given(records(), shape_values, shape_values, decay_values, decay_values)
@example(reference_history()[0], [0.0, 1.0], [0.0, 1.0], [0.2, 0.99], [0.2, 0.9])
def test_cell_terms_rows_equal_each_cell_alone(h, s_bases, betas, gammas, rhos):
    # each row of the grid-wide table is byte-equal to the cell's terms
    # restated from the scalar recurrences
    triples = [(s_base, beta, gamma) for s_base in s_bases for beta in betas
               for gamma in gammas]
    c, h_table, big_m = est._cell_terms(h, triples, rhos)
    assert c.shape == (len(rhos), h.length) and h_table.shape == (len(triples), h.length)
    assert big_m.shape == (len(triples), len(rhos))
    y = np.array(h.visited)
    ub = est.PARAM_UPPER_BOUND
    for r, rho in enumerate(rhos):
        c_alone = np.array(perception_coefficients(h, rho))
        assert c[r].tobytes() == c_alone.tobytes()
        theta_max = ub * (1.0 + np.max(np.abs(c_alone)))
        for k, (s_base, beta, gamma) in enumerate(triples):
            s = np.array(reconstruct_adverse(h, s_base, beta, gamma))
            g = gamma * (s - s_base) + s_base
            assert h_table[k].tobytes() == (g + beta * y).tobytes()
            alone = 2.0 * (ub + ub + theta_max * (np.max(g) + beta))
            assert big_m[k, r].tobytes() == alone.tobytes()


def _constraints_bytes(h, cell):
    return b"".join(a.tobytes() for a in cell_constraints(h, cell))


def test_pool_receives_each_distinct_qp_once_and_closes_on_stop(monkeypatch):
    # the planted record's cells 0-24 (s_base = beta = 0) have g = h = 0,
    # so their constraints depend on rho alone; the search stops at cell 25
    h, _ = reference_history()
    cfg = small_config()
    cells = est.grid_cells(cfg)
    received, yielded, ends = [], [], []
    real_solve_qps = est.solve_qps

    def counting(P, q, constraints):
        def read():
            for A, l, u in constraints:
                received.append(b"".join(a.tobytes() for a in (A, l, u)))
                yield A, l, u
        try:
            for result in real_solve_qps(P, q, read()):
                yielded.append(result)
                yield result
            ends.append("exhausted")
        finally:
            ends.append("closed")

    monkeypatch.setattr(est, "solve_qps", counting)
    result = estimate_patient(h, cfg)
    assert result.grid_cell == TRUE_CELL
    assert result.cells_pruned > 0
    assert ends == ["closed"]
    # the pool read the first len(received) distinct QPs of the grid, in
    # grid order, each once
    distinct = list(dict.fromkeys(_constraints_bytes(h, cell) for cell in cells))
    assert received == distinct[:len(received)]
    reached = 400 - result.cells_pruned
    reached_distinct = len(set(_constraints_bytes(h, cell) for cell in cells[:reached]))
    assert reached_distinct == 6
    assert result.cells_reused == reached - reached_distinct
    # the work counts the slots still in flight when the search stopped
    assert result.qp_iterations == yielded[-1].pool_iterations
    assert result.qp_iterations > sum(r.iterations for r in yielded)


def test_estimation_does_not_import_scipy():
    # scipy is a test dependency only; importing it would double the
    # estimate command's resident memory
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "import chwplan.cli\n"
        "from chwplan.estimation import VisitHistory, estimate_patient\n"
        "estimate_patient(VisitHistory(visited=(1, 0, 1), enrolled=(1, 1, 1),"
        " observations={0: 1.0, 2: 1.5}))\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# generate-then-fit recovery
# ---------------------------------------------------------------------------

def test_full_grid_recovery_on_noisy_record():
    h, truth = reference_history()
    assert truth.min_benefit_margin > 0.02
    result = estimate_patient(h, small_config())
    assert result.grid_cell == TRUE_CELL
    assert relerr(result.params.p, TRUE.p) <= 0.05
    assert relerr(result.params.mu, TRUE.mu) <= 0.05
    assert relerr(result.params.alpha, TRUE.alpha) <= 0.05
    assert result.params.beta == TRUE.beta
    assert result.params.gamma == TRUE.gamma
    assert result.params.rho == TRUE.rho
    assert result.params.s_base == TRUE.s_base
    # reported latents match the winning cell's closed forms
    s_base, beta, gamma, rho = result.grid_cell
    assert result.latent_adverse == reconstruct_adverse(h, s_base, beta, gamma)
    c = perception_coefficients(h, rho)
    theta = tuple(result.params.theta_base + result.params.lam * ct for ct in c)
    assert result.latent_perception == pytest.approx(theta, abs=1e-12)
    assert len(result.latent_log_fbg) == h.length
    assert len(result.innovations) == h.length - 1


def test_grid_cell_is_the_cell_of_the_fitted_params():
    h, _ = reference_history()
    config = small_config()
    result = estimate_patient(h, config)
    prm = result.params
    assert result.grid_cell == (prm.s_base, prm.beta, prm.gamma, prm.rho)
    assert result.grid_cell in est.grid_cells(config)
    # the cell is stated once, in params: no field of its own
    assert "grid_cell" not in est.EstimationResult.__dataclass_fields__


def test_full_grid_recovery_is_deterministic():
    h, _ = reference_history()
    a = estimate_patient(h, small_config())
    b = estimate_patient(h, small_config())
    assert a.grid_cell == b.grid_cell
    assert a.nll == b.nll
    assert a.params == b.params
    assert a.latent_log_fbg == b.latent_log_fbg


def test_recovery_error_shrinks_with_noise():
    # same standard-normal draws scaled by sigma: the fitted-parameter
    # error at the true cell should shrink as the noise does
    errs = []
    for sigma in (0.1, 0.01, 0.001):
        h, _ = reference_history(sigma=sigma)
        sol = solve_inner(h, *TRUE_CELL, small_config(sigma_eps=sigma,
                                                      sigma_xi=sigma))
        assert sol.feasible
        errs.append(max(relerr(sol.p, TRUE.p), relerr(sol.mu, TRUE.mu),
                        relerr(sol.alpha, TRUE.alpha)))
    assert errs[0] <= 0.05
    assert errs[2] < errs[1] < errs[0]


def test_recovery_tolerates_missing_observations():
    kept = [t for t in range(HORIZON) if t % 10 not in (3, 6, 9)]
    h, _ = reference_history(observed_periods=kept)
    assert len(h.observations) == HORIZON - 18
    sol = solve_inner(h, *TRUE_CELL, small_config())
    assert sol.feasible
    assert relerr(sol.p, TRUE.p) <= 0.05
    assert relerr(sol.mu, TRUE.mu) <= 0.05
    assert relerr(sol.alpha, TRUE.alpha) <= 0.05


def test_noise_free_missing_data_barely_moves_progression_estimate():
    # the unobserved periods are pinned by the dynamics constraints, so
    # dropping 30% of a noise-free record should not move p materially
    kept = [t for t in range(HORIZON) if t % 10 not in (3, 6, 9)]
    full, _ = reference_history(sigma=0.0)
    partial, _ = reference_history(sigma=0.0, observed_periods=kept)
    sol_full = solve_inner(full, *TRUE_CELL, small_config())
    sol_partial = solve_inner(partial, *TRUE_CELL, small_config())
    assert sol_full.feasible and sol_partial.feasible
    assert abs(sol_full.p - sol_partial.p) <= 1e-3
