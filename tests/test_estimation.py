"""Estimation tests: history validation, the closed-form latent
reconstructions, single-cell QP fits, grid-search mechanics (tie rule,
failure path, stall exclusion), and generate-then-fit recovery on a
synthetic patient with known parameters."""

import math

import numpy as np
import pytest

import chwplan.estimation as est
from chwplan.estimation import (
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
from chwplan.qp import QPConvergenceError, QPResult

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
    with pytest.raises(ValueError, match="must be >= 0"):
        VisitHistory(visited=(1,), enrolled=(1,), observations={0: -0.5})
    with pytest.raises(ValueError, match="must be >= 0"):
        VisitHistory(visited=(1,), enrolled=(1,), observations={0: math.nan})


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
    def always_stalls(*args, **kwargs):
        raise QPConvergenceError(17, 1e-3, 1e-5)

    monkeypatch.setattr(est, "solve_qp", always_stalls)
    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0})
    sol = solve_inner(h, 1.0, 0.0, 0.2, 0.2, EstimationConfig())
    assert not sol.feasible
    assert sol.nll == math.inf
    assert sol.iterations == 17


# ---------------------------------------------------------------------------
# grid-search mechanics
# ---------------------------------------------------------------------------

def _fake_solution(nll):
    return InnerSolution(status="solved", nll=nll, p=0.5, mu=0.5, alpha=0.5,
                         theta_base=1.0, lam=0.0, latent_log_fbg=(1.0, 1.0),
                         innovations=(0.0,), iterations=1)


def test_grid_visits_every_cell_once(monkeypatch):
    calls = []

    def counting(history, cells, config):
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
    def scripted(history, cells, config):
        def one(cell):
            if cell == (0.0, 0.0, 0.2, 0.2):
                return _fake_solution(10.0)
            if cell == (0.0, 0.0, 0.2, 0.5):
                return _fake_solution(10.0 - 5e-5)  # within 1e-5 * (1 + 10)
            if cell == (1.0, 2.0, 0.5, 0.8):
                return _fake_solution(1.0)
            return _fake_solution(50.0)
        return [one(cell) for cell in cells]

    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0})
    monkeypatch.setattr(est, "solve_cells", scripted)
    result = estimate_patient(h, EstimationConfig())
    assert result.grid_cell == (1.0, 2.0, 0.5, 0.8)

    def scripted_ties_only(history, cells, config):
        def one(cell):
            if cell == (0.0, 0.0, 0.2, 0.2):
                return _fake_solution(10.0)
            if cell == (0.0, 0.0, 0.2, 0.5):
                return _fake_solution(10.0 - 5e-5)
            return _fake_solution(50.0)
        return [one(cell) for cell in cells]

    monkeypatch.setattr(est, "solve_cells", scripted_ties_only)
    result = estimate_patient(h, EstimationConfig())
    assert result.grid_cell == (0.0, 0.0, 0.2, 0.2)


def test_estimation_failed_when_every_cell_infeasible(monkeypatch):
    def never_feasible(history, cells, config):
        return [InnerSolution("primal_infeasible", math.inf, 0, 0, 0, 0, 0, (), (), 3)
                for _ in cells]

    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0},
                     patient_id="pt-042")
    monkeypatch.setattr(est, "solve_cells", never_feasible)
    with pytest.raises(EstimationFailedError, match="pt-042"):
        estimate_patient(h, EstimationConfig())


def test_infeasible_and_nonconverged_cells_dropped_from_one_batch(monkeypatch):
    # all four cells fit this record exactly, so the earliest would win;
    # the batch reports the first infeasible and the second out of budget,
    # and the best remaining cell (the third, by the tie rule) wins
    h = VisitHistory(visited=(1, 0), enrolled=(1, 1), observations={0: 1.0})
    cfg = EstimationConfig(grid_s_base=(0.0, 1.0), grid_beta=(0.0,),
                           grid_gamma=(0.2,), grid_rho=(0.2, 0.5))
    cells = est.grid_cells(cfg)
    assert estimate_patient(h, cfg).grid_cell == cells[0]
    real_solve_qps = est.solve_qps

    def first_two_fail(P, q, constraints, **kwargs):
        results = list(real_solve_qps(P, q, constraints, **kwargs))
        assert len(results) == 4 and all(r.status == "solved" for r in results)
        results[0] = QPResult("primal_infeasible", None, None, None, 25, 1.0, 1.0)
        results[1] = QPResult("nonconverged", None, None, None, 10000, 1e-3, 1e-3)
        return results

    monkeypatch.setattr(est, "solve_qps", first_two_fail)
    result = estimate_patient(h, cfg)
    assert result.grid_cell == cells[2]
    assert (result.cells_solved, result.cells_infeasible,
            result.cells_nonconverged) == (2, 1, 1)
    assert result.nll == solve_inner(h, *cells[2], cfg).nll


def test_config_validation():
    with pytest.raises(ValueError, match="grid_s_base"):
        EstimationConfig(grid_s_base=())
    with pytest.raises(ValueError, match="outside"):
        EstimationConfig(grid_gamma=(0.2, 1.0))
    with pytest.raises(ValueError, match=">= 0"):
        EstimationConfig(grid_beta=(-1.0,))
    with pytest.raises(ValueError, match="noise scales"):
        EstimationConfig(sigma_eps=0.0)
    with pytest.raises(ValueError, match="strict_gap"):
        EstimationConfig(strict_gap=0.0)
    with pytest.raises(ValueError, match="big_m"):
        EstimationConfig(big_m=-5.0)
    with pytest.raises(ValueError, match="nll_tie_tolerance"):
        EstimationConfig(nll_tie_tolerance=-1e-9)


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
