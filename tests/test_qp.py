"""Solver tests against closed-form optima and an independent oracle, and
of the batched solve against one-at-a-time solves."""

import itertools

import numpy as np
import pytest

from chwplan import qp
from chwplan.qp import POOL_WIDTH, solve_qp, solve_qps


def test_scalar_clipped_minimum():
    # min (1/2)x^2 - x on [0, 0.5]: unconstrained optimum 1 clips to 0.5
    res = solve_qp(np.array([[1.0]]), np.array([-1.0]),
                   np.array([[1.0]]), np.array([0.0]), np.array([0.5]))
    assert res.status == "solved"
    assert res.x[0] == pytest.approx(0.5, abs=1e-5)
    assert 0.5 * res.x[0] ** 2 - res.x[0] == pytest.approx(0.5 * 0.25 - 0.5, abs=1e-5)


def test_symmetric_equality_split():
    # min (1/2)|x|^2 subject to x1 + x2 = 1 -> (0.5, 0.5) by symmetry
    res = solve_qp(np.eye(2), np.zeros(2),
                   np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0]))
    assert res.x == pytest.approx([0.5, 0.5], abs=1e-5)


def test_box_projection_matches_clip():
    # with P=I, q=-v, A=I the optimum is the euclidean projection of v
    rng = np.random.default_rng(42)
    for _ in range(5):
        v = rng.normal(0, 2, size=6)
        lo = rng.uniform(-1, 0, size=6)
        hi = lo + rng.uniform(0.1, 2, size=6)
        res = solve_qp(np.eye(6), -v, np.eye(6), lo, hi)
        assert res.status == "solved"
        assert res.x == pytest.approx(np.clip(v, lo, hi), abs=5e-5)


def test_equality_constrained_kkt_oracle():
    # independent oracle: solve the KKT system [[P, E'], [E, 0]] directly
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, meq = 5, 2
        G = rng.normal(size=(n, n))
        P = G @ G.T + n * np.eye(n)
        q = rng.normal(size=n)
        E = rng.normal(size=(meq, n))
        d = rng.normal(size=meq)
        kkt = np.block([[P, E.T], [E, np.zeros((meq, meq))]])
        expected = np.linalg.solve(kkt, np.concatenate([-q, d]))[:n]
        res = solve_qp(P, q, E, d, d)
        assert res.x == pytest.approx(expected, abs=1e-4)


def test_random_feasible_boxes_match_slsqp():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for _ in range(4):
        n, m = 4, 6
        G = rng.normal(size=(n, n))
        P = G @ G.T + np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        slack = rng.uniform(0.05, 1.0, size=m)
        lo, hi = A @ x0 - slack, A @ x0 + slack

        res = solve_qp(P, q, A, lo, hi)
        assert res.status == "solved"
        assert np.all(A @ res.x >= lo - 1e-5)
        assert np.all(A @ res.x <= hi + 1e-5)

        ref = scipy_opt.minimize(
            lambda x: 0.5 * x @ P @ x + q @ x,
            x0,
            jac=lambda x: P @ x + q,
            method="SLSQP",
            constraints=[
                {"type": "ineq", "fun": lambda x: A @ x - lo, "jac": lambda x: A},
                {"type": "ineq", "fun": lambda x: hi - A @ x, "jac": lambda x: -A},
            ],
            options={"maxiter": 500, "ftol": 1e-12},
        )
        assert ref.success
        assert 0.5 * res.x @ P @ res.x + q @ res.x == pytest.approx(ref.fun, abs=5e-4, rel=5e-4)


def test_one_sided_rows_and_unbounded_side():
    # min (x-3)^2 + (y+2)^2 with x <= 1, y >= 0 -> (1, 0)
    P = 2 * np.eye(2)
    q = np.array([-6.0, 4.0])
    A = np.eye(2)
    lo = np.array([-np.inf, 0.0])
    hi = np.array([1.0, np.inf])
    res = solve_qp(P, q, A, lo, hi)
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-5)


def test_unconstrained_problem():
    res = solve_qp(2 * np.eye(2), np.array([-2.0, 2.0]), np.zeros((0, 2)),
                   np.zeros(0), np.zeros(0))
    assert res.status == "solved"
    assert res.x == pytest.approx([1.0, -1.0], abs=1e-5)


def test_contradictory_rows_detected_infeasible():
    # x >= 1 and x <= 0 cannot both hold
    res = solve_qp(np.array([[1.0]]), np.zeros(1),
                   np.array([[1.0], [1.0]]),
                   np.array([1.0, -np.inf]), np.array([np.inf, 0.0]))
    assert res.status == "primal_infeasible"
    assert res.x is None
    # the certificate direction itself: A'y ~ 0 with negative support
    e = res.y
    assert abs(e[0] + e[1]) <= 1e-6
    assert 1.0 * min(e[0], 0) + 0.0 * max(e[1], 0) < 0


def test_crossed_bounds_rejected():
    with pytest.raises(ValueError):
        solve_qp(np.eye(1), np.zeros(1), np.eye(1), np.array([1.0]), np.array([0.0]))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), np.zeros(3), np.eye(2), np.zeros(2), np.ones(2))


def test_iteration_budget_error_carries_count(monkeypatch):
    # an exhausted budget is a status, not an exception
    monkeypatch.setattr(qp, "MAX_ITERATIONS", 1)
    res = solve_qp(np.eye(2), np.array([-1.0, 2.0]),
                   np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0]))
    assert res.status == "nonconverged"
    assert res.x is None and res.y is None and res.iterations == 1


def test_solver_is_deterministic():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(5, 5))
    P = G @ G.T + np.eye(5)
    q = rng.normal(size=5)
    A = rng.normal(size=(8, 5))
    x0 = rng.normal(size=5)
    lo, hi = A @ x0 - 0.5, A @ x0 + 0.5
    a = solve_qp(P, q, A, lo, hi)
    b = solve_qp(P, q, A, lo, hi)
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def _mixed_batch():
    """Twelve problems sharing P and q, in a repeating pattern of four:
    a feasible box, contradictory rows (x0 >= 1 and x0 <= 0), another
    feasible box, and three equality rows, which converge slowest."""
    rng = np.random.default_rng(5)
    n, m = 3, 4
    G = rng.normal(size=(n, n))
    P = G @ G.T + np.eye(n)
    q = rng.normal(size=n)
    problems = []
    for i in range(12):
        A = rng.normal(size=(m, n))
        if i % 4 == 1:
            A[0] = A[1] = [1.0, 0.0, 0.0]
            lo = np.array([1.0, -np.inf, -5.0, -5.0])
            hi = np.array([np.inf, 0.0, 5.0, 5.0])
        elif i % 4 == 3:
            lo = A @ rng.normal(size=n)
            hi = lo.copy()
            lo[3], hi[3] = lo[3] - 1.0, hi[3] + 1.0
        else:
            x0 = rng.normal(size=n)
            slack = rng.uniform(0.05, 1.0, size=m)
            lo, hi = A @ x0 - slack, A @ x0 + slack
        problems.append((A, lo, hi))
    return P, q, problems


def test_batch_matches_single_solves_in_input_order(monkeypatch):
    # a 75-iteration budget leaves some equality problems unconverged
    monkeypatch.setattr(qp, "MAX_ITERATIONS", 75)
    P, q, problems = _mixed_batch()
    assert len(problems) > POOL_WIDTH
    results = list(solve_qps(P, q, iter(problems)))
    assert len(results) == len(problems)
    for (A, lo, hi), res in zip(problems, results):
        # a problem's iterates do not depend on its neighbours in the pool:
        # status, iterations, x and y are those of a solve on its own, bit for bit
        single = solve_qp(P, q, A, lo, hi)
        assert (res.status, res.iterations) == (single.status, single.iterations)
        for got, alone in ((res.x, single.x), (res.y, single.y)):
            assert (got is None and alone is None) or (
                got.shape == alone.shape and got.tobytes() == alone.tobytes())
        assert (res.x is None) == (res.status != "solved")
    assert [r.status for r in results[1::4]] == ["primal_infeasible"] * 3
    assert {r.status for r in results} == {"solved", "primal_infeasible",
                                           "nonconverged"}


def test_batch_is_deterministic(monkeypatch):
    monkeypatch.setattr(qp, "MAX_ITERATIONS", 75)
    P, q, problems = _mixed_batch()
    a = list(solve_qps(P, q, problems))
    b = list(solve_qps(P, q, problems))
    for ra, rb in zip(a, b):
        assert (ra.status, ra.iterations) == (rb.status, rb.iterations)
        for va, vb in ((ra.x, rb.x), (ra.y, rb.y)):
            assert (va is None and vb is None) or np.array_equal(va, vb)


def test_pool_iterations_count_every_stepped_slot(monkeypatch):
    monkeypatch.setattr(qp, "MAX_ITERATIONS", 75)
    P, q, problems = _mixed_batch()
    results = list(solve_qps(P, q, problems))
    counts = [r.pool_iterations for r in results]
    assert counts == sorted(counts)
    # run to the end, the pool stepped each problem's own iterations
    assert counts[-1] == sum(r.iterations for r in results)
    # stopped after the first result, the slots in flight count as well
    first = next(solve_qps(P, q, problems))
    assert first.iterations < first.pool_iterations <= POOL_WIDTH * first.iterations
    single = solve_qp(P, q, *problems[0])
    assert single.pool_iterations == single.iterations


def test_batch_reads_problems_lazily():
    # an endless stream: only a lazy reader can yield the first result
    problem = (np.eye(2), np.zeros(2), np.ones(2))
    first = next(solve_qps(np.eye(2), np.array([-2.0, 1.0]), itertools.repeat(problem)))
    assert first.status == "solved"
    assert first.x == pytest.approx([1.0, 0.0], abs=1e-5)


def test_batch_rejects_mixed_row_counts():
    problems = [(np.eye(2), np.zeros(2), np.ones(2)),
                (np.ones((1, 2)), np.zeros(1), np.ones(1))]
    with pytest.raises(ValueError, match="same rows"):
        list(solve_qps(np.eye(2), np.zeros(2), problems))


def test_empty_batch():
    assert list(solve_qps(np.eye(2), np.zeros(2), [])) == []
