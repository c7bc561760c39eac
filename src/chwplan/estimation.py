"""Per-patient parameter estimation from visit histories.

Maximum likelihood with a two-level structure: a coarse grid over the
four hard-to-identify shape parameters (adversity floor s_base, visit
adversity increment beta, and the decay rates gamma and rho), and for
each grid cell a convex quadratic program over everything else.

The trick that keeps the inner problem convex: with the grid cell fixed
and the visit/enrollment record observed, the adversity trajectory is
fully determined, and the perception trajectory is affine in
(theta_base, lam). The enrollment record then constrains the sign of the
net-benefit expression each period through big-M inequalities that are
linear in (mu, alpha, theta_base, lam), while the log-FBG dynamics are
linear in (b, p, mu, alpha). Gaussian observation and process noise make
the objective quadratic.
"""

import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import PatientParams, _require_finite, carried_adverse, step_adverse
# unused: bench/test_bench.py wraps solve_qp and calls it as chwplan.estimation.solve_qp
from .qp import QP_TOLERANCE, QPResult, solve_qp, solve_qps  # noqa: F401

Cell = Tuple[float, float, float, float]  # (s_base, beta, gamma, rho)


class EstimationFailedError(Exception):
    """Every grid cell was infeasible for a patient's history."""

    def __init__(self, patient_id: str):
        self.patient_id = patient_id
        super().__init__(
            f"estimation failed for patient {patient_id!r}:"
            " every grid cell was infeasible"
        )


@dataclass(frozen=True)
class VisitHistory:
    """One patient's longitudinal record.

    visited/enrolled are per-period binary vectors; observations holds the
    noisy log-FBG readings as (period, value) pairs for the subset of
    periods with a measurement. Enrollment must be reachable: a patient is
    enrolled in a period only if they were enrolled in the previous one or
    were visited in this one (nobody enrolls without a standing offer).
    """

    visited: Tuple[int, ...]
    enrolled: Tuple[int, ...]
    observations: Tuple[Tuple[int, float], ...] = ()
    patient_id: str = ""

    def __post_init__(self):
        if isinstance(self.observations, dict):
            object.__setattr__(
                self, "observations", tuple(sorted(self.observations.items()))
            )
        else:
            object.__setattr__(
                self, "observations", tuple(sorted(tuple(o) for o in self.observations))
            )
        object.__setattr__(self, "visited", tuple(int(v) for v in self.visited))
        object.__setattr__(self, "enrolled", tuple(int(v) for v in self.enrolled))
        T = len(self.visited)
        if T == 0:
            raise ValueError("history must cover at least one period")
        if len(self.enrolled) != T:
            raise ValueError("visited/enrolled length mismatch")
        for name, vec in (("visited", self.visited), ("enrolled", self.enrolled)):
            if any(v not in (0, 1) for v in vec):
                raise ValueError(f"{name} entries must be 0 or 1")
        for t, z in enumerate(self.enrolled):
            if z == 1 and self.visited[t] == 0 and (t == 0 or self.enrolled[t - 1] == 0):
                raise ValueError(
                    f"inconsistent enrollment at period {t}:"
                    " not enrolled before and not visited now"
                )
        seen = set()
        for t, val in self.observations:
            if not (0 <= t < T):
                raise ValueError(f"observation period {t} outside history")
            if t in seen:
                raise ValueError(f"duplicate observation for period {t}")
            seen.add(t)
            if not math.isfinite(val):
                raise ValueError(f"observed log-FBG at period {t} must be finite")

    @property
    def length(self) -> int:
        return len(self.visited)

    @property
    def observed_map(self) -> Dict[int, float]:
        return dict(self.observations)


# Box on the five fitted parameters, and the margin by which a declined
# offer's benefit must fall below zero. The ADMM meets that row, like every
# row, only to QP_TOLERANCE (1e-6), so that benefit can come back at about 0:
# at 0 (patient b) and 7.9e-7 (c) on CI's console-script histories, in cells
# with s_base = beta = 0, where the benefit mu + alpha*y cannot go negative.
PARAM_UPPER_BOUND = 20.0
STRICT_GAP = 1e-9
# Relative slack under which two cells' objectives count as a numerical
# tie, so the earlier cell in grid order is kept instead of whichever the
# solver's last few bits happen to favor. It covers rounding, not the
# ADMM's error: a solved cell's nll can sit above its exact minimum by more
# than this slack (2.4e-5 to 2.2e-4 against slacks of 1.9e-5 to 4.2e-5 on
# never-enrolled generated scenario1 records). Among cells whose exact
# minima tie, the solver's error then picks the winner, not grid order, and
# the early stop at relaxed_lower_bound may not fire. Solution polishing
# or a wider slack would fix that, but each changes estimates.csv.
NLL_TIE_TOLERANCE = 1e-5


@dataclass(frozen=True)
class EstimationConfig:
    grid_s_base: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    grid_beta: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    grid_gamma: Tuple[float, ...] = (0.2, 0.5, 0.8, 0.9, 0.99)
    grid_rho: Tuple[float, ...] = (0.2, 0.5, 0.8, 0.9, 0.99)
    sigma_eps: float = 0.1
    sigma_xi: float = 0.1

    def __post_init__(self):
        for name in ("grid_s_base", "grid_beta", "grid_gamma", "grid_rho"):
            if not getattr(self, name):
                raise ValueError(f"EstimationConfig.{name} must be nonempty")
        for g in self.grid_gamma + self.grid_rho:
            if not (0.0 < g < 1.0):
                raise ValueError(f"decay grid value {g} outside (0, 1)")
        if not all(0 <= v < math.inf for v in self.grid_s_base + self.grid_beta):
            raise ValueError("s_base/beta grid values must be finite and >= 0")
        _require_finite(self, ("sigma_eps", "sigma_xi"))
        for name, weight in (("sigma_eps", "w_eps"), ("sigma_xi", "w_xi")):
            try:  # sigma**2 may overflow or reach 0
                usable = getattr(self, name) > 0 and getattr(self, weight) < math.inf
            except (OverflowError, ZeroDivisionError):
                usable = False
            if not usable:
                raise ValueError(f"EstimationConfig.{name}: noise scales must be positive with a"
                                 f" finite weight 1/{name}**2, got {getattr(self, name)!r}")

    # the nll's weights of a squared observation residual and log-FBG innovation
    w_eps = property(lambda self: 1.0 / self.sigma_eps**2)
    w_xi = property(lambda self: 1.0 / self.sigma_xi**2)


@dataclass(frozen=True)
class InnerSolution:
    """Outcome of one grid cell's convex subproblem.

    status is the QP's: "solved", "primal_infeasible" or "nonconverged".
    Only solved cells carry a fit; the others have nll = +inf. iterations
    counts the ADMM slot-iterations the pool stepped since the cell before
    (for a one-cell grid, the QP's own). A reused cell's QP is byte-equal
    to an earlier cell's, whose solution it carries with iterations = 0.
    """

    status: str
    nll: float
    p: float
    mu: float
    alpha: float
    theta_base: float
    lam: float
    latent_log_fbg: Tuple[float, ...]
    innovations: Tuple[float, ...]
    iterations: int
    reused: bool = False

    @property
    def feasible(self) -> bool:
        return self.status == "solved"


@dataclass(frozen=True)
class EstimationResult:
    params: PatientParams
    nll: float
    latent_log_fbg: Tuple[float, ...]
    latent_adverse: Tuple[float, ...]
    latent_perception: Tuple[float, ...]
    innovations: Tuple[float, ...]
    # the grid search's work: cells by QP status, the cells the search
    # stopped before, the cells (of any status) that reused an earlier
    # cell's QP, and the ADMM slot-iterations stepped, each distinct QP's
    # once and those of the QPs in flight when the search stopped
    cells_solved: int
    cells_infeasible: int
    cells_nonconverged: int
    cells_pruned: int
    cells_reused: int
    qp_iterations: int

    @property
    def grid_cell(self) -> Cell:
        """The grid cell of the fit: its (s_base, beta, gamma, rho)."""
        return (self.params.s_base, self.params.beta, self.params.gamma, self.params.rho)


def reconstruct_adverse(
    history: VisitHistory, s_base: float, beta: float, gamma: float
) -> Tuple[float, ...]:
    """Adversity trajectory implied by a (s_base, beta, gamma) cell.

    With the visit/enrollment record observed, model.step_adverse's
    recurrence has no free variables. The trajectory starts at s_base when
    the patient begins enrolled and at zero otherwise. Given arrays of cell values it runs
    elementwise: each period's entry is an array holding, for every cell,
    the float that cell gets alone.
    """
    y, z = history.visited, history.enrolled
    cell = SimpleNamespace(s_base=s_base, beta=beta, gamma=gamma)
    s = [s_base * z[0]]
    for t in range(history.length - 1):
        s.append(step_adverse(s[t], cell, y[t], z[t]))
    return tuple(s)


def perception_coefficients(history: VisitHistory, rho: float) -> Tuple[float, ...]:
    """Per-period weights c_t such that theta_t = theta_base + c_t * lam.

    Unrolling the perception recurrence shows theta_t is affine in
    (theta_base, lam); the lam coefficient depends only on rho and the
    observed visit/enrollment record, starting at zero and never positive.
    Elementwise, like reconstruct_adverse, when rho is an array.
    """
    y, z = history.visited, history.enrolled
    c = [0.0 * rho]
    for t in range(history.length - 1):
        c.append(rho * c[t] - y[t] * z[t])
    return tuple(c)


def _objective(history: VisitHistory, config: EstimationConfig):
    """P and q of the inner QP: the Gaussian negative log-likelihood.

    It depends on the record and the noise scales only, so every grid
    cell of a history shares it. A record whose P, q or constant term
    (1/2)w_eps*sum(val^2) overflows is refused before any cell is solved.
    """
    T = history.length
    n = T + 5
    y, z = np.array(history.visited[:-1]), np.array(history.enrolled[:-1])

    P = np.zeros((n, n))
    q = np.zeros(n)
    for t, val in history.observations:
        P[t, t] += config.w_eps
        q[t] -= config.w_eps * val
    # P adds w_xi*d_t*d_t' for t = 0..T-2, d_t = e_{t+1} - e_t - e_p + z_t*e_mu +
    # y_t*z_t*e_alpha: every term is +-w_xi or 0, and each entry adds its
    # nonzero ones from 0.0 in order of t, as summing the T-1 outer products
    # does, in O(T^2) time, not O(T^3)
    w = config.w_xi
    border = np.array([np.full(T - 1, -1.0), z, y * z], dtype=float)  # d_t at p, mu, alpha
    k = np.arange(T)
    with np.errstate(over="ignore"):  # refused below
        P[k[1:], k[1:]] += w  # from d_{k-1}
        P[k[:-1], k[:-1]] += w  # from d_k
        P[k[:-1], k[1:]] = P[k[1:], k[:-1]] = -w
        columns = np.zeros((3, T))
        columns[:, 1:] += w * border
        columns[:, :-1] += w * -border
        P[T:T + 3, :T] = columns
        P[:T, T:T + 3] = columns.T
        steps = np.concatenate((np.zeros((3, 3, 1)), w * (border[:, None] * border)), axis=2)
        P[T:T + 3, T:T + 3] = np.cumsum(steps, axis=2)[:, :, -1]
    const = 0.5 * config.w_eps * sum(val * val for _, val in history.observations)
    if not (np.isfinite(P).all() and np.isfinite(q).all() and math.isfinite(const)):
        raise ValueError(f"patient {history.patient_id!r}: the likelihood overflows a float at"
                         f" EstimationConfig.sigma_eps={config.sigma_eps!r} and"
                         f" sigma_xi={config.sigma_xi!r}")
    return P, q


def _box(history: VisitHistory):
    """l and u of _assemble's leading rows, the ones no cell changes:
    b_t >= 0 and the five parameters in [0, PARAM_UPPER_BOUND]."""
    T = history.length
    return np.zeros(T + 5), np.concatenate([np.full(T, math.inf),
                                            np.full(5, PARAM_UPPER_BOUND)])


def _cell_terms(history: VisitHistory, triples: Sequence[Tuple[float, float, float]],
                rhos: Sequence[float]):
    """The terms of the constraints of every cell (s_base, beta, gamma, rho)
    built from a (s_base, beta, gamma) triple and a rho, by factor:

    c, one row per rho, its perception_coefficients; h, one row per triple,
    the benefit's adversity factor g + beta*y, with g the carried_adverse of
    the triple's reconstruct_adverse s; and big_m, triple by rho, the big M
    that bounds the benefit over the parameter box. Both recurrences run
    once, elementwise over all triples and all rhos, so each row holds the
    floats its cell gets alone.
    """
    # (K, 1) and (R, 1) columns, so the recurrences give one column per period
    s_base, beta, gamma = np.array(triples, dtype=float).T[:, :, None]
    rho = np.array(rhos, dtype=float)[:, None]
    c = np.concatenate(perception_coefficients(history, rho), axis=1)
    s = np.concatenate(reconstruct_adverse(history, s_base, beta, gamma), axis=1)
    g = carried_adverse(s, gamma, s_base)
    ub = PARAM_UPPER_BOUND
    theta_max = ub * (1.0 + np.max(np.abs(c), axis=1))
    # finite on purpose: qp._certifies_infeasibility never certifies through an infinite
    # bound, and a contradictory cell's Farkas direction is nonzero on these rows, so with
    # big_m = inf it runs all qp.MAX_ITERATIONS and ends nonconverged, not infeasible
    big_m = 2.0 * (ub + ub + (np.max(g, axis=1, keepdims=True) + beta) * theta_max)
    return c, g + beta * np.array(history.visited), big_m


def _assemble(history: VisitHistory, c, h, big_m):
    """A, l, u of a cell's inner QP from its terms, row blocks in this order:

    b_t >= 0; the five parameters in [0, PARAM_UPPER_BOUND]; theta_t =
    theta_base + c_t*lam >= 0; and the enrollment benefit's sign per
    period, mu + alpha*y_t - theta_t*h_t, bounded by big_m: >= 0 when
    enrolled, <= -STRICT_GAP when an offer was declined, <= 0 otherwise.
    Byte-equal terms give byte-equal A, l, u.
    """
    T = history.length
    n = T + 5
    imu, ial, ith, ila = T + 1, T + 2, T + 3, T + 4
    y, z = np.array(history.visited), np.array(history.enrolled)

    lo, hi = _box(history)
    A = np.zeros((3 * T + 5, n))
    A[:n] = np.eye(n)
    theta_rows = A[T + 5:2 * T + 5]
    theta_rows[:, ith] = 1.0
    theta_rows[:, ila] = c
    benefit_rows = A[2 * T + 5:]
    benefit_rows[:, imu] = 1.0
    benefit_rows[:, ial] = y
    benefit_rows[:, ith] = -h
    benefit_rows[:, ila] = -h * c

    # an offer stands when visited or enrolled before: enroll_decision's z_prev | y
    offered = (np.concatenate([[0], z[:-1]]) | y) == 1
    l = np.concatenate([lo, np.zeros(T), np.where(z == 1, 0.0, -big_m)])
    u = np.concatenate([hi, np.full(T, math.inf),
                        np.where(z == 1, big_m, np.where(offered, -STRICT_GAP, 0.0))])
    return A, l, u


def _box_qp(P, q, lo, hi):
    """A minimizer of (1/2)x'Px + q'x over lo <= x <= hi, P positive
    semidefinite, by Lawson and Hanson's active-set steps with two-sided
    bounds (Solving Least Squares Problems, 1974, ch. 23).

    Minimize over the free variables with the others held at their bounds;
    if that point leaves the box, step toward it only up to the first bound
    and fix the variables that reach one; otherwise free the fixed variable
    whose multiplier has the wrong sign by the most, until none has. It
    stops after 4n such steps at the latest, at a point of the box either
    way. P is often singular on the free variables (theta_base and lam do
    not enter it, and b is pinned only where it is observed), so each free
    minimization takes three iterated-Tikhonov steps d <- (P_FF + r*I)^-1
    (r*d - g_F): they reach the exact minimizer along P_FF's range to
    rounding, leave the null directions where they are, and need only an
    LU solve.
    """
    n = q.shape[0]
    ridge = 1e-8 * max(float(np.max(np.abs(P))), 1.0)
    x = lo.copy()
    free = np.ones(n, dtype=bool)
    for _ in range(4 * n):
        z = x.copy()
        F = np.flatnonzero(free)
        if F.size:
            g = P[F] @ x + q[F]
            M = P[np.ix_(F, F)] + ridge * np.eye(F.size)
            d = np.zeros(F.size)
            for _ in range(3):
                d = np.linalg.solve(M, ridge * d - g)
            z[F] += d
        out = (z < lo) | (z > hi)
        if out.any():
            bound = np.where(z < lo, lo, hi)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = (bound - x) / (z - x)
            step = np.min(t[out])
            x = x + step * (z - x)
            hit = out & (t <= step)
            x[hit] = bound[hit]
            free &= ~hit
            continue
        x = z
        g = P @ x + q
        noise = (n + 2) * np.finfo(float).eps * (np.abs(P) @ np.abs(x) + np.abs(q))
        wrong = np.where(free, 0.0, np.where(x <= lo, -g, g) - noise)
        j = int(np.argmax(wrong))
        if wrong[j] <= 0.0:
            break
        free[j] = True
    return x


def relaxed_lower_bound(history: VisitHistory, config: EstimationConfig) -> float:
    """A certified lower bound on the nll of every grid cell of a history.

    Each cell's nll is F(x) = (1/2)x'Px + q'x + (1/2)w_eps*sum(val^2), with
    _objective's P and q, at a point x of _box (_inner_solution clips the
    QP's x to _box's l and u, the ones minimized over here), so the minimum
    of F over the box bounds every cell. That minimum comes from _box_qp,
    and is certified by weak duality: F is a sum of squares, hence convex,
    so at the box point w with gradient g = Pw + q, F(x) >= F(w) + g'(x - w)
    for every x, and the minimum of the right side over the box is F(w) +
    sum_i min(g_i(lo_i - w_i), g_i(hi_i - w_i)), whatever the accuracy of w.

    The b_t have no upper bound, so the minimum is taken over the level set
    F(x) <= U = F(w) + 1 as well (outside it F > U exceeds the bound
    anyway): there an observed b_s lies within sqrt(2U/w_eps) of its
    value, and consecutive b_t differ by the innovation, at most
    sqrt(2U/w_xi), plus p - mu*z_t - alpha*y_t*z_t, at most
    2*PARAM_UPPER_BOUND in size. With no observation the b_t keep the
    interval [0, inf).

    The result is lowered by a rounding slack: 4(n+2)*eps times the
    magnitudes summed in F(w), in g'(x - w), and in a cell's nll on the
    level set, whose innovations cancel terms of size up to 2*b_max +
    3*PARAM_UPPER_BOUND. (n+2)*eps is gamma_{n+2}, the relative error
    bound of a float sum of n+2 terms (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, 3.1); F(w) nests two dot products of
    length n, and P's entries, whose rounding against F's exact Hessian
    enters F(w) and g, are sums of at most T+1 terms. A float sum of
    squares is never negative, so 0 is a bound as well; it is returned
    whenever the certificate is weaker, or not finite.
    """
    P, q = _objective(history, config)
    lo, hi = _box(history)
    T, n = history.length, q.shape[0]
    w_eps, w_xi = config.w_eps, config.w_xi
    values = np.array([val for _, val in history.observations])
    const = 0.5 * w_eps * float(values @ values)

    w = np.clip(_box_qp(P, q, lo, hi), lo, hi)
    g = P @ w + q
    f = 0.5 * float(w @ P @ w) + float(q @ w) + const
    level = max(f, 0.0) + 1.0
    if values.size:
        periods = np.array([t for t, _ in history.observations])
        reach = (np.abs(np.arange(T)[:, None] - periods) * (
            math.sqrt(2.0 * level / w_xi) + 2.0 * PARAM_UPPER_BOUND)
            + math.sqrt(2.0 * level / w_eps))
        lo[:T] = np.maximum(lo[:T], np.max(values - reach, axis=1))
        hi[:T] = np.min(values + reach, axis=1)
    b_max = float(np.max(hi[:T]))
    with np.errstate(invalid="ignore"):
        bound = f + float(np.sum(np.where(g >= 0.0, g * (lo - w), g * (hi - w))))
        width = np.maximum(np.abs(w - lo), np.abs(hi - w))
        magnitude = (const + 0.5 * float(np.abs(w) @ np.abs(P) @ np.abs(w))
                     + float(np.abs(q) @ np.abs(w))
                     + float((np.abs(P) @ np.abs(w) + np.abs(q)) @ width)
                     + level + (2.0 * b_max + 3.0 * PARAM_UPPER_BOUND)
                     * math.sqrt(2.0 * (T - 1) * level * w_xi))
    bound -= 4 * (n + 2) * np.finfo(float).eps * magnitude
    return float(bound) if bound > 0.0 else 0.0


def _inner_solution(
    history: VisitHistory, problem, config: EstimationConfig, result: QPResult
) -> InnerSolution:
    """A cell's fit from the result of its QP, whose A, l, u are problem;
    unsolved cells get nll = +inf.

    A cell whose subproblem is infeasible, or cannot be solved to
    tolerance within the iteration budget, cannot be trusted as the
    minimizer either way; it is dropped from the search instead of
    aborting the whole grid.
    """
    if result.status != "solved":
        return InnerSolution(result.status, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0,
                             (), (), result.iterations)

    x = result.x
    A, l, u = problem
    audit = max(float(np.max(l - A @ x)), float(np.max(A @ x - u)))
    if audit > 10.0 * QP_TOLERANCE:
        raise RuntimeError(
            f"solver reported success but a constraint is violated by {audit:.3e}"
        )

    # the box relaxed_lower_bound minimizes over, so that it bounds this nll
    x = np.clip(x, *_box(history))
    y, z = history.visited, history.enrolled
    T = history.length
    b = tuple(float(v) for v in x[:T])
    p, mu, alpha, theta_base, lam = (float(v) for v in x[T:])
    xi = tuple(
        b[t + 1] - b[t] - p + mu * z[t] + alpha * y[t] * z[t] for t in range(T - 1)
    )
    nll = 0.5 * config.w_eps * sum((b[t] - val) ** 2 for t, val in history.observations)
    nll += 0.5 * config.w_xi * sum(v**2 for v in xi)
    return InnerSolution("solved", nll, p, mu, alpha, theta_base, lam, b, xi,
                         result.iterations)


def solve_inner(
    history: VisitHistory,
    s_base: float,
    beta: float,
    gamma: float,
    rho: float,
    config: EstimationConfig,
) -> InnerSolution:
    """Fit one grid cell: a convex QP over (b, p, mu, alpha, theta_base, lam).

    Minimizes the Gaussian negative log-likelihood of the observed log-FBG
    values and the implied process innovations, subject to the dynamics,
    sign constraints on the per-period enrollment benefit, and
    nonnegativity. Infeasible cells (contradictory enrollment record under
    this cell's shape parameters) and cells the QP leaves nonconverged
    come back with the QP's status and nll = +inf. Declining
    while an offer stood is a strict preference, encoded as benefit <=
    -STRICT_GAP; without an offer only the weak bound benefit <= 0
    applies. It is solve_cells on the one-cell grid.
    """
    one = replace(config, grid_s_base=(s_base,), grid_beta=(beta,),
                  grid_gamma=(gamma,), grid_rho=(rho,))
    return next(solve_cells(history, one))


def grid_cells(config: EstimationConfig) -> List[Cell]:
    """The full Cartesian grid, s_base outermost and rho innermost."""
    return list(itertools.product(config.grid_s_base, config.grid_beta,
                                  config.grid_gamma, config.grid_rho))


def solve_cells(history: VisitHistory, config: EstimationConfig) -> Iterator[InnerSolution]:
    """solve_inner for every cell of grid_cells(config), in order, as one
    batched solve of the byte-distinct cell QPs.

    The cells share the objective, so it is built once, and their
    constraint terms come from one _cell_terms table. Before the solve,
    each cell is keyed by the bytes of its rho's c, its triple's h and its
    big_m, and only the first cell of each key is assembled for the
    solver's pool. Equal terms give byte-equal A, l, u and the solver is
    deterministic, so a later cell with the same key is yielded the first
    cell's solution, marked reused. Each cell's solution is yielded as soon
    as the cells before it are done.
    """
    triples = itertools.product(config.grid_s_base, config.grid_beta, config.grid_gamma)
    c, h, big_m = _cell_terms(history, list(triples), config.grid_rho)
    c_keys, h_keys = ([row.tobytes() for row in terms] for terms in (c, h))
    # each cell as (triple, rho) indices, in grid_cells order, and its key
    cells = list(itertools.product(range(len(h)), range(len(c))))
    keys = [(c_keys[r], h_keys[k], big_m[k, r].tobytes()) for k, r in cells]
    first: Dict[Tuple[bytes, bytes, bytes], Tuple[int, int]] = {}
    for key, cell in zip(keys, cells):
        first.setdefault(key, cell)

    def problem(k, r):
        return _assemble(history, c[r], h[k], big_m[k, r])

    # closing this generator drops the last reference to the pool, which
    # closes it too: nothing more is stepped or assembled
    results = iter(solve_qps(*_objective(history, config),
                             (problem(*cell) for cell in first.values())))
    solved: Dict[Tuple[bytes, bytes, bytes], InnerSolution] = {}
    stepped = 0
    for key, cell in zip(keys, cells):
        if key in solved:
            yield replace(solved[key], iterations=0, reused=True)
            continue
        result = next(results)
        sol = _inner_solution(history, problem(*cell), config, result)
        solved[key] = replace(sol, iterations=result.pool_iterations - stepped)
        stepped = result.pool_iterations
        yield solved[key]


def estimate_patient(
    history: VisitHistory, config: EstimationConfig = EstimationConfig()
) -> EstimationResult:
    """Grid-search MLE over (s_base, beta, gamma, rho) cells.

    Walks the grid in grid_cells order, keeps the strictly best feasible
    cell, and therefore resolves ties toward the earliest cell in that
    order. "Strictly best" is judged with a small relative slack
    (NLL_TIE_TOLERANCE): cells whose objectives differ by less than solver
    precision are genuine ties, and letting the last few floating-point
    bits pick the winner would make the selected cell non-reproducible.
    Infeasible and nonconverged cells are dropped and counted in the
    result. A cell that reuses an earlier cell's QP (see solve_cells)
    competes like any other and is counted as reused as well.

    The walk stops once the best nll, less its tie slack, is at or below
    relaxed_lower_bound: no later cell can then replace it, so the result
    is the full grid's (branch and bound with one shared relaxation; Land
    and Doig, Econometrica 1960). The cells it never reached are counted
    as pruned.
    """
    cells = grid_cells(config)
    bound = relaxed_lower_bound(history, config)
    statuses: Dict[str, int] = dict.fromkeys(
        ("solved", "primal_infeasible", "nonconverged"), 0)
    reused = iterations = 0
    best: Optional[InnerSolution] = None
    # a later cell replaces the best only with an nll below this
    threshold = math.inf
    solutions = solve_cells(history, config)
    for cell, sol in zip(cells, solutions):
        statuses[sol.status] += 1
        reused += sol.reused
        iterations += sol.iterations
        if not sol.feasible or sol.nll >= threshold:
            continue
        best, best_cell = sol, cell
        threshold = sol.nll - NLL_TIE_TOLERANCE * (1.0 + abs(sol.nll))
        if threshold <= bound:
            # drops the solver's pool: nothing more is stepped or loaded
            solutions.close()
            break
    if best is None:
        raise EstimationFailedError(history.patient_id)

    s_base, beta, gamma, rho = best_cell
    s = reconstruct_adverse(history, s_base, beta, gamma)
    c = perception_coefficients(history, rho)
    theta = tuple(best.theta_base + best.lam * ct for ct in c)
    params = PatientParams(
        p=best.p, mu=best.mu, alpha=best.alpha, beta=beta, lam=best.lam,
        gamma=gamma, rho=rho, s_base=s_base, theta_base=best.theta_base,
    )
    return EstimationResult(
        params=params,
        nll=best.nll,
        latent_log_fbg=best.latent_log_fbg,
        latent_adverse=s,
        latent_perception=theta,
        innovations=best.innovations,
        cells_solved=statuses["solved"],
        cells_infeasible=statuses["primal_infeasible"],
        cells_nonconverged=statuses["nonconverged"],
        cells_pruned=len(cells) - sum(statuses.values()),
        cells_reused=reused,
        qp_iterations=iterations,
    )
