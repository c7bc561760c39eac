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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import PatientParams
from .qp import QP_TOLERANCE, QPConvergenceError, QPResult, solve_qp, solve_qps

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
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"observed log-FBG at period {t} must be >= 0")

    @property
    def length(self) -> int:
        return len(self.visited)

    @property
    def observed_map(self) -> Dict[int, float]:
        return dict(self.observations)


# Box on the five fitted parameters, and the margin by which a declined
# offer's benefit must fall below zero.
PARAM_UPPER_BOUND = 20.0
STRICT_GAP = 1e-9
# Relative slack under which two cells' objectives count as a numerical
# tie, so the earlier cell in grid order is kept instead of whichever the
# solver's last few bits happen to favor.
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
                raise ValueError(f"{name} must be nonempty")
        for g in self.grid_gamma + self.grid_rho:
            if not (0.0 < g < 1.0):
                raise ValueError(f"decay grid value {g} outside (0, 1)")
        if min(self.grid_s_base + self.grid_beta) < 0:
            raise ValueError("s_base/beta grid values must be >= 0")
        if self.sigma_eps <= 0 or self.sigma_xi <= 0:
            raise ValueError("noise scales must be positive")


@dataclass(frozen=True)
class InnerSolution:
    """Outcome of one grid cell's convex subproblem.

    status is the QP's: "solved", "primal_infeasible" or "nonconverged".
    Only solved cells carry a fit; the others have nll = +inf.
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

    @property
    def feasible(self) -> bool:
        return self.status == "solved"


@dataclass(frozen=True)
class EstimationResult:
    params: PatientParams
    nll: float
    grid_cell: Cell
    latent_log_fbg: Tuple[float, ...]
    latent_adverse: Tuple[float, ...]
    latent_perception: Tuple[float, ...]
    innovations: Tuple[float, ...]
    # the grid search's work: cells by QP status, and ADMM iterations summed
    cells_solved: int
    cells_infeasible: int
    cells_nonconverged: int
    qp_iterations: int


def reconstruct_adverse(
    history: VisitHistory, s_base: float, beta: float, gamma: float
) -> Tuple[float, ...]:
    """Adversity trajectory implied by a (s_base, beta, gamma) cell.

    With the visit/enrollment record observed the recurrence has no free
    variables. The trajectory starts at s_base when the patient begins
    enrolled and at zero otherwise.
    """
    y, z = history.visited, history.enrolled
    s = [s_base * z[0]]
    for t in range(history.length - 1):
        s.append(z[t] * (gamma * (s[t] - s_base) + s_base) + beta * y[t] * z[t])
    return tuple(s)


def perception_coefficients(history: VisitHistory, rho: float) -> Tuple[float, ...]:
    """Per-period weights c_t such that theta_t = theta_base + c_t * lam.

    Unrolling the perception recurrence shows theta_t is affine in
    (theta_base, lam); the lam coefficient depends only on rho and the
    observed visit/enrollment record, starting at zero and never positive.
    """
    y, z = history.visited, history.enrolled
    c = [0.0]
    for t in range(history.length - 1):
        c.append(rho * c[t] - y[t] * z[t])
    return tuple(c)


def _was_offered(history: VisitHistory, t: int) -> bool:
    """Whether enrolling was on the table in period t.

    An unenrolled, unvisited patient makes no decision, so their benefit
    sign is only weakly constrained; a visited or previously enrolled one
    actively declined if the record shows them unenrolled.
    """
    return history.visited[t] == 1 or (t > 0 and history.enrolled[t - 1] == 1)


def _objective(history: VisitHistory, config: EstimationConfig):
    """P and q of the inner QP: the Gaussian negative log-likelihood.

    It depends on the record and the noise scales only, so every grid
    cell of a history shares it.
    """
    y, z = history.visited, history.enrolled
    T = history.length
    n = T + 5
    ip, imu, ial = T, T + 1, T + 2
    w_eps = 1.0 / config.sigma_eps**2
    w_xi = 1.0 / config.sigma_xi**2

    P = np.zeros((n, n))
    q = np.zeros(n)
    for t, val in history.observations:
        P[t, t] += w_eps
        q[t] -= w_eps * val
    for t in range(T - 1):
        d = np.zeros(n)
        d[t + 1] = 1.0
        d[t] = -1.0
        d[ip] = -1.0
        d[imu] = float(z[t])
        d[ial] = float(y[t] * z[t])
        P += w_xi * np.outer(d, d)
    return P, q


def _constraints(history: VisitHistory, cell: Cell):
    """A, l, u of one grid cell's inner QP, row blocks in this order:

    b_t >= 0; the five parameters in [0, PARAM_UPPER_BOUND]; theta_t =
    theta_base + c_t*lam >= 0; and the enrollment benefit's sign per
    period, bounded by a big M derived from the cell: >= 0 when enrolled,
    <= -STRICT_GAP when an offer was declined, <= 0 otherwise.
    """
    s_base, beta, gamma, rho = cell
    T = history.length
    n = T + 5
    imu, ial, ith, ila = T + 1, T + 2, T + 3, T + 4

    s = reconstruct_adverse(history, s_base, beta, gamma)
    c = np.array(perception_coefficients(history, rho))
    g = [gamma * (s[t] - s_base) + s_base for t in range(T)]
    h = np.array([g[t] + beta * history.visited[t] for t in range(T)])

    ub = PARAM_UPPER_BOUND
    theta_max = ub * (1.0 + max(abs(ct) for ct in c))
    big_m = 2.0 * (ub + ub + theta_max * (max(g) + beta))

    A = np.zeros((3 * T + 5, n))
    A[:n] = np.eye(n)
    theta_rows = A[T + 5:2 * T + 5]
    theta_rows[:, ith] = 1.0
    theta_rows[:, ila] = c
    benefit_rows = A[2 * T + 5:]
    benefit_rows[:, imu] = 1.0
    benefit_rows[:, ial] = history.visited
    benefit_rows[:, ith] = -h
    benefit_rows[:, ila] = -h * c

    enrolled = np.array(history.enrolled) == 1
    offered = np.array([_was_offered(history, t) for t in range(T)])
    l = np.concatenate([
        np.zeros(2 * T + 5),
        np.where(enrolled, 0.0, -big_m),
    ])
    u = np.concatenate([
        np.full(T, math.inf),
        np.full(5, PARAM_UPPER_BOUND),
        np.full(T, math.inf),
        np.where(enrolled, big_m, np.where(offered, -STRICT_GAP, 0.0)),
    ])
    return A, l, u


def _inner_solution(
    history: VisitHistory, cell: Cell, config: EstimationConfig, result: QPResult
) -> InnerSolution:
    """A cell's fit from its QP result; unsolved cells get nll = +inf.

    A cell whose subproblem is infeasible, or cannot be solved to
    tolerance within the iteration budget, cannot be trusted as the
    minimizer either way; it is dropped from the search instead of
    aborting the whole grid.
    """
    if result.status != "solved":
        return InnerSolution(result.status, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0,
                             (), (), result.iterations)

    x = result.x
    A, l, u = _constraints(history, cell)
    audit = max(float(np.max(l - A @ x)), float(np.max(A @ x - u)))
    if audit > 10.0 * QP_TOLERANCE:
        raise RuntimeError(
            f"solver reported success but a constraint is violated by {audit:.3e}"
        )

    y, z = history.visited, history.enrolled
    T = history.length
    ub = PARAM_UPPER_BOUND
    b = tuple(max(float(v), 0.0) for v in x[:T])
    p, mu, alpha, theta_base, lam = (
        min(max(float(x[j]), 0.0), ub) for j in range(T, T + 5)
    )
    xi = tuple(
        b[t + 1] - b[t] - p + mu * z[t] + alpha * y[t] * z[t] for t in range(T - 1)
    )
    w_eps = 1.0 / config.sigma_eps**2
    w_xi = 1.0 / config.sigma_xi**2
    obs = history.observed_map
    nll = 0.5 * w_eps * sum((b[t] - val) ** 2 for t, val in obs.items())
    nll += 0.5 * w_xi * sum(v**2 for v in xi)
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
    this cell's shape parameters) come back with nll = +inf. Declining
    while an offer stood is a strict preference, encoded as benefit <=
    -STRICT_GAP; without an offer only the weak bound benefit <= 0
    applies. solve_cells fits many cells of one history at once.
    """
    cell = (s_base, beta, gamma, rho)
    P, q = _objective(history, config)
    A, l, u = _constraints(history, cell)
    try:
        result = solve_qp(P, q, A, l, u)
    except QPConvergenceError as exc:
        result = QPResult("nonconverged", None, None, None, exc.iterations,
                          exc.primal_residual, exc.dual_residual)
    return _inner_solution(history, cell, config, result)


def grid_cells(config: EstimationConfig) -> List[Cell]:
    """The full Cartesian grid, s_base outermost and rho innermost."""
    return list(itertools.product(config.grid_s_base, config.grid_beta,
                                  config.grid_gamma, config.grid_rho))


def solve_cells(
    history: VisitHistory, cells: Sequence[Cell], config: EstimationConfig
) -> Iterator[InnerSolution]:
    """solve_inner for every cell, in order, as one batched QP solve.

    The cells share the objective, so it is built once; their constraint
    sets are built as the solver's pool asks for them, and each cell's
    solution is yielded as soon as the cells before it are done.
    """
    P, q = _objective(history, config)
    results = solve_qps(P, q, (_constraints(history, cell) for cell in cells))
    return (_inner_solution(history, cell, config, result)
            for cell, result in zip(cells, results))


def estimate_patient(
    history: VisitHistory, config: EstimationConfig = EstimationConfig()
) -> EstimationResult:
    """Grid-search MLE over (s_base, beta, gamma, rho) cells.

    Solves the full Cartesian grid (grid_cells order), keeps the strictly
    best feasible cell, and therefore resolves ties toward the earliest
    cell in that order. "Strictly best" is judged with a small relative
    slack (NLL_TIE_TOLERANCE): cells whose objectives differ by less than
    solver precision are genuine ties, and letting the last few
    floating-point bits pick the winner would make the selected cell
    non-reproducible. Infeasible and nonconverged cells are dropped and
    counted in the result.
    """
    cells = grid_cells(config)
    statuses: Dict[str, int] = dict.fromkeys(
        ("solved", "primal_infeasible", "nonconverged"), 0)
    iterations = 0
    best: Optional[InnerSolution] = None
    best_cell = None
    for cell, sol in zip(cells, solve_cells(history, cells, config)):
        statuses[sol.status] += 1
        iterations += sol.iterations
        if not sol.feasible:
            continue
        if best is None or sol.nll < best.nll - (
            NLL_TIE_TOLERANCE * (1.0 + abs(best.nll))
        ):
            best = sol
            best_cell = cell
    if best is None or best_cell is None:
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
        grid_cell=best_cell,
        latent_log_fbg=best.latent_log_fbg,
        latent_adverse=s,
        latent_perception=theta,
        innovations=best.innovations,
        cells_solved=statuses["solved"],
        cells_infeasible=statuses["primal_infeasible"],
        cells_nonconverged=statuses["nonconverged"],
        qp_iterations=iterations,
    )
