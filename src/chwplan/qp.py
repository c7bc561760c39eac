"""Dense convex quadratic programming by operator splitting.

Solves
    minimize    (1/2) x'Px + q'x
    subject to  l <= Ax <= u
for symmetric positive-semidefinite P with the alternating-direction
method of multipliers in the splitting popularized by OSQP: an x-update
through a cached linear solve, a clamp of the constraint image onto
[l, u], and a scaled dual ascent step.

Sized to this package's needs (estimation inner problems with ~65
variables and ~200 boxed or one-sided rows):

- Matrices are dense numpy arrays. The x-update applies an explicit
  inverse of (P/c + sigma*I + rho*A'A), refreshed only when rho is
  rescaled; with sigma > 0 that matrix is positive definite.
- The objective is normalized by c = max(1, max|P|, max|q|), so the
  dual-side stopping test is relative to the objective's scale. The
  primal (constraint) residual is tested unscaled — downstream
  feasibility audits rely on the unscaled bound.
- Primal infeasibility is certified by the separating-direction test on
  the dual increment, of the last step or of the whole check interval.
  Dual infeasibility (an unbounded objective) is not checked: every
  caller boxes all variables, so the feasible set has no recession
  directions.

One loop solves a stream of problems that share P and q (the estimator's
grid cells: one history, one constraint set per byte-distinct cell). It
runs a pool of
POOL_WIDTH slots, each holding one problem's A, bounds, inverse and
iterate, and steps every slot at once with stacked matrix-vector
products. When a problem finishes, the next one loads into its slot;
once the stream runs out, the last live slot moves into the freed one,
so the tail steps only live problems. A slot holds only A, the bounds,
the inverse and the iterate; A'A is recomputed on a rho rescale.

The width is set by the cache: eight slots of the estimator's 185 x 65
A and 65 x 65 inverse (1.0 MB) stay in a 2 MB per-core L2. On one
60-period patient's 400 cells (2-core Xeon, one BLAS thread, medians of
2-4 alternating runs) widths 1, 4, 8, 12, 16 and 64 took 8.0, 4.1, 3.2,
3.3, 3.6 and 4.1 s; a stack of all 400 cells would also need 38 MB for
A alone. The estimator now usually stops its grid early, and the slots
still in flight when it stops are wasted work. When the benchmark still
had two 60-period patients, each stopping after cell 25, and every cell
went to the pool, widths 4, 8 and 16 took 0.178, 0.187 and 0.221 s for
both (medians of 40 alternating runs, same machine). Width 4 won 28 of
the 40 runs, but by less than the quartile spread (0.143-0.186 against
0.146-0.195 s), and it is about 1.3x slower on a patient that runs the
whole grid. So the width stays eight. Each result records the pool's
slot-iterations so far (pool_iterations), so a caller that stops early
can count the work spent on the problems it drops.

Every slot keeps its own iteration counter and the single-problem
arithmetic, so a problem's iterates do not depend on its neighbours in
the pool: the residuals are tested every iteration, while the
infeasibility certificate and the rho adaptation run every
CHECK_INTERVAL-th iteration, OSQP's check interval (Stellato et al.,
Math. Prog. Comp. 2020). solve_qp is this loop on one problem. Every
problem ends in a QPResult whose status says how: "solved",
"primal_infeasible" or "nonconverged" (MAX_ITERATIONS ran out); none
raises.
"""

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

POOL_WIDTH = 8
CHECK_INTERVAL = 25
# Residual tolerance (absolute, infinity norm), iteration budget and the
# infeasibility certificate's threshold; the x-update
# regularization, over-relaxation and initial step size are OSQP's
# defaults.
QP_TOLERANCE = 1e-6
MAX_ITERATIONS = 10000
INFEASIBILITY_EPS = 1e-7
SIGMA = 1e-6
RELAXATION = 1.6
RHO_INITIAL = 0.1


@dataclass(frozen=True)
class QPResult:
    status: str  # "solved", "primal_infeasible" or "nonconverged"
    x: Optional[np.ndarray]  # the solution, when solved
    y: Optional[np.ndarray]  # the infeasibility certificate, when primal_infeasible
    iterations: int
    # slot-iterations the pool had stepped, over every problem of the
    # stream, when it yielded this result: with an early close, the work
    # spent on problems that never finish shows only here
    pool_iterations: int = 0


def _absmax(v):
    """Infinity norm of each slot's column; 0 when the column is empty."""
    return np.maximum.reduce(np.abs(v), axis=(1, 2), initial=0.0)


def _checked(n, A, l, u):
    """One problem's constraints as float arrays, with shapes and bounds checked."""
    A = np.asarray(A, dtype=float)
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    if A.size == 0:
        A = A.reshape(0, n)
    m = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n or l.shape != (m,) or u.shape != (m,):
        raise ValueError("inconsistent QP dimensions")
    if np.any(l > u):
        raise ValueError("constraint bounds cross: some l > u")
    return A, l, u


def _certifies_infeasibility(slots, dy, At, l, u):
    """For each of the given slots: is its dy a Farkas direction separating
    l <= Ax <= u from reality?

    dy is a dual increment, over one step or over a check interval. It
    certifies infeasibility when A'dy ~ 0 while the support function
    u'(dy)+ + l'(dy)- is strictly negative. Rows with an infinite bound on
    the active side can never certify.
    """
    eps = INFEASIBILITY_EPS
    dy, l, u = dy[slots], l[slots], u[slots]
    norm = _absmax(dy)
    e = dy / np.where(norm > eps, norm, 1.0)[:, None, None]
    # A'e on the whole pool with the other slots' directions zeroed, so no
    # slot's A is copied out of the pool
    e_pool = np.zeros((At.shape[0],) + e.shape[1:])
    e_pool[slots] = e
    Ate = (At @ e_pool)[slots]
    bound = np.where(e > 0, u, np.where(e < 0, l, 0.0))
    finite = np.isfinite(bound)
    support = np.sum(np.where(finite, bound, 0.0) * e, axis=(1, 2))
    return ((norm > eps) & (_absmax(Ate) <= eps)
            & finite.all(axis=(1, 2)) & (support < -eps))


def solve_qps(
    P,
    q,
    constraints: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Iterator[QPResult]:
    """Minimize (1/2)x'Px + q'x subject to l <= Ax <= u, for each (A, l, u).

    constraints is read lazily, one problem whenever a slot frees; every
    A needs the same shape. Yields one QPResult per problem, in input
    order, as soon as it and every earlier problem have finished, with
    status "solved" (both infinity-norm residuals at or below QP_TOLERANCE),
    "primal_infeasible" (certificate found) or "nonconverged"
    (MAX_ITERATIONS passed without either). Fully deterministic: cold
    start at the origin, no randomization.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if P.shape != (n, n):
        raise ValueError("inconsistent QP dimensions")

    # normalize the objective so the dual tolerance is relative to its scale
    scale = max(1.0, float(np.max(np.abs(P))) if P.size else 0.0,
                float(np.max(np.abs(q))) if q.size else 0.0)
    Ps = P / scale
    qs = (q / scale)[:, None]
    qs_norm = float(np.max(np.abs(qs))) if qs.size else 0.0
    base = Ps + SIGMA * np.eye(n)

    pending = (_checked(n, *problem) for problem in constraints)
    problem = next(pending, None)
    if problem is None:
        return
    # Slot s holds one problem. Vectors are (w, rows, 1) column stacks, so
    # a stacked product A @ x is one matmul over all slots.
    m = problem[0].shape[0]
    A = np.empty((POOL_WIDTH, m, n))
    l = np.empty((POOL_WIDTH, m, 1))
    u = np.empty((POOL_WIDTH, m, 1))
    inv = np.empty((POOL_WIDTH, n, n))
    x = np.zeros((POOL_WIDTH, n, 1))
    z = np.zeros((POOL_WIDTH, m, 1))
    y = np.zeros((POOL_WIDTH, m, 1))
    y_checked = np.zeros((POOL_WIDTH, m, 1))  # y at the slot's last check
    rho = np.full(POOL_WIDTH, RHO_INITIAL)
    k = np.zeros(POOL_WIDTH, dtype=np.int64)
    index = np.zeros(POOL_WIDTH, dtype=np.int64)
    loaded = 0
    stepped = 0
    finished: Dict[int, QPResult] = {}
    next_out = 0

    def load(s, problem):
        nonlocal loaded
        A_s, l_s, u_s = problem
        if A_s.shape[0] != m:
            raise ValueError("every problem of a batch needs the same rows")
        A[s], l[s, :, 0], u[s, :, 0] = A_s, l_s, u_s
        inv[s] = np.linalg.inv(base + RHO_INITIAL * (A_s.T @ A_s))
        x[s] = 0.0
        z[s, :, 0] = np.clip(A_s @ np.zeros(n), l_s, u_s)
        y[s] = 0.0
        y_checked[s] = 0.0
        rho[s] = RHO_INITIAL
        k[s] = 0
        index[s] = loaded
        loaded += 1

    w = 0
    while problem is not None:
        load(w, problem)
        w += 1
        problem = next(pending, None) if w < POOL_WIDTH else None
    A, l, u, inv = A[:w], l[:w], u[:w], inv[:w]
    x, z, y, y_checked = x[:w], z[:w], y[:w], y_checked[:w]
    rho, k, index = rho[:w], k[:w], index[:w]
    At = A.transpose(0, 2, 1)
    while w:
        k += 1
        stepped += w
        rho_col = rho[:, None, None]
        rhs = SIGMA * x - qs + At @ (rho_col * z - y)
        x_tilde = inv @ rhs
        z_tilde = A @ x_tilde

        x = RELAXATION * x_tilde + (1.0 - RELAXATION) * x
        z_relaxed = RELAXATION * z_tilde + (1.0 - RELAXATION) * z
        z_new = np.clip(z_relaxed + y / rho_col, l, u)
        dy = rho_col * (z_relaxed - z_new)
        y = y + dy
        z = z_new

        Ax = A @ x
        Aty = At @ y
        Psx = Ps @ x
        r_prim = _absmax(Ax - z)
        r_dual = _absmax(Psx + qs + Aty)
        solved = np.maximum(r_prim, r_dual) <= QP_TOLERANCE
        done = solved | (k >= MAX_ITERATIONS)

        # the certificate and rho adaptation, on the slots due this iteration;
        # the certificate tests both the last step's and the whole interval's
        # dual increment, since either can hold while the other does not
        infeasible = np.zeros(w, dtype=bool)
        certificate = dy
        due = (k % CHECK_INTERVAL == 0) & ~solved
        if m and due.any():
            D = np.flatnonzero(due)
            interval = y - y_checked
            by_step = _certifies_infeasibility(D, dy, At, l, u)
            by_interval = _certifies_infeasibility(D, interval, At, l, u)
            infeasible[D] = by_step | by_interval
            only_interval = D[by_interval & ~by_step]
            if only_interval.size:
                certificate = dy.copy()
                certificate[only_interval] = interval[only_interval]
            y_checked[D] = y[D]
            done |= infeasible
            R = D[~infeasible[D]]
            if R.size:
                prim_ref = np.maximum(np.maximum(_absmax(Ax[R]), _absmax(z[R])), 1e-12)
                dual_ref = np.maximum(np.maximum(np.maximum(
                    _absmax(Psx[R]), _absmax(Aty[R])), qs_norm), 1e-12)
                ratio = (r_prim[R] / prim_ref) / np.maximum(r_dual[R] / dual_ref, 1e-16)
                candidate = np.minimum(np.maximum(rho[R] * np.sqrt(ratio), 1e-6), 1e6)
                for s, new in zip(R, candidate):
                    if new > 5.0 * rho[s] or new < rho[s] / 5.0:
                        rho[s] = new
                        inv[s] = np.linalg.inv(base + new * (A[s].T @ A[s]))

        if not done.any():
            continue
        for s in np.flatnonzero(done)[::-1]:
            it = int(k[s])
            if solved[s]:
                result = QPResult("solved", x[s, :, 0].copy(), None, it)
            elif infeasible[s]:
                d = certificate[s, :, 0]
                result = QPResult("primal_infeasible", None, d / np.max(np.abs(d)), it)
            else:
                result = QPResult("nonconverged", None, None, it)
            finished[int(index[s])] = result
            problem = next(pending, None)
            if problem is not None:
                load(s, problem)
                continue
            # the stream is spent: move the last live slot into this one
            w -= 1
            for arr in (A, l, u, inv, x, z, y, y_checked, rho, k, index):
                arr[s] = arr[w]
        A, l, u, inv = A[:w], l[:w], u[:w], inv[:w]
        x, z, y, y_checked = x[:w], z[:w], y[:w], y_checked[:w]
        rho, k, index = rho[:w], k[:w], index[:w]
        At = A.transpose(0, 2, 1)
        while next_out in finished:
            yield replace(finished.pop(next_out), pool_iterations=stepped)
            next_out += 1


def solve_qp(P, q, A, l, u) -> QPResult:
    """Minimize (1/2)x'Px + q'x subject to l <= Ax <= u: solve_qps on one
    problem, with the same statuses ("nonconverged" included)."""
    (result,) = solve_qps(P, q, [(A, l, u)])
    return result
