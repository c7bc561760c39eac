"""Grouping patients by their fitted behavioral parameters.

k-means over the seven raw parameters (p, mu, alpha, theta_base, lam,
s_base, beta), deliberately unscaled so centroids read in the same units
as the parameters themselves. Lloyd's algorithm with k-means++ seeding,
multiple restarts, and a centroid-movement stopping rule; everything is
driven by one seed so runs are reproducible.
"""

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .model import PatientParams

FEATURE_NAMES = ("p", "mu", "alpha", "theta_base", "lam", "s_base", "beta")
# Lloyd's iteration cap, centroid-movement stopping tolerance, and the
# number of k-means++ restarts each fit keeps the best of
MAX_ITERATIONS = 300
TOLERANCE = 1e-6
RESTARTS = 10


def parameter_matrix(params: Sequence[PatientParams]) -> np.ndarray:
    """Stack the seven clustering features into an (n, 7) float array."""
    return np.array(
        [[getattr(pp, name) for name in FEATURE_NAMES] for pp in params],
        dtype=float,
    )


@dataclass(frozen=True)
class ClusterResult:
    centroids: Tuple[Tuple[float, ...], ...]
    assignments: Tuple[int, ...]
    inertia: float
    # per-iteration objective of the winning restart, for the
    # never-increases sanity check
    inertia_trace: Tuple[float, ...]


def _as_points(param_table) -> np.ndarray:
    rows = list(param_table)
    if rows and isinstance(rows[0], PatientParams):
        pts = parameter_matrix(rows)
    else:
        pts = np.asarray(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("param_table must be a nonempty table of rows")
    if not np.all(np.isfinite(pts)):
        raise ValueError("param_table contains non-finite values")
    return pts


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining points coincide
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(
    points: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, float, Tuple[float, ...]]:
    k = centroids.shape[0]
    trace = []
    assign = np.zeros(points.shape[0], dtype=int)
    for _ in range(MAX_ITERATIONS):
        d2 = _sq_dists(points, centroids)
        assign = np.argmin(d2, axis=1)
        # an emptied cluster grabs the point currently worst-served
        for j in range(k):
            if not np.any(assign == j):
                worst = int(np.argmax(d2[np.arange(len(assign)), assign]))
                assign[worst] = j
                centroids[j] = points[worst]
                d2[:, j] = np.sum((points - centroids[j]) ** 2, axis=1)
        trace.append(float(d2[np.arange(len(assign)), assign].sum()))
        new_centroids = np.vstack(
            [points[assign == j].mean(axis=0) for j in range(k)]
        )
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement <= TOLERANCE:
            break
    d2 = _sq_dists(points, centroids)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(assign)), assign].sum())
    trace.append(inertia)
    return centroids, assign, inertia, tuple(trace)


def cluster_params(
    param_table: Union[Sequence[PatientParams], Sequence[Sequence[float]]],
    k: int,
    seed: int = 0,
) -> ClusterResult:
    """Partition parameter rows into k groups.

    Runs Lloyd's algorithm from RESTARTS independent k-means++
    initializations and keeps the lowest-inertia run (earliest restart on
    ties, for reproducibility).
    """
    points = _as_points(param_table)
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k={k} must be between 1 and the number of rows ({n})")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(RESTARTS):
        init = _kmeanspp_init(points, k, rng)
        centroids, assign, inertia, trace = _lloyd(points, init)
        if best is None or inertia < best[2]:
            best = (centroids, assign, inertia, trace)
    centroids, assign, inertia, trace = best
    return ClusterResult(
        centroids=tuple(tuple(float(v) for v in row) for row in centroids),
        assignments=tuple(int(a) for a in assign),
        inertia=inertia,
        inertia_trace=trace,
    )


def elbow_curve(
    param_table: Union[Sequence[PatientParams], Sequence[Sequence[float]]],
    k_range: Sequence[int],
    seed: int = 0,
) -> Tuple[float, ...]:
    """Best-of-restarts inertia for each candidate k, for elbow plots."""
    ks = list(k_range)
    if not ks:
        raise ValueError("k_range must be nonempty")
    return tuple(
        cluster_params(param_table, k, seed=seed).inertia
        for k in ks
    )
