"""Grouping patients by their fitted behavioral parameters.

k-means over the seven raw parameters (p, mu, alpha, theta_base, lam,
s_base, beta), deliberately unscaled so centroids read in the same units
as the parameters themselves. Lloyd's algorithm with k-means++ seeding,
multiple restarts, and a centroid-movement stopping rule; everything is
driven by one seed so runs are reproducible.

A fit draws all of its k-means++ starts first and then runs the restarts
as one batch: each Lloyd iteration steps every restart that has not yet
stopped with array operations over the whole batch (one argmin, one
bincount that sums each cluster's rows in order), and a restart leaves
the batch once its centroids stop moving. No cluster is ever left empty,
so every centroid is a finite mean. Each restart does the same arithmetic,
in the same order, as it would alone, so the fit is bit-identical to
running the restarts one after another.
"""

import math
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


@dataclass(frozen=True)
class ClusterResult:
    centroids: Tuple[Tuple[float, ...], ...]
    assignments: Tuple[int, ...]
    inertia: float
    # Lloyd iterations summed over the fit's restarts
    lloyd_iterations: int


def first_unusable_row(points) -> int:
    """Index of the first row of an (n, d) table holding a non-finite value,
    or one so large that squared distances summed over the table could
    overflow; -1 if none. Each of the n*d squared differences is at most
    (2*max|x|)^2, and the limit keeps their sum below half the largest float.
    """
    points = np.asarray(points, dtype=float)
    limit = math.sqrt(np.finfo(float).max / (8 * points.size))
    bad = np.flatnonzero(~(np.abs(points) <= limit).all(axis=1))
    return int(bad[0]) if bad.size else -1


def _as_points(param_table) -> np.ndarray:
    rows = list(param_table)
    if rows and isinstance(rows[0], PatientParams):
        rows = [[getattr(pp, name) for name in FEATURE_NAMES] for pp in rows]
    pts = np.asarray(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("param_table must be a nonempty table of rows")
    bad = first_unusable_row(pts)
    if bad >= 0:
        raise ValueError(f"param_table row {bad} is non-finite or too large to cluster"
                         " (squared distances would overflow)")
    return pts


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
    points: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's algorithm from R starts at once.

    starts is (R, k, d); each restart runs exactly as it would alone and
    leaves the loop once its centroids move at most TOLERANCE. A cluster
    that an assignment leaves empty takes the worst-served point among the
    clusters that keep another member (one exists because k <= n), so no
    cluster is ever empty when the centroids are recomputed. Returns the
    final (R, k, d) centroids, (R, n) assignments, (R,) inertias and (R,)
    iterations run.
    """
    n, d = points.shape
    R, k, _ = starts.shape
    centroids = np.array(starts, dtype=float)
    iterations = np.zeros(R, dtype=int)
    diff = np.empty((n, k, d))
    # bincount weights: the points once per restart, restart-major
    weights = np.tile(points.ravel(), R)

    def sq_dists(rows: np.ndarray) -> np.ndarray:
        d2 = np.empty((len(rows), n, k))
        for i, r in enumerate(rows):
            np.subtract(points[:, None, :], centroids[r][None, :, :], out=diff)
            np.einsum("nkd,nkd->nk", diff, diff, out=d2[i])
        return d2

    active = np.arange(R)
    for _ in range(MAX_ITERATIONS):
        d2 = sq_dists(active)
        assign = np.argmin(d2, axis=2)
        label = assign + k * np.arange(len(active))[:, None]
        counts = np.bincount(label.ravel(), minlength=len(active) * k).reshape(-1, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            c, a, cnt = centroids[active[i]], assign[i], counts[i]
            served = d2[i, np.arange(n), a]
            for j in np.flatnonzero(cnt == 0):
                worst = int(np.argmax(np.where(cnt[a] > 1, served, -np.inf)))
                cnt[a[worst]] -= 1
                cnt[j] += 1
                a[worst] = j
                c[j] = points[worst]
            label[i] = a + k * i
        iterations[active] += 1
        sums = np.bincount(
            (label[..., None] * d + np.arange(d)).ravel(),
            weights=weights[:len(active) * n * d],
            minlength=len(active) * k * d,
        ).reshape(-1, k, d)
        new_centroids = sums / counts[..., None]
        movement = np.max(np.linalg.norm(new_centroids - centroids[active], axis=2), axis=1)
        centroids[active] = new_centroids
        active = active[movement > TOLERANCE]
        if not len(active):
            break
    d2 = sq_dists(np.arange(R))
    assign = np.argmin(d2, axis=2)
    inertia = np.take_along_axis(d2, assign[..., None], axis=2)[..., 0].sum(axis=1)
    return centroids, assign, inertia, iterations


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
    starts = np.stack([_kmeanspp_init(points, k, rng) for _ in range(RESTARTS)])
    centroids, assign, inertia, iterations = _lloyd(points, starts)
    best = int(np.argmin(inertia))
    return ClusterResult(
        centroids=tuple(tuple(float(v) for v in row) for row in centroids[best]),
        assignments=tuple(int(a) for a in assign[best]),
        inertia=float(inertia[best]),
        lloyd_iterations=int(iterations.sum()),
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
