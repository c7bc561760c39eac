"""Grouping patients by their fitted behavioral parameters.

k-means over the seven raw parameters (p, mu, alpha, theta_base, lam,
s_base, beta), deliberately unscaled so centroids read in the same units
as the parameters themselves. Lloyd's algorithm with k-means++ seeding,
multiple restarts, and a centroid-movement stopping rule; everything is
driven by one seed so runs are reproducible.

Layout. A fit holds the table feature-major, as a (d, n) array whose row
f is feature f of every point (a FeatureTable, built once per fit, or
once for several fits by feature_table). Every distance is computed from
whole rows of it: k-means++ sums a start's squared differences over
features (axis 0), and Lloyd keeps each restart's distances as (k, n)
rows, one row per centroid.

Batching. A fit draws all of its k-means++ starts first and then runs
the restarts as one batch: each Lloyd iteration steps every restart that
has not yet stopped with array operations over the whole batch (one
nearest-centroid pass, one bincount that sums each cluster's rows in
order), and a restart leaves the batch once its centroids stop moving.
No cluster is ever left empty, so every centroid is a finite mean.

Reuse. A distance row is recomputed only when its centroid's bits, read
as int64, differ from those it was computed for; all changed rows of the
batch are computed together. An update or empty-cluster repair that
leaves a centroid bit-for-bit unchanged costs no distance work.
ClusterResult.distance_rows counts the rows computed.

Summation order. Lloyd sums a point's d squared differences as two
running sums, the even-indexed and the odd-indexed features each in
feature order, and then adds the two; seeding sums them left to right.
For d <= 7 these are the orders numpy's einsum("nkd,nkd->nk") and
np.sum(axis=1) use on (n, k, d) and (n, d) row-major blocks, so every
restart does the same arithmetic, in the same order, as the row-major
form running the restarts one after another, and the fit is
bit-identical to it.
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
    # (restart, centroid) distance rows Lloyd computed; recomputing every row
    # on every pass would take (lloyd_iterations + RESTARTS) * k
    distance_rows: int


# ClusterResult's work counts
WORK = ("lloyd_iterations", "distance_rows")


@dataclass(frozen=True)
class FeatureTable:
    """A parameter table converted and checked once, held feature-major:
    columns is a read-only (d, n) array whose row f is feature f of every
    point. cluster_params takes it in place of rows, so fitting several k
    converts and checks the table once."""
    columns: np.ndarray


Table = Union[Sequence[PatientParams], Sequence[Sequence[float]], FeatureTable]


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


def feature_table(param_table: Table) -> FeatureTable:
    """The table converted and checked for clustering, held feature-major;
    a FeatureTable is returned as it is."""
    if isinstance(param_table, FeatureTable):
        return param_table
    columns = np.ascontiguousarray(_as_points(param_table).T)
    columns.flags.writeable = False
    return FeatureTable(columns)


def _kmeanspp_init(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ starts, as (k, d) centroids, from a feature-major (d, n) table."""
    d, n = features.shape
    centroids = np.empty((k, d))
    d2 = np.zeros(n)  # squared distance to the nearest start drawn so far
    for j in range(k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # the first start, or all remaining points coincide
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = features[:, idx]
        if j + 1 == k:
            break
        # summed over features left to right, as axis=1 of (n, d) rows sums for d <= 7
        dj = np.sum((features - centroids[j][:, None]) ** 2, axis=0)
        d2 = dj if j == 0 else np.minimum(d2, dj)
    return centroids


def _nearest(dist: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid, the lowest index on ties as argmin
    gives, and its squared distance, from (R, k, n) distance rows."""
    served = np.minimum.reduce(dist, axis=1)
    assign = np.full(served.shape, dist.shape[1] - 1)
    for j in range(dist.shape[1] - 2, -1, -1):
        np.copyto(assign, j, where=dist[:, j] == served)
    return assign, served


def _lloyd(
    points: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Lloyd's algorithm from R starts at once.

    starts is (R, k, d); each restart runs exactly as it would alone and
    leaves the loop once its centroids move at most TOLERANCE. A cluster
    that an assignment leaves empty takes the worst-served point among the
    clusters that keep another member (one exists because k <= n), so no
    cluster is ever empty when the centroids are recomputed. Returns the
    final (R, k, d) centroids, (R, n) assignments, (R,) inertias, (R,)
    iterations run and the number of distance rows computed.
    """
    n, d = points.shape
    R, k, _ = starts.shape
    # no copy when points is the transpose of a feature-major table
    features = np.ascontiguousarray(points.T)
    centroids = np.array(starts, dtype=float)
    iterations = np.zeros(R, dtype=int)
    # dist[r, j] holds every point's squared distance to centroid j of
    # restart r, computed for the centroid whose bits are seen[r, j]
    dist = np.empty((R, k, n))
    bits = centroids.view(np.int64)
    seen = ~bits  # differs from every centroid in every bit: no row computed yet
    rows_computed = 0
    # bincount weights: the points once per restart, restart-major
    weights = np.tile(points.ravel(), R)

    def refresh(restarts: np.ndarray) -> None:
        """Recompute the rows of these restarts whose centroid bits changed."""
        nonlocal rows_computed
        r, j = np.nonzero((bits[restarts] != seen[restarts]).any(axis=2))
        r = restarts[r]
        c = centroids[r, j]
        # even- and odd-indexed squared differences, each summed in feature
        # order, then added: einsum's order over a (n, k, d) block for d <= 7
        acc = np.zeros((2, len(r), n))
        sq = np.empty((len(r), n))
        for f in range(d):
            np.subtract(features[f], c[:, f, None], out=sq)
            sq *= sq
            acc[f % 2] += sq
        dist[r, j] = np.add(acc[0], acc[1], out=acc[0])
        seen[r, j] = bits[r, j]
        rows_computed += len(r)

    active = np.arange(R)
    for _ in range(MAX_ITERATIONS):
        refresh(active)
        assign, served = _nearest(dist[active])
        label = assign + k * np.arange(len(active))[:, None]
        counts = np.bincount(label.ravel(), minlength=len(active) * k).reshape(-1, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            c, a, cnt = centroids[active[i]], assign[i], counts[i]
            for j in np.flatnonzero(cnt == 0):
                worst = int(np.argmax(np.where(cnt[a] > 1, served[i], -np.inf)))
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
    refresh(np.arange(R))
    assign, served = _nearest(dist)
    return centroids, assign, served.sum(axis=1), iterations, rows_computed


def cluster_params(param_table: Table, k: int, seed: int = 0) -> ClusterResult:
    """Partition parameter rows into k groups.

    Runs Lloyd's algorithm from RESTARTS independent k-means++
    initializations and keeps the lowest-inertia run (earliest restart on
    ties, for reproducibility).
    """
    features = feature_table(param_table).columns
    n = features.shape[1]
    if not (1 <= k <= n):
        raise ValueError(f"k={k} must be between 1 and the number of rows ({n})")

    rng = np.random.default_rng(seed)
    starts = np.stack([_kmeanspp_init(features, k, rng) for _ in range(RESTARTS)])
    centroids, assign, inertia, iterations, distance_rows = _lloyd(features.T, starts)
    best = int(np.argmin(inertia))
    return ClusterResult(
        centroids=tuple(tuple(float(v) for v in row) for row in centroids[best]),
        assignments=tuple(int(a) for a in assign[best]),
        inertia=float(inertia[best]),
        lloyd_iterations=int(iterations.sum()),
        distance_rows=distance_rows,
    )


def elbow_curve(param_table: Table, k_range: Sequence[int], seed: int = 0) -> Tuple[float, ...]:
    """Best-of-restarts inertia for each candidate k, for elbow plots."""
    ks = list(k_range)
    if not ks:
        raise ValueError("k_range must be nonempty")
    table = feature_table(param_table)
    return tuple(cluster_params(table, k, seed=seed).inertia for k in ks)
