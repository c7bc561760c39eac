"""Clustering tests: feature extraction, k-means recovery on separated
blobs, elbow behavior, degenerate k choices, the within-run inertia
monotonicity guarantee, the empty-cluster repair, distance-row reuse, the
feature-major seeding against the row-major form, and the batched Lloyd
loop against a one-restart reference."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chwplan import clustering
from chwplan.clustering import FEATURE_NAMES, cluster_params, elbow_curve
from chwplan.model import PatientParams

# the four patient archetypes the estimation study surfaced, used here as
# blob generators: (p, mu, alpha, theta_base, lam, s_base, beta)
ARCHETYPES = (
    (0.091, 0.006, 0.109, 0.001, 0.0, 0.072, 0.0),
    (6.994, 6.899, 0.125, 0.0, 0.0, 0.0, 0.011),
    (0.039, 0.009, 0.050, 0.002, 0.001, 0.060, 1.040),
    (6.990, 0.011, 6.997, 0.0, 0.0, 0.0, 0.0),
)


def blob_table(per_blob=10, jitter=0.01, seed=99):
    """Rows scattered tightly around each archetype (clipped at 0)."""
    rng = np.random.default_rng(seed)
    rows = []
    for center in ARCHETYPES:
        noise = rng.normal(0.0, jitter, size=(per_blob, 7))
        rows.extend(np.maximum(np.asarray(center) + noise, 0.0))
    return [tuple(map(float, r)) for r in rows]


def nearest(centroids, target):
    dists = [max(abs(a - b) for a, b in zip(c, target)) for c in centroids]
    return min(range(len(centroids)), key=dists.__getitem__)


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def test_parameter_matrix_column_order():
    pp = PatientParams(p=1.0, mu=2.0, alpha=3.0, beta=7.0, lam=5.0,
                       gamma=0.3, rho=0.4, s_base=6.0, theta_base=4.0)
    m = clustering._as_points([pp])
    assert m.shape == (1, 7)
    assert tuple(m[0]) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    assert FEATURE_NAMES == ("p", "mu", "alpha", "theta_base", "lam",
                             "s_base", "beta")


def test_cluster_accepts_patient_params_rows():
    rows = [PatientParams(p=float(i), mu=6.0, alpha=5.0, beta=0.0, lam=0.0,
                          gamma=0.2, rho=0.2, s_base=0.0, theta_base=0.1)
            for i in (0, 0, 10, 10)]
    result = cluster_params(rows, k=2, seed=1)
    assert result.assignments[0] == result.assignments[1]
    assert result.assignments[2] == result.assignments[3]
    assert result.assignments[0] != result.assignments[2]


# ---------------------------------------------------------------------------
# recovery on separated blobs
# ---------------------------------------------------------------------------

def test_four_blobs_recover_archetype_centroids():
    table = blob_table()
    result = cluster_params(table, k=4, seed=7)
    matched = set()
    for target in ARCHETYPES:
        idx = nearest(result.centroids, target)
        matched.add(idx)
        assert max(abs(a - b) for a, b in zip(result.centroids[idx], target)) < 0.1
    assert matched == {0, 1, 2, 3}  # the pairing is a bijection
    counts = np.bincount(result.assignments, minlength=4)
    assert sorted(counts) == [10, 10, 10, 10]


def test_blob_recovery_is_deterministic():
    table = blob_table()
    a = cluster_params(table, k=4, seed=7)
    b = cluster_params(table, k=4, seed=7)
    assert a.centroids == b.centroids
    assert a.assignments == b.assignments
    assert a.inertia == b.inertia


# ---------------------------------------------------------------------------
# degenerate k choices
# ---------------------------------------------------------------------------

def test_k_equals_rows_gives_zero_inertia():
    table = [(float(i), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) for i in range(6)]
    result = cluster_params(table, k=6, seed=3)
    assert result.inertia <= 1e-12
    assert sorted(c[0] for c in result.centroids) == [0, 1, 2, 3, 4, 5]
    assert sorted(result.assignments) == list(range(6))


def test_duplicate_rows_single_cluster():
    row = (1.5, 0.25, 0.75, 0.1, 0.0, 2.0, 0.5)
    result = cluster_params([row] * 5, k=1, seed=0)
    assert result.centroids == (row,)
    assert result.inertia == 0.0
    assert result.assignments == (0,) * 5


def test_k_one_inertia_is_scatter_about_mean():
    table = blob_table(per_blob=5)
    pts = np.asarray(table)
    expected = float(((pts - pts.mean(axis=0)) ** 2).sum())
    result = cluster_params(table, k=1, seed=0)
    assert result.inertia == pytest.approx(expected, rel=1e-12)
    assert result.centroids[0] == pytest.approx(tuple(pts.mean(axis=0)), abs=1e-12)


def test_k_validation():
    table = blob_table(per_blob=2)
    with pytest.raises(ValueError, match="between 1 and"):
        cluster_params(table, k=0)
    with pytest.raises(ValueError, match="between 1 and"):
        cluster_params(table, k=9)
    with pytest.raises(ValueError, match="nonempty"):
        cluster_params([], k=1)
    with pytest.raises(ValueError, match="non-finite"):
        cluster_params([(np.nan,) * 7], k=1)


# ---------------------------------------------------------------------------
# elbow curve
# ---------------------------------------------------------------------------

def test_elbow_flattens_after_four_blobs():
    table = blob_table()
    inertias = elbow_curve(table, range(1, 7), seed=5)
    assert len(inertias) == 6
    for earlier, later in zip(inertias, inertias[1:]):
        assert later <= earlier + 1e-9
    # the biggest relative drop happens when k first matches the number
    # of generating blobs
    drops = [(inertias[i - 1] - inertias[i]) / inertias[i - 1]
             for i in range(1, 6)]
    assert int(np.argmax(drops)) + 2 == 4


def test_elbow_reaches_zero_at_n():
    table = [(float(i), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) for i in range(5)]
    (inertia,) = elbow_curve(table, [5], seed=2)
    assert inertia <= 1e-12


def test_elbow_rejects_empty_range():
    with pytest.raises(ValueError, match="nonempty"):
        elbow_curve(blob_table(per_blob=2), [])


# ---------------------------------------------------------------------------
# within-run objective monotonicity
# ---------------------------------------------------------------------------

def inertia_by_iteration_cap(table, k, seed):
    """The public inertia of one restart stopped after 0, 1, ..., n
    iterations, where n is the number the uncapped run takes."""
    with mock.patch.object(clustering, "RESTARTS", 1):
        full = cluster_params(table, k=k, seed=seed)
        inertias = []
        for cap in range(full.lloyd_iterations + 1):
            with mock.patch.object(clustering, "MAX_ITERATIONS", cap):
                inertias.append(cluster_params(table, k=k, seed=seed).inertia)
    assert inertias[-1] == full.inertia
    return inertias


def assert_never_increases(inertias):
    for earlier, later in zip(inertias, inertias[1:]):
        assert later <= earlier + 1e-9 * (1 + abs(earlier))


def test_inertia_never_increases_within_run():
    # a single restart from a k-means++ draw must improve monotonically;
    # run several seeds so multiple-iteration runs actually occur
    table = blob_table(per_blob=8, jitter=1.0, seed=12)  # overlapping blobs
    saw_multi_iteration = False
    for seed in range(6):
        inertias = inertia_by_iteration_cap(table, k=4, seed=seed)
        saw_multi_iteration = saw_multi_iteration or len(inertias) > 2
        assert_never_increases(inertias)
    assert saw_multi_iteration


def test_emptied_cluster_takes_the_worst_served_point(monkeypatch):
    # two identical starting centroids leave the second cluster empty at
    # the first assignment; it must take the point farthest from the
    # first, and the repair must not raise the objective
    table = blob_table(per_blob=5)
    points = np.asarray(table, dtype=float)
    start = np.repeat(points[:1], 2, axis=0)
    monkeypatch.setattr(clustering, "_kmeanspp_init", lambda *args: start)
    inertias = inertia_by_iteration_cap(table, k=2, seed=0)
    assert len(inertias) > 2
    assert_never_increases(inertias)
    worst = int(np.argmax(np.sum((points - points[0]) ** 2, axis=1)))
    with mock.patch.object(clustering, "MAX_ITERATIONS", 1):
        result = cluster_params(table, k=2, seed=0)
    assert result.centroids[1] == tuple(points[worst])
    assert np.all(np.bincount(result.assignments, minlength=2) > 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 2])
def test_table_whose_distances_overflow_is_rejected_by_row(k):
    # squared distances of a 1e200 row overflow: rejected up front, naming
    # the row, before k-means++ or Lloyd computes any distance
    table = [(1.0,) * 7, (1e200,) + (1.0,) * 6, (2.0,) * 7]
    with pytest.raises(ValueError, match="row 1 is non-finite or too large"):
        cluster_params(table, k=k)
    assert clustering.first_unusable_row(table) == 1
    # the largest magnitude the check admits clusters to finite values
    n, d = 3, 7
    limit = np.sqrt(np.finfo(float).max / (8 * n * d))
    table = [(limit,) * d, (-limit,) * d, (limit,) * (d - 1) + (-limit,)]
    assert clustering.first_unusable_row(table) == -1
    assert np.isfinite(cluster_params(table, k=k).inertia)


def test_fewer_distinct_rows_than_k_converges_without_warnings():
    row = (1.5, 0.25, 0.75, 0.1, 0.0, 2.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = cluster_params([row] * 5, k=3, seed=0)
    assert result.inertia == 0.0
    assert result.lloyd_iterations == clustering.RESTARTS


# ---------------------------------------------------------------------------
# distance rows computed once per centroid value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4, 6])
def test_unchanged_centroids_reuse_their_distance_rows(k):
    # once a cluster's members settle its mean repeats bit for bit, so the
    # fit computes fewer rows than one per centroid per pass
    result = cluster_params(blob_table(), k=k, seed=7)
    full = (result.lloyd_iterations + clustering.RESTARTS) * k
    assert clustering.RESTARTS * k <= result.distance_rows < full


def test_feature_table_is_converted_once_and_fits_alike():
    table = blob_table(per_blob=4)
    features = clustering.feature_table(table)
    assert clustering.feature_table(features) is features
    assert features.columns.shape == (7, 16)
    assert np.array_equal(features.columns.T, np.asarray(table))
    assert not features.columns.flags.writeable
    for k in (1, 3):
        assert cluster_params(features, k, seed=2) == cluster_params(table, k, seed=2)
    assert elbow_curve(features, [1, 3], seed=2) == elbow_curve(table, [1, 3], seed=2)


# ---------------------------------------------------------------------------
# the batched Lloyd loop against one restart at a time
# ---------------------------------------------------------------------------

def lloyd_one_restart(points, centroids):
    """Lloyd's algorithm from one (k, d) start, one restart per call: the
    reference the batched _lloyd must match bit for bit."""
    centroids = np.array(centroids, dtype=float)
    k = centroids.shape[0]
    rows = np.arange(len(points))

    def sq_dists(c):
        diff = points[:, None, :] - c[None, :, :]
        return np.einsum("nkd,nkd->nk", diff, diff)

    iterations = 0
    for _ in range(clustering.MAX_ITERATIONS):
        d2 = sq_dists(centroids)
        assign = np.argmin(d2, axis=1)
        for j in range(k):
            if not np.any(assign == j):
                # only a point whose cluster keeps another member may move
                shared = np.bincount(assign, minlength=k)[assign] > 1
                served = d2[rows, assign]
                worst = max(np.flatnonzero(shared), key=lambda i: (served[i], -i))
                assign[worst] = j
                centroids[j] = points[worst]
        iterations += 1
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            total = np.zeros(points.shape[1])
            for x in points[assign == j]:  # row by row, in order
                total = total + x
            new_centroids[j] = total / np.count_nonzero(assign == j)
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement <= clustering.TOLERANCE:
            break
    d2 = sq_dists(centroids)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[rows, assign].sum())
    return centroids, assign, inertia, iterations


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_matches_one_restart_each(points, starts):
    centroids, assign, inertia, iterations, _ = clustering._lloyd(points, starts)
    for r, start in enumerate(starts):
        ref_c, ref_a, ref_i, ref_iterations = lloyd_one_restart(points, start)
        assert bits(centroids[r]) == bits(ref_c)  # signed zeros too
        assert assign[r].tolist() == ref_a.tolist()
        assert bits(inertia[r]) == bits(ref_i)
        assert iterations[r] == ref_iterations
    return iterations


# a few distinct values, so rows repeat and distances tie, plus -0.0 and
# free floats
feature_st = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0]),
                       st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def lloyd_case(draw):
    d = draw(st.sampled_from([1, 2, 3, 7]))
    pool = draw(st.lists(st.lists(feature_st, min_size=d, max_size=d),
                         min_size=1, max_size=4))
    n = draw(st.integers(1, 10))
    points = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    k = draw(st.integers(1, n))
    restarts = draw(st.integers(1, 5))
    # starts are rows of the table, so duplicate starts leave clusters empty
    idx = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                        min_size=restarts, max_size=restarts))
    return points, points[np.array(idx)]


@settings(max_examples=300, deadline=None)
@given(case=lloyd_case(), max_iterations=st.sampled_from([300, 2]))
def test_batched_lloyd_matches_one_restart_at_a_time(case, max_iterations):
    points, starts = case
    with mock.patch.object(clustering, "MAX_ITERATIONS", max_iterations):
        assert_matches_one_restart_each(points, starts)


def test_batched_restarts_stop_at_different_iterations():
    points = np.asarray(blob_table(per_blob=8, jitter=1.0, seed=12))
    rng = np.random.default_rng(0)
    features = np.ascontiguousarray(points.T)
    starts = np.stack([clustering._kmeanspp_init(features, 4, rng) for _ in range(10)])
    iterations = assert_matches_one_restart_each(points, starts)
    assert len(set(iterations.tolist())) > 1


def test_k_equals_rows_with_duplicates_matches_one_restart_at_a_time():
    # from the second start every point sits on its centroid, so a plain
    # argmax of the served distances would take point 0, the only member
    # of cluster 0; cluster 2's repair must take a point of cluster 1
    # instead, and every restart then converges at once
    points = np.array([[0.0], [1.0], [1.0]])
    starts = points[np.array([[0, 1, 2], [0, 1, 1], [1, 2, 0]])]
    assert_matches_one_restart_each(points, starts)
    centroids, _, inertia, iterations, _ = clustering._lloyd(points, starts)
    assert np.isfinite(centroids).all()
    assert (inertia == 0.0).all() and (iterations <= 2).all()


# ---------------------------------------------------------------------------
# k-means++ seeding on the feature-major table against the row-major form
# ---------------------------------------------------------------------------

def kmeanspp_rows(points, k, rng):
    """k-means++ on an (n, d) row-major table, distances summed along each
    row: the form the feature-major seeding must match bit for bit."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


@st.composite
def seeding_case(draw):
    d = draw(st.integers(1, 7))
    pool = draw(st.lists(st.lists(feature_st, min_size=d, max_size=d),
                         min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    points = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    return points, draw(st.integers(1, n))


class RecordingRng:
    """A Generator that records the probabilities of each choice it makes,
    which are the seeding distances over their total."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.probabilities = []

    def integers(self, n):
        return self.rng.integers(n)

    def choice(self, n, p):
        self.probabilities.append(bits(p))
        return self.rng.choice(n, p=p)


@settings(max_examples=300, deadline=None)
@given(case=seeding_case(), seed=st.integers(0, 2**32 - 1))
# every row equal: each start after the first takes the total <= 0 branch
@example(case=(np.array([[0.0, -0.0, 2.5]] * 4), 3), seed=0)
def test_feature_major_seeding_matches_row_major(case, seed):
    points, k = case
    rng_rows, rng_features = RecordingRng(seed), RecordingRng(seed)
    expected = kmeanspp_rows(points, k, rng_rows)
    starts = clustering._kmeanspp_init(np.ascontiguousarray(points.T), k, rng_features)
    assert bits(starts) == bits(expected)  # signed zeros too
    # the same distances, bit for bit, and the same draws, so the next
    # restart's starts match as well
    assert rng_features.probabilities == rng_rows.probabilities
    assert rng_features.rng.bit_generator.state == rng_rows.rng.bit_generator.state
