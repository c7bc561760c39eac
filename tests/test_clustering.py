"""Clustering tests: feature extraction, k-means recovery on separated
blobs, elbow behavior, degenerate k choices, and the within-run inertia
monotonicity guarantee."""

import numpy as np
import pytest

from chwplan import clustering
from chwplan.clustering import (
    FEATURE_NAMES,
    cluster_params,
    elbow_curve,
    parameter_matrix,
)
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
    m = parameter_matrix([pp])
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

def test_inertia_never_increases_within_run(monkeypatch):
    # a single restart from a k-means++ draw must improve monotonically;
    # run several seeds so multiple-iteration runs actually occur
    table = blob_table(per_blob=8, jitter=1.0, seed=12)  # overlapping blobs
    saw_multi_iteration = False
    monkeypatch.setattr(clustering, "RESTARTS", 1)
    for seed in range(6):
        result = cluster_params(table, k=4, seed=seed)
        trace = result.inertia_trace
        saw_multi_iteration = saw_multi_iteration or len(trace) > 2
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9 * (1 + abs(earlier))
    assert saw_multi_iteration
