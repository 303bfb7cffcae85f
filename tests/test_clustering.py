import itertools
import json
import math

import numpy as np
import pytest

from fanetsim import (
    ClusteringError,
    create_clusters,
    elbow_curve,
    kmeans,
    knee_point,
    read_clusters,
    write_clusters,
)


def blob_points(seed, std=30.0, per=20):
    centers = np.array([[100.0, 100.0], [400.0, 100.0], [250.0, 400.0]])
    rng = np.random.default_rng([13, seed])
    return np.vstack([c + rng.normal(0, std, size=(per, 2)) for c in centers])


def exhaustive_wcss(points, k):
    """Global WCSS minimum by enumerating every assignment vector."""
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        total = 0.0
        for c in range(k):
            members = points[labels == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_kmeans_two_pairs():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    res = kmeans(pts, 2, seed=0)
    assert res.k == 2
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]
    np.testing.assert_allclose(res.wcss, 1.0, atol=1e-12)


def test_kmeans_validation():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ClusteringError):
        kmeans(pts, 0)
    with pytest.raises(ClusteringError):
        kmeans(pts, 3)
    with pytest.raises(ClusteringError):
        kmeans(np.zeros((3, 3)), 2)
    with pytest.raises(ClusteringError):
        kmeans(np.zeros((0, 2)), 1)


def test_duplicate_points_share_a_label():
    pts = np.array([[5.0, 5.0], [5.0, 5.0], [100.0, 100.0], [5.0, 5.0]])
    res = kmeans(pts, 2, seed=1)
    assert res.labels[0] == res.labels[1] == res.labels[3]


def test_iteration_wcss_non_increasing():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 500, size=(rng.integers(8, 40), 2))
        res = kmeans(pts, int(rng.integers(2, 6)), seed=seed)
        curve = np.array(res.iteration_wcss)
        assert curve.size >= 1
        assert np.all(np.diff(curve) <= 1e-9)
        np.testing.assert_allclose(curve[-1], res.wcss, rtol=1e-12)


def test_matches_exhaustive_partition_optimum():
    rng = np.random.default_rng(42)
    for n, k in ((6, 2), (7, 2), (6, 3), (8, 3)):
        pts = rng.uniform(0, 100, size=(n, 2))
        best = exhaustive_wcss(pts, k)
        res = create_clusters({i: tuple(p) for i, p in enumerate(pts)},
                              seed=0, restarts=10, fixed_k=k)
        np.testing.assert_allclose(res.wcss, best, atol=1e-9)


def test_restart_determinism_and_improvement():
    pts = blob_points(0)
    a = create_clusters({i: tuple(p) for i, p in enumerate(pts)}, seed=5)
    b = create_clusters({i: tuple(p) for i, p in enumerate(pts)}, seed=5)
    assert a == b
    one = create_clusters({i: tuple(p) for i, p in enumerate(pts)}, seed=5, restarts=1)
    assert a.wcss <= one.wcss + 1e-12


def test_elbow_curve_shape():
    pts = blob_points(3)
    curve = elbow_curve(pts, k_max=8, seed=0, restarts=3)
    ks = [k for k, _ in curve]
    ws = np.array([w for _, w in curve])
    assert ks == list(range(1, 9))
    assert np.all(np.diff(ws) <= 1e-9)  # prefix minima are non-increasing


def test_knee_point_frozen_curve():
    # normalized chord offsets put the deepest point at k=2
    assert knee_point([(1, 100.0), (2, 10.0), (3, 9.0), (4, 8.5)]) == (2, False)


def test_knee_point_flat_curve():
    k, no_knee = knee_point([(1, 5.0), (2, 5.0), (3, 5.0)])
    assert no_knee
    assert k == 1
    with pytest.raises(ClusteringError):
        knee_point([(1, 5.0)])


def test_knee_on_three_blobs():
    pts = blob_points(7)
    curve = elbow_curve(pts, k_max=10, seed=7, restarts=5)
    assert knee_point(curve) == (3, False)


def test_create_clusters():
    pts = blob_points(1)
    positions = {i: tuple(p) for i, p in enumerate(pts)}
    res = create_clusters(positions, seed=2)
    assert res.k == 3
    assert not res.no_knee
    assert sorted(res.station_ids) == sorted(positions)
    members = res.members()
    assert sorted(m for ms in members.values() for m in ms) == sorted(positions)
    # the WCSS curve is recorded up to k_max
    assert [k for k, _ in res.wcss_curve][0] == 1

    fixed = create_clusters(positions, seed=2, fixed_k=4)
    assert fixed.k == 4

    with pytest.raises(ClusteringError):
        create_clusters({}, seed=0)
    with pytest.raises(ClusteringError):
        create_clusters(positions, seed=0, fixed_k=len(positions) + 1)


def test_assignment_accessors():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
    res = kmeans(pts, 2, seed=0)
    assign = res.assignment()
    assert set(assign) == {0, 1, 2}
    members = res.members()
    assert sorted(m for ms in members.values() for m in ms) == [0, 1, 2]
    for sid, cluster in assign.items():
        assert sid in members[cluster]


def test_clusters_roundtrip(tmp_path):
    pts = blob_points(4)
    res = create_clusters({i: tuple(p) for i, p in enumerate(pts)}, seed=9)
    path = tmp_path / "clusters.json"
    write_clusters(res, str(path))
    back = read_clusters(str(path))
    assert back == res
    with pytest.raises(ClusteringError):
        path.write_text("{}")
        read_clusters(str(path))


def _clusters_payload(tmp_path):
    res = create_clusters({i: (10.0 * i, 5.0 * (i % 3)) for i in range(6)}, seed=1,
                          fixed_k=2)
    path = tmp_path / "clusters.json"
    write_clusters(res, str(path))
    return path, json.loads(path.read_text())


def test_read_clusters_rejects_ids_that_collide_as_integers(tmp_path):
    # "1" and "01" both load as station 1; build_topology would fail later
    # without naming the file
    path, payload = _clusters_payload(tmp_path)
    payload["assignment"]["01"] = payload["assignment"]["1"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ClusteringError, match=f"{path}: station ids collide"):
        read_clusters(str(path))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_read_clusters_rejects_non_finite_centroid(tmp_path, bad):
    path, payload = _clusters_payload(tmp_path)
    payload["centroids"][1][0] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(ClusteringError, match=f"{path}: non-finite centroid"):
        read_clusters(str(path))


def test_read_clusters_rejects_infinite_wcss(tmp_path):
    path, payload = _clusters_payload(tmp_path)
    payload["wcss"] = math.inf
    path.write_text(json.dumps(payload))
    with pytest.raises(ClusteringError, match=f"{path}: non-finite centroid or wcss"):
        read_clusters(str(path))


def test_read_clusters_rejects_non_json(tmp_path):
    path = tmp_path / "clusters.json"
    path.write_text('{"k": 2,')
    with pytest.raises(ClusteringError, match=f"malformed clusters file {path}"):
        read_clusters(str(path))
