import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmeans_reference as reference
from fanetsim import (
    ClusterAssignment,
    ClusteringError,
    PipelineConfig,
    SimConfig,
    create_clusters,
    elbow_curve,
    kmeans,
    knee_point,
    read_clusters,
    write_clusters,
)
from fanetsim import clustering, mobility


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
    # a NaN point used to come back as a ClusterAssignment without an error
    with pytest.raises(ClusteringError, match="points must be finite"):
        kmeans(np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]]), 2)
    with pytest.raises(ClusteringError, match="seed must be >= 0, got -1"):
        kmeans(pts, 1, seed=-1)


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
    # these used to end in numpy's "Probabilities contain NaN" and a bare
    # AssertionError
    with pytest.raises(ClusteringError, match="points must be finite"):
        elbow_curve(np.vstack([pts, [[np.inf, 0.0]]]), k_max=3)
    with pytest.raises(ClusteringError, match="restarts must be >= 1, got 0"):
        elbow_curve(pts, k_max=3, restarts=0)


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
    # a pinned k is fitted alone, so there is no curve to record
    assert fixed.wcss_curve == []

    with pytest.raises(ClusteringError):
        create_clusters({}, seed=0)
    with pytest.raises(ClusteringError):
        create_clusters(positions, seed=0, fixed_k=len(positions) + 1)
    # these used to end in a bare AssertionError and numpy's
    # "expected non-negative integer"
    with pytest.raises(ClusteringError, match="restarts must be >= 1, got 0"):
        create_clusters(positions, seed=0, restarts=0)
    with pytest.raises(ClusteringError, match="seed must be >= 0, got -1"):
        create_clusters(positions, seed=-1)
    with pytest.raises(ClusteringError, match="points must be finite"):
        create_clusters({**positions, 99: (np.nan, 0.0)}, seed=0)


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
    # "1" and "01" both used to load as station 1, and build_topology failed
    # later without naming the file; a key not written as str(int) is now
    # rejected on its own
    path, payload = _clusters_payload(tmp_path)
    payload["assignment"]["01"] = payload["assignment"]["1"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ClusteringError) as err:
        read_clusters(str(path))
    assert str(err.value) == (f"malformed clusters file {path}: "
                              "assignment key '01' is not an id as written")


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


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def assignments(draw):
    # station ids are non-negative, as read_clusters requires
    ids = sorted(draw(st.sets(st.integers(0, 10**12), min_size=1, max_size=12)))
    k = draw(st.integers(1, min(6, len(ids))))
    # every cluster 0..k-1 holds a station, as read_clusters requires
    rest = draw(st.lists(st.integers(0, k - 1), min_size=len(ids) - k, max_size=len(ids) - k))
    labels = draw(st.permutations(list(range(k)) + rest))
    # as _curve writes it: k = 1, 2, ... with non-increasing finite WCSS
    curve = list(enumerate(sorted(draw(st.lists(finite, max_size=10)), reverse=True),
                           start=1))
    return ClusterAssignment(
        k=k, station_ids=ids, labels=np.array(labels, dtype=np.intp),
        centroids=np.array(draw(st.lists(st.tuples(finite, finite),
                                         min_size=k, max_size=k))),
        wcss=draw(finite), wcss_curve=curve, no_knee=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(assignment=assignments())
def test_clusters_roundtrip_property(tmp_path_factory, assignment):
    path = tmp_path_factory.mktemp("rt") / "clusters.json"
    write_clusters(assignment, str(path))
    back = read_clusters(str(path))
    assert back == assignment
    assert back.centroids.tobytes() == assignment.centroids.tobytes()
    first = path.read_bytes()
    write_clusters(back, str(path))
    assert path.read_bytes() == first


@pytest.mark.parametrize("case, message", [
    ("missing_key", "'wcss_curve'"),
    ("extra_centroid", "centroid count != k"),
    ("missing_centroid", "centroid count != k"),
    ("label_too_large", "label out of range"),
    ("negative_label", "label out of range"),
    ("assignment_list", "'assignment' is not a JSON object"),
    ("rising_curve", "wcss_curve is not finite and non-increasing"),
    ("skipped_k", "wcss_curve k does not run 1, 2, ..."),
    ("three_columns", "centroids are not (x, y) pairs"),
    ("flat_centroids", "centroids are not (x, y) pairs"),
    ("empty_cluster", "labels do not use every cluster 0..1"),
])
def test_read_clusters_rejects_malformed_payload(tmp_path, case, message):
    path, payload = _clusters_payload(tmp_path)
    if case == "missing_key":
        del payload["wcss_curve"]
    elif case == "extra_centroid":
        payload["centroids"].append([1.0, 2.0])
    elif case == "missing_centroid":
        payload["centroids"].pop()
    elif case == "label_too_large":
        payload["assignment"]["3"] = payload["k"]
    elif case == "negative_label":
        payload["assignment"]["3"] = -1
    elif case == "assignment_list":
        payload["assignment"] = []  # used to load as a clustering of no stations
    elif case == "rising_curve":
        # the fixed-k payload records no curve, so each curve case writes one
        payload["wcss_curve"] = [[1, 9.0], [2, 8.0], [3, 8.5]]
    elif case == "three_columns":
        for c in payload["centroids"]:  # used to load, and `fanetsim run` exited 0
            c.append(0.0)
    elif case == "flat_centroids":
        payload["centroids"] = [c[0] for c in payload["centroids"]]
    elif case == "empty_cluster":
        payload["assignment"] = dict.fromkeys(payload["assignment"], 0)
    else:
        payload["wcss_curve"] = [[1, 9.0], [3, 8.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ClusteringError, match=re.escape(f"clusters file {path}: {message}")):
        read_clusters(str(path))


def test_read_clusters_rejects_non_json(tmp_path):
    path = tmp_path / "clusters.json"
    path.write_text('{"k": 2,')
    with pytest.raises(ClusteringError, match=f"malformed clusters file {path}"):
        read_clusters(str(path))


# --- the column kernel against the broadcast loop it replaced --------------

def assert_same_run(new, ref):
    """Equal assignments down to the bytes of every float, including the
    per-pass WCSS that ClusterAssignment's == leaves out."""
    assert new == ref
    assert new.labels.dtype == ref.labels.dtype
    assert new.centroids.tobytes() == ref.centroids.tobytes()
    assert new.iteration_wcss == ref.iteration_wcss


def assert_same_fit(new, ref, fixed_k):
    """assert_same_run, except that a pinned k records no curve: the
    reference still runs k = 1..k_max, and only its curve is left out."""
    if fixed_k is not None:
        assert new.wcss_curve == []
        ref = dataclasses.replace(ref, wcss_curve=[])
    assert_same_run(new, ref)


def oracle_points(rng, n, layout, scale):
    if layout == "uniform":
        pts = rng.uniform(0, 1000, size=(n, 2))
    elif layout == "blobs":
        centers = rng.uniform(0, 1000, size=(int(rng.integers(2, 6)), 2))
        pts = centers[rng.integers(len(centers), size=n)] + rng.normal(0, 25, (n, 2))
    else:
        # 36 sites: co-located stations, duplicates and exact distance ties
        pts = rng.integers(0, 6, size=(n, 2)) * 150.0
    return pts * scale


# (n, layout, restarts): the curve runs restarts x k_max Lloyd loops, so the
# larger sets use fewer restarts to keep the oracle's broadcast loop cheap
ORACLE_SETS = [(2, "uniform", 10), (3, "grid", 10), (7, "uniform", 10),
               (12, "grid", 10), (40, "blobs", 10), (150, "grid", 10),
               (300, "uniform", 5), (1000, "blobs", 1)]


@pytest.mark.parametrize("scale, large", [(1e-3, "grid"), (1.0, "uniform"),
                                          (1e6, "blobs")])
def test_create_clusters_matches_broadcast_loop(scale, large):
    rng = np.random.default_rng([7, int(np.log10(scale)) + 3])
    for i, (n, layout, restarts) in enumerate(ORACLE_SETS + [(3000, large, 1)]):
        pts = oracle_points(rng, n, layout, scale)
        positions = {int(sid): tuple(p) for sid, p
                     in zip(rng.permutation(10 * n)[:n], pts.tolist())}
        distinct = np.unique(pts, axis=0).shape[0]
        fixed_k = int(rng.integers(1, min(10, distinct) + 1)) if i % 2 else None
        seed = int(rng.integers(1 << 30))
        new = create_clusters(positions, seed=seed, restarts=restarts, fixed_k=fixed_k)
        ref = reference.create_clusters(positions, seed=seed, restarts=restarts,
                                        fixed_k=fixed_k)
        assert_same_fit(new, ref, fixed_k)


def test_kmeans_and_elbow_curve_match_broadcast_loop():
    rng = np.random.default_rng(11)
    for k in range(1, 11):
        n = int(rng.integers(k + 1, 600))
        pts = oracle_points(rng, n, ("uniform", "blobs", "grid")[k % 3], 1.0)
        k = min(k, np.unique(pts, axis=0).shape[0])
        assert_same_run(kmeans(pts, k, seed=k), reference.kmeans(pts, k, seed=k))
        assert (elbow_curve(pts, k, seed=k, restarts=3)
                == reference.elbow_curve(pts, k, seed=k, restarts=3))


def test_fixed_k_beyond_the_curve_matches_broadcast_loop():
    # the reference fits k = 1..k_max and then the pinned k, on or past the
    # curve; the pinned fit alone is the same, seeded by (seed, k, restart)
    pts = oracle_points(np.random.default_rng(3), 200, "blobs", 1.0)
    positions = dict(enumerate(map(tuple, pts.tolist())))
    for k_max, fixed_k in ((4, 4), (4, 7), (1, 2)):
        new = create_clusters(positions, seed=k_max, fixed_k=fixed_k)
        ref = reference.create_clusters(positions, k_max=k_max, seed=k_max,
                                        fixed_k=fixed_k)
        assert len(ref.wcss_curve) == k_max
        assert_same_fit(new, ref, fixed_k)
        assert new.k == fixed_k


def test_repaired_empty_clusters_match_broadcast_loop(monkeypatch):
    # k-means++ seeds at data points, so a first pass never leaves a cluster
    # empty; a seed moved far outside the data makes every run repair one
    def far_last_seed(points, k, rng, plusplus=clustering._init_plusplus):
        centers = plusplus(points, k, rng)
        if k > 1:
            centers[-1] = points.max(axis=0) * 1e3 + 1e3
        return centers

    repairs = []

    def counted_repair(*args, repair=clustering._repair_empty):
        repairs.append(args[3].tolist())
        return repair(*args)

    monkeypatch.setattr(reference, "_init_plusplus", far_last_seed)
    monkeypatch.setattr(clustering, "_init_plusplus", far_last_seed)
    monkeypatch.setattr(clustering, "_repair_empty", counted_repair)
    rng = np.random.default_rng(5)
    for n, layout in ((9, "grid"), (60, "blobs"), (500, "uniform")):
        pts = oracle_points(rng, n, layout, 1.0)
        positions = dict(enumerate(map(tuple, pts.tolist())))
        new = create_clusters(positions, seed=n, restarts=2)
        ref = reference.create_clusters(positions, seed=n, restarts=2)
        assert_same_run(new, ref)
    assert len(repairs) > 20 and all(0 in counts for counts in repairs)


def test_fleet_clusters_match_broadcast_loop():
    cfg = PipelineConfig(sim=SimConfig(num_nodes=2000), duration=360.0,
                         sample_interval=10.0).with_seed(1).validate()
    trace = mobility.simulate_random_waypoint(cfg.arena_config())
    positions = dict(zip(trace.station_ids,
                         map(tuple, trace.positions[:, -1].tolist())))
    args = dict(seed=cfg.cluster_seed(), restarts=cfg.restarts, fixed_k=cfg.fixed_k)
    assert_same_fit(create_clusters(positions, **args),
                    reference.create_clusters(positions, **args), cfg.fixed_k)


def test_points_must_be_planar():
    with pytest.raises(ClusteringError, match="2 columns"):
        kmeans(np.arange(12.0).reshape(4, 3), 2)
    with pytest.raises(ClusteringError, match="2 columns"):
        elbow_curve(np.arange(4.0).reshape(4, 1), 2)
    with pytest.raises(ClusteringError, match="2 columns"):
        create_clusters({0: (1.0, 2.0, 3.0), 1: (4.0, 5.0, 6.0)})
