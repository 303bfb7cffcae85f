"""K-means partitioning of station positions with automatic k selection.

Without a pinned k, the cluster count comes from the within-cluster-sum-of-
squares curve: run k-means for every candidate k, then pick the point of the
curve farthest from the straight line joining its endpoints (the usual knee
heuristic). A config override can pin k instead; that k is fitted alone and
no curve is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClusteringError
from .ioutil import (atomic_write_json, json_bool, json_float, json_int, json_ints,
                     json_id_object, json_numbers, load_json)

DEFAULT_RESTARTS = 10
MAX_ITERS = 100
TOL = 1e-6  # a run stops once every centroid moves less than this in a pass
KNEE_FLAT_TOL = 1e-6


@dataclass
class ClusterAssignment:
    k: int
    station_ids: list[int]
    labels: np.ndarray
    centroids: np.ndarray
    wcss: float
    wcss_curve: list[tuple[int, float]] = field(default_factory=list)
    no_knee: bool = False
    iteration_wcss: list[float] = field(default_factory=list)

    def assignment(self) -> dict[int, int]:
        return {sid: int(c) for sid, c in zip(self.station_ids, self.labels)}

    def members(self) -> dict[int, list[int]]:
        """Cluster index -> sorted member station ids. Never empty clusters."""
        out: dict[int, list[int]] = {c: [] for c in range(self.k)}
        for sid, c in zip(self.station_ids, self.labels):
            out[int(c)].append(sid)
        return out

    def __eq__(self, other):
        if not isinstance(other, ClusterAssignment):
            return NotImplemented
        return (self.k == other.k
                and self.station_ids == other.station_ids
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.centroids, other.centroids)
                and self.wcss == other.wcss
                and self.wcss_curve == other.wcss_curve
                and self.no_knee == other.no_knee)


def _sse(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    diff = points - centroids[labels]
    return float(np.sum(diff * diff))


def _init_plusplus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining mass sits on existing centers; take the lowest
            # index not yet chosen so duplicates cannot stall the init.
            taken = {tuple(ctr) for ctr in centers[:c]}
            idx = -1
            for i in range(n):
                if tuple(points[i]) not in taken:
                    idx = i
                    break
            if idx < 0:
                raise ClusteringError(f"fewer than {k} distinct points")
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _repair_empty(points, labels, centroids, counts):
    """Reseed each empty cluster with the point farthest from its centroid.

    Donor points come only from clusters that keep >= 2 members. The donor
    centroid is recomputed immediately so overall WCSS cannot increase.
    """
    for c in range(centroids.shape[0]):
        if counts[c] > 0:
            continue
        resid = np.sum((points - centroids[labels]) ** 2, axis=1)
        resid[counts[labels] < 2] = -1.0
        donor = int(np.argmax(resid))
        if resid[donor] < 0:
            raise ClusteringError("cannot repair empty cluster: no donor")
        old = labels[donor]
        labels[donor] = c
        counts[old] -= 1
        counts[c] += 1
        centroids[c] = points[donor]
        centroids[old] = points[labels == old].mean(axis=0)


def _checked(points, seed: int, restarts: int = 1) -> np.ndarray:
    """The one input gate of kmeans, elbow_curve and create_clusters: finite
    (n, 2) points as floats, a seed >= 0 and at least one restart."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {points.shape}")
    if points.shape[1] != 2:
        raise ClusteringError(
            f"points must have 2 columns (x, y), got {points.shape[1]}")
    if not np.isfinite(points).all():
        raise ClusteringError("points must be finite")
    if seed < 0:
        raise ClusteringError(f"seed must be >= 0, got {seed}")
    if restarts < 1:
        raise ClusteringError(f"restarts must be >= 1, got {restarts}")
    return points


def kmeans(points, k: int, seed: int = 0) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, single run.

    Nearest-centroid ties go to the lowest cluster index; the WCSS recorded
    after every assignment pass is non-increasing, which the tests rely on.
    """
    points = _checked(points, seed)
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if np.unique(points, axis=0).shape[0] < k:
        raise ClusteringError(f"fewer than {k} distinct points")
    return _lloyd(points, k, np.random.default_rng(seed))


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> ClusterAssignment:
    """One unchecked run over an (n, 2) float array with >= k distinct rows.

    Works on the x and y columns separately and yields the floats of the
    broadcast form bit for bit: a squared distance is dx*dx + dy*dy, which
    is numpy's sum over a length-2 axis, and a centroid coordinate is the
    members' sum in point order over their count, which is numpy's axis-0
    mean of a C-contiguous (m, 2) array.
    """
    n = points.shape[0]
    x = np.ascontiguousarray(points[:, 0])
    y = np.ascontiguousarray(points[:, 1])
    px, py = x[:, None], y[:, None]
    centroids = _init_plusplus(points, k, rng)
    labels = np.zeros(n, dtype=np.intp)
    iteration_wcss: list[float] = []
    for _ in range(MAX_ITERS):
        d2 = px - centroids[:, 0]
        d2 *= d2
        dy = py - centroids[:, 1]
        dy *= dy
        d2 += dy
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            _repair_empty(points, labels, centroids, counts)
        iteration_wcss.append(_sse(points, labels, centroids))
        new_centroids = np.empty_like(centroids)
        new_centroids[:, 0] = np.bincount(labels, weights=x, minlength=k) / counts
        new_centroids[:, 1] = np.bincount(labels, weights=y, minlength=k) / counts
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < TOL:
            break
    wcss = _sse(points, labels, centroids)
    return ClusterAssignment(
        k=k, station_ids=list(range(n)), labels=labels, centroids=centroids,
        wcss=wcss, iteration_wcss=iteration_wcss)


def _best_kmeans(points, k: int, seed: int, restarts: int) -> ClusterAssignment:
    """Best of `restarts` independent runs: the lowest WCSS, and of equal
    ones the first restart (min keeps the first of equal keys).

    Unchecked: points must be an (n, 2) float array with >= k distinct rows.
    """
    runs = (_lloyd(points, k, np.random.default_rng(np.random.SeedSequence([seed, k, r])))
            for r in range(restarts))
    return min(runs, key=lambda run: run.wcss)


def _curve(fits: list[ClusterAssignment]) -> list[tuple[int, float]]:
    """WCSS curve of the best fits for k = 1, 2, ..., as prefix minima."""
    wcss = np.minimum.accumulate(np.array([fit.wcss for fit in fits]))
    return [(k, float(w)) for k, w in enumerate(wcss, start=1)]


def elbow_curve(points, k_max: int, seed: int = 0,
                restarts: int = DEFAULT_RESTARTS) -> list[tuple[int, float]]:
    """Best-of-restarts WCSS for k = 1..k_max.

    Prefix minima are applied afterwards so the curve is non-increasing even
    when a larger k lands in a worse local optimum than a smaller one.
    """
    points = _checked(points, seed, restarts)
    distinct = np.unique(points, axis=0).shape[0]
    if k_max < 1:
        raise ClusteringError(f"k_max must be >= 1, got {k_max}")
    if k_max > distinct:
        raise ClusteringError(f"k_max {k_max} exceeds {distinct} distinct points")
    return _curve([_best_kmeans(points, k, seed, restarts)
                   for k in range(1, k_max + 1)])


def knee_point(curve: list[tuple[int, float]]) -> tuple[int, bool]:
    """Knee of a WCSS curve: the point farthest from the endpoint chord.

    Both axes are min-max normalized first, so the choice is invariant under
    affine rescaling of either axis. Returns (k, no_knee). A curve flatter
    than KNEE_FLAT_TOL everywhere has no usable knee; k falls back to the
    first candidate. Ties go to the smallest k.
    """
    if len(curve) < 3:
        raise ClusteringError(f"knee detection needs >= 3 points, got {len(curve)}")
    ks = np.array([c[0] for c in curve], dtype=float)
    ws = np.array([c[1] for c in curve], dtype=float)
    k_span = ks[-1] - ks[0]
    w_span = ws.max() - ws.min()
    if k_span <= 0:
        raise ClusteringError("curve k values must be strictly increasing")
    if w_span == 0:
        return int(ks[0]), True
    x = (ks - ks[0]) / k_span
    y = (ws - ws.min()) / w_span
    # Perpendicular distance from each point to the chord between endpoints.
    p0 = np.array([x[0], y[0]])
    p1 = np.array([x[-1], y[-1]])
    chord = p1 - p0
    rel = np.stack([x, y], axis=1) - p0
    cross = chord[0] * rel[:, 1] - chord[1] * rel[:, 0]
    dist = np.abs(cross) / np.linalg.norm(chord)
    best = int(np.argmax(dist))
    if dist[best] < KNEE_FLAT_TOL:
        return int(ks[0]), True
    return int(ks[best]), False


def create_clusters(positions: dict[int, tuple[float, float]], seed: int = 0,
                    restarts: int = DEFAULT_RESTARTS,
                    fixed_k: int | None = None) -> ClusterAssignment:
    """Full selection pipeline over a station_id -> (x, y) map.

    Without fixed_k, k is the knee of the WCSS curve over k = 1..min(10, n - 1),
    capped at the number of distinct points, and the curve is recorded. With
    fixed_k, only that k is fitted and the curve is left empty; each k's
    restarts are seeded by (seed, k, restart), so the fit is the one the curve
    would have held.
    """
    if not positions:
        raise ClusteringError("no positions given")
    ids = sorted(positions)
    points = _checked([positions[sid] for sid in ids], seed, restarts)
    distinct = np.unique(points, axis=0).shape[0]
    curve: list[tuple[int, float]] = []
    no_knee = False
    if fixed_k is not None:
        if not (1 <= fixed_k <= distinct):
            raise ClusteringError(
                f"fixed_k {fixed_k} not in [1, {distinct}] for this data")
        best = _best_kmeans(points, fixed_k, seed, restarts)
    else:
        k_max = max(1, min(10, len(ids) - 1, distinct))
        fits = [_best_kmeans(points, k, seed, restarts) for k in range(1, k_max + 1)]
        curve = _curve(fits)
        # a curve too short for a knee falls back to k = 1
        chosen, no_knee = knee_point(curve) if len(curve) >= 3 else (1, True)
        best = fits[chosen - 1]
    return ClusterAssignment(
        k=best.k, station_ids=ids, labels=best.labels, centroids=best.centroids,
        wcss=best.wcss, wcss_curve=curve, no_knee=no_knee,
        iteration_wcss=best.iteration_wcss)


def write_clusters(assignment: ClusterAssignment, path: str) -> None:
    payload = {
        "k": assignment.k,
        "no_knee": assignment.no_knee,
        "wcss": assignment.wcss,
        "wcss_curve": [[k, w] for k, w in assignment.wcss_curve],
        "centroids": [[float(x), float(y)] for x, y in assignment.centroids],
        "assignment": {str(sid): int(c)
                       for sid, c in zip(assignment.station_ids, assignment.labels)},
    }
    atomic_write_json(path, payload)


def read_clusters(path: str) -> ClusterAssignment:
    try:
        raw = load_json(path)
        assignment = json_id_object(raw, "assignment")
        ids = sorted(assignment)
        labels = np.array(json_ints([assignment[sid] for sid in ids], "label"),
                          dtype=np.intp)
        centroids = np.array(json_numbers(raw["centroids"], "centroids"), dtype=float)
        k = json_int(raw["k"], "k")
        result = ClusterAssignment(
            k=k, station_ids=ids, labels=labels, centroids=centroids,
            wcss=json_float(raw["wcss"], "wcss"),
            wcss_curve=[(json_int(k_, "wcss_curve k"), json_float(w, "wcss_curve wcss"))
                        for k_, w in raw["wcss_curve"]],
            no_knee=json_bool(raw["no_knee"], "no_knee"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ClusteringError(f"malformed clusters file {path}: {exc}") from exc
    if not (np.isfinite(centroids).all() and np.isfinite(result.wcss)):
        raise ClusteringError(f"clusters file {path}: non-finite centroid or wcss")
    if centroids.ndim != 2 or centroids.shape[1] != 2:
        raise ClusteringError(f"clusters file {path}: centroids are not (x, y) pairs")
    if centroids.shape[0] != k:
        raise ClusteringError(f"clusters file {path}: centroid count != k")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ClusteringError(f"clusters file {path}: label out of range")
    if np.unique(labels).size != k:
        raise ClusteringError(f"clusters file {path}: labels do not use every cluster "
                              f"0..{k - 1}")
    # As _curve writes it: k = 1, 2, ... and prefix minima of the WCSS.
    curve_wcss = np.array([w for _, w in result.wcss_curve])
    if [k_ for k_, _ in result.wcss_curve] != list(range(1, curve_wcss.size + 1)):
        raise ClusteringError(f"clusters file {path}: wcss_curve k does not run 1, 2, ...")
    if not (np.isfinite(curve_wcss).all() and (np.diff(curve_wcss) <= 0).all()):
        raise ClusteringError(
            f"clusters file {path}: wcss_curve is not finite and non-increasing")
    return result
