"""The k-means loop as it was before the column kernel, kept as the oracle.

`kmeans`, `_best_kmeans`, `elbow_curve` and `create_clusters` below are the
broadcast Lloyd loop of fanetsim.clustering before it moved to per-column
distances and bincount centroids: every distance is an axis-2 sum over an
(n, k, 2) broadcast, every centroid a masked mean, and every run checks for
distinct points itself. The helpers they call are the package's own, which
did not change. The package must agree with this module bit for bit.
"""

from __future__ import annotations

import numpy as np

from fanetsim.clustering import (
    DEFAULT_RESTARTS,
    MAX_ITERS as DEFAULT_MAX_ITERS,
    TOL as DEFAULT_TOL,
    ClusterAssignment,
    _init_plusplus,
    _repair_empty,
    _sse,
    knee_point,
)
from fanetsim.errors import ClusteringError


def kmeans(points, k: int, seed=0,
           max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL,
           rng: np.random.Generator | None = None) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, single run.

    Nearest-centroid ties go to the lowest cluster index; the WCSS recorded
    after every assignment pass is non-increasing, which the tests rely on.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if np.unique(points, axis=0).shape[0] < k:
        raise ClusteringError(f"fewer than {k} distinct points")
    if rng is None:
        rng = np.random.default_rng(seed)

    centroids = _init_plusplus(points, k, rng)
    labels = np.zeros(n, dtype=np.intp)
    iteration_wcss: list[float] = []
    for _ in range(max_iters):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            _repair_empty(points, labels, centroids, counts)
        iteration_wcss.append(_sse(points, labels, centroids))
        new_centroids = np.empty_like(centroids)
        for c in range(k):
            new_centroids[c] = points[labels == c].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    wcss = _sse(points, labels, centroids)
    return ClusterAssignment(
        k=k, station_ids=list(range(n)), labels=labels, centroids=centroids,
        wcss=wcss, iteration_wcss=iteration_wcss)


def _best_kmeans(points, k: int, seed: int, restarts: int,
                 max_iters: int = DEFAULT_MAX_ITERS,
                 tol: float = DEFAULT_TOL) -> ClusterAssignment:
    """Best of `restarts` independent runs, ranked by (wcss, restart index)."""
    best: ClusterAssignment | None = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k, r]))
        cand = kmeans(points, k, max_iters=max_iters, tol=tol, rng=rng)
        if best is None or cand.wcss < best.wcss:
            best = cand
    assert best is not None
    return best


def elbow_curve(points, k_max: int, seed: int = 0,
                restarts: int = DEFAULT_RESTARTS) -> list[tuple[int, float]]:
    """Best-of-restarts WCSS for k = 1..k_max.

    Prefix minima are applied afterwards so the curve is non-increasing even
    when a larger k lands in a worse local optimum than a smaller one.
    """
    points = np.asarray(points, dtype=float)
    distinct = np.unique(points, axis=0).shape[0]
    if k_max < 1:
        raise ClusteringError(f"k_max must be >= 1, got {k_max}")
    if k_max > distinct:
        raise ClusteringError(f"k_max {k_max} exceeds {distinct} distinct points")
    wcss = np.array([
        _best_kmeans(points, k, seed, restarts).wcss for k in range(1, k_max + 1)])
    wcss = np.minimum.accumulate(wcss)
    return [(k, float(w)) for k, w in zip(range(1, k_max + 1), wcss)]



def create_clusters(positions: dict[int, tuple[float, float]],
                    k_max: int | None = None, seed: int = 0,
                    restarts: int = DEFAULT_RESTARTS,
                    fixed_k: int | None = None) -> ClusterAssignment:
    """Full selection pipeline over a station_id -> (x, y) map.

    The WCSS curve is always computed and recorded, even when fixed_k pins
    the final cluster count, so reports can show it either way.
    """
    if not positions:
        raise ClusteringError("no positions given")
    ids = sorted(positions)
    points = np.array([positions[sid] for sid in ids], dtype=float)
    if not np.isfinite(points).all():
        raise ClusteringError("positions must be finite")
    n = len(ids)
    distinct = np.unique(points, axis=0).shape[0]
    if k_max is None:
        k_max = min(10, n - 1) if n > 1 else 1
    k_max = max(1, min(k_max, distinct))

    curve = elbow_curve(points, k_max, seed=seed, restarts=restarts)
    no_knee = False
    if fixed_k is not None:
        if not (1 <= fixed_k <= distinct):
            raise ClusteringError(
                f"fixed_k {fixed_k} not in [1, {distinct}] for this data")
        chosen = fixed_k
    elif len(curve) < 3:
        chosen, no_knee = curve[0][0], True
    else:
        chosen, no_knee = knee_point(curve)

    best = _best_kmeans(points, chosen, seed, restarts)
    return ClusterAssignment(
        k=chosen, station_ids=ids, labels=best.labels, centroids=best.centroids,
        wcss=best.wcss, wcss_curve=curve, no_knee=no_knee,
        iteration_wcss=best.iteration_wcss)
