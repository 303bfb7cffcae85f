"""Cluster-head election.

Candidates are ranked from per-candidate sums of pairwise distance and
received power, all computed by one row-blocked kernel (_pairwise_sums). Four
routes to a head are provided and cross-checked in tests: the heuristic mean
power-minus-distance score, exact enumeration of the weighted objective, a
normalized weight sweep, and a k-nearest-neighbor approximation that scores
each candidate against only its local neighborhood. All but the sweep score
candidates with head_objective.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BenchmarkError, SelectionError
from .ioutil import (atomic_write_json, atomic_write_text, json_int, json_ints, json_numbers,
                     json_id_object, load_json)
from .spatial import KDTree

PATH_LOSS_EXPONENT = 2.0
REFERENCE_DISTANCE_M = 1.0
MIN_BASE_POWER_DBM = 60.0
MAX_BASE_POWER_DBM = 80.0


@dataclass(frozen=True)
class StationRadio:
    station_id: int
    position: tuple[float, float]
    base_power: float

    def __post_init__(self):
        x, y = self.position
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(self.base_power)):
            raise SelectionError(
                f"station {self.station_id} has a non-finite position "
                f"{tuple(self.position)!r} or base power {self.base_power!r}")


@dataclass(frozen=True)
class PairwiseSums:
    """Sums over j != i of distance and received power per candidate i, and
    the (min, max) of each table off its diagonal ((inf, -inf) for one
    station). Entries follow station_ids, sorted ascending, so numpy's
    first-occurrence argmin/argmax gives the lowest-id tie-break for free.
    """
    station_ids: list[int]
    d_sum: np.ndarray
    p_sum: np.ndarray
    d_range: tuple[float, float]
    p_range: tuple[float, float]

    @property
    def size(self) -> int:
        return len(self.station_ids)


@dataclass(frozen=True)
class ClusterHead:
    cluster: int
    head_id: int
    member_ids: list[int]
    scores: list[float]


@dataclass(frozen=True)
class HeadSelection:
    heads: dict[int, ClusterHead]

    def head_ids(self) -> dict[int, int]:
        return {c: ch.head_id for c, ch in self.heads.items()}


@dataclass(frozen=True)
class WeightSweep:
    w_grid: np.ndarray
    objectives: np.ndarray
    argmin_ids: list[int]
    dist_sum: np.ndarray
    power_sum: np.ndarray


def _path_loss(d: np.ndarray) -> np.ndarray:
    """Log-distance path loss in dB, exponent 2, 1 m reference, written over
    the distances d. Distances under the reference clamp to it, so co-located
    stations see the transmitter's base power unattenuated."""
    np.maximum(d, REFERENCE_DISTANCE_M, out=d)
    d /= REFERENCE_DISTANCE_M
    np.log10(d, out=d)
    d *= 10.0 * PATH_LOSS_EXPONENT
    return d


def received_power(tx: StationRadio, rx: StationRadio) -> float:
    """The power rx receives from tx: tx's base power less the path loss."""
    d = math.hypot(tx.position[0] - rx.position[0], tx.position[1] - rx.position[1])
    return tx.base_power - float(_path_loss(np.array([d]))[0])


def _pairwise_sums(ids: list[int], pos: np.ndarray, power: np.ndarray) -> PairwiseSums:
    """The one place pairwise distance and received power (as received_power,
    candidate i transmitting) are computed. The tables are built 4 MiB of
    rows at a time (724 stations fit in one block), each block reduced to
    row sums and off-diagonal ranges, so memory beyond a block is O(M).
    """
    m = pos.shape[0]
    sq = np.sum(pos * pos, axis=1)
    d_sum, p_sum = np.empty(m), np.empty(m)
    d_range = p_range = (math.inf, -math.inf)
    step = max(1, (4 * 1024 * 1024) // (8 * m))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        t = sq[lo:hi, None] + sq[None, :] - 2.0 * (pos[lo:hi] @ pos.T)
        np.maximum(t, 0.0, out=t)
        np.sqrt(t, out=t)
        diag = t.reshape(-1)[lo::m + 1]  # entries (i, lo + i): the j == i terms
        diag[:] = 0.0
        d_sum[lo:hi] = t.sum(axis=1)
        d_range = _fold_offdiag_range(t, diag, d_range)
        np.subtract(power[lo:hi, None], _path_loss(t), out=t)
        p_range = _fold_offdiag_range(t, diag, p_range)
        diag[:] = 0.0
        p_sum[lo:hi] = t.sum(axis=1)
    return PairwiseSums(station_ids=ids, d_sum=d_sum, p_sum=p_sum,
                        d_range=d_range, p_range=p_range)


def _fold_offdiag_range(block: np.ndarray, diag: np.ndarray, running):
    """Widen running (min, max) by block's entries off diag (left at -inf)."""
    diag[:] = math.inf
    lo = min(running[0], float(block.min()))
    diag[:] = -math.inf
    return lo, max(running[1], float(block.max()))


def _member_arrays(members: list[StationRadio]):
    """A cluster's (ids, positions, base powers) in ascending id order; an
    empty cluster or a repeated station id is rejected."""
    if not members:
        raise SelectionError("empty cluster")
    members = sorted(members, key=lambda m: m.station_id)
    ids = [m.station_id for m in members]
    if len(set(ids)) != len(ids):
        raise SelectionError("duplicate station_id in cluster")
    pos = np.array([m.position for m in members], dtype=float)
    power = np.array([m.base_power for m in members], dtype=float)
    return ids, pos, power


def build_pairwise(members: list[StationRadio]) -> PairwiseSums:
    """Pairwise sums and ranges for one cluster; O(M^2) time, O(M) space."""
    return _pairwise_sums(*_member_arrays(members))


def head_objective(d_sum, p_sum, w: float = 1.0):
    """The election objective to maximise from per-candidate sums over j != i
    of distance (d_sum) and received power (p_sum): w * p_sum - d_sum.

    select_heads, exact_head, knn_head and the scaling benchmark all score
    candidates through this one function.
    """
    return w * p_sum - d_sum


def heuristic_score(sums: PairwiseSums) -> np.ndarray:
    """Score_i = mean received power minus mean distance, over all j != i.

    Units are mixed on purpose (dBm minus meters); the normalized sweep below
    is the unit-free alternative. A singleton cluster scores [0.0].
    """
    m = sums.size
    if m == 1:
        return np.zeros(1)
    return head_objective(sums.d_sum, sums.p_sum) / (m - 1)


def select_heads(clusters: dict[int, list[int]],
                 radios: dict[int, StationRadio]) -> HeadSelection:
    """Highest heuristic score per cluster; ties go to the lowest station_id.

    clusters maps cluster -> member station ids. O(L * M^2) total work, O(M)
    extra space.
    """
    selection = HeadSelection(heads={})
    for cluster in sorted(clusters):
        member_ids = sorted(clusters[cluster])
        if not member_ids:
            raise SelectionError(f"cluster {cluster} is empty")
        try:
            members = [radios[sid] for sid in member_ids]
        except KeyError as exc:
            raise SelectionError(f"no radio for station {exc.args[0]}") from exc
        sums = build_pairwise(members)
        scores = heuristic_score(sums)
        head_id = sums.station_ids[int(np.argmax(scores))]
        selection.heads[cluster] = ClusterHead(cluster=cluster, head_id=head_id,
                                               member_ids=sums.station_ids,
                                               scores=[float(s) for s in scores])
    return selection


def exact_head(sums: PairwiseSums, w: float) -> int:
    """Exhaustive maximum of w * sum(p_ij) - sum(d_ij) over candidates i.

    The one-head constraint makes candidate enumeration exact, so this is the
    reference answer the other selectors are tested against.
    """
    if sums.size < 1:
        raise SelectionError("empty cluster")
    if w < 0:
        raise SelectionError(f"w must be >= 0, got {w}")
    objective = head_objective(sums.d_sum, sums.p_sum, w)
    return sums.station_ids[int(np.argmax(objective))]


def _normalized_sum(total: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Row sums of a table min-max normalized off its diagonal to [0, 1] (a
    constant table to zeros), from its raw row sums and off-diagonal range."""
    return (total - (total.size - 1) * lo) / (hi - lo) if hi > lo else np.zeros(total.size)


def weight_sweep(sums: PairwiseSums, grid_size: int = 11,
                 mode: str = "literal") -> WeightSweep:
    """Trade-off analysis on normalized tables over a uniform w grid in [0,1].

    literal mode: J_i(w) = sum d~ - w * sum p~ (the distance term never
    leaves). convex mode: (1-w) sum d~ - w sum p~, which reaches pure
    power selection at w=1. Both are affine in w per candidate.
    """
    if sums.size < 2:
        raise SelectionError("weight sweep needs at least 2 stations")
    if grid_size < 2:
        raise SelectionError(f"grid_size must be >= 2, got {grid_size}")
    if mode not in ("literal", "convex"):
        raise SelectionError(f"unknown sweep mode {mode!r}")
    a = _normalized_sum(sums.d_sum, *sums.d_range)
    b = _normalized_sum(sums.p_sum, *sums.p_range)
    w_grid = np.linspace(0.0, 1.0, grid_size)
    if mode == "literal":
        objectives = a[None, :] - w_grid[:, None] * b[None, :]
    else:
        objectives = (1.0 - w_grid[:, None]) * a[None, :] - w_grid[:, None] * b[None, :]
    argmin_ids = [sums.station_ids[int(np.argmin(row))] for row in objectives]
    return WeightSweep(w_grid=w_grid, objectives=objectives,
                       argmin_ids=argmin_ids, dist_sum=a, power_sum=b)


def knn_head(members: list[StationRadio], k: int = 1) -> int:
    """Heuristic score restricted to each candidate's k nearest neighbors.

    Replaces the all-pairs sums with a k-d tree, so per cluster the work
    trends toward O(M log M + k M). k = M-1 degenerates to the full score
    and must agree with select_heads exactly.
    """
    ids, pos, power = _member_arrays(members)
    if not 1 <= k <= len(ids) - 1:
        raise SelectionError(f"k must be in [1, {len(ids) - 1}], got {k}")
    return ids[_knn_best(pos, power, k)]


def _knn_best(pos: np.ndarray, power: np.ndarray, k: int) -> int:
    """Index of the best candidate when each one is scored against its k
    nearest neighbors only; the first of equal scores wins."""
    tree = KDTree(pos)
    dist = np.array([[d for d, _ in tree.query(pos[i], k, exclude=i)]
                     for i in range(pos.shape[0])])
    d_sum = dist.sum(axis=1)
    p_sum = np.subtract(power[:, None], _path_loss(dist), out=dist).sum(axis=1)
    return int(np.argmax(head_objective(d_sum, p_sum) / k))


# --- scaling benchmark ---------------------------------------------------

BENCH_MIN_M = 64


@dataclass
class BenchResult:
    rows: list[tuple[str, int, int]]
    slopes: dict[str, float]
    reference: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    k: int = 16


def _random_instance(m: int, seed: int):
    rng = np.random.default_rng([seed, m])
    pos = rng.uniform(0.0, 500.0, size=(m, 2))
    power = rng.uniform(MIN_BASE_POWER_DBM, MAX_BASE_POWER_DBM, size=m)
    return pos, power


def _fit_slope(ms: list[int], times_ns: list[int]) -> float:
    xs = np.log(np.array(ms, dtype=float))
    ys = np.log(np.array(times_ns, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def bench_ch(m_values: list[int], repetitions: int = 5, k: int = 16,
             seed: int = 0) -> BenchResult:
    """Median CPU time of both selector variants as cluster size grows.

    The all-pairs series times the election's own kernel (_pairwise_sums)
    and its argmax; the kNN series times the k-d tree selector. Samples are
    the calling thread's CPU time, without BLAS worker threads, so host load
    does not stretch them as it stretches wall time.

    Also emits analytic reference series (values are log10 of nanoseconds,
    anchored at the first measured point) for growth-rate comparison plots:
    quadratic all-pairs and M log M + kM.
    """
    ms = sorted(set(int(m) for m in m_values))
    if len(ms) < 3:
        raise BenchmarkError(f"need >= 3 distinct M values, got {len(ms)}")
    if ms[0] < BENCH_MIN_M:
        raise BenchmarkError(f"M values must be >= {BENCH_MIN_M}, got {ms[0]}")
    if repetitions < 1:
        raise BenchmarkError(f"repetitions must be >= 1, got {repetitions}")

    rows: list[tuple[str, int, int]] = []
    med: dict[str, list[int]] = {"pairwise": [], "knn": []}
    for m in ms:
        if k >= m:
            raise BenchmarkError(f"k={k} must be < M={m}")
        pos, power = _random_instance(m, seed)
        ids = list(range(m))
        for method, fn in (
                ("pairwise", lambda: exact_head(_pairwise_sums(ids, pos, power), 1.0)),
                ("knn", lambda: _knn_best(pos, power, k))):
            fn()
            samples = []
            for _ in range(repetitions):
                t0 = time.thread_time_ns()
                fn()
                samples.append(time.thread_time_ns() - t0)
            m_ns = int(statistics.median(samples))
            rows.append((method, m, m_ns))
            med[method].append(m_ns)

    slopes = {name: _fit_slope(ms, series) for name, series in med.items()}

    m0 = ms[0]
    pair0 = float(med["pairwise"][0])
    knn0 = float(med["knn"][0])

    def _mlogm(m: int) -> float:
        return m * math.log(m) + k * m

    reference = {
        "ref_quadratic": [
            (m, math.log10(pair0) + 2.0 * math.log10(m / m0)) for m in ms],
        "ref_mlogm_kM": [
            (m, math.log10(knn0) + math.log10(_mlogm(m) / _mlogm(m0))) for m in ms],
    }
    return BenchResult(rows=rows, slopes=slopes, reference=reference, k=k)


def write_bench(result: BenchResult, path: str) -> None:
    lines = ["method,M,median_ns"]
    for method, m, ns in result.rows:
        lines.append(f"{method},{m},{ns}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_bench_refs(result: BenchResult, path: str) -> None:
    lines = ["series,M,log10_ns"]
    for series in sorted(result.reference):
        for m, v in result.reference[series]:
            lines.append(f"{series},{m},{v!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_heads(selection: HeadSelection, path: str) -> None:
    payload = {
        "clusters": {
            str(c): {
                "head_id": ch.head_id,
                "member_ids": ch.member_ids,
                "scores": ch.scores,
            }
            for c, ch in sorted(selection.heads.items())
        }
    }
    atomic_write_json(path, payload)


def read_heads(path: str) -> HeadSelection:
    try:
        raw = load_json(path)
        heads = {}
        for c, entry in json_id_object(raw, "clusters").items():
            heads[c] = ClusterHead(
                cluster=c, head_id=json_int(entry["head_id"], "head_id"),
                member_ids=json_ints(entry["member_ids"], "member_ids"),
                scores=[float(s) for s in json_numbers(entry["scores"], "scores")])
    except (KeyError, TypeError, ValueError) as exc:
        raise SelectionError(f"malformed heads file {path}: {exc}") from exc
    for ch in heads.values():
        if ch.head_id not in ch.member_ids:
            raise SelectionError(
                f"heads file {path}: head {ch.head_id} not in cluster {ch.cluster}")
        if len(ch.scores) != len(ch.member_ids):
            raise SelectionError(
                f"heads file {path}: cluster {ch.cluster} has {len(ch.scores)} "
                f"scores for {len(ch.member_ids)} members")
    return HeadSelection(heads=heads)
