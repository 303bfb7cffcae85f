"""Per-station and aggregate delay, jitter, and throughput reporting.

Delay and jitter are in milliseconds, throughput in bytes per second.
Jitter is the mean absolute difference of consecutive end-to-end delays in
each station's delivery order; a station with a single delivery has jitter
0, and a station with no deliveries carries no metrics at all (absent, not
zero). Dropped packets are counted separately and never pollute delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MetricsError
from .ioutil import (atomic_write_json, atomic_write_text, json_bool, json_float,
                     json_id_object, load_json)
from .netsim import DELIVERED, MODES

METRIC_KEYS = ("delay_ms", "jitter_ms", "throughput_bps")


@dataclass(frozen=True)
class StationStats:
    station_id: int
    delivered: int
    dropped: int
    delivered_bytes: int
    delay_ms: float | None
    jitter_ms: float | None
    throughput_bps: float | None


@dataclass
class RunReport:
    duration: float
    stations: dict[int, StationStats]
    aggregates: dict[str, dict[str, float | None]]
    mode: str
    clustering: bool

    def label(self) -> str:
        return f"{self.mode}-{'clustered' if self.clustering else 'nonclustered'}"


@dataclass
class Comparison:
    label_a: str
    label_b: str
    means: dict[str, tuple[float | None, float | None]]
    percent: dict[str, float | None]
    zero_base: dict[str, bool]
    raw_diff: dict[str, float | None]
    per_station: dict[int, dict[str, float | None]]


def aggregate_stats(stations: dict[int, StationStats]) -> dict[str, dict[str, float | None]]:
    """Unweighted mean and population std across stations, skipping absent,
    reduced in id order so read_report recomputes the same floats."""
    ordered = [stations[sid] for sid in sorted(stations)]
    out = {}
    for key in METRIC_KEYS:
        arr = np.array([v for s in ordered if (v := getattr(s, key)) is not None],
                       dtype=float)
        out[key] = ({"mean": float(arr.mean()), "std": float(arr.std()), "count": arr.size}
                    if arr.size else {"mean": None, "std": None, "count": 0})
    out["dropped"] = {"mean": None, "std": None,
                      "count": int(sum(s.dropped for s in stations.values()))}
    return out


def compute_report(result, duration: float, mode: str, clustering: bool) -> RunReport:
    """Fold a netsim.SimResult into a per-station report of the scenario run
    in mode (one of netsim.MODES) with clustering on or off.

    duration is the shared measurement window used for throughput; using one
    value across scenarios keeps their throughputs comparable.
    """
    if duration <= 0:
        raise MetricsError(f"duration must be > 0, got {duration}")
    sids, which = np.unique(result.src, return_inverse=True)
    done = result.outcome == DELIVERED
    dropped = np.bincount(which[~done], minlength=sids.size)
    # each station's deliveries, in (delivery_time, packet_id) order
    station, when = which[done], result.delivery_time[done]
    order = np.lexsort((result.packet_id[done], when, station))
    delays = ((when - result.send_time[done]) * 1e3)[order]
    sizes = result.size[done][order]
    counts = np.bincount(station, minlength=sids.size)
    starts = np.cumsum(counts) - counts
    # Stations with equal counts reduce as rows of one (stations, count)
    # block, each row summed as np.mean sums a 1-D array, float for float.
    delay_ms, jitter_ms = np.zeros(sids.size), np.zeros(sids.size)
    nbytes = np.zeros(sids.size, dtype=np.int64)
    for count in np.unique(counts[counts > 0]).tolist():
        group = np.flatnonzero(counts == count)
        rows = starts[group, None] + np.arange(count)
        block = delays[rows]
        delay_ms[group] = block.mean(axis=1)
        nbytes[group] = sizes[rows].sum(axis=1)
        if count > 1:
            jitter_ms[group] = np.abs(np.diff(block, axis=1)).mean(axis=1)

    stations = {sid: StationStats(sid, n, lost, nb, delay, jitter, nb / duration) if n
                else StationStats(sid, 0, lost, 0, None, None, None)
                for sid, n, lost, nb, delay, jitter in zip(
                    sids.tolist(), counts.tolist(), dropped.tolist(), nbytes.tolist(),
                    delay_ms.tolist(), jitter_ms.tolist())}
    return RunReport(duration=duration, stations=stations,
                     aggregates=aggregate_stats(stations),
                     mode=mode, clustering=clustering)


def _pct(a: float | None, b: float | None):
    """Signed percent change and a flag for an unusable zero base."""
    if a is None or b is None:
        return None, False
    if a == 0:
        return None, True
    return 100.0 * (b - a) / a, False


def compare(a: RunReport, b: RunReport) -> Comparison:
    if set(a.stations) != set(b.stations):
        raise MetricsError("reports cover different station sets")
    means: dict[str, tuple[float | None, float | None]] = {}
    percent: dict[str, float | None] = {}
    zero_base: dict[str, bool] = {}
    raw_diff: dict[str, float | None] = {}
    for key in METRIC_KEYS:
        ma = a.aggregates[key]["mean"]
        mb = b.aggregates[key]["mean"]
        means[key] = (ma, mb)
        percent[key], zero_base[key] = _pct(ma, mb)
        raw_diff[key] = None if ma is None or mb is None else mb - ma
    per_station: dict[int, dict[str, float | None]] = {}
    for sid in sorted(a.stations):
        row: dict[str, float | None] = {}
        for key in METRIC_KEYS:
            row[key], _ = _pct(getattr(a.stations[sid], key), getattr(b.stations[sid], key))
        per_station[sid] = row
    return Comparison(label_a=a.label(), label_b=b.label(), means=means,
                      percent=percent, zero_base=zero_base, raw_diff=raw_diff,
                      per_station=per_station)


_STATS_KEYS = ("delivered", "dropped", "delivered_bytes", "delay_ms", "jitter_ms",
               "throughput_bps")  # report.json's per-station fields, in file order


def csv_cell(v) -> str:
    """One CSV cell: a missing metric is empty, a number its repr."""
    return "" if v is None else repr(v)


def write_report(report: RunReport, csv_path: str, json_path: str) -> None:
    lines = ["station_id,delay_ms,jitter_ms,throughput_bps,delivered,dropped"]
    for sid in sorted(report.stations):
        s = report.stations[sid]
        lines.append(f"{sid},{csv_cell(s.delay_ms)},{csv_cell(s.jitter_ms)},"
                     f"{csv_cell(s.throughput_bps)},{s.delivered},{s.dropped}")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")

    payload = {
        "mode": report.mode,
        "clustering": report.clustering,
        "duration": report.duration,
        "aggregates": report.aggregates,
        "stations": {str(sid): {k: getattr(s, k) for k in _STATS_KEYS}
                     for sid, s in sorted(report.stations.items())},
    }
    atomic_write_json(json_path, payload)


def read_report(json_path: str) -> RunReport:
    try:
        raw = load_json(json_path)
        stations = {sid: StationStats(sid, **{k: s[k] for k in _STATS_KEYS})
                    for sid, s in json_id_object(raw, "stations").items()}
        for s in stations.values():
            if not all(type(n) is int for n in (s.delivered, s.dropped, s.delivered_bytes)):
                raise ValueError(f"station {s.station_id} counts are not all whole numbers")
            for key in METRIC_KEYS:
                if getattr(s, key) is not None:
                    json_float(getattr(s, key), f"station {s.station_id} {key}")
        mode = raw["mode"]
        if mode not in MODES:
            raise ValueError(f"mode {mode!r} is not one of {MODES}")
        clustering = json_bool(raw["clustering"], "clustering")
        aggregates = aggregate_stats(stations)
        if raw["aggregates"] != aggregates:
            raise ValueError("aggregates differ from those of the stations")
        return RunReport(
            duration=json_float(raw["duration"], "duration"), stations=stations,
            aggregates=aggregates, mode=mode, clustering=clustering)
    except (KeyError, TypeError, ValueError) as exc:
        raise MetricsError(f"malformed report file {json_path}: {exc}") from exc


def write_comparison(comparisons: list[Comparison], path: str) -> None:
    payload = []
    for c in comparisons:
        payload.append({
            "a": c.label_a,
            "b": c.label_b,
            "means": {k: list(v) for k, v in c.means.items()},
            "percent": c.percent,
            "zero_base": c.zero_base,
            "raw_diff": c.raw_diff,
            "per_station": {str(sid): row for sid, row in c.per_station.items()},
        })
    atomic_write_json(path, {"comparisons": payload})
