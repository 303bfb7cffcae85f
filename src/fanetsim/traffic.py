"""Synthetic UDP-style traffic: per-station packet flows.

Packet sizes are normal draws rounded to whole bytes and redrawn until they
fall inside [min_size, max_size]; inter-arrival gaps are exponential. Every
station consumes an independent RNG substream keyed by (seed, station_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ioutil import atomic_write_text

_MAX_REDRAW_PASSES = 1000


@dataclass(frozen=True)
class TrafficParams:
    mean_size: float = 1024.0
    size_sigma: float = 256.0
    min_size: int = 256
    max_size: int = 2048
    mean_interarrival: float = 0.030
    packets_per_station: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.size_sigma < 0:
            raise ConfigError(f"size_sigma must be >= 0, got {self.size_sigma}")
        if not (0 < self.min_size <= self.max_size):
            raise ConfigError(f"bad size bounds [{self.min_size}, {self.max_size}]")
        if not (self.min_size <= self.mean_size <= self.max_size):
            raise ConfigError(
                f"mean_size {self.mean_size} outside [{self.min_size}, {self.max_size}]")
        if self.mean_interarrival <= 0:
            raise ConfigError(f"mean_interarrival must be > 0, got {self.mean_interarrival}")
        if self.packets_per_station < 0:
            raise ConfigError(f"packets_per_station must be >= 0, got {self.packets_per_station}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Packet:
    packet_id: int
    src: int
    size: int
    creation_time: float


def packet_id(station_id: int, index: int) -> int:
    """Globally unique packet id: station and per-flow sequence combined."""
    return station_id * 1_000_000 + index


def _draw_sizes(rng: np.random.Generator, params: TrafficParams, n: int) -> np.ndarray:
    if params.size_sigma == 0:
        return np.full(n, int(round(params.mean_size)), dtype=np.int64)
    sizes = np.rint(rng.normal(params.mean_size, params.size_sigma, n)).astype(np.int64)
    for _ in range(_MAX_REDRAW_PASSES):
        bad = (sizes < params.min_size) | (sizes > params.max_size)
        if not bad.any():
            return sizes
        sizes[bad] = np.rint(
            rng.normal(params.mean_size, params.size_sigma, int(bad.sum()))).astype(np.int64)
    raise ConfigError("packet size bounds reject nearly every draw; widen them")


def generate_flow(station_id: int, params: TrafficParams, seed: int | None = None) -> list[Packet]:
    """Deterministic flow for one station.

    The station substream hashes (seed, station_id), so flows are independent
    of each other and of how many stations exist. Sizes are drawn first, then
    inter-arrival gaps; creation times are the gap cumulative sum.
    """
    if station_id < 0:
        raise ConfigError(f"station_id must be >= 0, got {station_id}")
    master = params.seed if seed is None else seed
    rng = np.random.default_rng([master, station_id])
    n = params.packets_per_station
    sizes = _draw_sizes(rng, params, n)
    gaps = rng.exponential(params.mean_interarrival, n)
    times = np.cumsum(gaps)
    return [
        Packet(packet_id(station_id, i), station_id, int(sizes[i]), float(times[i]))
        for i in range(n)
    ]


def generate_workload(station_ids, params: TrafficParams, seed: int | None = None) -> list[Packet]:
    """Flows for every station, merged and sorted by (creation_time, id)."""
    ids = sorted(station_ids)
    if not ids:
        raise ConfigError("no stations to generate traffic for")
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate station ids in workload")
    packets: list[Packet] = []
    for sid in ids:
        packets.extend(generate_flow(sid, params, seed))
    packets.sort(key=lambda p: (p.creation_time, p.packet_id))
    return packets


def write_packets(packets: list[Packet], path: str) -> None:
    lines = ["packet_id,src,size,creation_time"]
    for p in packets:
        lines.append(f"{p.packet_id},{p.src},{p.size},{p.creation_time!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_packets(path: str) -> list[Packet]:
    packets = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "packet_id,src,size,creation_time":
            raise ConfigError(f"{path}: unexpected workload header: {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.strip()
            if not raw:
                continue
            try:
                pid, src, size, t = raw.split(",")
                pkt = Packet(int(pid), int(src), int(size), float(t))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed workload row {raw!r}") from exc
            if not math.isfinite(pkt.creation_time):
                raise ConfigError(
                    f"{path}:{lineno}: non-finite creation_time in row {raw!r}")
            packets.append(pkt)
    return packets
