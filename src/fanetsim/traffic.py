"""Synthetic UDP-style traffic: per-station packet flows.

Packet sizes are normal draws rounded to whole bytes and redrawn until they
fall inside [min_size, max_size]; inter-arrival gaps are exponential. Every
station consumes an independent RNG substream keyed by (seed, station_id).

A workload is one structured array of PACKET_DTYPE, one row per packet,
ordered by (creation_time, packet_id). generate_flow returns one station's
flow as Packet objects; as_workload turns such a list into a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_MAX_REDRAW_PASSES = 1000
# packet_id packs (station_id, index) into one int64: a flow holds at most
# PACKET_ID_STRIDE packets, and station ids stop at MAX_STATION_ID.
PACKET_ID_STRIDE = 1_000_000
MAX_STATION_ID = (np.iinfo(np.int64).max - (PACKET_ID_STRIDE - 1)) // PACKET_ID_STRIDE
PACKET_DTYPE = np.dtype([("packet_id", np.int64), ("src", np.int64),
                         ("size", np.int64), ("creation_time", np.float64)])


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
        if not 0 <= self.packets_per_station <= PACKET_ID_STRIDE:
            raise ConfigError(f"packets_per_station must be in [0, {PACKET_ID_STRIDE}], "
                              f"got {self.packets_per_station}")
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
    return station_id * PACKET_ID_STRIDE + index


def _draw_flows(ids: list[int], params: TrafficParams) -> tuple[np.ndarray, np.ndarray]:
    """Packet sizes and inter-arrival gaps, one (stations, packets) row per
    id. Each station draws from its own substream: its sizes, the redraws of
    any outside the bounds, then its gaps."""
    if min(ids) < 0:
        raise ConfigError(f"station_id must be >= 0, got {min(ids)}")
    rngs = [np.random.default_rng([params.seed, sid]) for sid in ids]
    n = params.packets_per_station
    if params.size_sigma == 0:
        sizes = np.full((len(ids), n), int(round(params.mean_size)), dtype=np.int64)
    else:
        sizes = np.rint(np.array([rng.normal(params.mean_size, params.size_sigma, n)
                                  for rng in rngs])).astype(np.int64)
        outside = (sizes < params.min_size) | (sizes > params.max_size)
        for k in np.flatnonzero(outside.any(axis=1)):
            for _ in range(_MAX_REDRAW_PASSES):
                bad = (sizes[k] < params.min_size) | (sizes[k] > params.max_size)
                if not bad.any():
                    break
                sizes[k, bad] = np.rint(rngs[k].normal(
                    params.mean_size, params.size_sigma, int(bad.sum()))).astype(np.int64)
            else:
                raise ConfigError("packet size bounds reject nearly every draw; widen them")
    gaps = np.array([rng.exponential(params.mean_interarrival, n) for rng in rngs])
    return sizes, gaps


def generate_flow(station_id: int, params: TrafficParams) -> list[Packet]:
    """One station's rows of generate_workload, as Packets. The station's
    substream hashes (params.seed, station_id), so its flow does not depend
    on which other stations exist."""
    return [Packet(*row) for row in generate_workload([station_id], params).tolist()]


def generate_workload(station_ids, params: TrafficParams) -> np.ndarray:
    """Flows for every station in one PACKET_DTYPE table, sorted by
    (creation_time, packet_id)."""
    ids = sorted(station_ids)
    if not ids:
        raise ConfigError("no stations to generate traffic for")
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate station ids in workload")
    n = params.packets_per_station
    sizes, gaps = _draw_flows(ids, params)
    # Row k holds station ids[k]'s flow, so the flat layout is in packet_id
    # order and a stable sort of creation times keeps that order among ties.
    created = np.cumsum(gaps, axis=1).ravel()
    order = np.argsort(created, kind="stable")
    src = np.repeat(np.array(ids, dtype=np.int64), n)[order]
    packets = np.empty(created.size, dtype=PACKET_DTYPE)
    packets["packet_id"] = packet_id(src, order % n)
    packets["src"] = src
    packets["size"] = sizes.ravel()[order]
    packets["creation_time"] = created[order]
    return packets


def as_workload(packets) -> np.ndarray:
    """The PACKET_DTYPE table of a Packet list, in list order; a table is
    returned as it is."""
    if isinstance(packets, np.ndarray):
        return packets
    return np.array([(p.packet_id, p.src, p.size, p.creation_time) for p in packets],
                    dtype=PACKET_DTYPE)
