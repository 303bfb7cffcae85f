"""Delivery simulation over four scenario topologies.

Stations upload packets to a server either directly or through their cluster
head. Every hop is served by the receiving side's channel: one shared air
channel when clustering is off, one channel per cluster plus a backbone when
it is on. Centralized runs use a single server (and a single backbone
channel); decentralized runs give every cluster its own server and its own
backbone channel. A channel transmits one packet at a time; others wait in a
bounded FIFO queue and are dropped on overflow. Hop latency is queue wait +
serialization + propagation + a fixed processing delay.

Engine. Every path is fixed and a hop only feeds the next hop's channel, so
the channels form a DAG (cluster channel -> backbone). run_sim maps each
source once to a route row of per-hop channel codes and propagation times,
then visits the channels in topological order and makes one pass over each:
it gathers the channel's arrivals as index columns, sorts them by time,
keeps the service ends of the packets it accepted in a FIFO, drops an
arrival when that FIFO already holds the packet in service plus
queue_capacity waiting ones, and starts service at the arrival when the
channel is idle or else at the service end of the packet before it
(end = start + size * 8.0 / bitrate). Only that FIFO walk runs per packet in
Python; queue drops, forwarding and deliveries are written as numpy columns
after it. A service end at or before the horizon forwards the packet to the
next channel, or delivers it, at (end + distance / propagation_speed) +
processing_delay.

Tie rule. Simultaneous events are resolved as in a discrete-event engine
that pops one global heap by (time, push sequence), starting from every
packet's creation-time arrival pushed in workload order. That order equals
comparing the event keys (time, key of the event that scheduled it,
sub-order), where creation-time arrivals have no parent and sort before every
other event at the same time, in workload order; an arrival that finds the
channel idle schedules its service end (sub-order 0); a service end
schedules the packet's next arrival or its delivery (sub-order 0) and then
the next queued packet's service end (sub-order 1). There are no event
columns: the parent chain is rebuilt from three per-hop columns (arrival
time, service end, and the packet whose service end it queued behind, or
none when the channel was idle), and it is only walked for exactly equal
times.

Horizon. Events at t <= horizon happen. A packet whose arrival, service end
or delivery falls later is dropped with reason "horizon"; its path runs up
to the sender of the hop it was on, so a late delivery keeps all but the
server.

Columns. run_sim reads a traffic.PACKET_DTYPE table and returns a SimResult,
one column per field; DeliveryRecord rows exist only while it is read.
write_records streams records.csv from those columns a block of rows at a
time.
"""

from __future__ import annotations

import functools
import graphlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError, TopologyError
from .headselect import MAX_BASE_POWER_DBM, MIN_BASE_POWER_DBM
from .ioutil import atomic_open
from .mobility import ArenaConfig
from .traffic import TrafficParams, as_workload

MODES = ("centralized", "decentralized")
LIGHT_SPEED_M_S = 3.0e8
# Codes of SimResult.outcome; a dropped packet's code indexes its reason.
OUTCOMES = ("horizon", "queue", "delivered")
_HORIZON, _QUEUE, DELIVERED = range(3)
# Arrivals a channel serves per block of Python floats; bounds the sweep's
# scratch memory.
_BLOCK = 2048
# Rows of records.csv formatted per write.
_RECORD_BLOCK = 4096


@dataclass(frozen=True)
class TopologyConfig:
    mode: str = "centralized"
    clustering: bool = True
    link_bitrate: float = 10e6
    backbone_bitrate: float = 50e6
    propagation_speed: float = LIGHT_SPEED_M_S
    processing_delay: float = 1e-4
    queue_capacity: int = 3
    radio_range: float = 500.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.link_bitrate <= 0 or self.backbone_bitrate <= 0:
            raise ConfigError("bitrates must be > 0")
        if self.propagation_speed <= 0:
            raise ConfigError("propagation_speed must be > 0")
        if self.processing_delay < 0:
            raise ConfigError("processing_delay must be >= 0")
        if self.queue_capacity < 0:
            raise ConfigError("queue_capacity must be >= 0")
        if self.radio_range <= 0:
            raise ConfigError("radio_range must be > 0")

    @property
    def needs_clusters(self) -> bool:
        """Clustered runs route through clusters; decentralized runs place
        one server per cluster."""
        return self.clustering or self.mode == "decentralized"


@dataclass(frozen=True)
class SimConfig:
    """Scenario parameter sheet, echoed into config_echo.ini (not into reports)."""
    area_width: float = ArenaConfig.width
    area_height: float = ArenaConfig.height
    num_nodes: int = ArenaConfig.num_stations
    radio_range: float = TopologyConfig.radio_range
    min_speed: float = ArenaConfig.min_speed
    max_speed: float = ArenaConfig.max_speed
    min_power: float = MIN_BASE_POWER_DBM
    max_power: float = MAX_BASE_POWER_DBM
    packet_size: float = TrafficParams.mean_size
    packet_size_sigma: float = TrafficParams.size_sigma

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ConfigError(f"num_nodes must be >= 1, got {self.num_nodes}")


@dataclass(frozen=True)
class Hop:
    src: str
    dst: str
    distance: float
    channel: str


@dataclass
class Topology:
    config: TopologyConfig
    stations: dict[int, tuple[float, float]]
    servers: dict[str, tuple[float, float]]
    paths: dict[int, tuple[Hop, ...]]
    channels: dict[str, float]


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One packet's outcome: a row of a SimResult."""
    packet_id: int
    src: int
    size: int
    path: tuple[str, ...]
    send_time: float
    delivery_time: float | None
    dropped: bool
    drop_reason: str | None = None

    @property
    def hops(self) -> int:
        return len(self.path) - 1


@dataclass(eq=False)
class SimResult:
    """Per-packet outcomes as columns, in packet_id order.

    outcome is DELIVERED or the OUTCOMES index of the drop reason, and
    delivery_time is nan for a dropped packet. walked maps each source to its
    route's labels, station first; a packet's path is walked[src][:hops + 1].
    """
    packet_id: np.ndarray
    src: np.ndarray
    size: np.ndarray
    send_time: np.ndarray
    delivery_time: np.ndarray
    outcome: np.ndarray
    hops: np.ndarray
    walked: dict[int, tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.packet_id)

    def __iter__(self):
        return self._rows(slice(None))

    def __getitem__(self, i: int) -> DeliveryRecord:
        return next(self._rows([i]))

    def _rows(self, at):
        # .tolist() gives Python scalars; a numpy scalar's repr differs
        columns = (self.packet_id, self.src, self.size, self.send_time,
                   self.delivery_time, self.outcome, self.hops)
        for pid, src, size, sent, when, code, hops in zip(*(c[at].tolist() for c in columns)):
            done = code == DELIVERED
            yield DeliveryRecord(pid, src, size, self.walked[src][:hops + 1], sent,
                                 when if done else None, not done,
                                 None if done else OUTCOMES[code])


def _distance(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def build_topology(config: TopologyConfig, positions: dict[int, tuple[float, float]],
                   clusters: dict[int, list[int]] | None = None,
                   heads: dict[int, int] | None = None, *,
                   arena: tuple[float, float]) -> Topology:
    """Wire stations to servers for one scenario.

    clusters maps cluster -> member station ids; heads maps cluster -> head
    station id. Clusters are required when config.needs_clusters; with
    clustering off they only place the per-cluster servers. The mode decides
    one thing: which server and backbone serve cluster c. A clustered station
    reaches that server through its head, a non-clustered one goes straight
    to the nearest server.
    """
    if not positions:
        raise TopologyError("no station positions")
    stations = {int(s): (float(p[0]), float(p[1])) for s, p in positions.items()}
    for sid, (x, y) in stations.items():
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TopologyError(f"station {sid} has a non-finite position ({x!r}, {y!r})")
    if not (math.isfinite(arena[0]) and math.isfinite(arena[1])):
        raise TopologyError(f"arena has a non-finite size {tuple(arena)!r}")

    if config.needs_clusters and clusters is None:
        raise TopologyError(f"{config.mode} mode with clustering="
                            f"{'on' if config.clustering else 'off'} requires clusters")
    if config.clustering and heads is None:
        raise TopologyError("clustering requires cluster heads")

    if clusters is not None:
        assigned = sorted(sid for members in clusters.values() for sid in members)
        if assigned != sorted(stations):
            raise TopologyError("clusters do not cover the station set exactly")
        for c, members in clusters.items():
            if not members:
                raise TopologyError(f"cluster {c} is empty")
        if config.clustering:
            for c in clusters:
                if c not in heads:
                    raise TopologyError(f"cluster {c} has no head")
                if heads[c] not in clusters[c]:
                    raise TopologyError(
                        f"head {heads[c]} is not a member of cluster {c}")

    servers: dict[str, tuple[float, float]] = {}
    channels: dict[str, float] = {}
    paths: dict[int, tuple[Hop, ...]] = {}

    def hop(src: int, dst, channel: str) -> Hop:
        """Station src to station or server dst, within radio range."""
        distance = _distance(stations[src], servers[dst] if dst in servers else stations[dst])
        if distance > config.radio_range:
            raise TopologyError(f"hop {src}->{dst} spans {distance:.1f} m, "
                                f"beyond range {config.radio_range} m")
        return Hop(str(src), str(dst), distance, channel)

    def centroid(member_ids):
        xs = [stations[s][0] for s in member_ids]
        ys = [stations[s][1] for s in member_ids]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    # Without clusters (centralized, clustering off) all stations form one group.
    groups = clusters if clusters is not None else {0: list(stations)}
    for c in sorted(groups):
        server, backbone, where = (
            ("server", "backbone", (arena[0] / 2.0, arena[1] / 2.0))
            if config.mode == "centralized"
            else (f"server{c}", f"backbone{c}", centroid(groups[c])))
        servers[server] = where
        if config.clustering:
            channels[f"cluster{c}"] = config.link_bitrate
            channels[backbone] = config.backbone_bitrate
            head = heads[c]
            head_hop = hop(head, server, backbone)
            for sid in sorted(groups[c]):
                paths[sid] = ((head_hop,) if sid == head
                              else (hop(sid, head, f"cluster{c}"), head_hop))
    if not config.clustering:
        channels["air"] = config.link_bitrate
        names = sorted(servers)
        for sid in sorted(stations):
            target = min(names, key=lambda nm: (_distance(stations[sid], servers[nm]), nm))
            paths[sid] = (hop(sid, target, "air"),)

    return Topology(config=config, stations=stations, servers=servers,
                    paths=paths, channels=channels)


def _channel_order(topology: Topology) -> list[str]:
    """Channels so that each hop's channel comes before the next hop's.

    Any such order gives the same records: the sweep serves a channel once
    all its feeders are done, and the tie rule never compares event ids by size.
    """
    fed_by: dict[str, set[str]] = {name: set() for name in topology.channels}
    for path in topology.paths.values():
        for hop, nxt in zip(path, path[1:]):
            fed_by[nxt.channel].add(hop.channel)
    try:
        return list(graphlib.TopologicalSorter(fed_by).static_order())
    except graphlib.CycleError as exc:
        raise SimulationError(
            f"paths run through channels {sorted(set(exc.args[1]))} in a cycle") from exc


def run_sim(topology: Topology, workload, horizon: float | None = None) -> SimResult:
    """Run every packet to delivery or drop.

    workload is a traffic.PACKET_DTYPE table or a list of Packets. A finite
    horizon cuts the run off and drops whatever is still in flight, keeping
    conservation intact.
    """
    cfg = topology.config
    packets = as_workload(workload)
    pid, src, size = packets["packet_id"], packets["src"], packets["size"]
    created = packets["creation_time"]
    sources = np.array(sorted(topology.paths), dtype=np.int64)
    row = np.searchsorted(sources, src)  # per packet, its source's route row
    known = row < len(sources)
    known[known] = sources[row[known]] == src[known]
    for bad, problem in ((~known, "unknown source {src}"),
                         (size <= 0, "non-positive size"),
                         (~np.isfinite(created), "non-finite creation_time {t!r}")):
        if bad.any():
            i = int(np.argmax(bad))
            raise SimulationError(f"packet {pid[i]}: " + problem.format(
                src=src[i].item(), t=created[i].item()))

    order = _channel_order(topology)
    code = {name: c for c, name in enumerate(order)}
    depth = max(map(len, topology.paths.values()), default=0)
    # Per route row and hop: the hop's channel code (-1 past the route's end;
    # the spare column ends every route) and its propagation time.
    route_chan = np.full((len(sources), depth + 1), -1, dtype=np.intp)
    route_prop = np.zeros((len(sources), depth))
    for r, s in enumerate(sources.tolist()):
        for k, hop in enumerate(topology.paths[s]):
            route_chan[r, k] = code[hop.channel]
            route_prop[r, k] = hop.distance / cfg.propagation_speed
    walked = {s: (path[0].src,) + tuple(hop.dst for hop in path)
              for s, path in topology.paths.items()}

    outcome, hop_idx, delivered_at = _sweep(
        [topology.channels[name] for name in order], route_chan, route_prop, row,
        size * 8.0, created, cfg, math.inf if horizon is None else horizon)

    done = outcome == DELIVERED
    by_id = np.argsort(pid, kind="stable")
    return SimResult(
        packet_id=pid[by_id], src=src[by_id], size=size[by_id],
        send_time=created[by_id],
        delivery_time=delivered_at[by_id],
        outcome=outcome[by_id], hops=(hop_idx + done)[by_id], walked=walked)


def _sweep(rates: list[float], route_chan: np.ndarray, route_prop: np.ndarray,
           row: np.ndarray, bits: np.ndarray, created: np.ndarray,
           cfg: TopologyConfig, limit: float):
    """One FIFO pass per channel, in channel-code order; rates[c] is channel
    c's bitrate and packet i follows route row[i].

    Per-hop columns are indexed by slot k * n + i, packet i's hop k. Returns
    per packet its outcome, the index of the hop it ended on and its delivery
    time (nan unless delivered).
    """
    n, depth = len(row), route_prop.shape[1]
    slot_chan = route_chan[:, :depth].T[:, row].ravel()
    by_chan = np.argsort(slot_chan, kind="stable")
    bounds = np.searchsorted(slot_chan, np.arange(len(rates) + 1), sorter=by_chan)
    del slot_chan
    # Arrival time (nan until the packet gets there), service end (nan unless
    # accepted) and the slot whose service end it queued behind (-1 when it
    # found the channel idle).
    arrive = np.full(depth * n, np.nan)
    arrive[:n] = created
    end_at = np.full(depth * n, np.nan)
    behind = np.full(depth * n, -1, dtype=np.intp)

    def parent(ev: int) -> tuple[int, int]:
        """Event ev's parent event (-1 for none) and sub-order."""
        h = ev >> 1
        if ev & 1:
            j = int(behind[h])
            return (ev - 1, 0) if j < 0 else (2 * j + 1, 1)
        return (-1, h) if h < n else (2 * (h - n) + 1, 0)

    def precedes(a: int, b: int) -> bool:
        """Whether event a pops before event b; event 2 * slot is the
        arrival at that hop and 2 * slot + 1 its service end."""
        while True:
            ta = end_at[a >> 1] if a & 1 else arrive[a >> 1]
            tb = end_at[b >> 1] if b & 1 else arrive[b >> 1]
            if ta != tb:
                return bool(ta < tb)
            (pa, sa), (pb, sb) = parent(a), parent(b)
            if pa == pb:
                return sa < sb
            if pa < 0 or pb < 0:
                return pa < 0
            a, b = pa, pb

    outcome = np.full(n, _HORIZON, dtype=np.uint8)
    delivered_at = np.full(n, np.nan)
    cap = cfg.queue_capacity
    for c, rate in enumerate(rates):
        slots = by_chan[bounds[c]:bounds[c + 1]]
        times = arrive[slots]
        reached = ~(np.isnan(times) | (times > limit))
        slots, times = slots[reached], times[reached]
        by_time = np.argsort(times, kind="stable")
        slots, times = slots[by_time], times[by_time]
        _order_ties(slots, times, precedes)
        queued = _serve(slots, times, bits[slots % n] / rate, cap, end_at, behind,
                        precedes)
        outcome[slots[queued > cap] % n] = _QUEUE
        served = slots[queued <= cap]
        ends = end_at[served]
        on_time = ~(ends > limit)
        served, ends = served[on_time], ends[on_time]
        i, k = served % n, served // n
        nxt = ends + route_prop[row[i], k] + cfg.processing_delay
        onward = route_chan[row[i], k + 1] >= 0
        arrive[served[onward] + n] = nxt[onward]
        last = ~onward & (nxt <= limit)
        outcome[i[last]] = DELIVERED
        delivered_at[i[last]] = nxt[last]
    hop_idx = np.zeros(n, dtype=np.uint8)
    for k in range(1, depth):
        hop_idx += ~np.isnan(arrive[k * n:(k + 1) * n])
    return outcome, hop_idx, delivered_at


def _order_ties(slots: np.ndarray, times: np.ndarray, precedes) -> None:
    """Put each run of equal arrival times into pop order, in place."""
    tied = np.flatnonzero(times[1:] == times[:-1])
    if not tied.size:
        return
    breaks = np.flatnonzero(np.diff(tied) != 1)
    key = functools.cmp_to_key(lambda a, b: -1 if precedes(2 * a, 2 * b) else 1)
    for lo, hi in zip(tied[np.r_[0, breaks + 1]].tolist(),
                      (tied[np.r_[breaks, -1]] + 2).tolist()):
        slots[lo:hi] = sorted(slots[lo:hi].tolist(), key=key)


def _serve(slots: np.ndarray, times: np.ndarray, service: np.ndarray, cap: int,
           end_at: np.ndarray, behind: np.ndarray, precedes) -> np.ndarray:
    """Serve one channel's arrivals, given in pop order, through a FIFO that
    holds the packet in service plus at most cap waiting ones.

    Fills end_at and behind at the accepted slots and returns the queue
    length each arrival found: 0 when the channel was idle, above cap when
    the arrival was dropped. The arrivals are walked as Python floats in
    blocks of _BLOCK.
    """
    queued = np.empty(len(slots), dtype=np.intp)
    ends: list[float] = []  # the FIFO's service ends, oldest first
    fifo: list[int] = []    # their slots, as far as written to the columns
    last, prev = -math.inf, -1  # service end and slot of the latest accepted packet
    for start in range(0, len(slots), _BLOCK):
        block = slots[start:start + _BLOCK]
        lengths: list[int] = []
        written = 0  # lengths[:written] are in the columns

        def write() -> None:
            """Write the packets accepted since the last call to the columns."""
            nonlocal written, prev
            found = np.array(lengths[written:], dtype=np.intp)
            took = found <= cap
            accepted = block[written:len(lengths)][took]
            if accepted.size:
                end_at[accepted] = ends[len(fifo):]
                behind[accepted] = np.where(found[took] > 0,
                                            np.r_[prev, accepted[:-1]], -1)
                fifo.extend(accepted.tolist())
                prev = fifo[-1]
            written = len(lengths)

        def end_first(j: int, q: int) -> bool:
            """Whether ends[j] pops before the arrival at block position q."""
            write()
            return precedes(2 * fifo[j] + 1, 2 * int(block[q]))

        head, last = _fifo(times[start:start + _BLOCK].tolist(),
                           service[start:start + _BLOCK].tolist(),
                           cap, ends, last, lengths, end_first)
        write()
        queued[start:start + len(block)] = lengths
        del ends[:head], fifo[:head]
    return queued


def _fifo(times: list[float], service: list[float], cap: int, ends: list[float],
          last: float, lengths: list[int], end_first) -> tuple[int, float]:
    """The per-arrival loop of _serve over one block.

    ends holds the FIFO's service ends and last the latest of them. Appends
    each arrival's queue length to lengths and each accepted service end,
    max(arrival, last) + service time, to ends. Returns how many of ends have
    finished and the new last.
    """
    head, size = 0, len(ends)
    for t, s in zip(times, service):
        if last < t:
            head = size
        else:
            while ends[head] < t:
                head += 1
            while ends[head] == t and end_first(head, len(lengths)):
                head += 1
                if head == size:
                    break
        q = size - head
        lengths.append(q)
        if q <= cap:
            last = (last if q else t) + s
            ends.append(last)
            size += 1
    return head, last


def conservation_check(result: SimResult, workload) -> dict:
    """Hard accounting audit: every packet sent ends exactly once, delivered
    or dropped, with a sane delivery time, on a sane route."""
    sent = as_workload(workload)
    ids, sent_ids = result.packet_id, sent["packet_id"]
    by_id, sent_by_id = np.argsort(ids, kind="stable"), np.argsort(sent_ids, kind="stable")
    ordered = ids[by_id]
    if (ordered[1:] == ordered[:-1]).any():
        raise SimulationError("duplicate packet_id in records")
    if not np.array_equal(ordered, sent_ids[sent_by_id]):
        missing, extra = np.setdiff1d(sent_ids, ids), np.setdiff1d(ids, sent_ids)
        raise SimulationError(f"records do not match workload (missing "
                              f"{missing[:5].tolist()}, extra {extra[:5].tolist()})")
    mismatch = result.src[by_id] != sent["src"][sent_by_id]
    if mismatch.any():
        raise SimulationError(f"packet {ordered[np.argmax(mismatch)]}: src mismatch")

    sources, which = np.unique(result.src, return_inverse=True)
    last_leg = []
    for s in sources.tolist():
        path = result.walked.get(s, ())
        if len(path) < 2 or path[0] != str(s) or not path[-1].startswith("server"):
            raise SimulationError(f"source {s}: bad path {path}")
        last_leg.append(len(path) - 1)
    done = result.outcome == DELIVERED
    on_time = np.isfinite(result.delivery_time) & (result.delivery_time >= result.send_time)
    for bad, problem in ((result.outcome > DELIVERED, "unknown outcome"),
                         (done & ~on_time, "bad delivery time"),
                         (done & (result.hops != np.array(last_leg)[which]),
                          "delivered before the last hop")):
        if bad.any():
            raise SimulationError(f"packet {ids[np.argmax(bad)]}: {problem}")
    counts = np.bincount(result.outcome, minlength=len(OUTCOMES)).tolist()
    return {"sent": len(ids), "delivered": counts[DELIVERED],
            "dropped": len(ids) - counts[DELIVERED],
            "by_reason": {OUTCOMES[c]: k for c, k in enumerate(counts[:DELIVERED]) if k}}


def write_records(result: SimResult, path: str) -> None:
    """Write records.csv, one row per packet, streamed in blocks of
    _RECORD_BLOCK rows."""
    columns = (result.packet_id, result.src, result.hops, result.send_time,
               result.delivery_time, result.outcome)
    with atomic_open(path) as fh:
        fh.write("packet_id,src,hops,send_time,delivery_time,dropped\n")
        for start in range(0, len(result), _RECORD_BLOCK):
            rows = zip(*(c[start:start + _RECORD_BLOCK].tolist() for c in columns))
            fh.write("".join([f"{pid},{src},{hops},{sent!r},{when!r},0\n"
                              if code == DELIVERED else f"{pid},{src},{hops},{sent!r},,1\n"
                              for pid, src, hops, sent, when, code in rows]))
