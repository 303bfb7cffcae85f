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
the channels form a DAG (cluster channel -> backbone). run_sim visits the
channels in topological order and makes one pass over each: it sorts the
channel's arrivals, keeps the service ends of the packets it accepted in a
FIFO, drops an arrival when that FIFO already holds the packet in service
plus queue_capacity waiting ones, and starts service at the arrival when the
channel is idle or else at the service end of the packet before it
(end = start + size * 8.0 / bitrate). A service end at or before the horizon
forwards the packet to the next channel, or delivers it, at
(end + distance / propagation_speed) + processing_delay.

Tie rule. Simultaneous events are resolved as in a discrete-event engine
that pops one global heap by (time, push sequence), starting from every
packet's creation-time arrival pushed in workload order. That order equals
comparing the event keys (time, key of the event that scheduled it,
sub-order), where creation-time arrivals have no parent and sort before every
other event at the same time, in workload order; an arrival that finds the
channel idle schedules its service end (sub-order 0); a service end
schedules the packet's next arrival or its delivery (sub-order 0) and then
the next queued packet's service end (sub-order 1). Events are stored in
flat columns (time, parent, sub-order), and the parent chain is only walked
for exactly equal times.

Horizon. Events at t <= horizon happen. A packet whose arrival, service end
or delivery falls later is dropped with reason "horizon"; its path runs up
to the sender of the hop it was on, so a late delivery keeps all but the
server.

Columns. run_sim reads a traffic.PACKET_DTYPE table and returns a SimResult,
one column per field; DeliveryRecord rows exist only while it is read.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError, TopologyError
from .ioutil import atomic_write_text
from .traffic import as_workload

MODES = ("centralized", "decentralized")
LIGHT_SPEED_M_S = 3.0e8
# Codes of SimResult.outcome; a dropped packet's code indexes its reason.
OUTCOMES = ("horizon", "queue", "delivered")
_HORIZON, _QUEUE, DELIVERED = range(3)


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
    area_width: float = 500.0
    area_height: float = 500.0
    num_nodes: int = 25
    radio_range: float = 500.0
    min_speed: float = 0.0
    max_speed: float = 15.0
    min_power: float = 60.0
    max_power: float = 80.0
    packet_size: float = 1024.0
    packet_size_sigma: float = 256.0

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
    for bad, problem in ((~np.isin(src, list(topology.paths)), "unknown source {src}"),
                         (size <= 0, "non-positive size"),
                         (~np.isfinite(created), "non-finite creation_time {t!r}")):
        if bad.any():
            i = int(np.argmax(bad))
            raise SimulationError(f"packet {pid[i]}: " + problem.format(
                src=src[i].item(), t=created[i].item()))

    order = _channel_order(topology)
    inbox: dict[str, list[int]] = {name: [] for name in order}
    # Per source, one leg per hop: (the hop channel's inbox, propagation
    # time, the next hop channel's inbox or None).
    routes, walked = {}, {}
    for s, path in topology.paths.items():
        walked[s] = (path[0].src,) + tuple(hop.dst for hop in path)
        routes[s] = tuple(
            (inbox[hop.channel], hop.distance / cfg.propagation_speed,
             inbox[path[k + 1].channel] if k + 1 < len(path) else None)
            for k, hop in enumerate(path))
    route = [routes[s] for s in src.tolist()]  # per packet, its source's legs
    for i, legs in enumerate(route):
        legs[0][0].append(i)

    outcome, hop_idx, delivered_at = _sweep(
        topology, order, inbox, route, size, created,
        math.inf if horizon is None else horizon)

    done = outcome == DELIVERED
    by_id = np.argsort(pid, kind="stable")
    return SimResult(
        packet_id=pid[by_id], src=src[by_id], size=size[by_id],
        send_time=created[by_id],
        delivery_time=np.where(done, delivered_at, np.nan)[by_id],
        outcome=outcome[by_id], hops=(hop_idx + done)[by_id], walked=walked)


def _sweep(topology: Topology, order: list[str], inbox: dict[str, list[int]],
           route: list, size: np.ndarray, created: np.ndarray, limit: float):
    """One FIFO pass per channel in ``order``; each channel's inbox holds the
    indices of the packets arriving there and is emptied as it is served.

    Returns per packet its outcome, the index of the hop it ended on and its
    delivery time (valid when delivered), as arrays.
    """
    cfg = topology.config
    n = len(route)
    bits = array("d", (size * 8.0).tobytes())
    # Event columns (see the module docstring): event i < n is packet i's
    # creation-time arrival, later ids are service ends and forwarded arrivals.
    ev_time = array("d", created.astype(np.float64).tobytes())
    ev_parent = array("q", [-1]) * n
    ev_sub = array("q", range(n))

    def precedes(a: int, b: int) -> bool:
        """Whether event a pops before event b."""
        while True:
            ta, tb = ev_time[a], ev_time[b]
            if ta != tb:
                return ta < tb
            pa, pb = ev_parent[a], ev_parent[b]
            if pa == pb:
                return ev_sub[a] < ev_sub[b]
            if pa < 0 or pb < 0:
                return pa < 0
            a, b = pa, pb

    at = array("d", ev_time)        # time of packet i's arrival at its current channel
    arrival = array("q", range(n))  # event id of that arrival
    hop_idx = bytearray(n)
    outcome = bytearray(n)          # _HORIZON, _QUEUE or DELIVERED
    delivered_at = array("d", bytes(8 * n))
    cap = cfg.queue_capacity
    proc = cfg.processing_delay
    push_time, push_parent, push_sub = ev_time.append, ev_parent.append, ev_sub.append
    for name in order:
        waiting = inbox[name]
        waiting.sort(key=at.__getitem__)
        # any two neighbours at the same time? (streamed, no list of times)
        if any(map(operator.eq, map(at.__getitem__, waiting),
                   map(at.__getitem__, itertools.islice(waiting, 1, None)))):
            _order_ties(waiting, at, arrival, precedes)
        rate = topology.channels[name]
        ends = array("d")    # service ends of the packets accepted here, FIFO order
        end_ev = array("q")  # and their event ids
        head = accepted = 0  # ends[head:accepted] are in service or queued
        for i in waiting:
            t = at[i]
            if t > limit:
                continue
            a = arrival[i]
            while head < accepted:
                e = ends[head]
                if e < t or (e == t and precedes(end_ev[head], a)):
                    head += 1
                else:
                    break
            if head < accepted:
                if accepted - head > cap:
                    outcome[i] = _QUEUE
                    continue
                start, parent, sub = ends[-1], end_ev[-1], 1
            else:
                start, parent, sub = t, a, 0
            end = start + bits[i] / rate
            se = len(ev_time)
            push_time(end)
            push_parent(parent)
            push_sub(sub)
            ends.append(end)
            end_ev.append(se)
            accepted += 1
            if end > limit:
                continue
            leg = route[i][hop_idx[i]]
            nxt = end + leg[1] + proc
            if leg[2] is None:
                if nxt <= limit:
                    outcome[i] = DELIVERED
                    delivered_at[i] = nxt
            else:
                hop_idx[i] += 1
                at[i] = nxt
                arrival[i] = se + 1
                push_time(nxt)
                push_parent(se)
                push_sub(0)
                leg[2].append(i)
        waiting.clear()
    return (np.frombuffer(outcome, np.uint8), np.frombuffer(hop_idx, np.uint8),
            np.frombuffer(delivered_at, np.float64))


def _order_ties(waiting: list[int], at, arrival, precedes) -> None:
    """Put each run of equal arrival times into pop order, in place."""
    key = functools.cmp_to_key(
        lambda i, j: -1 if precedes(arrival[i], arrival[j]) else 1)
    waiting[:] = [i for _, run in itertools.groupby(waiting, key=at.__getitem__)
                  for i in sorted(run, key=key)]


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
    done = (result.outcome == DELIVERED).tolist()
    rows = zip(map(str, result.packet_id.tolist()), map(str, result.src.tolist()),
               map(str, result.hops.tolist()), map(repr, result.send_time.tolist()),
               [repr(t) if d else "" for t, d in zip(result.delivery_time.tolist(), done)],
               ["0" if d else "1" for d in done])
    lines = ["packet_id,src,hops,send_time,delivery_time,dropped", *map(",".join, rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")
