"""The topology wiring as it was before one loop served all four scenarios,
kept as the oracle.

`build_topology` below tested the mode at each place it placed a server, added
a backbone channel, named a cluster's server and backbone, or chose a
non-clustered station's target. `_check_range` is the range check it wrapped
around every hop. The helpers and types they use are the package's own; their
fields and arithmetic did not change. The package must agree with this module
bit for bit.
"""

from __future__ import annotations

import math

from fanetsim.errors import TopologyError
from fanetsim.netsim import Hop, Topology, TopologyConfig, _distance


def _check_range(hop: Hop, limit: float) -> Hop:
    if hop.distance > limit:
        raise TopologyError(
            f"hop {hop.src}->{hop.dst} spans {hop.distance:.1f} m, beyond range {limit} m")
    return hop


def build_topology(config: TopologyConfig, positions: dict[int, tuple[float, float]],
                   clusters: dict[int, list[int]] | None = None,
                   heads: dict[int, int] | None = None, *,
                   arena: tuple[float, float]) -> Topology:
    """Wire stations to servers for one scenario.

    clusters maps cluster -> member station ids; heads maps cluster -> head
    station id. Clusters are required whenever clustering is on, and also for
    decentralized mode with clustering off, where they only place the
    per-group servers.
    """
    if not positions:
        raise TopologyError("no station positions")
    stations = {int(s): (float(p[0]), float(p[1])) for s, p in positions.items()}
    for sid, (x, y) in stations.items():
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TopologyError(f"station {sid} has a non-finite position ({x!r}, {y!r})")
    if not (math.isfinite(arena[0]) and math.isfinite(arena[1])):
        raise TopologyError(f"arena has a non-finite size {tuple(arena)!r}")

    needs_clusters = config.clustering or config.mode == "decentralized"
    if needs_clusters and clusters is None:
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

    def centroid(member_ids):
        xs = [stations[s][0] for s in member_ids]
        ys = [stations[s][1] for s in member_ids]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    servers: dict[str, tuple[float, float]] = {}
    if config.mode == "centralized":
        servers["server"] = (arena[0] / 2.0, arena[1] / 2.0)
    else:
        for c in sorted(clusters):
            servers[f"server{c}"] = centroid(clusters[c])

    channels: dict[str, float] = {}
    paths: dict[int, tuple[Hop, ...]] = {}

    if config.clustering:
        if config.mode == "centralized":
            channels["backbone"] = config.backbone_bitrate
        for c in sorted(clusters):
            channels[f"cluster{c}"] = config.link_bitrate
            if config.mode == "decentralized":
                channels[f"backbone{c}"] = config.backbone_bitrate
        for c in sorted(clusters):
            head = heads[c]
            server = "server" if config.mode == "centralized" else f"server{c}"
            backbone = "backbone" if config.mode == "centralized" else f"backbone{c}"
            head_hop = _check_range(
                Hop(str(head), server, _distance(stations[head], servers[server]),
                    backbone), config.radio_range)
            for sid in sorted(clusters[c]):
                if sid == head:
                    paths[sid] = (head_hop,)
                else:
                    member_hop = _check_range(
                        Hop(str(sid), str(head),
                            _distance(stations[sid], stations[head]), f"cluster{c}"),
                        config.radio_range)
                    paths[sid] = (member_hop, head_hop)
    else:
        channels["air"] = config.link_bitrate
        names = sorted(servers)
        for sid in sorted(stations):
            if config.mode == "centralized":
                target = "server"
            else:
                target = min(names, key=lambda nm: (_distance(stations[sid], servers[nm]), nm))
            paths[sid] = (_check_range(
                Hop(str(sid), target, _distance(stations[sid], servers[target]), "air"),
                config.radio_range),)

    return Topology(config=config, stations=stations, servers=servers,
                    paths=paths, channels=channels)
