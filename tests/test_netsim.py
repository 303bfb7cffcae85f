import dataclasses
import heapq
import itertools
import math
import random
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

from fanetsim import (
    ConfigError,
    DeliveryRecord,
    Hop,
    Packet,
    SimConfig,
    SimulationError,
    Topology,
    TopologyConfig,
    TopologyError,
    TrafficParams,
    build_topology,
    conservation_check,
    generate_workload,
    run_sim,
)
from fanetsim import netsim
from fanetsim.netsim import DELIVERED, MODES, write_records
from simtables import random_table, table_of, take
import topology_reference

# closed-form per-hop latency pieces at the defaults
TX_1024 = 1024 * 8 / 10e6
PROP_100 = 100.0 / 3e8
PROC = 1e-4


def reference_run_sim(topology, workload, horizon=None):
    """The event-heap engine run_sim replaced, kept as its oracle.

    One global heap pops (time, push sequence); each channel serves one
    packet at a time from a bounded FIFO queue.
    """
    cfg = topology.config
    packets = list(workload)
    hops = [topology.paths[p.src] for p in packets]
    heap, seq = [], itertools.count()
    busy = dict.fromkeys(topology.channels, False)
    queue = {name: deque() for name in topology.channels}
    hop_idx = [0] * len(packets)
    outcome = [(None, "horizon")] * len(packets)  # (delivery time, drop reason)

    def push(time, kind, i):
        heapq.heappush(heap, (time, next(seq), kind, i))

    def serve(channel, i, now):
        busy[channel] = True
        push(now + packets[i].size * 8.0 / topology.channels[channel], "service-end", i)

    for i, pkt in enumerate(packets):
        push(pkt.creation_time, "arrival", i)
    while heap:
        if horizon is not None and heap[0][0] > horizon:
            break
        now, _, kind, i = heapq.heappop(heap)
        hop = hops[i][hop_idx[i]]
        if kind == "arrival":
            if not busy[hop.channel]:
                serve(hop.channel, i, now)
            elif len(queue[hop.channel]) < cfg.queue_capacity:
                queue[hop.channel].append(i)
            else:
                outcome[i] = (None, "queue")
        elif kind == "service-end":
            arrive = now + hop.distance / cfg.propagation_speed + cfg.processing_delay
            if hop_idx[i] + 1 == len(hops[i]):
                push(arrive, "delivery", i)
            else:
                hop_idx[i] += 1
                push(arrive, "arrival", i)
            if queue[hop.channel]:
                serve(hop.channel, queue[hop.channel].popleft(), now)
            else:
                busy[hop.channel] = False
        else:
            outcome[i] = (now, None)

    records = []
    for i, pkt in enumerate(packets):
        when, reason = outcome[i]
        walked = len(hops[i]) if reason is None else hop_idx[i]
        path = (hops[i][0].src,) + tuple(h.dst for h in hops[i][:walked])
        records.append(DeliveryRecord(pkt.packet_id, pkt.src, pkt.size, path,
                                      pkt.creation_time, when, reason is not None,
                                      reason))
    records.sort(key=lambda r: r.packet_id)
    return records


def grid_positions(n, spacing=50.0):
    return {i: (spacing * (i % 5), spacing * (i // 5)) for i in range(n)}


def one_packet(src=0, size=1024, t=0.0, pid=None):
    return Packet(pid if pid is not None else src * 1_000_000, src, size, t)


def test_topology_config_validation():
    for bad in (dict(mode="mesh"), dict(link_bitrate=0),
                dict(backbone_bitrate=-1), dict(propagation_speed=0),
                dict(processing_delay=-1), dict(queue_capacity=-1),
                dict(radio_range=0)):
        with pytest.raises(ConfigError):
            TopologyConfig(**bad)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(num_nodes=0)


def test_centralized_nonclustered_topology():
    topo = build_topology(TopologyConfig(clustering=False), grid_positions(6),
                          arena=(500.0, 500.0))
    assert set(topo.servers) == {"server"}
    assert topo.servers["server"] == (250.0, 250.0)
    assert set(topo.channels) == {"air"}
    for sid, path in topo.paths.items():
        assert len(path) == 1
        assert path[0].channel == "air"
        assert path[0].dst == "server"


def test_clustered_centralized_topology():
    clusters = {0: [0, 1, 2], 1: [3, 4, 5]}
    heads = {0: 1, 1: 4}
    topo = build_topology(TopologyConfig(clustering=True), grid_positions(6),
                          clusters, heads, arena=(500.0, 500.0))
    assert set(topo.channels) == {"cluster0", "cluster1", "backbone"}
    assert topo.channels["backbone"] == 50e6
    # heads take one hop, members two, all ending at the shared server
    assert [h.channel for h in topo.paths[1]] == ["backbone"]
    assert [h.channel for h in topo.paths[0]] == ["cluster0", "backbone"]
    assert topo.paths[0][0].dst == "1"
    assert topo.paths[5][0].dst == "4"
    assert all(p[-1].dst == "server" for p in topo.paths.values())


def test_clustered_decentralized_topology():
    clusters = {0: [0, 1, 2], 1: [3, 4, 5]}
    heads = {0: 0, 1: 3}
    topo = build_topology(TopologyConfig(mode="decentralized", clustering=True),
                          grid_positions(6), clusters, heads, arena=(500.0, 500.0))
    assert set(topo.servers) == {"server0", "server1"}
    assert set(topo.channels) == {"cluster0", "cluster1", "backbone0", "backbone1"}
    assert topo.paths[4][-1].dst == "server1"
    # each per-cluster server sits at its member centroid
    xs = [grid_positions(6)[s][0] for s in clusters[0]]
    assert topo.servers["server0"][0] == pytest.approx(sum(xs) / 3)


def test_nonclustered_decentralized_uses_nearest_server():
    positions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (0.0, 100.0), 3: (100.0, 100.0)}
    clusters = {0: [0, 1], 1: [2, 3]}
    topo = build_topology(
        TopologyConfig(mode="decentralized", clustering=False), positions, clusters,
        arena=(500.0, 500.0))
    assert set(topo.channels) == {"air"}  # no coordination, one collision domain
    assert set(topo.servers) == {"server0", "server1"}
    assert topo.servers["server0"] == (50.0, 0.0)
    assert topo.paths[0][0].dst == "server0"
    assert topo.paths[3][0].dst == "server1"


def test_nearest_server_ties_use_lowest_name():
    # both cluster centroids coincide, so every station sees equal distances
    positions = {0: (0.0, 0.0), 1: (100.0, 100.0), 2: (0.0, 100.0), 3: (100.0, 0.0)}
    clusters = {0: [0, 1], 1: [2, 3]}
    topo = build_topology(
        TopologyConfig(mode="decentralized", clustering=False), positions, clusters,
        arena=(500.0, 500.0))
    assert topo.servers["server0"] == topo.servers["server1"] == (50.0, 50.0)
    assert all(p[0].dst == "server0" for p in topo.paths.values())


def _random_scenario(rng):
    """Sparse station ids, positions (on a coarse grid half the time, so
    positions repeat and nearest-server distances tie), a partition into
    clusters with shuffled member lists and a head per cluster. Cluster keys
    are 0..k-1 or sparse, and k runs up to the station count."""
    n = int(rng.integers(1, 41))
    ids = rng.choice(10_000, size=n, replace=False).tolist()
    arena = (float(rng.uniform(50.0, 800.0)), float(rng.uniform(50.0, 800.0)))
    if rng.random() < 0.5:
        xy = rng.integers(0, 5, size=(n, 2)) * (arena[0] / 4, arena[1] / 4)
    else:
        xy = rng.uniform(0.0, arena, size=(n, 2))
    positions = dict(zip(ids, map(tuple, xy.tolist())))
    k = int(rng.integers(1, n + 1))
    keys = (sorted(rng.choice(100, size=k, replace=False).tolist())
            if rng.random() < 0.5 else list(range(k)))
    order = rng.permutation(ids).tolist()
    labels = list(range(k)) + rng.integers(0, k, size=n - k).tolist()
    clusters = {key: [] for key in keys}
    for sid, label in zip(order, labels):
        clusters[keys[label]].append(sid)
    heads = {c: members[int(rng.integers(len(members)))] for c, members in clusters.items()}
    radio_range = 5000.0 if rng.random() < 0.7 else float(rng.uniform(10.0, 400.0))
    return positions, clusters, heads, arena, radio_range


def _wiring(topo):
    """Servers and paths in order with floats as hex, channels as a dict."""
    return ([(name, tuple(map(float.hex, xy))) for name, xy in topo.servers.items()],
            [(sid, [(h.src, h.dst, h.distance.hex(), h.channel) for h in path])
             for sid, path in topo.paths.items()],
            topo.channels)


def test_build_topology_matches_reference_wiring():
    rng = np.random.default_rng(2024)
    seen = dict.fromkeys(("singleton", "eleven+", "sparse keys", "range error", "built"), 0)
    for _ in range(400):
        positions, clusters, heads, arena, radio_range = _random_scenario(rng)
        seen["singleton"] += any(len(m) == 1 for m in clusters.values())
        seen["eleven+"] += len(clusters) >= 11
        seen["sparse keys"] += sorted(clusters) != list(range(len(clusters)))
        scenarios = [(m, c, clusters) for m in MODES for c in (True, False)]
        for mode, clustering, given in scenarios + [("centralized", False, None)]:
            cfg = TopologyConfig(mode=mode, clustering=clustering, radio_range=radio_range)
            args = (cfg, positions, given, heads if clustering else None)
            try:
                want = topology_reference.build_topology(*args, arena=arena)
            except TopologyError as exc:
                with pytest.raises(TopologyError, match=f"^{re.escape(str(exc))}$"):
                    build_topology(*args, arena=arena)
                seen["range error"] += 1
                continue
            got = build_topology(*args, arena=arena)
            assert _wiring(got) == _wiring(want), (mode, clustering, clusters)
            assert got.stations == want.stations
            seen["built"] += 1
    assert all(seen.values()), seen


def test_topology_requirements():
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(clustering=True), grid_positions(4), arena=(500.0, 500.0))
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(mode="decentralized", clustering=False),
                       grid_positions(4), arena=(500.0, 500.0))
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(clustering=True), grid_positions(4),
                       {0: [0, 1, 2, 3]}, None, arena=(500.0, 500.0))
    # clusters must cover the station set exactly
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(clustering=True), grid_positions(4),
                       {0: [0, 1]}, {0: 0}, arena=(500.0, 500.0))
    # the head must belong to its own cluster
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(clustering=True), grid_positions(4),
                       {0: [0, 1, 2, 3]}, {0: 9}, arena=(500.0, 500.0))
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(), {}, arena=(500.0, 500.0))
    # hops beyond radio range are rejected outright
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(clustering=False, radio_range=10.0),
                       {0: (0.0, 0.0)}, arena=(500.0, 500.0))


def test_single_hop_delay_closed_form():
    topo = build_topology(TopologyConfig(clustering=False),
                          {0: (150.0, 250.0)},  # 100 m from the center server
                          arena=(500.0, 500.0))
    records = run_sim(topo, [one_packet()])
    assert len(records) == 1
    rec = records[0]
    assert not rec.dropped
    assert rec.hops == 1
    expected = TX_1024 + PROP_100 + PROC
    np.testing.assert_allclose(rec.delivery_time - rec.send_time, expected,
                               atol=1e-12)
    assert expected == pytest.approx(0.0009195333333333333, abs=1e-15)


def test_two_hop_delay_closed_form():
    positions = {0: (0.0, 0.0), 1: (60.0, 0.0)}  # member 60 m from head
    clusters = {0: [0, 1]}
    heads = {0: 1}
    topo = build_topology(TopologyConfig(clustering=True), positions,
                          clusters, heads, arena=(200.0, 0.0))
    # head sits 40 m from the server at (100, 0)
    assert topo.paths[0][1].distance == pytest.approx(40.0)
    records = run_sim(topo, [one_packet(0)])
    member_hop = TX_1024 + 60.0 / 3e8 + PROC
    head_hop = 1024 * 8 / 50e6 + 40.0 / 3e8 + PROC
    got = records[0].delivery_time - records[0].send_time
    np.testing.assert_allclose(got, member_hop + head_hop, atol=1e-12)
    np.testing.assert_allclose(got, 0.0011833733333333333, atol=1e-12)
    assert records[0].path == ("0", "1", "server")


def test_fifo_contention_schedule():
    topo = build_topology(TopologyConfig(clustering=False), {0: (150.0, 250.0)},
                          arena=(500.0, 500.0))
    workload = [one_packet(pid=0), one_packet(pid=1)]  # simultaneous arrivals
    records = run_sim(topo, workload)
    d0 = records[0].delivery_time - records[0].send_time
    d1 = records[1].delivery_time - records[1].send_time
    np.testing.assert_allclose(d0, TX_1024 + PROP_100 + PROC, atol=1e-12)
    np.testing.assert_allclose(d1, 2 * TX_1024 + PROP_100 + PROC, atol=1e-12)


def test_queue_overflow_drops():
    topo = build_topology(TopologyConfig(clustering=False, queue_capacity=1),
                          {0: (150.0, 250.0)}, arena=(500.0, 500.0))
    workload = [one_packet(pid=i) for i in range(3)]
    records = run_sim(topo, workload)
    dropped = [r for r in records if r.dropped]
    assert len(dropped) == 1
    assert dropped[0].packet_id == 2  # first in service, second queued
    assert dropped[0].drop_reason == "queue"
    assert dropped[0].delivery_time is None
    summary = conservation_check(records, workload)
    assert summary["sent"] == 3
    assert summary["delivered"] == 2
    assert summary["dropped"] == 1
    assert summary["by_reason"] == {"queue": 1}


def test_horizon_cutoff():
    topo = build_topology(TopologyConfig(clustering=False), {0: (150.0, 250.0)},
                          arena=(500.0, 500.0))
    workload = [one_packet(pid=0, t=0.0), one_packet(pid=1, t=0.0)]
    # horizon falls between the two delivery times
    cut = 2 * TX_1024 + PROP_100 + PROC - 1e-6
    records = run_sim(topo, workload, horizon=cut)
    assert not records[0].dropped
    assert records[1].dropped
    assert records[1].drop_reason == "horizon"
    summary = conservation_check(records, workload)
    assert summary["by_reason"] == {"horizon": 1}


def test_run_sim_validation():
    topo = build_topology(TopologyConfig(clustering=False), {0: (150.0, 250.0)},
                          arena=(500.0, 500.0))
    with pytest.raises(SimulationError):
        run_sim(topo, [one_packet(src=9)])
    with pytest.raises(SimulationError):
        run_sim(topo, [Packet(0, 0, 0, 0.0)])


def test_records_sorted_and_replayable():
    positions = grid_positions(10)
    topo = build_topology(TopologyConfig(clustering=False, queue_capacity=2),
                          positions, arena=(500.0, 500.0))
    params = TrafficParams(packets_per_station=40, seed=6)
    workload = generate_workload(sorted(positions), params)
    a = run_sim(topo, workload)
    b = run_sim(topo, workload)
    assert list(a) == list(b)
    ids = [r.packet_id for r in a]
    assert ids == sorted(ids)
    conservation_check(a, workload)


def test_conservation_check_catches_tampering():
    topo = build_topology(TopologyConfig(clustering=False), {0: (150.0, 250.0)},
                          arena=(500.0, 500.0))
    workload = [one_packet(pid=0), one_packet(pid=1)]
    records = run_sim(topo, workload)
    with pytest.raises(SimulationError):
        conservation_check(take(records, [0]), workload)
    with pytest.raises(SimulationError):
        conservation_check(take(records, [0, 1, 0]), workload)


def test_records_roundtrip(tmp_path):
    topo = build_topology(TopologyConfig(clustering=False, queue_capacity=0),
                          grid_positions(5), arena=(500.0, 500.0))
    workload = generate_workload(range(5), TrafficParams(packets_per_station=20, seed=1))
    records = run_sim(topo, workload)
    path = tmp_path / "records.csv"
    write_records(records, str(path))
    first = path.read_bytes()
    write_records(records, str(path))
    assert path.read_bytes() == first


TOPOLOGIES = [("centralized", True), ("centralized", False),
              ("decentralized", True), ("decentralized", False)]


def _random_case(rng, mode, clustering):
    """A small scenario; half the cases are built so that events tie exactly:
    every station sits on its server (zero distance), processing takes no
    time and integer sizes over power-of-two bitrates give integer service
    times, so arrivals, service ends and deliveries land on the same instants.
    """
    stations = rng.randint(1, 8)
    exact = rng.random() < 0.5
    settings = {"queue_capacity": rng.randint(0, 3)}
    if exact:
        positions = {s: (250.0, 250.0) for s in range(stations)}
        settings.update(processing_delay=0.0, link_bitrate=8.0,
                        backbone_bitrate=rng.choice([4.0, 8.0, 16.0]))
    else:
        positions = {s: (rng.uniform(100, 400), rng.uniform(100, 400))
                     for s in range(stations)}
    ids = list(range(stations))
    rng.shuffle(ids)
    k = rng.randint(1, stations)
    clusters = {c: ids[c::k] for c in range(k)}
    heads = {c: rng.choice(members) for c, members in clusters.items()}
    topo = build_topology(
        TopologyConfig(mode=mode, clustering=clustering, **settings), positions,
        clusters if clustering or mode == "decentralized" else None,
        heads if clustering else None, arena=(500.0, 500.0))

    count = rng.randint(1, 30)
    shape = rng.choice(["sorted", "shuffled", "equal-time"])
    workload = []
    for j in range(count):
        if exact:
            t, size = float(rng.randint(0, 6)), rng.randint(1, 4)
        else:
            t, size = rng.uniform(0.0, 0.01), rng.randint(100, 2000)
        if shape == "equal-time":
            t = 1.0
        workload.append(Packet(j, rng.randrange(stations), size, t))
    if shape == "sorted":
        workload.sort(key=lambda p: p.creation_time)
    span = 8.0 if exact else 0.012
    horizon = rng.choice([None, rng.uniform(0.0, span), float(rng.randint(0, 8))])
    return topo, workload, horizon


@pytest.mark.parametrize("mode,clustering", TOPOLOGIES)
def test_sweep_matches_event_heap_engine(mode, clustering):
    rng = random.Random(f"{mode}-{clustering}")
    for _ in range(400):
        topo, workload, horizon = _random_case(rng, mode, clustering)
        assert list(run_sim(topo, workload, horizon=horizon)) == \
            reference_run_sim(topo, workload, horizon=horizon)


def _scale_case(rng, mode, clustering, exact, cap, cut):
    """A _random_case scenario at 4,200-5,000 packets with the given
    queue_capacity; clustered runs use one cluster of 4-7 stations, so a
    channel serves more arrivals than one block of the sweep. Exact cases
    use integer times and service times (zero distance and processing, as in
    _random_case) and load the air channel to about 1. With ``cut`` the
    horizon falls at three quarters of the traffic span.
    """
    stations = rng.randint(4, 7)
    settings = {"queue_capacity": cap}
    if exact:
        positions = {s: (250.0, 250.0) for s in range(stations)}
        settings.update(processing_delay=0.0, link_bitrate=8.0,
                        backbone_bitrate=rng.choice([4.0, 8.0, 16.0]))
    else:
        positions = {s: (rng.uniform(100, 400), rng.uniform(100, 400))
                     for s in range(stations)}
    ids = list(range(stations))
    rng.shuffle(ids)
    k = 1 if clustering else rng.randint(1, stations)
    clusters = {c: ids[c::k] for c in range(k)}
    heads = {c: rng.choice(members) for c, members in clusters.items()}
    topo = build_topology(
        TopologyConfig(mode=mode, clustering=clustering, **settings), positions,
        clusters if clustering or mode == "decentralized" else None,
        heads if clustering else None, arena=(500.0, 500.0))

    count = rng.randint(4200, 5000)
    span = 2.0 * count if exact else 8e-4 * count
    workload = []
    for j in range(count):
        if exact:
            t, size = float(rng.randint(0, int(span))), rng.randint(1, 3)
        else:
            t, size = rng.uniform(0.0, span), rng.randint(100, 2000)
        workload.append(Packet(j, rng.randrange(stations), size, t))
    horizon = None
    if cut:
        horizon = float(int(0.75 * span)) if exact else 0.75 * span
    return topo, workload, horizon


@pytest.mark.parametrize("cut", [False, True], ids=["no-horizon", "horizon"])
@pytest.mark.parametrize("cap", [0, 3])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "uniform"])
@pytest.mark.parametrize("mode,clustering", TOPOLOGIES)
def test_sweep_matches_event_heap_engine_at_scale(monkeypatch, mode, clustering, exact,
                                                 cap, cut):
    served = []
    serve = netsim._serve
    monkeypatch.setattr(netsim, "_serve",
                        lambda slots, *rest: served.append(len(slots)) or serve(slots, *rest))
    rng = random.Random(f"{mode}-{clustering}-{exact}-{cap}-{cut}")
    topo, workload, horizon = _scale_case(rng, mode, clustering, exact, cap, cut)
    got = run_sim(topo, workload, horizon=horizon)
    assert list(got) == reference_run_sim(topo, workload, horizon=horizon)
    assert max(served) > netsim._BLOCK
    reasons = set(conservation_check(got, workload)["by_reason"])
    assert "queue" in reasons and ("horizon" in reasons) == cut


@pytest.mark.parametrize("seed", [10, 17, 30])
def test_sweep_matches_event_heap_engine_across_a_block_edge(seed):
    # Two clusters feed one backbone with zero distance and processing, so
    # packets of equal size leave both cluster channels at the same instant
    # and the tie rule walks their service-end chains. Cluster 0 serves more
    # than a block, so some chains start at a block's first queued packet,
    # whose "queued behind" slot comes from the block before. These seeds
    # reach that hand-off: a copy of the sweep that forgets it at every
    # block edge fails them.
    rng = random.Random(seed)
    cap = rng.choice([0, 1, 3])
    topo = build_topology(
        TopologyConfig(clustering=True, queue_capacity=cap, processing_delay=0.0,
                       link_bitrate=8.0, backbone_bitrate=rng.choice([8.0, 16.0])),
        {s: (250.0, 250.0) for s in range(7)}, {0: [0, 1, 2, 3, 4], 1: [5, 6]},
        {0: 0, 1: 5}, arena=(500.0, 500.0))
    count = rng.randint(4200, 5000)
    span = rng.choice([0.5, 1.0, 2.0]) * count
    sizes = rng.choice([(1,), (1, 2), (1, 3)])
    workload = [Packet(j, rng.choice([1, 2, 3, 4, 6]), rng.choice(sizes),
                       float(rng.randint(0, int(span)))) for j in range(count)]
    assert list(run_sim(topo, workload)) == reference_run_sim(topo, workload)


def test_arrival_precedes_service_end_at_equal_time():
    # Packet 0 is in service on [0, 1); packet 1 arrives at exactly t=1.
    # Creation-time arrivals pop before any other event at the same time, so
    # the channel is still busy and, with no queue, packet 1 drops.
    topo = build_topology(
        TopologyConfig(clustering=False, queue_capacity=0, link_bitrate=8.0,
                       processing_delay=0.0), {0: (250.0, 250.0)}, arena=(500.0, 500.0))
    workload = [Packet(0, 0, 1, 0.0), Packet(1, 0, 1, 1.0)]
    records = run_sim(topo, workload)
    assert [r.dropped for r in records] == [False, True]
    assert records[1].drop_reason == "queue"
    assert list(records) == reference_run_sim(topo, workload)


def test_run_sim_rejects_cyclic_channel_paths():
    # The sweep needs channels in feed-forward order; build_topology never
    # wires a cycle, but a hand-made topology could.
    a_to_b = (Hop("0", "1", 10.0, "a"), Hop("1", "server", 10.0, "b"))
    b_to_a = (Hop("1", "0", 10.0, "b"), Hop("0", "server", 10.0, "a"))
    topo = Topology(TopologyConfig(), {0: (0.0, 0.0), 1: (10.0, 0.0)},
                    {"server": (20.0, 0.0)}, {0: a_to_b, 1: b_to_a},
                    {"a": 10e6, "b": 10e6})
    with pytest.raises(SimulationError, match="cycle"):
        run_sim(topo, [one_packet(0)])


def test_build_topology_rejects_non_finite_position():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(TopologyError, match="station 3"):
            build_topology(TopologyConfig(clustering=False),
                           {0: (10.0, 10.0), 3: (bad, 10.0)}, arena=(500.0, 500.0))
        # a non-finite arena would put the server, and every hop length, at nan
        with pytest.raises(TopologyError, match="arena"):
            build_topology(TopologyConfig(clustering=False), {0: (10.0, 10.0)},
                           arena=(500.0, bad))


def test_run_sim_rejects_non_finite_creation_time():
    topo = build_topology(TopologyConfig(clustering=False),
                          {0: (150.0, 250.0), 1: (160.0, 250.0)}, arena=(500.0, 500.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(SimulationError, match="packet 7"):
            run_sim(topo, [Packet(0, 0, 1024, 0.0), Packet(7, 1, 1024, bad)])


def test_conservation_check_rejects_non_finite_delivery_time():
    workload = [one_packet(pid=0)]
    for bad in (math.nan, math.inf):
        records = table_of([DeliveryRecord(0, 0, 1024, ("0", "server"), 0.0, bad, False)])
        with pytest.raises(SimulationError, match="packet 0"):
            conservation_check(records, workload)


@pytest.fixture
def two_hop_run():
    positions = {0: (200.0, 250.0), 1: (260.0, 250.0), 2: (250.0, 200.0)}
    topo = build_topology(TopologyConfig(clustering=True), positions,
                          {0: [0, 1, 2]}, {0: 1}, arena=(500.0, 500.0))
    workload = generate_workload(sorted(positions), TrafficParams(packets_per_station=5))
    records = run_sim(topo, workload)
    assert conservation_check(records, workload)["delivered"] == 15
    return records, workload


def test_conservation_check_names_a_missing_packet(two_hop_run):
    records, workload = two_hop_run
    with pytest.raises(SimulationError, match=r"missing \[1\], extra \[\]"):
        conservation_check(take(records, [0, *range(2, 15)]), workload)


def test_conservation_check_rejects_a_duplicate_packet(two_hop_run):
    records, workload = two_hop_run
    with pytest.raises(SimulationError, match="duplicate packet_id"):
        conservation_check(take(records, [*range(15), 3]), workload)


def test_conservation_check_names_an_extra_packet(two_hop_run):
    records, workload = two_hop_run
    ids = records.packet_id.copy()
    ids[-1] = 99
    with pytest.raises(SimulationError, match=r"missing \[2000004\], extra \[99\]"):
        conservation_check(dataclasses.replace(records, packet_id=ids), workload)


def test_conservation_check_rejects_a_src_mismatch(two_hop_run):
    records, workload = two_hop_run
    src = records.src.copy()
    src[6] = 0
    with pytest.raises(SimulationError, match="packet 1000001: src mismatch"):
        conservation_check(dataclasses.replace(records, src=src), workload)


@pytest.mark.parametrize("when", [math.nan, math.inf, -1.0])
def test_conservation_check_rejects_a_bad_delivery_time(two_hop_run, when):
    records, workload = two_hop_run
    times = records.delivery_time.copy()
    times[4] = when
    with pytest.raises(SimulationError, match="packet 4: bad delivery time"):
        conservation_check(dataclasses.replace(records, delivery_time=times), workload)


def test_conservation_check_rejects_delivery_before_the_last_hop(two_hop_run):
    # station 0 reaches the server through its head, station 1
    records, workload = two_hop_run
    hops = records.hops.copy()
    hops[2] = 1
    with pytest.raises(SimulationError, match="packet 2: delivered before the last hop"):
        conservation_check(dataclasses.replace(records, hops=hops), workload)


@pytest.mark.parametrize("route", [("0",), ("9", "1", "server"), ("0", "1", "2")])
def test_conservation_check_rejects_a_bad_route(two_hop_run, route):
    records, workload = two_hop_run
    walked = {**records.walked, 0: route}
    with pytest.raises(SimulationError, match="source 0: bad path"):
        conservation_check(dataclasses.replace(records, walked=walked), workload)


def test_rows_hold_python_scalars():
    # repr of a numpy scalar reads 'np.float64(...)', which would change
    # records.csv and every digest built from the rows' reprs
    topo = build_topology(TopologyConfig(clustering=False, queue_capacity=0),
                          grid_positions(5), arena=(500.0, 500.0))
    workload = generate_workload(range(5), TrafficParams(packets_per_station=20, seed=2))
    records = run_sim(topo, workload, horizon=0.4)
    rows = [*records, records[0], records[-1]]
    assert {r.dropped for r in rows} == {False, True}
    for row in rows:
        for field in dataclasses.fields(row):
            assert "np." not in repr(getattr(row, field.name)), (row, field.name)


def reference_write_records(records, path):
    """write_records as it was over DeliveryRecord objects, kept as its oracle."""
    lines = ["packet_id,src,hops,send_time,delivery_time,dropped"]
    for r in records:
        dt = "" if r.delivery_time is None else repr(r.delivery_time)
        lines.append(f"{r.packet_id},{r.src},{r.hops},{r.send_time!r},{dt},{int(r.dropped)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", range(20))
def test_write_records_matches_per_record_writer(tmp_path, seed):
    table = random_table(seed)
    write_records(table, str(tmp_path / "columns.csv"))
    reference_write_records(list(table), str(tmp_path / "rows.csv"))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _tiled(table, rows):
    """A table of at least two record blocks and a bit, cycling ``rows``."""
    return take(table, np.resize(rows, 2 * netsim._RECORD_BLOCK + 123))


@pytest.mark.parametrize("kind", ["mixed", "dropped", "delivered"])
def test_write_records_matches_per_record_writer_across_blocks(tmp_path, kind):
    table = random_table(3)
    done = table.outcome == DELIVERED
    rows = {"mixed": np.arange(len(table)), "dropped": np.flatnonzero(~done),
            "delivered": np.flatnonzero(done)}[kind]
    table = _tiled(table, rows)
    write_records(table, str(tmp_path / "columns.csv"))
    reference_write_records(list(table), str(tmp_path / "rows.csv"))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_records_streams(tmp_path):
    # Formatting all rows before writing used to allocate several times
    # the file's size.
    table = random_table(5)
    table = take(table, np.resize(np.arange(len(table)), 200_000))
    # full-precision times, as run_sim writes them
    late = np.random.default_rng(5).uniform(0.0, 1e-3, len(table))
    table = dataclasses.replace(table, send_time=table.send_time + late,
                                delivery_time=table.delivery_time + 2 * late)
    path = tmp_path / "records.csv"
    tracemalloc.start()
    try:
        write_records(table, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("cannot format")


def test_failed_write_records_keeps_the_old_file(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("old\n")
    table = random_table(4)
    table = _tiled(table, np.arange(len(table)))
    sent = table.send_time.astype(object)
    sent[-1] = _Unprintable()  # fails in the last block, after others were written
    with pytest.raises(RuntimeError, match="cannot format"):
        write_records(dataclasses.replace(table, send_time=sent), str(path))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]
