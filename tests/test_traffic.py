import dataclasses

import numpy as np
import pytest

from fanetsim import (
    PACKET_DTYPE,
    ConfigError,
    Packet,
    TrafficParams,
    as_workload,
    generate_flow,
    generate_workload,
)
from fanetsim import traffic
from fanetsim.traffic import MAX_STATION_ID, PACKET_ID_STRIDE, packet_id


def test_params_validation():
    for bad in (dict(mean_size=0), dict(size_sigma=-1), dict(min_size=0),
                dict(min_size=2048, max_size=256), dict(mean_interarrival=0),
                dict(packets_per_station=-1), dict(seed=-1)):
        with pytest.raises(ConfigError):
            TrafficParams(**bad)


def test_packet_id_encoding():
    assert packet_id(0, 0) == 0
    assert packet_id(3, 17) == 3_000_017
    assert packet_id(24, 99) == 24_000_099


def test_packet_id_limits():
    # One packet more per flow used to give duplicate ids (station s's last
    # packet took station s + 1's first id), caught only after simulating.
    assert TrafficParams(packets_per_station=PACKET_ID_STRIDE).packets_per_station == 10**6
    with pytest.raises(ConfigError, match=r"packets_per_station must be in \[0, 1000000\]"):
        TrafficParams(packets_per_station=PACKET_ID_STRIDE + 1)
    # The largest station id still encodes its last packet in an int64.
    int64_max = int(np.iinfo(np.int64).max)
    assert packet_id(MAX_STATION_ID, PACKET_ID_STRIDE - 1) <= int64_max
    assert packet_id(MAX_STATION_ID + 1, PACKET_ID_STRIDE - 1) > int64_max
    workload = generate_workload([0, MAX_STATION_ID], TrafficParams(packets_per_station=3))
    assert sorted(workload["packet_id"].tolist()) == [
        0, 1, 2, *(packet_id(MAX_STATION_ID, i) for i in range(3))]


def test_flow_basic_shape():
    params = TrafficParams(packets_per_station=200, seed=1)
    flow = generate_flow(5, params)
    assert len(flow) == 200
    ids = [p.packet_id for p in flow]
    assert ids == [packet_id(5, i) for i in range(200)]
    times = np.array([p.creation_time for p in flow])
    assert times[0] > 0.0
    assert np.all(np.diff(times) > 0)
    sizes = np.array([p.size for p in flow])
    assert sizes.min() >= 256 and sizes.max() <= 2048
    assert all(isinstance(p.size, int) for p in flow)
    assert all(p.src == 5 for p in flow)


def test_zero_sigma_means_constant_size():
    params = TrafficParams(size_sigma=0.0, packets_per_station=50, seed=0)
    assert all(p.size == 1024 for p in generate_flow(0, params))


def test_mean_statistics_smoke():
    params = TrafficParams(packets_per_station=20_000, seed=3)
    flow = generate_flow(0, params)
    sizes = np.array([p.size for p in flow], dtype=float)
    gaps = np.diff([p.creation_time for p in flow], prepend=0.0)
    assert abs(sizes.mean() - 1024) / 1024 < 0.05
    assert abs(gaps.mean() - 0.030) / 0.030 < 0.05


def test_truncation_rejection_resamples_into_window():
    # a window far off the distribution center forces mass rejection
    params = TrafficParams(mean_size=300.0, size_sigma=400.0, min_size=256,
                           max_size=2048, packets_per_station=500, seed=2)
    sizes = np.array([p.size for p in generate_flow(0, params)])
    assert sizes.min() >= 256 and sizes.max() <= 2048


def test_impossible_window_raises():
    # acceptance window so narrow the redraw loop gives up
    params = TrafficParams(mean_size=1024.0, size_sigma=1e9, min_size=1024,
                           max_size=1025, packets_per_station=100, seed=0)
    with pytest.raises(ConfigError):
        generate_flow(0, params)


def test_flow_determinism_and_substreams():
    params = TrafficParams(packets_per_station=100, seed=7)
    a = generate_flow(2, params)
    b = generate_flow(2, params)
    assert a == b
    # the params seed is the only seed
    c = generate_flow(2, dataclasses.replace(params, seed=8))
    assert a != c
    # a station's flow does not depend on which other stations exist
    wide = generate_workload([0, 1, 2, 3], params)
    narrow = generate_workload([2], params)
    assert np.array_equal(wide[wide["src"] == 2], narrow)


def test_workload_merge_order():
    params = TrafficParams(packets_per_station=50, seed=4)
    workload = generate_workload([3, 0, 1], params)
    assert workload.dtype == PACKET_DTYPE
    assert len(workload) == 150
    keys = list(zip(workload["creation_time"].tolist(), workload["packet_id"].tolist()))
    assert keys == sorted(keys)
    with pytest.raises(ConfigError):
        generate_workload([1, 1], params)
    with pytest.raises(ConfigError):
        generate_workload([], params)


@pytest.mark.parametrize("seed", range(5))
def test_workload_is_the_sorted_merge_of_the_flows(seed):
    # the packet-object merge generate_workload replaced, kept as its oracle
    params = TrafficParams(packets_per_station=60, mean_interarrival=0.01, seed=seed)
    ids = [7, 0, 3, 12]
    packets = [p for sid in sorted(ids) for p in generate_flow(sid, params)]
    packets.sort(key=lambda p: (p.creation_time, p.packet_id))
    assert np.array_equal(generate_workload(ids, params), as_workload(packets))


def reference_flow(sid, params):
    """One station's sizes and creation times, drawn as the model states it:
    normal sizes rounded, out-of-bounds ones redrawn, then the gaps."""
    rng = np.random.default_rng([params.seed, sid])
    n = params.packets_per_station
    sizes = np.rint(rng.normal(params.mean_size, params.size_sigma, n)).astype(np.int64)
    while (bad := (sizes < params.min_size) | (sizes > params.max_size)).any():
        sizes[bad] = np.rint(rng.normal(params.mean_size, params.size_sigma,
                                        int(bad.sum()))).astype(np.int64)
    return sizes, np.cumsum(rng.exponential(params.mean_interarrival, n))


def test_workload_matches_per_station_draws():
    # a window off the size distribution's centre makes most stations redraw
    params = TrafficParams(mean_size=300.0, size_sigma=400.0, packets_per_station=40,
                           seed=6)
    ids = [0, 5, *range(9, 60)]
    rows = []
    for sid in ids:
        sizes, times = reference_flow(sid, params)
        rows += [(t, packet_id(sid, i), sid, size)
                 for i, (size, t) in enumerate(zip(sizes.tolist(), times.tolist()))]
    rows.sort()
    workload = generate_workload(ids, params)
    assert workload["creation_time"].tolist() == [r[0] for r in rows]
    assert workload["packet_id"].tolist() == [r[1] for r in rows]
    assert workload["src"].tolist() == [r[2] for r in rows]
    assert workload["size"].tolist() == [r[3] for r in rows]


def test_equal_creation_times_go_in_packet_id_order(monkeypatch):
    # every station gets the same gaps, so each creation time is shared by
    # all of them and only packet_id orders the ties
    draw = traffic._draw_flows

    def shared_gaps(ids, params):
        sizes, gaps = draw(ids, params)
        return sizes, np.broadcast_to(gaps[0], gaps.shape).copy()

    monkeypatch.setattr(traffic, "_draw_flows", shared_gaps)
    params = TrafficParams(packets_per_station=30, seed=2)
    workload = generate_workload([8, 1, 4], params)
    keys = list(zip(workload["creation_time"].tolist(), workload["packet_id"].tolist()))
    assert keys == sorted(keys)
    assert workload["src"].tolist()[:3] == [1, 4, 8]


def test_as_workload_keeps_list_order():
    packets = [Packet(5, 0, 100, 1.0), Packet(2, 1, 200, 1.0), Packet(9, 0, 300, 0.5)]
    table = as_workload(packets)
    assert table["packet_id"].tolist() == [5, 2, 9]  # list order is kept
    assert as_workload(table) is table
    assert generate_workload([0], TrafficParams(packets_per_station=0)).size == 0
