import numpy as np
import pytest

from fanetsim import (
    ConfigError,
    TrafficParams,
    generate_flow,
    generate_workload,
)
from fanetsim.traffic import packet_id, read_packets, write_packets


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
    # explicit seed argument overrides the params seed
    c = generate_flow(2, params, seed=8)
    assert a != c
    # a station's flow does not depend on which other stations exist
    wide = generate_workload([0, 1, 2, 3], params)
    narrow = generate_workload([2], params)
    assert [p for p in wide if p.src == 2] == narrow


def test_workload_merge_order():
    params = TrafficParams(packets_per_station=50, seed=4)
    workload = generate_workload([3, 0, 1], params)
    assert len(workload) == 150
    keys = [(p.creation_time, p.packet_id) for p in workload]
    assert keys == sorted(keys)
    with pytest.raises(ConfigError):
        generate_workload([1, 1], params)
    with pytest.raises(ConfigError):
        generate_workload([], params)


def test_packets_roundtrip(tmp_path):
    params = TrafficParams(packets_per_station=30, seed=5)
    workload = generate_workload([0, 1], params)
    path = tmp_path / "packets.csv"
    write_packets(workload, str(path))
    assert read_packets(str(path)) == workload
    lines = path.read_text().splitlines()
    assert lines[0] == "packet_id,src,size,creation_time"
    assert len(lines) == 61


HEADER = "packet_id,src,size,creation_time\n"


@pytest.mark.parametrize("row", ["1,0,1024", "1,0,1024,0.5,9", "x,0,1024,0.5",
                                 "1,0,1024.5,0.5", "1,0,1024,soon"])
def test_read_packets_malformed_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "packets.csv"
    path.write_text(HEADER + "0,0,512,0.25\n\n" + row + "\n")
    with pytest.raises(ConfigError, match=r"packets\.csv:4: malformed workload row"):
        read_packets(str(path))


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_read_packets_rejects_non_finite_creation_time(tmp_path, t):
    path = tmp_path / "packets.csv"
    path.write_text(HEADER + f"0,0,512,0.25\n1,0,512,{t}\n")
    with pytest.raises(ConfigError, match=r"packets\.csv:3: non-finite creation_time"):
        read_packets(str(path))


def test_read_packets_bad_header_names_file(tmp_path):
    path = tmp_path / "packets.csv"
    path.write_text("id,src,size,t\n")
    with pytest.raises(ConfigError, match=r"packets\.csv: unexpected workload header"):
        read_packets(str(path))
