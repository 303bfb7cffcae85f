import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import (
    ArenaConfig,
    ConfigError,
    Trace,
    TraceParseError,
    quantize,
    read_trace,
    simulate_random_waypoint,
    write_trace,
)
from fanetsim import mobility
from fanetsim.mobility import EPSILON_SPEED, TRACE_HEADER


def small(**kw) -> ArenaConfig:
    base = dict(num_stations=4, duration=120.0, seed=3)
    base.update(kw)
    return ArenaConfig(**base)


def reference_walk(config: ArenaConfig, sid: int) -> np.ndarray:
    """Independent walker: build the waypoint itinerary first, then sample it.

    Consumes the identical RNG stream (start, then target+speed per leg) but
    computes positions by interpolating between breakpoints instead of
    stepping interval by interval.
    """
    rng = np.random.default_rng([config.seed, sid])
    x = rng.uniform(0.0, config.width)
    y = rng.uniform(0.0, config.height)
    bp_t, bp_x, bp_y = [0.0], [x], [y]
    if config.max_speed > 0:
        while bp_t[-1] < config.duration:
            tx = rng.uniform(0.0, config.width)
            ty = rng.uniform(0.0, config.height)
            speed = rng.uniform(config.min_speed, config.max_speed)
            if speed < EPSILON_SPEED:
                speed = EPSILON_SPEED
            dist = math.hypot(tx - bp_x[-1], ty - bp_y[-1])
            bp_t.append(bp_t[-1] + dist / speed)
            bp_x.append(tx)
            bp_y.append(ty)
            if config.pause_time > 0:
                bp_t.append(bp_t[-1] + config.pause_time)
                bp_x.append(tx)
                bp_y.append(ty)
    times = np.arange(config.num_samples) * config.sample_interval
    xs = np.interp(times, bp_t, bp_x)
    ys = np.interp(times, bp_t, bp_y)
    return np.column_stack([xs, ys])


def test_config_validation():
    with pytest.raises(ConfigError):
        ArenaConfig(width=0)
    with pytest.raises(ConfigError):
        ArenaConfig(num_stations=0)
    with pytest.raises(ConfigError):
        ArenaConfig(min_speed=-1)
    with pytest.raises(ConfigError):
        ArenaConfig(min_speed=5, max_speed=4)
    with pytest.raises(ConfigError):
        ArenaConfig(pause_time=-0.1)
    with pytest.raises(ConfigError):
        ArenaConfig(sample_interval=0)
    with pytest.raises(ConfigError):
        ArenaConfig(duration=-1)
    with pytest.raises(ConfigError):
        ArenaConfig(seed=-1)


def test_sample_grid():
    cfg = small(duration=10.0, sample_interval=1.0)
    trace = simulate_random_waypoint(cfg)
    assert trace.num_samples == 11
    assert trace.times[0] == 0.0
    np.testing.assert_allclose(np.diff(trace.times), 1.0, atol=1e-9)
    # a fractional tail is cut, never extended
    assert ArenaConfig(duration=10.7).num_samples == 11


def test_positions_stay_in_arena():
    trace = simulate_random_waypoint(small(num_stations=10))
    for sid in trace.station_ids:
        pos = trace.positions[sid]
        assert pos[:, 0].min() >= 0.0 and pos[:, 0].max() <= 500.0
        assert pos[:, 1].min() >= 0.0 and pos[:, 1].max() <= 500.0


def test_displacement_bounded_by_max_speed():
    cfg = small(num_stations=8, duration=200.0)
    trace = simulate_random_waypoint(cfg)
    limit = cfg.max_speed * cfg.sample_interval + 1e-9
    for sid in trace.station_ids:
        steps = np.diff(trace.positions[sid], axis=0)
        assert np.hypot(steps[:, 0], steps[:, 1]).max() <= limit


def test_matches_reference_walker():
    cfg = small(num_stations=5, duration=300.0, pause_time=2.0, seed=11)
    trace = simulate_random_waypoint(cfg)
    for sid in trace.station_ids:
        ref = reference_walk(cfg, sid)
        np.testing.assert_allclose(trace.positions[sid], ref, atol=2e-6)


def test_static_fleet():
    trace = simulate_random_waypoint(small(min_speed=0, max_speed=0, duration=5))
    for sid in trace.station_ids:
        assert np.all(trace.positions[sid] == trace.positions[sid][0])


def test_determinism_and_seed_sensitivity():
    a = simulate_random_waypoint(small(seed=5))
    b = simulate_random_waypoint(small(seed=5))
    c = simulate_random_waypoint(small(seed=6))
    assert a == b
    assert a != c


def test_per_station_substreams():
    # station k's path does not depend on how many other stations exist
    wide = simulate_random_waypoint(small(num_stations=6))
    narrow = simulate_random_waypoint(small(num_stations=3))
    for sid in narrow.station_ids:
        np.testing.assert_array_equal(wide.positions[sid], narrow.positions[sid])


def test_quantize_is_idempotent_on_samples():
    trace = simulate_random_waypoint(small())
    for sid in trace.station_ids:
        pos = trace.positions[sid]
        requantized = np.vectorize(quantize)(pos)
        np.testing.assert_array_equal(pos, requantized)


def outcome(read, path, config=None):
    """A reader's Trace, or the text and line of its TraceParseError."""
    try:
        return read(str(path), config)
    except TraceParseError as exc:
        return str(exc), exc.line


def assert_paths_agree(path, config=None):
    """read_trace's loadtxt path, when it takes a file, gives the line
    parser's Trace; read_trace gives the line parser's Trace or error.
    Returns what the loadtxt path gave (None when it raised)."""
    try:
        fast = mobility._read_fast(str(path), config)
    except Exception:  # read_trace falls back on it, and must then agree
        fast = None
    lines = outcome(mobility._read_lines, path, config)
    if fast is not None:
        assert isinstance(lines, Trace) and fast == lines
        assert fast.station_ids == lines.station_ids
    assert outcome(read_trace, path, config) == lines
    return fast


def test_trace_roundtrip(tmp_path):
    cfg = small(num_stations=6, duration=90.0, seed=9)
    trace = simulate_random_waypoint(cfg)
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    back = read_trace(str(path), cfg)
    assert back == trace
    assert assert_paths_agree(path, cfg) == trace
    first = path.read_bytes()
    write_trace(back, str(path))
    assert path.read_bytes() == first


def test_trace_file_format(tmp_path):
    trace = simulate_random_waypoint(small(num_stations=2, duration=3.0))
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + 2 * 4
    # rows are grouped by station, times ascending inside each group
    sids = [int(l.split(",")[1]) for l in lines[1:]]
    assert sids == sorted(sids)


def test_read_trace_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("nope\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(str(path))
    assert assert_paths_agree(path) is None
    assert err.value.line == 1

    path.write_text(TRACE_HEADER + "\n0,0,1\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(str(path))
    assert assert_paths_agree(path) is None
    assert err.value.line == 2

    path.write_text(TRACE_HEADER + "\n0,0,abc,2\n")
    with pytest.raises(TraceParseError):
        read_trace(str(path))
    assert assert_paths_agree(path) is None

    path.write_text(TRACE_HEADER + "\n0,0,1,2\nnan,0,1,2\n")
    with pytest.raises(TraceParseError):
        read_trace(str(path))
    assert assert_paths_agree(path) is None

    # ragged grids are rejected
    path.write_text(TRACE_HEADER + "\n0,0,1,2\n1,0,1,2\n0,1,3,4\n")
    with pytest.raises(TraceParseError):
        read_trace(str(path))
    assert assert_paths_agree(path) is None


H = TRACE_HEADER + "\n"


@pytest.mark.parametrize("body,line,message,config", [
    ("nope\n0,0,1,2\n", 1, "expected header", None),
    (H + "0,0,1,2\n\n1,0,1\n", 4, "expected 4 columns, got 3", None),
    (H + "0,0,1,2\n1,0,1,2,9\n", 3, "expected 4 columns, got 5", None),
    (H + "0,0,1,2\n1,0,abc,2\n", 3, "could not convert", None),
    (H + "0,0,1,2\n1,0.5,1,2\n", 3, "invalid literal for int()", None),
    (H + "0,0,1,2\n1,0,1,x\n0,z,1,2\n", 3, "could not convert", None),
    (H + "0,0,1,2\n1,0,1,2\n0,1,1,y\n1,q,1,2\n", 4, "could not convert", None),
    (H + "0,0,1,2\n1,0,inf,2\n", 3, "non-finite value", None),
    (H + "0,0,1,2\nnan,0,1,2\n", 3, "non-finite value", None),
    (H + "0,-3,1,2\n", 2, "negative station id -3", None),
    (H + "0,1,1,2\n0,0,1,2\n", 3, "rows not sorted by station_id", None),
    (H + "0,0,1,2\n0,0,1,2\n", 3, "time not strictly increasing", None),
    (H + "1,0,1,2\n0,0,1,2\n", 3, "time not strictly increasing", None),
    (H + "0,5,1,2\n0,99999999999999999999,1,2\n0,4,1,2\n", 4,
     "rows not sorted by station_id", None),
    # ids that packet_id cannot encode used to end `run` in an OverflowError
    (H + "0,5,1,2\n0,10000000000000,1,2\n", 3,
     "station id 10000000000000 is above 9223372036853", None),
    (H + "0,5,1,2\n0,9223372036854775808,1,2\n", 3,
     "is above 9223372036853, the largest a packet id encodes", None),
    (H + "0,0,1,2\n1,0,1,2\n3,0,1,2\n", 4, "spacing is not constant", None),
    (H + "0,0,1,2\n1,0,1,2\n0,4,3,4\n", 4, "station 4 does not share", None),
    (H + "0,0,1,2\n1,0,1,2\n0,4,3,4\n2,4,3,4\n", 5,
     "station 4 does not share", None),
    (H + "0,0,1,2\n1,0,1,2\n0,1,3,4\n\n1,1,900,4\n", 6,
     "station 1 leaves the 500.0x500.0 arena", ArenaConfig()),
    (H + "0,0,1,2\n2,0,1,2\n", 3, "does not match configured interval",
     ArenaConfig()),
])
def test_read_trace_error_names_file_and_line(tmp_path, body, line, message, config):
    path = tmp_path / "trace.csv"
    path.write_text(body)
    with pytest.raises(TraceParseError) as err:
        read_trace(str(path), config)
    assert assert_paths_agree(path, config) is None
    assert err.value.line == line
    assert err.value.path == str(path)
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert message in str(err.value)


@pytest.mark.parametrize("body,message", [
    (H, "no samples"),
    (H + "\n  \n", "no samples"),
])
def test_read_trace_file_level_errors_name_file(tmp_path, body, message):
    path = tmp_path / "trace.csv"
    path.write_text(body)
    with pytest.raises(TraceParseError) as err:
        read_trace(str(path))
    assert assert_paths_agree(path) is None
    assert err.value.line is None
    assert str(err.value) == f"{path}: {message}"


def test_read_trace_rejects_non_utf8(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(TRACE_HEADER.encode() + b"\n0,0,\xff,2\n")
    with pytest.raises(TraceParseError, match=f"^{path}: not UTF-8"):
        read_trace(str(path))
    assert assert_paths_agree(path) is None


@pytest.mark.parametrize("body", [
    # numpy used to read these id columns as float64: the first message
    # named 9.223372036854776e+18, and the second file failed at line 4
    # with "time not strictly increasing" because both big ids became equal
    TRACE_HEADER + "\n0,5,1,2\n0,9223372036854775808,1,2\n",
    TRACE_HEADER + "\n0,5,1,2\n0,9223372036854775808,1,2\n0,9223372036854775809,1,2\n",
])
def test_read_trace_names_an_id_past_int64_exactly(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_text(body)
    with pytest.raises(TraceParseError) as err:
        read_trace(str(path))
    assert assert_paths_agree(path) is None
    assert str(err.value) == (f"{path}:3: station id 9223372036854775808 is above "
                              "9223372036853, the largest a packet id encodes")


def test_read_trace_rejects_out_of_arena(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_HEADER + "\n0,0,900,2\n")
    with pytest.raises(TraceParseError):
        read_trace(str(path), ArenaConfig())
    assert assert_paths_agree(path, ArenaConfig()) is None
    # without a config the same file parses fine
    trace = read_trace(str(path))
    assert trace.positions[0][0, 0] == 900.0
    assert assert_paths_agree(path) == trace


@pytest.mark.parametrize("body,expected", [
    # numpy 1.23 and 1.24 read "3.0" into an int column with only a
    # DeprecationWarning; int() rejects it
    (H + "0,3.0,1,2\n", ("{path}:2: invalid literal for int() with base 10: '3.0'", 2)),
    # float() and int() take underscores and non-ASCII digits, loadtxt does
    # not; the line parser used to load the first two as 1000.0 and station 10
    (H + "0,0,1_000,2\n", ("{path}:2: cells must be ASCII without '_': '0,0,1_000,2'", 2)),
    (H + "0,1_0,1,2\n", ("{path}:2: cells must be ASCII without '_': '0,1_0,1,2'", 2)),
    (H + "0,\u0661,1,2\n", ("{path}:2: cells must be ASCII without '_': '0,\u0661,1,2'", 2)),
    # the line parser skips a whitespace-only line, loadtxt does not
    (H + "0,0,1,2\n   \n1,0,3,4\n", Trace([0.0, 1.0], [0], [[[1.0, 2.0], [3.0, 4.0]]])),
])
def test_read_trace_paths_agree_where_loadtxt_and_python_differ(tmp_path, body, expected):
    path = tmp_path / "trace.csv"
    path.write_text(body)
    assert_paths_agree(path)
    if isinstance(expected, tuple):
        expected = (expected[0].format(path=path), expected[1])
    assert outcome(read_trace, path) == expected


def test_trace_shape_validation():
    with pytest.raises(ConfigError):
        Trace(np.array([0.0, 1.0]), [0], np.zeros((1, 3, 2)))
    with pytest.raises(ConfigError):
        Trace(np.array([0.0, 1.0]), [0, 1], np.zeros((1, 2, 2)))
    with pytest.raises(ConfigError, match="strictly increasing"):
        Trace(np.array([0.0]), [3, 3], np.zeros((2, 1, 2)))
    trace = Trace(np.array([0.0, 1.0]), [2, 7], np.zeros((2, 2, 2)))
    assert trace.station_ids == [2, 7] and trace.num_samples == 2


def test_simulated_trace_is_one_array():
    trace = simulate_random_waypoint(small(num_stations=3, duration=4.0))
    assert trace.station_ids == [0, 1, 2]
    assert trace.positions.shape == (3, 5, 2)


_coords = st.floats(min_value=-1e7, max_value=1e7, allow_nan=False,
                    allow_subnormal=False).map(quantize)
_dense_ids = st.integers(1, 5).map(lambda n: list(range(n)))
_sparse_ids = st.lists(st.integers(0, 10**12), min_size=1, max_size=5,
                       unique=True).map(sorted)


@st.composite
def traces(draw):
    ids = draw(st.one_of(_dense_ids, _sparse_ids))
    n = draw(st.integers(1, 30))
    # spacings and starts on a binary-exact grid keep the 9-digit file times
    # exactly evenly spaced
    dt = draw(st.integers(1, 400)) / 8
    t0 = draw(st.integers(-1000, 1000)) / 4
    times = np.array([quantize(t0 + i * dt) for i in range(n)])
    flat = draw(st.lists(_coords, min_size=len(ids) * n * 2,
                         max_size=len(ids) * n * 2))
    return Trace(times, ids, np.array(flat).reshape(len(ids), n, 2))


@settings(max_examples=150, deadline=None)
@given(trace=traces())
def test_trace_roundtrip_property(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("rt") / "trace.csv"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert back == trace
    assert back.station_ids == trace.station_ids
    assert assert_paths_agree(path) == trace
    assert all(type(s) is int for s in back.station_ids)
    first = path.read_bytes()
    write_trace(back, str(path))
    assert path.read_bytes() == first
