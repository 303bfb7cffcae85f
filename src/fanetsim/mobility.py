"""Random-waypoint mobility traces on a rectangular arena.

Each station starts at a uniform random position, picks a uniform random
destination, travels toward it in a straight line at a per-leg uniform speed,
optionally pauses on arrival, and repeats. Positions are sampled on a fixed
time grid. Samples are stored quantized to 9 significant digits (the trace
file resolution) while the walker itself keeps full precision, so a written
trace reloads bit-for-bit without accumulating rounding error. A trace is
one (stations, samples, 2) position array over a shared time grid; on disk
it is one CSV row per (station_id, time), grouped by station.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TraceParseError
from .ioutil import atomic_write_text
from .traffic import MAX_STATION_ID

# Substitute leg speed when min_speed is 0, so a zero-speed draw cannot park a
# station forever. Not applied when max_speed is 0 (deliberately static fleet).
EPSILON_SPEED = 0.01

TRACE_HEADER = "time,station_id,x,y"
_TRACE_DTYPE = np.dtype([("t", np.float64), ("station_id", np.int64),
                         ("x", np.float64), ("y", np.float64)])


def quantize(value: float) -> float:
    """Round to 9 significant digits, the on-disk trace resolution."""
    return float(f"{value:.9g}")


@dataclass(frozen=True)
class ArenaConfig:
    width: float = 500.0
    height: float = 500.0
    num_stations: int = 25
    min_speed: float = 0.0
    max_speed: float = 15.0
    pause_time: float = 0.0
    sample_interval: float = 1.0
    duration: float = 3600.0
    seed: int = 0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"arena must have positive size, got {self.width}x{self.height}")
        if self.num_stations < 1:
            raise ConfigError(f"need at least one station, got {self.num_stations}")
        if self.min_speed < 0:
            raise ConfigError(f"min_speed must be >= 0, got {self.min_speed}")
        if self.max_speed < self.min_speed:
            raise ConfigError(
                f"max_speed {self.max_speed} below min_speed {self.min_speed}")
        if self.pause_time < 0:
            raise ConfigError(f"pause_time must be >= 0, got {self.pause_time}")
        if self.sample_interval <= 0:
            raise ConfigError(f"sample_interval must be > 0, got {self.sample_interval}")
        if self.duration < 0:
            raise ConfigError(f"duration must be >= 0, got {self.duration}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_samples(self) -> int:
        return int(math.floor(self.duration / self.sample_interval)) + 1


class Trace:
    """Sampled positions of a set of stations on one shared time grid.

    `positions` is one float array of shape (S, T, 2): row i holds the (x, y)
    samples of station `station_ids[i]` at `times`. Ids are ascending Python
    ints and need not be contiguous.
    """

    def __init__(self, times: np.ndarray, station_ids, positions: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self.station_ids = [int(s) for s in station_ids]
        self.positions = np.asarray(positions, dtype=float)
        shape = (len(self.station_ids), len(self.times), 2)
        if self.positions.shape != shape:
            raise ConfigError(f"expected positions of shape {shape}, got {self.positions.shape}")
        if any(a >= b for a, b in zip(self.station_ids, self.station_ids[1:])):
            raise ConfigError(f"station ids must be strictly increasing, got {self.station_ids}")

    @property
    def num_samples(self) -> int:
        return len(self.times)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.station_ids == other.station_ids
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.positions, other.positions))


def _walk_station(config: ArenaConfig, rng: np.random.Generator, out: np.ndarray) -> None:
    """Simulate one station into `out`, its (num_samples, 2) quantized positions."""
    n = config.num_samples
    x = rng.uniform(0.0, config.width)
    y = rng.uniform(0.0, config.height)
    out[0] = (quantize(x), quantize(y))

    if config.max_speed == 0.0:
        # Static fleet: every sample repeats the start position.
        out[1:] = out[0]
        return

    target = None
    speed = 0.0
    pause_left = 0.0
    dt = config.sample_interval
    for i in range(1, n):
        t_left = dt
        while t_left > 1e-12:
            if pause_left > 0.0:
                step = min(pause_left, t_left)
                pause_left -= step
                t_left -= step
                continue
            if target is None:
                target = (rng.uniform(0.0, config.width), rng.uniform(0.0, config.height))
                speed = rng.uniform(config.min_speed, config.max_speed)
                if speed < EPSILON_SPEED:
                    speed = EPSILON_SPEED
            dist = math.hypot(target[0] - x, target[1] - y)
            if dist <= speed * t_left:
                # Arrive inside this step, then start pausing (possibly 0 s).
                t_left -= dist / speed
                x, y = target
                target = None
                pause_left = config.pause_time
            else:
                frac = speed * t_left / dist
                x += (target[0] - x) * frac
                y += (target[1] - y) * frac
                t_left = 0.0
        out[i] = (quantize(x), quantize(y))


def simulate_random_waypoint(config: ArenaConfig) -> Trace:
    """Generate a deterministic random-waypoint trace for config.seed.

    Every station consumes its own RNG substream keyed by (seed, station_id),
    so traces are reproducible station-by-station.
    """
    times = np.array([quantize(i * config.sample_interval) for i in range(config.num_samples)])
    positions = np.empty((config.num_stations, config.num_samples, 2))
    for sid in range(config.num_stations):
        _walk_station(config, np.random.default_rng([config.seed, sid]), positions[sid])
    return Trace(times, range(config.num_stations), positions)


def write_trace(trace: Trace, path: str) -> None:
    """Write the trace CSV: header time,station_id,x,y, rows sorted by
    (station_id, time), floats as 9-significant-digit decimals."""
    times = [f"{t:.9g}" for t in trace.times.tolist()]
    parts = [TRACE_HEADER + "\n"]
    for sid, pos in zip(trace.station_ids, trace.positions):
        parts.extend(f"{t},{sid},{x:.9g},{y:.9g}\n"
                     for t, x, y in zip(times, pos[:, 0].tolist(), pos[:, 1].tolist()))
    atomic_write_text(path, "".join(parts))


def read_trace(path: str, config: ArenaConfig | None = None) -> Trace:
    """Parse a trace CSV back into a Trace.

    The body is read in one np.loadtxt pass. A file that pass cannot take, or
    that fails a check, is read again line by line, and the error raises
    TraceParseError naming the file and, when a row is at fault, the 1-based
    line of the first such row. The format carries no arena metadata, so the
    caller supplies any config to check the data against.
    """
    try:
        return _read_fast(path, config)
    except (ValueError, Warning, TraceParseError):
        return _read_lines(path, config)


def _read_fast(path: str, config: ArenaConfig | None) -> Trace:
    """The trace from one np.loadtxt pass, raising where _read_lines must
    read the file. Warnings raise: numpy 1.23 and 1.24 read a float cell into
    the int id column with a DeprecationWarning, where int() rejects it."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n\r") != TRACE_HEADER:
            raise ValueError("not a trace header")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                          dtype=_TRACE_DTYPE, ndmin=1, encoding="utf-8")
    # The line numbers are right unless loadtxt skipped a blank line; a fault
    # is reported by _read_lines either way.
    return _to_trace(path, rows["t"], rows["station_id"], rows["x"], rows["y"],
                     range(2, rows.size + 2), config)


def _read_lines(path: str, config: ArenaConfig | None) -> Trace:
    """The trace read one line at a time, raising at the first bad line."""
    columns, linenos = ([], [], [], []), []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n\r")
            if header != TRACE_HEADER:
                raise TraceParseError(
                    path, f"expected header {TRACE_HEADER!r}, got {header!r}", line=1)
            for lineno, raw in enumerate(fh, start=2):
                if not (row := raw.strip()):
                    continue
                cells = row.split(",")
                if len(cells) != 4:
                    raise TraceParseError(path, f"expected 4 columns, got {len(cells)}",
                                          line=lineno)
                try:
                    if not row.isascii() or "_" in row:
                        raise ValueError(f"cells must be ASCII without '_': {row!r}")
                    for column, convert, cell in zip(columns, (float, int, float, float), cells):
                        column.append(convert(cell))
                except ValueError as exc:
                    raise TraceParseError(path, str(exc), line=lineno) from None
                linenos.append(lineno)
    except UnicodeDecodeError as exc:
        raise TraceParseError(path, f"not UTF-8 text: {exc}") from None
    t, sid, x, y = columns
    # an object column keeps every id an exact Python int, past int64 too
    return _to_trace(path, np.array(t, dtype=float), np.array(sid, dtype=object),
                     np.array(x, dtype=float), np.array(y, dtype=float), linenos, config)


def _to_trace(path: str, t: np.ndarray, sid: np.ndarray, x: np.ndarray, y: np.ndarray,
              linenos, config: ArenaConfig | None) -> Trace:
    """Check the parsed columns, whose rows come from the lines `linenos`,
    and build the Trace; a fault raises TraceParseError at its row's line."""
    if not len(t):
        raise TraceParseError(path, "no samples")
    # Ids beyond int64 make `sid` an object array of Python ints.
    same_station = sid[1:] == sid[:-1]
    checks = (
        (~(np.isfinite(t) & np.isfinite(x) & np.isfinite(y)), "non-finite value"),
        (sid < 0, "negative station id {}"),
        (np.r_[False, sid[1:] < sid[:-1]], "rows not sorted by station_id"),
        (np.r_[False, same_station & (t[1:] <= t[:-1])], "time not strictly increasing"),
    )
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if failing.any():
        row = int(np.argmax(failing))
        message = next(message for mask, message in checks if mask[row])
        raise TraceParseError(path, message.format(sid[row]), line=int(linenos[row]))
    unencodable = np.flatnonzero(sid > MAX_STATION_ID)
    if unencodable.size:
        row = unencodable[0]
        raise TraceParseError(
            path, f"station id {sid[row]} is above {MAX_STATION_ID}, the largest a "
            "packet id encodes", line=int(linenos[row]))

    starts = np.flatnonzero(np.r_[True, ~same_station])
    n_times = len(t) if len(starts) == 1 else int(starts[1])
    times = t[:n_times].copy()  # not a view that keeps every row alive
    if n_times >= 2:
        spacing = np.diff(times)
        uneven = np.flatnonzero(
            np.abs(spacing - spacing[0]) > 1e-9 * max(1.0, abs(spacing[0])))
        if uneven.size:
            raise TraceParseError(path, "sample spacing is not constant",
                                  line=int(linenos[uneven[0] + 1]))
    ragged = np.flatnonzero(np.diff(np.r_[starts, len(t)]) != n_times)
    off_grid = starts[ragged] if ragged.size else np.flatnonzero(
        t != np.tile(times, len(starts)))
    if off_grid.size:
        row = off_grid[0]
        raise TraceParseError(
            path, f"station {sid[row]} does not share the common sample grid",
            line=int(linenos[row]))

    if config is not None:
        outside = np.flatnonzero((x < 0) | (x > config.width) | (y < 0) | (y > config.height))
        if outside.size:
            row = outside[0]
            raise TraceParseError(
                path, f"station {sid[row]} leaves the {config.width}x{config.height} arena",
                line=int(linenos[row]))
        dt = times[1] - times[0] if n_times >= 2 else config.sample_interval
        if abs(dt - config.sample_interval) > 1e-9 * max(1.0, config.sample_interval):
            raise TraceParseError(
                path, f"sample spacing {dt} does not match configured interval "
                f"{config.sample_interval}", line=int(linenos[1]))
    return Trace(times, sid[starts].tolist(),
                 np.column_stack([x, y]).reshape(len(starts), n_times, 2))
