"""Pipeline configuration: one INI file driving every stage.

The [simulation] section is the scenario parameter sheet; the remaining
sections hold the knobs the sheet leaves open (sampling cadence, boosting
hyperparameters, queueing constants, and so on). Defaults reproduce the
stock 25-station scenario end to end. Per-stage seeds derive from the single
master seed through fixed substreams, so one seed pins the whole pipeline.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, fields, replace

from .clustering import DEFAULT_RESTARTS
from .errors import ConfigError, FanetSimError
from .ioutil import (CLUSTER_STREAM, MOBILITY_STREAM, RADIO_STREAM,
                     TRAFFIC_STREAM, atomic_write_text, substream_seed)
from .mobility import ArenaConfig
from .netsim import SimConfig, TopologyConfig
from .predictor import TRAIN_FRACTION, BoostParams, FeatureWindow
from .traffic import TrafficParams


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting the INI file holds. A flat field defaults to the stage
    field it feeds, and a config that breaks a rule cannot be built."""
    seed: int = 0
    sim: SimConfig = SimConfig()
    pause_time: float = ArenaConfig.pause_time
    sample_interval: float = ArenaConfig.sample_interval
    duration: float = ArenaConfig.duration
    max_depth: int = BoostParams.max_depth
    learning_rate: float = BoostParams.learning_rate
    num_rounds: int = BoostParams.num_rounds
    early_stop_patience: int = BoostParams.early_stop_patience
    min_samples_leaf: int = BoostParams.min_samples_leaf
    history_length: int = FeatureWindow.history_length
    horizon: int = FeatureWindow.horizon
    train_fraction: float = TRAIN_FRACTION
    restarts: int = DEFAULT_RESTARTS
    fixed_k: int | None = 3
    min_size: int = TrafficParams.min_size
    max_size: int = TrafficParams.max_size
    mean_interarrival: float = TrafficParams.mean_interarrival
    packets_per_station: int = TrafficParams.packets_per_station
    link_bitrate: float = TopologyConfig.link_bitrate
    backbone_bitrate: float = TopologyConfig.backbone_bitrate
    propagation_speed: float = TopologyConfig.propagation_speed
    processing_delay: float = TopologyConfig.processing_delay
    queue_capacity: int = TopologyConfig.queue_capacity

    def __post_init__(self):
        self.validate()

    def with_seed(self, seed: int) -> "PipelineConfig":
        return replace(self, seed=seed)

    def _stage(self, cls, **spelled):
        """A cls holding this config's fields of the same names; `spelled`
        gives the rest: [simulation] values, renamed or derived ones."""
        own = {f.name for f in fields(self)}
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls) if f.name in own}
                   | spelled)

    def arena_config(self) -> ArenaConfig:
        return self._stage(
            ArenaConfig, width=self.sim.area_width, height=self.sim.area_height,
            num_stations=self.sim.num_nodes, min_speed=self.sim.min_speed,
            max_speed=self.sim.max_speed, seed=substream_seed(self.seed, MOBILITY_STREAM))

    def boost_params(self) -> BoostParams:
        return self._stage(BoostParams)

    def traffic_params(self) -> TrafficParams:
        return self._stage(
            TrafficParams, mean_size=self.sim.packet_size, size_sigma=self.sim.packet_size_sigma,
            seed=substream_seed(self.seed, TRAFFIC_STREAM))

    def topology_config(self, mode: str, clustering: bool) -> TopologyConfig:
        return self._stage(TopologyConfig, mode=mode, clustering=clustering,
                           radio_range=self.sim.radio_range)

    def cluster_seed(self) -> int:
        return substream_seed(self.seed, CLUSTER_STREAM)

    def radio_seed(self) -> int:
        return substream_seed(self.seed, RADIO_STREAM)

    def validate(self) -> "PipelineConfig":
        """Force every derived config through its own checks."""
        for part in (self, self.sim):
            for f in fields(part):
                value = getattr(part, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:  # substream_seed cannot derive from a negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.arena_config()
        self.boost_params()
        self.traffic_params()
        self.topology_config("centralized", True)
        if self.sim.min_power > self.sim.max_power:
            raise ConfigError(f"min_power {self.sim.min_power} exceeds "
                              f"max_power {self.sim.max_power}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ConfigError(f"fixed_k must be >= 1, got {self.fixed_k}")
        if not 0 < self.train_fraction < 1:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.history_length < 1 or self.horizon < 1:
            raise ConfigError("history_length and horizon must be >= 1")
        return self


def _opt_int(text: str) -> int | None:
    return None if text == "" else int(text)


_PARSERS = {"int": int, "float": float, "int | None": _opt_int}
_ANNOTATIONS = {f.name: f.type for cls in (SimConfig, PipelineConfig) for f in fields(cls)}

# Each section's keys, in the order save_config writes them.
_SCHEMAS: dict[str, tuple[str, ...]] = {
    "pipeline": ("seed",),
    "simulation": tuple(f.name for f in fields(SimConfig)),
    "mobility": ("pause_time", "sample_interval", "duration"),
    "predictor": ("max_depth", "learning_rate", "num_rounds", "early_stop_patience",
                  "min_samples_leaf", "history_length", "horizon", "train_fraction"),
    "clustering": ("restarts", "fixed_k"),
    "traffic": ("min_size", "max_size", "mean_interarrival", "packets_per_station"),
    "topology": ("link_bitrate", "backbone_bitrate", "propagation_speed",
                 "processing_delay", "queue_capacity"),
}


def _fmt(value) -> str:
    return "" if value is None else str(value)  # a float's str is its repr


def save_config(cfg: PipelineConfig, path: str) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    for section, schema in _SCHEMAS.items():
        owner = cfg.sim if section == "simulation" else cfg
        cp[section] = {k: _fmt(getattr(owner, k)) for k in schema}
    buf = io.StringIO()
    cp.write(buf)
    atomic_write_text(path, buf.getvalue())


def load_config(path: str) -> PipelineConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    problems: list[str] = []
    values: dict[str, dict] = {}
    for section in cp.sections():
        schema = _SCHEMAS.get(section)
        if schema is None:
            problems.append(f"unrecognized section [{section}]")
            continue
        values[section] = {}
        for key, raw in cp[section].items():
            if key not in schema:
                problems.append(f"unrecognized key {key!r} in section [{section}]")
                continue
            try:
                # int and float also read "2_56" and non-ASCII digits,
                # which save_config never writes.
                if not raw.isascii() or "_" in raw:
                    raise ValueError(raw)
                values[section][key] = _PARSERS[_ANNOTATIONS[key]](raw)
            except ValueError:
                problems.append(f"bad value for {key!r} in section [{section}]: {raw!r}")
    if problems:
        raise ConfigError(f"{path}: {'; '.join(problems)}")

    try:
        kwargs: dict = {"sim": SimConfig(**values.pop("simulation", {}))}
        for section_values in values.values():
            kwargs.update(section_values)
        return PipelineConfig(**kwargs)
    except FanetSimError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
