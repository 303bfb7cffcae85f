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

from .errors import ConfigError, FanetSimError
from .ioutil import (CLUSTER_STREAM, MOBILITY_STREAM, RADIO_STREAM,
                     TRAFFIC_STREAM, atomic_write_text, substream_seed)
from .mobility import ArenaConfig
from .netsim import SimConfig, TopologyConfig
from .predictor import BoostParams
from .traffic import TrafficParams


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    sim: SimConfig = SimConfig()
    pause_time: float = 0.0
    sample_interval: float = 1.0
    duration: float = 3600.0
    max_depth: int = 6
    learning_rate: float = 0.1
    num_rounds: int = 100
    early_stop_patience: int = 10
    min_samples_leaf: int = 2
    history_length: int = 5
    horizon: int = 1
    train_fraction: float = 0.8
    restarts: int = 10
    fixed_k: int | None = 3
    min_size: int = 256
    max_size: int = 2048
    mean_interarrival: float = 0.030
    packets_per_station: int = 100
    link_bitrate: float = 10e6
    backbone_bitrate: float = 50e6
    propagation_speed: float = 3e8
    processing_delay: float = 1e-4
    queue_capacity: int = 3

    def with_seed(self, seed: int) -> "PipelineConfig":
        return replace(self, seed=seed)

    def arena_config(self) -> ArenaConfig:
        return ArenaConfig(
            width=self.sim.area_width, height=self.sim.area_height,
            num_stations=self.sim.num_nodes, min_speed=self.sim.min_speed,
            max_speed=self.sim.max_speed, pause_time=self.pause_time,
            sample_interval=self.sample_interval, duration=self.duration,
            seed=substream_seed(self.seed, MOBILITY_STREAM))

    def boost_params(self) -> BoostParams:
        return BoostParams(
            max_depth=self.max_depth, learning_rate=self.learning_rate,
            num_rounds=self.num_rounds, early_stop_patience=self.early_stop_patience,
            min_samples_leaf=self.min_samples_leaf)

    def traffic_params(self) -> TrafficParams:
        return TrafficParams(
            mean_size=self.sim.packet_size, size_sigma=self.sim.packet_size_sigma,
            min_size=self.min_size, max_size=self.max_size,
            mean_interarrival=self.mean_interarrival,
            packets_per_station=self.packets_per_station,
            seed=substream_seed(self.seed, TRAFFIC_STREAM))

    def topology_config(self, mode: str, clustering: bool) -> TopologyConfig:
        return TopologyConfig(
            mode=mode, clustering=clustering, link_bitrate=self.link_bitrate,
            backbone_bitrate=self.backbone_bitrate,
            propagation_speed=self.propagation_speed,
            processing_delay=self.processing_delay,
            queue_capacity=self.queue_capacity, radio_range=self.sim.radio_range)

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


_SIM_TYPES = {
    "area_width": float, "area_height": float, "num_nodes": int,
    "radio_range": float, "min_speed": float, "max_speed": float,
    "min_power": float, "max_power": float, "packet_size": float,
    "packet_size_sigma": float,
}

_SCHEMAS: dict[str, dict] = {
    "pipeline": {"seed": int},
    "simulation": _SIM_TYPES,
    "mobility": {"pause_time": float, "sample_interval": float, "duration": float},
    "predictor": {
        "max_depth": int, "learning_rate": float, "num_rounds": int,
        "early_stop_patience": int, "min_samples_leaf": int,
        "history_length": int, "horizon": int, "train_fraction": float,
    },
    "clustering": {"restarts": int, "fixed_k": _opt_int},
    "traffic": {"min_size": int, "max_size": int, "mean_interarrival": float,
                "packets_per_station": int},
    "topology": {"link_bitrate": float, "backbone_bitrate": float,
                 "propagation_speed": float, "processing_delay": float,
                 "queue_capacity": int},
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
                values[section][key] = schema[key](raw)
            except ValueError:
                problems.append(f"bad value for {key!r} in section [{section}]: {raw!r}")
    if problems:
        raise ConfigError(f"{path}: {'; '.join(problems)}")

    try:
        kwargs: dict = {"sim": SimConfig(**values.pop("simulation", {}))}
        for section_values in values.values():
            kwargs.update(section_values)
        return PipelineConfig(**kwargs).validate()
    except FanetSimError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
