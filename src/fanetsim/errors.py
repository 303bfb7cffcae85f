"""Exception types shared across the package.

Every error raised on purpose derives from FanetSimError so callers (and the
CLI) can separate our validation failures from genuine bugs.
"""


class FanetSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FanetSimError):
    """Invalid or inconsistent configuration value."""


class TraceParseError(FanetSimError):
    """Malformed trace file. Carries the file path and, when a row is at
    fault, its 1-based line number."""

    def __init__(self, path: str, message: str, line: int | None = None):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class DatasetError(FanetSimError):
    """Trace unsuitable for supervised dataset construction."""


class TrainingError(FanetSimError):
    """Invalid hyperparameters or degenerate training data."""


class PredictionError(FanetSimError):
    """Model cannot be applied to the given features or trace."""


class ClusteringError(FanetSimError):
    """Invalid clustering request: bad k, degenerate points, short curve."""


class SelectionError(FanetSimError):
    """Cluster-head selection on an invalid cluster or parameterization."""


class BenchmarkError(FanetSimError):
    """Invalid benchmark arguments."""


class TopologyError(FanetSimError):
    """Topology construction failed validation."""


class SimulationError(FanetSimError):
    """Event simulation violated an internal invariant."""


class MetricsError(FanetSimError):
    """Report computation or comparison on incompatible inputs."""
