"""Deterministic simulator for ML-assisted clustering in UAV ad hoc networks.

The pipeline: generate random-waypoint mobility traces, train boosted-tree
position predictors, cluster the predicted positions with automatic cluster
count selection, elect cluster heads from pairwise distance and signal
power, then measure delay, jitter, and throughput of packet delivery under
centralized/decentralized x clustered/non-clustered topologies.
"""

from .clustering import (ClusterAssignment, create_clusters, elbow_curve,
                         kmeans, knee_point, read_clusters, write_clusters)
from .config import PipelineConfig, load_config, save_config
from .errors import (BenchmarkError, ClusteringError, ConfigError,
                     DatasetError, FanetSimError, MetricsError,
                     PredictionError, SelectionError, SimulationError,
                     TopologyError, TraceParseError, TrainingError)
from .headselect import (BenchResult, ClusterHead, HeadSelection,
                         PairwiseSums, StationRadio, WeightSweep, bench_ch,
                         build_pairwise, exact_head, heuristic_score,
                         knn_head, read_heads, received_power, select_heads,
                         weight_sweep, write_heads)
from .metrics import (Comparison, RunReport, StationStats, compare,
                      compute_report, read_report, write_comparison,
                      write_report)
from .mobility import (ArenaConfig, Trace, quantize, read_trace,
                       simulate_random_waypoint, write_trace)
from .netsim import (DeliveryRecord, Hop, SimConfig, SimResult, Topology,
                     TopologyConfig, build_topology, conservation_check,
                     run_sim, write_records)
from .predictor import (BoostedModel, BoostParams, Dataset, FeatureWindow,
                        RegressionTree, build_dataset, evaluate_rmse,
                        load_model, predict_positions, read_predictions,
                        save_model, train, train_matrix, write_predictions)
from .spatial import KDTree
from .traffic import (PACKET_DTYPE, Packet, TrafficParams, as_workload,
                      generate_flow, generate_workload)

__version__ = "0.1.0"

__all__ = [
    "ArenaConfig", "BenchmarkError", "BenchResult", "BoostedModel",
    "BoostParams", "ClusterAssignment", "ClusterHead", "ClusteringError",
    "Comparison", "ConfigError", "Dataset", "DatasetError", "DeliveryRecord",
    "FanetSimError", "FeatureWindow", "HeadSelection", "Hop", "KDTree",
    "MetricsError", "Packet", "PACKET_DTYPE", "PairwiseSums",
    "PipelineConfig", "PredictionError", "RegressionTree", "RunReport",
    "SelectionError", "SimConfig", "SimResult", "SimulationError",
    "StationRadio", "StationStats", "Topology", "TopologyConfig",
    "TopologyError", "Trace", "TraceParseError", "TrafficParams",
    "TrainingError", "WeightSweep", "as_workload", "bench_ch", "build_dataset",
    "build_pairwise", "build_topology", "compare", "compute_report",
    "conservation_check", "create_clusters", "elbow_curve", "evaluate_rmse",
    "exact_head", "generate_flow", "generate_workload", "heuristic_score",
    "kmeans", "knee_point", "knn_head", "load_config", "load_model",
    "predict_positions", "quantize", "read_clusters", "read_heads",
    "read_predictions", "read_report", "read_trace", "received_power",
    "run_sim", "save_config", "save_model", "select_heads",
    "simulate_random_waypoint", "train", "train_matrix", "weight_sweep",
    "write_clusters", "write_comparison", "write_heads", "write_predictions",
    "write_records", "write_report", "write_trace",
]
