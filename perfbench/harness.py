"""Instrumented in-process studies of the fanetsim CLI pipeline.

A study is one pass of the README's CLI sequence (mobility, train, predict,
cluster, heads, four runs, compare), driven in this process through
``fanetsim.cli.main`` with the same arguments a user would type. While a
study runs, the module functions the CLI calls are replaced by wrappers that
time each call, count it as one operation, and take the counts and checks the
benchmark reports. ``src/`` is not modified: the wrappers are installed on the
imported module objects and removed again afterwards.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import resource
import time
from dataclasses import dataclass, field

from fanetsim import (cli, clustering, headselect, metrics, mobility, netsim,
                      predictor, traffic)
from fanetsim.config import PipelineConfig, save_config
from fanetsim.netsim import SimConfig

TOPOLOGIES = ("cen_on", "cen_off", "dec_on", "dec_off")


@dataclass(frozen=True)
class Workload:
    """One scenario. ``config`` is None for the stock defaults (no --config);
    ``predict`` False replaces train/predict by the true positions at the
    end of the trace, so the predictor is bypassed and the simulated
    statistics are fixed per seed (checked against reference.json)."""
    name: str
    config: PipelineConfig | None
    predict: bool


def _fleet_config(mean_interarrival: float, stations: int = 2000,
                  packets: int = 100, duration: float = 360.0) -> PipelineConfig:
    # The trace is coarse (10 s grid) because only its last sample is used
    # for positions; its duration is the simulation horizon, so it must
    # cover the whole traffic span (~100 gaps of mean_interarrival).
    return PipelineConfig(sim=SimConfig(num_nodes=stations), duration=duration,
                          sample_interval=10.0, mean_interarrival=mean_interarrival,
                          packets_per_station=packets).validate()


def workloads() -> dict[str, Workload]:
    """The benchmark's scenarios; see perfbench/README.md for why each exists."""
    return {
        # The paper's default scenario, exactly as `fanetsim` runs it.
        "stock": Workload("stock", None, predict=True),
        # 2000 stations at the stock ~68% load of the shared air channel
        # (2000 * 8192 bit / 2.4 s / 10 Mbit/s): run_sim mostly serves.
        "fleet": Workload("fleet", _fleet_config(2.4), predict=False),
        # The fleet at 4x the offered load: run_sim mostly drops.
        "overload": Workload("overload", _fleet_config(0.6), predict=False),
    }


def tiny_workloads() -> dict[str, Workload]:
    """Seconds-long versions of each workload, for the self-test."""
    return {
        "stock": Workload("stock-tiny", PipelineConfig(
            duration=120.0, num_rounds=40, restarts=2,
            packets_per_station=25).validate(), predict=True),
        "fleet": Workload("fleet-tiny", _fleet_config(2.4, stations=80, packets=20,
                                                      duration=90.0),
                          predict=False),
        "overload": Workload("overload-tiny", _fleet_config(0.6, stations=80,
                                                            packets=20, duration=90.0),
                             predict=False),
    }


# --- recording ---------------------------------------------------------------

class Recorder:
    """Per-study operation counts, checks and (when traced) spans.

    A span is [name, tag, start, end, parent index]; spans stay in memory
    until the caller writes them out. Check work runs inside ``check()`` and
    is timed separately so it can be taken out of the study time.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_s = 0.0
        self.sim_s = 0.0
        self.sim_packets = 0
        self.counts: dict[str, float] = {}
        self.topo: dict[str, dict] = {}
        self.last_topology: str | None = None
        self.trees_built = 0

    def open(self, name: str, tag: str | None = None) -> list:
        span = [name, tag, time.perf_counter(), None,
                self._stack[-1] if self._stack else None]
        if self.traced:
            self._stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def close(self, span: list) -> float:
        span[3] = time.perf_counter()
        if self.traced:
            self._stack.pop()
        return span[3] - span[2]

    @contextlib.contextmanager
    def check(self):
        span = self.open("bench.check")
        try:
            yield
        finally:
            self.check_s += self.close(span)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def records_digest(records) -> str:
    """sha256 over the simulated outcome of every packet, in record order."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.packet_id},{r.src},{r.size},{r.send_time!r},"
                 f"{r.delivery_time!r},{int(r.dropped)},{r.drop_reason}\n".encode())
    return h.hexdigest()


def _topology_tag(args, kwargs) -> str:
    cfg = (args[0] if args else kwargs["topology"]).config
    return f"{cfg.mode[:3]}_{'on' if cfg.clustering else 'off'}"


def _target_tag(args, kwargs) -> str:
    return kwargs.get("target", args[2] if len(args) > 2 else "x")


def _after_walk(rec, tag, trace, elapsed):
    rec.counts["mobility.stations"] = len(trace.station_ids)
    rec.add("mobility.station_samples", len(trace.station_ids) * trace.num_samples)


def _count_tree(rec, args, kwargs, tree):
    rec.trees_built += 1


def _after_train_matrix(rec, args, kwargs, model):
    """Rounds are the trees built, also those early stopping then discards;
    both targets fit on the same rows, so those are recorded once."""
    rows, built = len(args[0]), rec.trees_built
    rec.trees_built = 0
    rec.counts[f"predictor.train.rounds_{kwargs.get('target', 'x')}"] = built
    rec.counts["predictor.train.fit_rows"] = rows
    rec.add("predictor.train.row_rounds", rows * built)


def _after_rmse(rec, tag, result, elapsed):
    rmse, persistence = result
    rec.counts[f"predictor.test_rmse.{tag}"] = rmse
    with rec.check():
        if not rmse < persistence:
            rec.fail(f"{tag} model test rmse {rmse} does not beat "
                     f"persistence {persistence}")


def _after_clusters(rec, tag, assignment, elapsed):
    rec.counts["clustering.k"] = assignment.k


def _after_heads(rec, tag, selection, elapsed):
    rec.counts["headselect.max_cluster_size"] = max(
        len(ch.member_ids) for ch in selection.heads.values())


def _after_workload(rec, tag, packets, elapsed):
    rec.add("traffic.packets", len(packets))


def _after_run_sim(rec, tag, records, elapsed):
    rec.last_topology = tag
    rec.sim_s += elapsed
    rec.sim_packets += len(records)
    with rec.check():
        rec.topo.setdefault(tag, {})["records_sha256"] = records_digest(records)


def _after_conservation(rec, tag, audit, elapsed):
    by_reason = audit["by_reason"]
    rec.topo.setdefault(rec.last_topology, {}).update(
        delivered=audit["delivered"], dropped_queue=by_reason.get("queue", 0),
        dropped_horizon=by_reason.get("horizon", 0))


# (owner, attribute, span name, tag function, after hook). The owner is the
# namespace the CLI looks the name up in: `from x import f` in cli.py binds
# f in cli's namespace, so that is where it is replaced.
_INSTRUMENTED = (
    (mobility, "simulate_random_waypoint", "mobility.simulate_random_waypoint",
     None, _after_walk),
    (mobility, "write_trace", "mobility.write_trace", None, None),
    (mobility, "read_trace", "mobility.read_trace", None, None),
    (predictor, "build_dataset", "predictor.build_dataset", None, None),
    (predictor, "train", "predictor.train", _target_tag, None),
    (predictor, "save_model", "predictor.save_model", None, None),
    (predictor, "evaluate_rmse", "predictor.evaluate_rmse",
     lambda a, k: a[0].target, _after_rmse),
    (predictor, "load_model", "predictor.load_model", None, None),
    (predictor, "predict_positions", "predictor.predict_positions", None, None),
    (predictor, "write_predictions", "predictor.write_predictions", None, None),
    (predictor, "read_predictions", "predictor.read_predictions", None, None),
    (clustering, "create_clusters", "clustering.create_clusters", None,
     _after_clusters),
    (clustering, "write_clusters", "clustering.write_clusters", None, None),
    (clustering, "read_clusters", "clustering.read_clusters", None, None),
    (headselect, "select_heads", "headselect.select_heads", None, _after_heads),
    (headselect, "write_heads", "headselect.write_heads", None, None),
    (headselect, "build_pairwise", "headselect.build_pairwise", None, None),
    (headselect, "weight_sweep", "headselect.weight_sweep", None, None),
    (headselect, "read_heads", "headselect.read_heads", None, None),
    (netsim, "build_topology", "netsim.build_topology", None, None),
    (traffic, "generate_workload", "traffic.generate_workload", None,
     _after_workload),
    (netsim, "run_sim", "netsim.run_sim", _topology_tag, _after_run_sim),
    (netsim, "conservation_check", "netsim.conservation_check", None,
     _after_conservation),
    (netsim, "write_records", "netsim.write_records", None, None),
    (metrics, "compute_report", "metrics.compute_report", None, None),
    (metrics, "write_report", "metrics.write_report", None, None),
    (metrics, "read_report", "metrics.read_report", None, None),
    (metrics, "compare", "metrics.compare", None, None),
    (metrics, "write_comparison", "metrics.write_comparison", None, None),
    (cli, "load_config", "config.load_config", None, None),
    (cli, "save_config", "config.save_config", None, None),
    (cli, "atomic_write_text", "ioutil.atomic_write_text", None, None),
    (cli, "atomic_write_json", "ioutil.atomic_write_json", None, None),
)

SPAN_NAMES = tuple(sorted({name for _, _, name, _, _ in _INSTRUMENTED}))


class Session:
    """Owns the wrappers for one benchmark process; ``rec`` is swapped per study."""

    def __init__(self):
        self.rec = Recorder(traced=False)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr, name, tag_fn, after):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.rec
            tag = tag_fn(args, kwargs) if tag_fn else None
            rec.attempted += 1
            span = rec.open(name, tag)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec.close(span)
                rec.fail(f"{name} raised {type(exc).__name__}: {exc}")
                raise
            elapsed = rec.close(span)
            if after is not None:
                after(rec, tag, result, elapsed)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _probe(self, owner, attr, hook):
        """Count-only wrapper: no span, no operation, no timing."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self.rec, args, kwargs, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Session":
        for spec in _INSTRUMENTED:
            self._wrap(*spec)
        # train() fits on its own slice of the dataset and the model it
        # returns keeps only the trees up to the best round; the rows fitted
        # and the trees built are only visible at these inner calls.
        self._probe(predictor._TreeBuilder, "to_tree", _count_tree)
        self._probe(predictor, "train_matrix", _after_train_matrix)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


# --- one study ---------------------------------------------------------------

@dataclass
class StudyResult:
    seconds: float
    rec: Recorder
    peak_rss_mb: float  # process high-water mark when the study ended
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def sim_pkts_per_s(self) -> float:
        return self.rec.sim_packets / self.rec.sim_s if self.rec.sim_s else 0.0


def _step(rec: Recorder, name: str, fn) -> bool:
    """One stage of a study; False when it failed (the study then stops).

    A failure inside a wrapped call is already counted; anything else (a
    non-zero exit, an exception in code between the calls) counts here.
    """
    span = rec.open(name)
    failed_before = rec.failed
    try:
        ok, problem = fn(), f"{name} failed"
    except Exception as exc:
        ok, problem = False, f"{name} raised {type(exc).__name__}: {exc}"
    finally:
        rec.close(span)
    if not ok and rec.failed == failed_before:
        rec.fail(problem)
    return ok


def _cli(argv: list[str]) -> bool:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv) == 0


def _end_of_trace_positions(run: str) -> bool:
    """Stand-in for train/predict: true positions at the end of the trace."""
    trace = mobility.read_trace(os.path.join(run, cli.TRACE_FILE))
    positions = {sid: (float(trace.positions[sid][-1, 0]),
                       float(trace.positions[sid][-1, 1]))
                 for sid in trace.station_ids}
    predictor.write_predictions(positions, os.path.join(run, cli.PREDICTIONS_FILE))
    return True


def _digest_tree(root: str) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def cli_commands(wl: Workload, seed: int, run: str,
                 config_path: str | None) -> list[list[str]]:
    """The README's `fanetsim` command sequence for ``wl``, writing into ``run``.

    Workloads that bypass the predictor leave out train and predict; their
    predictions.csv is written by the benchmark before `cluster`.
    """
    common = ["--seed", str(seed)]
    if config_path is not None:
        common += ["--config", config_path]
    trace = os.path.join(run, cli.TRACE_FILE)
    preds = os.path.join(run, cli.PREDICTIONS_FILE)
    clusters = os.path.join(run, cli.CLUSTERS_FILE)
    commands = [["mobility", *common, "--out", run]]
    if wl.predict:
        commands += [
            ["train", *common, "--out", run, "--trace", trace],
            ["predict", *common, "--out", run, "--trace", trace,
             "--model-x", os.path.join(run, cli.MODEL_X_FILE),
             "--model-y", os.path.join(run, cli.MODEL_Y_FILE)],
        ]
    commands += [
        ["cluster", *common, "--out", run, "--predictions", preds],
        ["heads", *common, "--out", run, "--clusters", clusters,
         "--predictions", preds],
    ]
    sub_dirs = [f"{mode}-{clust}" for mode in ("centralized", "decentralized")
                for clust in ("on", "off")]
    for sub in sub_dirs:
        mode, clust = sub.split("-")
        commands.append(["run", *common, "--out", os.path.join(run, sub),
                         "--mode", mode, "--clustering", clust, "--trace", trace,
                         "--clusters", clusters,
                         "--heads", os.path.join(run, cli.HEADS_FILE)])
    # The shell expands run/*/report.json in sorted order.
    reports = sorted(os.path.join(run, s, cli.REPORT_JSON_FILE) for s in sub_dirs)
    commands.append(["compare", *common, "--out", os.path.join(run, "cmp"),
                     "--reports", *reports])
    return commands


def run_study(session: Session, wl: Workload, seed: int, work_dir: str,
              traced: bool, config_path: str | None) -> StudyResult:
    """Run the CLI sequence for ``wl`` into ``work_dir/run`` and check it."""
    rec = session.rec = Recorder(traced)
    run = os.path.join(work_dir, "run")
    commands = cli_commands(wl, seed, run, config_path)
    steps = [(f"cli.{argv[0]}", functools.partial(_cli, argv)) for argv in commands]
    if not wl.predict:
        steps.insert(1, ("bench.positions",
                         functools.partial(_end_of_trace_positions, run)))

    study = rec.open("study")
    for name, fn in steps:
        if not _step(rec, name, fn):
            break
    wall = rec.close(study)
    result = StudyResult(seconds=wall - rec.check_s, rec=rec,
                         peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if os.path.isdir(run):
        result.artifacts = _digest_tree(run)
    return result


def write_config(wl: Workload, path: str) -> str | None:
    if wl.config is None:
        return None
    save_config(wl.config, path)
    return path


# --- traced-run analysis -------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


# Spans whose calls differ by argument are reported per tag.
_TAGGED = {"netsim.run_sim": TOPOLOGIES, "predictor.train": ("x", "y")}
_GLUE = {"study": "bench.glue.s", "bench.positions": "bench.glue.s",
         "bench.check": "bench.check.s"}


def _time_keys() -> list[str]:
    keys = []
    for name in SPAN_NAMES:
        tags = _TAGGED.get(name)
        keys += [f"{name}.{t}.s" for t in tags] if tags else [f"{name}.s"]
    return keys + ["cli.glue.s", "bench.glue.s", "bench.check.s"]


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced study yields, with its unit."""
    units = {key: "s" for key in _time_keys()}
    units.update({
        "predictor.train.rounds_x": "count", "predictor.train.rounds_y": "count",
        "predictor.train.fit_rows": "count", "predictor.train.row_rounds_per_s": "1/s",
        "predictor.test_rmse_m": "m", "mobility.station_samples": "count",
        "clustering.k": "count", "headselect.max_cluster_size": "count",
        "traffic.packets": "count",
        "bench.share.predictor.train": "ratio", "bench.share.netsim.run_sim": "ratio",
    })
    for topo in TOPOLOGIES:
        units[f"netsim.run_sim.{topo}.pkts_per_s"] = "1/s"
        for stat in ("delivered", "dropped_queue", "dropped_horizon"):
            units[f"netsim.{topo}.{stat}"] = "count"
    return units


def study_layers(res: StudyResult) -> tuple[dict[str, float], float]:
    """Per-layer values of one traced study, and the sum of the self times
    of the wrapped module functions (CLI glue, harness glue and checks left
    out), so time spent outside those functions lowers it."""
    rec = res.rec
    times = dict.fromkeys(_time_keys(), 0.0)
    for span, own in zip(rec.spans, self_times(rec.spans)):
        name, tag = span[0], span[1]
        if name in _TAGGED:
            key = f"{name}.{tag}.s"
        elif name.startswith("cli."):
            key = "cli.glue.s"
        else:
            key = _GLUE.get(name, f"{name}.s")
        times[key] += own
    layer_total = sum(times.values()) - sum(
        times[k] for k in ("cli.glue.s", "bench.glue.s", "bench.check.s"))

    out: dict[str, float] = dict(times)
    counts = rec.counts
    train_s = times["predictor.train.x.s"] + times["predictor.train.y.s"]
    sim_s = sum(times[f"netsim.run_sim.{t}.s"] for t in TOPOLOGIES)
    rmse = [counts[k] for k in ("predictor.test_rmse.x", "predictor.test_rmse.y")
            if k in counts]
    for key in ("predictor.train.rounds_x", "predictor.train.rounds_y",
                "predictor.train.fit_rows", "mobility.station_samples",
                "clustering.k", "headselect.max_cluster_size", "traffic.packets"):
        out[key] = counts.get(key, 0)
    out["predictor.train.row_rounds_per_s"] = (
        counts.get("predictor.train.row_rounds", 0) / train_s if train_s else 0.0)
    out["predictor.test_rmse_m"] = sum(rmse) / len(rmse) if rmse else 0.0
    out["bench.share.predictor.train"] = train_s / res.seconds
    out["bench.share.netsim.run_sim"] = sim_s / res.seconds
    for topo in TOPOLOGIES:
        stats = rec.topo.get(topo, {})
        for stat in ("delivered", "dropped_queue", "dropped_horizon"):
            out[f"netsim.{topo}.{stat}"] = stats.get(stat, 0)
        resolved = sum(stats.get(s, 0) for s in ("delivered", "dropped_queue",
                                                  "dropped_horizon"))
        topo_s = times[f"netsim.run_sim.{topo}.s"]
        out[f"netsim.run_sim.{topo}.pkts_per_s"] = resolved / topo_s if topo_s else 0.0
    return out, layer_total
