"""Command-line pipeline: trace -> models -> clusters -> heads -> runs.

Each subcommand reads its predecessor's artifact files, writes its own into
--out, and drops a config_echo.ini beside them so any stage can be rerun
from disk alone. All outputs are deterministic for a given config and seed;
rerunning a stage reproduces its files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys

import numpy as np

from . import clustering as clustering_mod
from . import headselect, metrics, mobility, netsim, predictor, traffic
from .config import PipelineConfig, load_config, save_config
from .errors import FanetSimError, PredictionError
from .ioutil import atomic_write_json, atomic_write_text

TRACE_FILE = "trace.csv"
MODEL_X_FILE = "model_x.json"
MODEL_Y_FILE = "model_y.json"
TRAIN_REPORT_FILE = "train_report.json"
PREDICTIONS_FILE = "predictions.csv"
CLUSTERS_FILE = "clusters.json"
HEADS_FILE = "heads.json"
RECORDS_FILE = "records.csv"
REPORT_CSV_FILE = "report.csv"
REPORT_JSON_FILE = "report.json"
COMPARISON_FILE = "comparison.json"
BENCH_FILE = "bench.csv"
BENCH_REFS_FILE = "bench_refs.csv"
ECHO_FILE = "config_echo.ini"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this tool reserves 2 for data
    errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _require(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise FanetSimError(f"missing {what} artifact: {path}")
    return path


def _prepare(args) -> tuple[PipelineConfig, str]:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed).validate()
    out = args.out
    os.makedirs(out, exist_ok=True)
    save_config(cfg, os.path.join(out, ECHO_FILE))
    return cfg, out


def _fmt_opt(v, spec=".6g"):
    return "none" if v is None else format(v, spec)


def cmd_mobility(args) -> None:
    cfg, out = _prepare(args)
    trace = mobility.simulate_random_waypoint(cfg.arena_config())
    path = os.path.join(out, TRACE_FILE)
    mobility.write_trace(trace, path)
    print(f"wrote {path}: {len(trace.station_ids)} stations x "
          f"{trace.num_samples} samples")


def cmd_train(args) -> None:
    cfg, out = _prepare(args)
    trace = mobility.read_trace(_require(args.trace, "trace"), cfg.arena_config())
    dataset = predictor.build_dataset(
        trace, h=cfg.history_length, horizon=cfg.horizon,
        train_fraction=cfg.train_fraction)
    params = cfg.boost_params()
    summary = {}
    for target, fname in (("x", MODEL_X_FILE), ("y", MODEL_Y_FILE)):
        model = predictor.train(dataset, params, target=target)
        predictor.save_model(model, os.path.join(out, fname))
        y = dataset.target_x if target == "x" else dataset.target_y
        rmse, persist = predictor.evaluate_rmse(
            model, dataset.X[dataset.test_idx], y[dataset.test_idx])
        summary[target] = {"rounds": len(model.trees), "test_rmse": rmse,
                           "persistence_rmse": persist}
        print(f"model_{target}: {len(model.trees)} rounds, "
              f"test rmse {rmse:.4f} m (persistence {persist:.4f} m)")
    atomic_write_json(os.path.join(out, TRAIN_REPORT_FILE), summary)


def cmd_predict(args) -> None:
    cfg, out = _prepare(args)
    trace = mobility.read_trace(_require(args.trace, "trace"), cfg.arena_config())
    model_x = predictor.load_model(_require(args.model_x, "x model"))
    model_y = predictor.load_model(_require(args.model_y, "y model"))
    try:
        preds = predictor.predict_positions(
            model_x, model_y, trace, (cfg.sim.area_width, cfg.sim.area_height))
    except PredictionError as exc:
        raise PredictionError(f"--model-x {args.model_x}, --model-y {args.model_y}: "
                              f"{exc}") from exc
    path = os.path.join(out, PREDICTIONS_FILE)
    predictor.write_predictions(preds, path)
    print(f"wrote {path}: {len(preds)} stations at t={trace.times[-1]:g}")


def cmd_cluster(args) -> None:
    cfg, out = _prepare(args)
    preds = predictor.read_predictions(_require(args.predictions, "predictions"))
    assignment = clustering_mod.create_clusters(
        preds, seed=cfg.cluster_seed(),
        restarts=cfg.restarts, fixed_k=cfg.fixed_k)
    path = os.path.join(out, CLUSTERS_FILE)
    clustering_mod.write_clusters(assignment, path)
    knee = " (no knee)" if assignment.no_knee else ""
    print(f"wrote {path}: k={assignment.k}{knee}, wcss={assignment.wcss:.2f}")


def _station_radios(cfg: PipelineConfig,
                    positions: dict[int, tuple[float, float]]) -> dict[int, headselect.StationRadio]:
    radio_seed = cfg.radio_seed()
    radios = {}
    for sid in sorted(positions):
        rng = np.random.default_rng([radio_seed, sid])
        power = float(rng.uniform(cfg.sim.min_power, cfg.sim.max_power))
        radios[sid] = headselect.StationRadio(
            station_id=sid, position=positions[sid], base_power=power)
    return radios


def cmd_heads(args) -> None:
    cfg, out = _prepare(args)
    assignment = clustering_mod.read_clusters(_require(args.clusters, "clusters"))
    preds = predictor.read_predictions(_require(args.predictions, "predictions"))
    _check_agree(f"predictions file {args.predictions}", dict.fromkeys(preds, True),
                 f"clusters file {args.clusters}",
                 dict.fromkeys(assignment.station_ids, True), "station")
    selection = headselect.select_heads(assignment.members(), _station_radios(cfg, preds))
    path = os.path.join(out, HEADS_FILE)
    headselect.write_heads(selection, path)
    heads_str = ", ".join(f"{c}->{ch.head_id}" for c, ch in sorted(selection.heads.items()))
    print(f"wrote {path}: heads {heads_str}")


def _check_agree(a_file: str, a: dict, b_file: str, b: dict, what: str) -> None:
    """Two artifacts must give every key the same value (a station set maps
    each id to True); the error names both files and the first key that differs."""
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            raise FanetSimError(f"{a_file} disagrees with {b_file} on {what} {key}")


def cmd_run(args) -> None:
    cfg, out = _prepare(args)
    clustering_on = args.clustering == "on"
    trace = mobility.read_trace(_require(args.trace, "trace"), cfg.arena_config())
    positions = {sid: (x, y) for sid, (x, y)
                 in zip(trace.station_ids, trace.positions[:, -1].tolist())}

    topo_cfg = cfg.topology_config(args.mode, clustering_on)
    members = head_ids = None
    if topo_cfg.needs_clusters:
        if not args.clusters:
            raise FanetSimError(
                f"missing clusters artifact: --clusters is required for "
                f"mode={args.mode} clustering={args.clustering}")
        assignment = clustering_mod.read_clusters(_require(args.clusters, "clusters"))
        _check_agree(f"trace file {args.trace}", dict.fromkeys(trace.station_ids, True),
                     f"clusters file {args.clusters}",
                     dict.fromkeys(assignment.station_ids, True), "station")
        members = assignment.members()
    if clustering_on:
        if not args.heads:
            raise FanetSimError(
                "missing heads artifact: --heads is required when clustering is on")
        heads = headselect.read_heads(_require(args.heads, "heads"))
        _check_agree(f"heads file {args.heads}",
                     {c: sorted(ch.member_ids) for c, ch in heads.heads.items()},
                     f"clusters file {args.clusters}", members, "the members of cluster")
        head_ids = heads.head_ids()

    topo = netsim.build_topology(
        topo_cfg, positions, clusters=members, heads=head_ids,
        arena=(cfg.sim.area_width, cfg.sim.area_height))
    workload = traffic.generate_workload(trace.station_ids, cfg.traffic_params())
    result = netsim.run_sim(topo, workload, horizon=cfg.duration)
    audit = netsim.conservation_check(result, workload)

    duration = float(workload["creation_time"].max(initial=0.0)) or 1.0
    report = metrics.compute_report(result, duration, mode=args.mode,
                                    clustering=clustering_on)
    netsim.write_records(result, os.path.join(out, RECORDS_FILE))
    metrics.write_report(report, os.path.join(out, REPORT_CSV_FILE),
                         os.path.join(out, REPORT_JSON_FILE))
    agg = report.aggregates
    print(f"{report.label()}: delivered {audit['delivered']}/{audit['sent']} "
          f"(dropped {audit['dropped']}), "
          f"delay {_fmt_opt(agg['delay_ms']['mean'], '.4f')} ms, "
          f"jitter {_fmt_opt(agg['jitter_ms']['mean'], '.4f')} ms, "
          f"throughput {_fmt_opt(agg['throughput_bps']['mean'], '.1f')} B/s")


def _dedup_labels(reports) -> list[str]:
    labels = []
    seen: dict[str, int] = {}
    for rep in reports:
        base = rep.label()
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
    return labels


def cmd_compare(args) -> None:
    cfg, out = _prepare(args)
    del cfg
    if not 2 <= len(args.reports) <= 4:
        raise _UsageError("compare takes between 2 and 4 report files")
    reports = [metrics.read_report(_require(p, "report")) for p in args.reports]
    labels = _dedup_labels(reports)

    comparisons = []
    for i, j in itertools.combinations(range(len(reports)), 2):
        comp = metrics.compare(reports[i], reports[j])
        comp.label_a = labels[i]
        comp.label_b = labels[j]
        comparisons.append(comp)
    metrics.write_comparison(comparisons, os.path.join(out, COMPARISON_FILE))

    sids = sorted(reports[0].stations)
    units = {"delay_ms": "ms", "jitter_ms": "ms", "throughput_bps": "bytes/s"}
    agg_lines = ["metric,label,mean,std"]
    for key in metrics.METRIC_KEYS:
        lines = ["station_id," + ",".join(labels)]
        for sid in sids:
            lines.append(f"{sid}," + ",".join(
                metrics.csv_cell(getattr(rep.stations[sid], key) if sid in rep.stations else None)
                for rep in reports))
        atomic_write_text(os.path.join(out, f"per_station_{key}.csv"),
                          "\n".join(lines) + "\n")
        entries = []
        for label, rep in zip(labels, reports):
            agg = rep.aggregates[key]
            agg_lines.append(f"{key},{label},{metrics.csv_cell(agg['mean'])},"
                             f"{metrics.csv_cell(agg['std'])}")
            entries.append((label, agg["mean"]))
        svg = _svg_bars(f"mean {key.replace('_', ' ')}", units[key], entries)
        atomic_write_text(os.path.join(out, f"{key}.svg"), svg)
    atomic_write_text(os.path.join(out, "aggregate_means.csv"),
                      "\n".join(agg_lines) + "\n")

    for comp in comparisons:
        parts = []
        for key in metrics.METRIC_KEYS:
            pct = comp.percent[key]
            parts.append(f"{key} {'n/a' if pct is None else format(pct, '+.1f') + '%'}")
        print(f"{comp.label_a} -> {comp.label_b}: " + ", ".join(parts))


def cmd_bench(args) -> None:
    cfg, out = _prepare(args)
    result = headselect.bench_ch(args.m_values, repetitions=args.repetitions,
                                 k=args.k, seed=cfg.seed)
    headselect.write_bench(result, os.path.join(out, BENCH_FILE))
    headselect.write_bench_refs(result, os.path.join(out, BENCH_REFS_FILE))
    atomic_write_text(os.path.join(out, "bench.svg"), _svg_loglog(result))
    print(f"slopes: pairwise {result.slopes['pairwise']:.3f}, "
          f"knn {result.slopes['knn']:.3f}")


# --- tiny self-contained SVG plots ---------------------------------------

_PALETTE = ("#4878a8", "#b85c3c", "#6a9a58", "#8868a8")


def _svg(w: int, h: int, parts: list[str]) -> str:
    """A w x h SVG document on a white background around parts."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        *parts, "</svg>"]) + "\n"


def _text(x, y, size: int, body: str, anchor: str | None = None,
          fill: str | None = None, transform: str | None = None) -> str:
    """A sans-serif label; x and y are written as given."""
    attrs = [f'x="{x}" y="{y}" font-size="{size}"', anchor and f'text-anchor="{anchor}"',
             fill and f'fill="{fill}"', 'font-family="sans-serif"',
             transform and f'transform="{transform}"']
    return f'<text {" ".join(a for a in attrs if a)}>{body}</text>'


def _svg_bars(title: str, unit: str, entries: list[tuple[str, float | None]]) -> str:
    w, h = 640, 400
    ml, mr, mt, mb = 80, 20, 50, 110
    plot_w, plot_h = w - ml - mr, h - mt - mb
    present = [v for _, v in entries if v is not None]
    vmax = max(present) if present else 1.0
    if vmax <= 0:
        vmax = 1.0
    parts = [_text(w / 2, 28, 16, f"{title} ({unit})", "middle")]
    for frac in (0.0, 0.5, 1.0):
        y = mt + plot_h * (1 - frac)
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + plot_w}" y2="{y:.1f}" '
                     f'stroke="#cccccc" stroke-width="1"/>')
        parts.append(_text(ml - 8, f"{y + 4:.1f}", 11, f"{vmax * frac:.6g}", "end"))
    n = len(entries)
    slot = plot_w / max(n, 1)
    for i, (label, value) in enumerate(entries):
        cx = ml + slot * (i + 0.5)
        x, y = f"{cx:.1f}", f"{mt + plot_h + 16:.1f}"
        color = _PALETTE[i % len(_PALETTE)]
        if value is not None:
            bar_h = plot_h * (value / vmax)
            parts.append(f'<rect x="{cx - slot * 0.3:.1f}" '
                         f'y="{mt + plot_h - bar_h:.1f}" width="{slot * 0.6:.1f}" '
                         f'height="{bar_h:.1f}" fill="{color}"/>')
            parts.append(_text(x, f"{mt + plot_h - bar_h - 6:.1f}", 11, f"{value:.6g}",
                               "middle"))
        else:
            parts.append(_text(x, f"{mt + plot_h - 6:.1f}", 11, "n/a", "middle", "#888888"))
        parts.append(_text(x, y, 11, label, "end", transform=f"rotate(-30 {x} {y})"))
    parts.append(f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" '
                 f'y2="{mt + plot_h}" stroke="black" stroke-width="1"/>')
    return _svg(w, h, parts)


def _svg_loglog(result: headselect.BenchResult) -> str:
    w, h = 640, 400
    ml, mr, mt, mb = 70, 160, 50, 60
    plot_w, plot_h = w - ml - mr, h - mt - mb

    measured: dict[str, list[tuple[float, float]]] = {"pairwise": [], "knn": []}
    for method, m, ns in result.rows:
        measured[method].append((math.log10(m), math.log10(max(ns, 1))))
    xs = [x for pts in measured.values() for x, _ in pts]
    ys = [y for pts in measured.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys) - 0.5, max(ys) + 1.5

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return mt + (1 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    mid_x, mid_y = (ml + w - mr) / 2, (mt + h - mb) / 2
    parts = [
        _text(mid_x, 28, 16, "selection time vs cluster size (log-log)", "middle"),
        _text(mid_x, h - 16, 12, "log10 M", "middle"),
        _text(18, mid_y, 12, "log10 ns", "middle", transform=f"rotate(-90 18 {mid_y})"),
    ]
    for x, _ in measured["pairwise"]:
        parts.append(f'<line x1="{px(x):.1f}" y1="{mt}" x2="{px(x):.1f}" '
                     f'y2="{mt + plot_h}" stroke="#eeeeee"/>')
        parts.append(_text(f"{px(x):.1f}", mt + plot_h + 16, 11, f"{x:.2f}", "middle"))

    legend_y = mt + 8
    series: list[tuple[str, list[tuple[float, float]], str, str]] = [
        ("pairwise", measured["pairwise"], _PALETTE[1], "none"),
        (f"knn (k={result.k})", measured["knn"], _PALETTE[0], "none"),
    ]
    for name in sorted(result.reference):
        pts = [(math.log10(m), v) for m, v in result.reference[name]]
        series.append((name, pts, "#999999", "5,4"))
    for name, pts, color, dash in series:
        visible = [(x, y) for x, y in pts if y <= y_hi]
        if len(visible) >= 2:
            coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in visible)
            dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        if not name.startswith("ref_"):
            for x, y in visible:
                parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" '
                             f'fill="{color}"/>')
        parts.append(f'<rect x="{w - mr + 8}" y="{legend_y - 8}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(_text(w - mr + 22, legend_y + 1, 10, name))
        legend_y += 16
    parts.append(f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="black"/>')
    return _svg(w, h, parts)


# --- parser ----------------------------------------------------------------

# Built once per process: building takes ~1.5 ms, and in-process callers such
# as the tests and the benchmark run `main` ten times per study.
@functools.cache
def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config INI")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out", default="out", help="output directory")

    parser = _Parser(prog="fanetsim",
                     description="deterministic UAV clustering pipeline")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("mobility", parents=[common],
                       help="generate a random-waypoint trace")
    p.set_defaults(func=cmd_mobility)

    p = sub.add_parser("train", parents=[common],
                       help="train position predictors on a trace")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="predict station positions at the end of the trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--model-x", required=True)
    p.add_argument("--model-y", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cluster", parents=[common],
                       help="cluster predicted positions")
    p.add_argument("--predictions", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("heads", parents=[common],
                       help="elect a head per cluster")
    p.add_argument("--clusters", required=True)
    p.add_argument("--predictions", required=True)
    p.set_defaults(func=cmd_heads)

    p = sub.add_parser("run", parents=[common],
                       help="simulate packet delivery for one scenario")
    p.add_argument("--mode", required=True, choices=netsim.MODES)
    p.add_argument("--clustering", required=True, choices=["on", "off"])
    p.add_argument("--trace", required=True)
    p.add_argument("--clusters")
    p.add_argument("--heads")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", parents=[common],
                       help="compare 2-4 run reports")
    p.add_argument("--reports", required=True, nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", parents=[common],
                       help="benchmark head-selection scaling")
    p.add_argument("--m-values", type=int, nargs="+",
                   default=[128, 256, 512, 1024, 2048, 4096])
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--k", type=int, default=16)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except FanetSimError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
