"""End-to-end CLI runs against a shortened scenario.

The chain fixture drives every subcommand in-process once; individual tests
then assert on the artifacts it left behind. Keeping the trace short makes
the whole file cheap enough to run on every pytest invocation.
"""

import argparse
import collections
import dataclasses
import filecmp
import hashlib
import json
import pathlib
import re
import xml.etree.ElementTree as ET

import pytest

from fanetsim import cli, headselect, metrics
from fanetsim.config import PipelineConfig, load_config, save_config
from fanetsim.headselect import BenchResult
from fanetsim.netsim import SimConfig
from fanetsim.predictor import read_predictions

GOLDEN = pathlib.Path(__file__).with_name("golden_chain.json")


def small_config() -> PipelineConfig:
    return PipelineConfig(
        seed=3,
        duration=120.0,
        num_rounds=40,
        early_stop_patience=10,
        restarts=3,
        packets_per_station=25,
    )


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    cfg_path = root / "cfg.ini"
    save_config(small_config(), str(cfg_path))
    out = root / "out"

    def run(*argv: str) -> int:
        return cli.main(list(argv))

    c = str(cfg_path)
    o = str(out)
    assert run("mobility", "--config", c, "--out", o) == 0
    assert run("train", "--config", c, "--out", o,
               "--trace", f"{o}/trace.csv") == 0
    assert run("predict", "--config", c, "--out", o,
               "--trace", f"{o}/trace.csv",
               "--model-x", f"{o}/model_x.json",
               "--model-y", f"{o}/model_y.json") == 0
    assert run("cluster", "--config", c, "--out", o,
               "--predictions", f"{o}/predictions.csv") == 0
    assert run("heads", "--config", c, "--out", o,
               "--clusters", f"{o}/clusters.json",
               "--predictions", f"{o}/predictions.csv") == 0

    scenarios = {
        "cen_on": ("centralized", "on"),
        "cen_off": ("centralized", "off"),
        "dec_on": ("decentralized", "on"),
        "dec_off": ("decentralized", "off"),
    }
    for name, (mode, clust) in scenarios.items():
        argv = ["run", "--config", c, "--out", str(root / name),
                "--mode", mode, "--clustering", clust,
                "--trace", f"{o}/trace.csv",
                "--clusters", f"{o}/clusters.json"]
        if clust == "on":
            argv += ["--heads", f"{o}/heads.json"]
        assert run(*argv) == 0

    assert run("compare", "--config", c, "--out", str(root / "cmp"),
               "--reports", *(str(root / n / "report.json")
                              for n in scenarios)) == 0
    return root


def test_pipeline_artifacts_present(chain):
    out = chain / "out"
    for name in ("trace.csv", "model_x.json", "model_y.json",
                 "train_report.json", "predictions.csv", "clusters.json",
                 "heads.json", "config_echo.ini"):
        assert (out / name).exists(), name
    for run_dir in ("cen_on", "cen_off", "dec_on", "dec_off"):
        for name in ("records.csv", "report.csv", "report.json"):
            assert (chain / run_dir / name).exists(), f"{run_dir}/{name}"


def test_chain_matches_golden_digests(chain):
    """Every file the chain fixture writes has its sha256 in golden_chain.json.

    A failure names each file that differs. The test prints the whole
    current mapping as JSON (pytest shows it under a failure, and always
    with -s), so a change meant to alter artifacts regenerates the file from
    that output, and says which digests moved and why:

        PYTHONPATH=src python -m pytest -s tests/test_cli.py -k golden_digests |
            sed -n '/^{$/,/^}$/p' > tests/golden_chain.json
    """
    current = {path.relative_to(chain).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(chain.rglob("*")) if path.is_file()}
    print(json.dumps(current, indent=2, sort_keys=True))
    golden = json.loads(GOLDEN.read_text())
    differ = sorted(name for name in golden.keys() | current.keys()
                    if golden.get(name) != current.get(name))
    assert not differ, f"files that differ from {GOLDEN.name}: {differ}"


def test_config_echo_reloads_to_same_config(chain):
    echoed = load_config(str(chain / "out" / "config_echo.ini"))
    assert echoed == small_config()


def test_predictions_cover_all_stations(chain):
    lines = (chain / "out" / "predictions.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + small_config().sim.num_nodes


def test_train_report_beats_persistence(chain):
    summary = json.loads((chain / "out" / "train_report.json").read_text())
    for target in ("x", "y"):
        assert summary[target]["test_rmse"] < summary[target]["persistence_rmse"]


def test_run_report_labels(chain):
    rep = metrics.read_report(str(chain / "dec_on" / "report.json"))
    assert rep.mode == "decentralized" and rep.clustering is True
    rep = metrics.read_report(str(chain / "cen_off" / "report.json"))
    assert rep.mode == "centralized" and rep.clustering is False


def test_compare_outputs(chain):
    cmp_dir = chain / "cmp"
    comp = json.loads((cmp_dir / "comparison.json").read_text())
    # 4 reports -> C(4,2) pairwise comparisons
    assert len(comp["comparisons"]) == 6
    labels = {c["a"] for c in comp["comparisons"]}
    assert "centralized-clustered" in labels

    for key in metrics.METRIC_KEYS:
        lines = (cmp_dir / f"per_station_{key}.csv").read_text().strip().split("\n")
        assert lines[0].startswith("station_id,")
        assert len(lines[0].split(",")) == 5
        assert len(lines) == 1 + small_config().sim.num_nodes

    agg = (cmp_dir / "aggregate_means.csv").read_text().strip().split("\n")
    assert agg[0] == "metric,label,mean,std"
    assert len(agg) == 1 + len(metrics.METRIC_KEYS) * 4


def test_compare_svgs_are_wellformed(chain):
    for key in metrics.METRIC_KEYS:
        root = ET.fromstring((chain / "cmp" / f"{key}.svg").read_text())
        assert root.tag.endswith("svg")


def test_mobility_rerun_is_byte_identical(chain, tmp_path):
    c = str(chain / "cfg.ini")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["mobility", "--config", c, "--out", a]) == 0
    assert cli.main(["mobility", "--config", c, "--out", b]) == 0
    assert filecmp.cmp(f"{a}/trace.csv", f"{b}/trace.csv", shallow=False)
    assert filecmp.cmp(f"{a}/trace.csv",
                       str(chain / "out" / "trace.csv"), shallow=False)


def test_seed_override_changes_trace(chain, tmp_path):
    c = str(chain / "cfg.ini")
    o = str(tmp_path / "seeded")
    assert cli.main(["mobility", "--config", c, "--out", o, "--seed", "99"]) == 0
    fresh = (tmp_path / "seeded" / "trace.csv").read_text()
    assert fresh != (chain / "out" / "trace.csv").read_text()
    echoed = load_config(f"{o}/config_echo.ini")
    assert echoed.seed == 99


def test_run_rerun_is_byte_identical(chain, tmp_path):
    c = str(chain / "cfg.ini")
    o = str(chain / "out")
    again = str(tmp_path / "again")
    assert cli.main(["run", "--config", c, "--out", again,
                     "--mode", "centralized", "--clustering", "on",
                     "--trace", f"{o}/trace.csv",
                     "--clusters", f"{o}/clusters.json",
                     "--heads", f"{o}/heads.json"]) == 0
    assert filecmp.cmp(f"{again}/records.csv",
                       str(chain / "cen_on" / "records.csv"), shallow=False)
    assert filecmp.cmp(f"{again}/report.json",
                       str(chain / "cen_on" / "report.json"), shallow=False)


def test_run_stdout_summarizes_delivery(chain, tmp_path, capsys):
    c = str(chain / "cfg.ini")
    o = str(chain / "out")
    assert cli.main(["run", "--config", c, "--out", str(tmp_path / "echoed"),
                     "--mode", "centralized", "--clustering", "off",
                     "--trace", f"{o}/trace.csv"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    assert line.startswith("centralized-nonclustered: delivered ")
    assert "delay" in line and "throughput" in line


def test_missing_artifact_exits_2(chain, tmp_path, capsys):
    c = str(chain / "cfg.ini")
    code = cli.main(["train", "--config", c, "--out", str(tmp_path / "t"),
                     "--trace", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "missing trace artifact" in capsys.readouterr().err


def test_predict_rejects_non_json_model_exits_2(chain, tmp_path, capsys):
    bad = tmp_path / "model_x.json"
    bad.write_text("not json\n")
    o = chain / "out"
    code = cli.main(["predict", "--config", str(chain / "cfg.ini"),
                     "--out", str(tmp_path / "p"), "--trace", str(o / "trace.csv"),
                     "--model-x", str(bad), "--model-y", str(o / "model_y.json")])
    assert code == 2
    assert f"malformed model file {bad}" in capsys.readouterr().err


def test_predict_rejects_a_position_model_file_exits_2(chain, tmp_path, capsys):
    # A model file from before the models regressed displacement has no
    # offset_feature; its trees would predict a displacement as a position.
    o = chain / "out"
    raw = json.loads((o / "model_y.json").read_text())
    assert raw.pop("offset_feature") == "y_lag1"
    bad = tmp_path / "model_y.json"
    bad.write_text(json.dumps(raw))
    code = cli.main(["predict", "--config", str(chain / "cfg.ini"),
                     "--out", str(tmp_path / "p"), "--trace", str(o / "trace.csv"),
                     "--model-x", str(o / "model_x.json"), "--model-y", str(bad)])
    assert code == 2
    assert f"malformed model file {bad}: 'offset_feature'" in capsys.readouterr().err
    assert not (tmp_path / "p" / "predictions.csv").exists()


@pytest.mark.parametrize("case,message", [
    ("self_loop", "a child does not come after its parent"),
    ("child_before_parent", "a child does not come after its parent"),
    ("child_out_of_range", "a child does not come after its parent"),
    ("feature_out_of_range", "feature index outside [0, 12)"),
    ("negative_feature", "feature index outside [0, 12)"),
    ("short_value", "node arrays differ in length or are empty"),
    ("empty_tree", "node arrays differ in length or are empty"),
    ("nan_threshold", "non-finite threshold or value"),
    ("inf_value", "non-finite threshold or value"),
])
def test_predict_rejects_malformed_tree_exits_2(chain, tmp_path, capsys, case, message):
    # A self-loop used to make `predict` walk forever, and a bad feature
    # index or a short value array ended in an IndexError traceback.
    o = chain / "out"
    raw = json.loads((o / "model_x.json").read_text())
    tree = raw["trees"][1]
    inner = [i for i, f in enumerate(tree["feature"]) if f >= 0]
    assert len(inner) >= 2
    last = inner[-1]
    if case == "self_loop":
        tree["left"][0] = 0
    elif case == "child_before_parent":
        tree["right"][last] = last - 1
    elif case == "child_out_of_range":
        tree["right"][last] = len(tree["feature"])
    elif case == "feature_out_of_range":
        tree["feature"][last] = 12
    elif case == "negative_feature":
        tree["feature"][-1] = -2
    elif case == "short_value":
        tree["value"].pop()
    elif case == "empty_tree":
        raw["trees"][1] = {key: [] for key in tree}
    elif case == "nan_threshold":
        tree["threshold"][0] = float("nan")
    else:
        tree["value"][-1] = float("inf")
    bad = tmp_path / "model_x.json"
    bad.write_text(json.dumps(raw))
    code = cli.main(["predict", "--config", str(chain / "cfg.ini"),
                     "--out", str(tmp_path / "p"), "--trace", str(o / "trace.csv"),
                     "--model-x", str(bad), "--model-y", str(o / "model_y.json")])
    assert code == 2
    assert f"malformed model file {bad}: tree 1: {message}" in capsys.readouterr().err
    assert not (tmp_path / "p" / "predictions.csv").exists()


def test_predict_rejects_swapped_model_files_exits_2(chain, tmp_path, capsys):
    # Swapped files used to exit 0 and write pred_x and pred_y exchanged.
    o = chain / "out"
    code = cli.main(["predict", "--config", str(chain / "cfg.ini"),
                     "--out", str(tmp_path / "p"), "--trace", str(o / "trace.csv"),
                     "--model-x", str(o / "model_y.json"),
                     "--model-y", str(o / "model_x.json")])
    assert code == 2
    assert (f"--model-x {o / 'model_y.json'}, --model-y {o / 'model_x.json'}: "
            "the x model is a model of 'y'" in capsys.readouterr().err)
    assert not (tmp_path / "p" / "predictions.csv").exists()


def test_heads_builds_each_clusters_sums_once(chain, tmp_path, monkeypatch):
    # Each cluster's pairwise tables are built once per election.
    calls = collections.Counter()
    build = headselect.build_pairwise

    def counting(members):
        calls[tuple(sorted(m.station_id for m in members))] += 1
        return build(members)

    monkeypatch.setattr(headselect, "build_pairwise", counting)
    o = chain / "out"
    out = tmp_path / "h"
    assert cli.main(["heads", "--config", str(chain / "cfg.ini"), "--out", str(out),
                     "--clusters", str(o / "clusters.json"),
                     "--predictions", str(o / "predictions.csv")]) == 0
    clusters = json.loads((o / "heads.json").read_text())["clusters"]
    assert calls == {tuple(sorted(c["member_ids"])): 1 for c in clusters.values()}
    assert (out / "heads.json").read_bytes() == (o / "heads.json").read_bytes()


def test_svg_charts_are_pinned():
    # bench.svg is not in the golden chain because its timings vary, so both
    # charts are pinned here on fixed inputs: a missing, a zero and a
    # negative bar, and a benchmark result with both reference series.
    bars = cli._svg_bars("mean delay ms", "ms", [
        ("cen-on", 12.5), ("cen-off", None), ("dec-on", 0.0), ("dec-off", -3.25)])
    loglog = cli._svg_loglog(BenchResult(
        rows=[("pairwise", 128, 50_000), ("knn", 128, 900_000),
              ("pairwise", 256, 210_000), ("knn", 256, 2_000_000),
              ("pairwise", 512, 800_000), ("knn", 512, 4_300_000)],
        slopes={"pairwise": 2.0, "knn": 1.1},
        reference={"ref_quadratic": [(128, 4.69), (256, 5.29), (512, 5.89)],
                   "ref_mlogm_kM": [(128, 5.95), (256, 6.28), (512, 6.62)]},
        k=16))
    assert loglog.count("<polyline") == 4
    digests = [hashlib.sha256(svg.encode()).hexdigest() for svg in (bars, loglog)]
    assert digests == [
        "0aaed54e01b67ba9d332f6355417d165ca762ca71288b664e76f45d124140754",
        "a9b5175bd0cfedf02869eae1787705c01f1d4fed29b63b174c88a4ada09224db"]


def test_heads_rejects_nan_predictions(chain, tmp_path, capsys):
    # All-NaN scores used to elect each cluster's first station silently.
    src = (chain / "out" / "predictions.csv").read_text().splitlines()
    sid = src[1].split(",")[0]
    bad = tmp_path / "predictions.csv"
    bad.write_text("\n".join([src[0], f"{sid},nan,nan", *src[2:]]) + "\n")
    code = cli.main(["heads", "--config", str(chain / "cfg.ini"),
                     "--out", str(tmp_path / "h"),
                     "--clusters", str(chain / "out" / "clusters.json"),
                     "--predictions", str(bad)])
    assert code == 2
    assert f"{bad}:2: non-finite prediction" in capsys.readouterr().err
    assert not (tmp_path / "h" / "heads.json").exists()


def test_predict_clamps_to_configured_arena(tmp_path):
    # predictions used to be clamped to a 500 m square whatever the arena
    cfg = dataclasses.replace(
        small_config(), duration=60.0, num_rounds=10,
        sim=dataclasses.replace(SimConfig(), area_width=2000.0,
                                area_height=2000.0, num_nodes=10))
    c, o = str(tmp_path / "cfg.ini"), str(tmp_path / "out")
    save_config(cfg, c)
    assert cli.main(["mobility", "--config", c, "--out", o]) == 0
    assert cli.main(["train", "--config", c, "--out", o,
                     "--trace", f"{o}/trace.csv"]) == 0
    assert cli.main(["predict", "--config", c, "--out", o,
                     "--trace", f"{o}/trace.csv",
                     "--model-x", f"{o}/model_x.json",
                     "--model-y", f"{o}/model_y.json"]) == 0
    preds = read_predictions(f"{o}/predictions.csv")
    coords = [v for xy in preds.values() for v in xy]
    assert len(preds) == 10
    assert max(coords) > 500.0
    assert all(0.0 <= v <= 2000.0 for v in coords)


def test_stages_check_the_trace_against_the_configured_arena(tmp_path, capsys):
    # a 2000 m trace used to be read under a 500 m config without a word
    wide = dataclasses.replace(
        small_config(), duration=60.0,
        sim=dataclasses.replace(SimConfig(), area_width=2000.0, area_height=2000.0,
                                num_nodes=10))
    narrow = dataclasses.replace(wide, sim=dataclasses.replace(wide.sim, area_width=500.0,
                                                               area_height=500.0))
    save_config(wide, str(tmp_path / "wide.ini"))
    save_config(narrow, str(tmp_path / "narrow.ini"))
    trace = str(tmp_path / "trace.csv")
    assert cli.main(["mobility", "--config", str(tmp_path / "wide.ini"),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "narrow"
    common = ["--config", str(tmp_path / "narrow.ini"), "--out", str(out), "--trace", trace]
    for argv in (["train", *common],
                 ["predict", *common, "--model-x", "x.json", "--model-y", "y.json"],
                 ["run", *common, "--mode", "centralized", "--clustering", "off"]):
        assert cli.main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert re.search(r"trace\.csv:\d+: station \d+ leaves the 500.0x500.0 arena", err), err
    assert not (out / "model_x.json").exists()
    assert not (out / "model_y.json").exists()


def test_run_demands_clusters_when_needed(chain, tmp_path, capsys):
    c = str(chain / "cfg.ini")
    o = str(chain / "out")
    for mode, clust in (("centralized", "on"), ("decentralized", "off")):
        code = cli.main(["run", "--config", c, "--out", str(tmp_path / "r"),
                         "--mode", mode, "--clustering", clust,
                         "--trace", f"{o}/trace.csv"])
        assert code == 2
        assert "--clusters is required" in capsys.readouterr().err


def test_run_demands_heads_when_clustering(chain, tmp_path, capsys):
    c = str(chain / "cfg.ini")
    o = str(chain / "out")
    code = cli.main(["run", "--config", c, "--out", str(tmp_path / "r"),
                     "--mode", "centralized", "--clustering", "on",
                     "--trace", f"{o}/trace.csv",
                     "--clusters", f"{o}/clusters.json"])
    assert code == 2
    assert "--heads is required" in capsys.readouterr().err


def test_run_rejects_heads_that_disagree_with_clusters(chain, tmp_path, capsys):
    # Topologies are built from the clusters file; a heads file listing other
    # members would be produced from a different clustering.
    c = str(chain / "cfg.ini")
    o = str(chain / "out")
    payload = json.loads((chain / "out" / "heads.json").read_text())
    first, second = payload["clusters"]["0"], payload["clusters"]["1"]
    moved = next(s for s in first["member_ids"] if s != first["head_id"])
    first["member_ids"][first["member_ids"].index(moved)] = second["member_ids"][0]
    heads = tmp_path / "heads.json"
    heads.write_text(json.dumps(payload))
    code = cli.main(["run", "--config", c, "--out", str(tmp_path / "r"),
                     "--mode", "centralized", "--clustering", "on",
                     "--trace", f"{o}/trace.csv", "--clusters", f"{o}/clusters.json",
                     "--heads", str(heads)])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"heads file {heads} disagrees with clusters file {o}/clusters.json "
            f"on the members of cluster 0") in err
    assert not (tmp_path / "r" / "records.csv").exists()


@pytest.mark.parametrize("change,station", [
    (lambda rows: [r for r in rows if not r.startswith("11,")], 11),
    (lambda rows: rows + ["99,250.0,250.0"], 99),
], ids=["missing_station", "extra_station"])
def test_heads_rejects_predictions_that_disagree_with_clusters(chain, tmp_path, capsys,
                                                               change, station):
    # A missing station used to end in "no radio for station 11" naming no
    # file, and an extra one was ignored without a word.
    o = chain / "out"
    header, *rows = (o / "predictions.csv").read_text().splitlines()
    bad = tmp_path / "predictions.csv"
    bad.write_text("\n".join([header, *change(rows)]) + "\n")
    code = cli.main(["heads", "--config", str(chain / "cfg.ini"), "--out", str(tmp_path / "h"),
                     "--clusters", str(o / "clusters.json"), "--predictions", str(bad)])
    assert code == 2
    assert (f"predictions file {bad} disagrees with clusters file {o}/clusters.json "
            f"on station {station}") in capsys.readouterr().err
    assert not (tmp_path / "h" / "heads.json").exists()


def test_run_rejects_a_trace_that_disagrees_with_clusters(chain, tmp_path, capsys):
    # A trace with one station more than the clusters used to stop in
    # build_topology with "clusters do not cover the station set exactly".
    o = chain / "out"
    lines = (o / "trace.csv").read_text().splitlines()
    extra = [f"{t},99,{x},{y}" for t, sid, x, y in (line.split(",") for line in lines[1:])
             if sid == "0"]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines + extra) + "\n")
    code = cli.main(["run", "--config", str(chain / "cfg.ini"), "--out", str(tmp_path / "r"),
                     "--mode", "decentralized", "--clustering", "off",
                     "--trace", str(trace), "--clusters", str(o / "clusters.json")])
    assert code == 2
    assert (f"trace file {trace} disagrees with clusters file {o}/clusters.json "
            f"on station 99") in capsys.readouterr().err
    assert not (tmp_path / "r" / "records.csv").exists()


# The chain pins k, so its clusters.json records no curve; the two curve
# cases write one.
def _rising_curve(payload):
    payload["wcss_curve"] = [[1, 9.0], [2, 8.0], [3, 8.5]]


def _skipped_k(payload):
    payload["wcss_curve"] = [[1, 9.0], [3, 8.0]]


def _short_scores(payload):
    payload["clusters"]["0"]["scores"].pop()


def _header_only(data):
    return data.split(b"\n")[0] + b"\n"


def _huge_child(payload):
    payload["trees"][1]["left"][0] = 2**40


def _huge_label(payload):
    payload["assignment"][next(iter(payload["assignment"]))] = 2**70


def _fractional_label(payload):
    first = next(iter(payload["assignment"]))
    payload["assignment"][first] += 0.7  # used to read as the integer label


def _empty_cluster(payload):
    # used to reach `heads` and `run` as "cluster 2 is empty", naming no file
    last = payload["k"] - 1
    for sid, label in payload["assignment"].items():
        if label == last:
            payload["assignment"][sid] = 0


def _spaced_station(payload):
    # used to load as 25 stations, the copy folding into station 0
    payload["stations"][" 0"] = payload["stations"]["0"]


def _plus_cluster(payload):
    # used to load as cluster 0
    payload["clusters"]["+0"] = payload["clusters"].pop("0")


def _underscored_row(data):
    # used to load as station 10 at (5.0, 10.5)
    lines = data.split(b"\n")
    assert lines[11].startswith(b"10,")
    lines[11] = b"1_0,5.0,1_0.5"
    return b"\n".join(lines)


def _string_delay(payload):
    # used to load and end `compare` in a TypeError traceback
    next(iter(payload["stations"].values()))["delay_ms"] = "1.23"


@pytest.mark.parametrize("name,change,message", [
    ("heads.json", lambda p: p.update(clusters=[]),
     "malformed heads file {bad}: 'clusters' is not a JSON object"),
    ("clusters.json", lambda p: p.update(assignment=[]),
     "malformed clusters file {bad}: 'assignment' is not a JSON object"),
    ("clusters.json", _rising_curve,
     "clusters file {bad}: wcss_curve is not finite and non-increasing"),
    ("clusters.json", _skipped_k,
     "clusters file {bad}: wcss_curve k does not run 1, 2, ..."),
    ("report.json", lambda p: p.update(stations=[]),
     "malformed report file {bad}: 'stations' is not a JSON object"),
    ("report.json", lambda p: p["aggregates"].pop("delay_ms"),
     "malformed report file {bad}: aggregates differ from those of the stations"),
    ("model_x.json", lambda p: p["params"].update(colsample=1.0, subsample=1.0, seed=3),
     "malformed model file {bad}: … unexpected keyword argument 'colsample'"),
    ("clusters.json", lambda p: [c.append(0.0) for c in p["centroids"]],
     "clusters file {bad}: centroids are not (x, y) pairs"),
    ("heads.json", _short_scores,
     "heads file {bad}: cluster 0 has … scores for … members"),
    ("predictions.csv", _header_only, "{bad}: no predictions"),
    ("predictions.csv", lambda b: b + b"\xff\n", "{bad}: not UTF-8 text"),
    ("cfg.ini", lambda b: b + b"\xff\n", "cannot parse config {bad}: 'utf-8' codec"),
    ("model_x.json", _huge_child, "malformed model file {bad}: "),
    ("clusters.json", _huge_label, "malformed clusters file {bad}: "),
    # Each of the rest used to load as some other value.
    ("clusters.json", lambda p: p.update(no_knee="false"),
     "malformed clusters file {bad}: no_knee 'false' is not true or false"),
    ("clusters.json", _fractional_label,
     "malformed clusters file {bad}: label … .7 is not an integer"),
    ("clusters.json", lambda p: p.update(k=str(p["k"])),
     "malformed clusters file {bad}: k ' … ' is not an integer"),
    ("clusters.json", _empty_cluster,
     "clusters file {bad}: labels do not use every cluster 0.."),
    ("heads.json", lambda p: p["clusters"]["0"].update(head_id=p["clusters"]["0"]["head_id"] + .9),
     "malformed heads file {bad}: head_id … .9 is not an integer"),
    ("heads.json", lambda p: p["clusters"]["0"].update(
        member_ids=[str(s) for s in p["clusters"]["0"]["member_ids"]]),
     "malformed heads file {bad}: member_ids ' … ' is not an integer"),
    ("heads.json", lambda p: p["clusters"]["0"]["scores"].__setitem__(0, "nan"),
     "malformed heads file {bad}: scores 'nan' is not a number"),
    ("model_x.json", lambda p: p["trees"][1]["feature"].__setitem__(0, 0.5),
     "malformed model file {bad}: tree 1 feature 0.5 is not an integer"),
    ("model_x.json", lambda p: p["params"].update(max_depth=6.5),
     "malformed model file {bad}: params max_depth 6.5 is not an integer"),
    ("model_x.json", lambda p: p["params"].update(max_depth=0),
     "malformed model file {bad}: max_depth must be >= 1, got 0"),
    ("model_x.json", lambda p: p["params"].pop("max_depth"),
     "malformed model file {bad}: 'max_depth'"),
    ("report.json", _string_delay,
     "malformed report file {bad}: station … delay_ms '1.23' is not a number"),
    ("report.json", _spaced_station,
     "malformed report file {bad}: stations key ' 0' is not an id as written"),
    ("heads.json", _plus_cluster,
     "malformed heads file {bad}: clusters key '+0' is not an id as written"),
    ("model_x.json", lambda p: p.update(target=5),
     "malformed model file {bad}: target 5 is not a string"),
    ("model_x.json", lambda p: p["feature_schema"].__setitem__(-1, 7),
     "malformed model file {bad}: feature_schema entry 7 is not a string"),
    ("predictions.csv", _underscored_row,
     "{bad}:12: malformed predictions row '1_0,5.0,1_0.5'"),
], ids=["heads_list", "assignment_list", "rising_curve", "skipped_k", "stations_list",
        "aggregates_missing", "old_model_params", "centroids_3d", "short_scores",
        "header_only_predictions", "non_utf8_predictions", "non_utf8_config",
        "child_beyond_int32", "label_beyond_int64", "string_no_knee", "fractional_label",
        "string_k", "empty_cluster", "fractional_head_id", "string_member_ids",
        "string_score", "fractional_feature", "fractional_max_depth", "zero_max_depth",
        "missing_max_depth", "string_delay", "spaced_station_key", "plus_cluster_key",
        "numeric_target", "numeric_feature_name", "underscored_prediction"])
def test_malformed_artifact_exits_2(chain, tmp_path, capsys, name, change, message):
    # Each of these used to end in a traceback or load without complaint.
    # A JSON artifact is changed as a payload, a text file as bytes.
    o = chain / "out"
    src = {"report.json": chain / "cen_on" / name, "cfg.ini": chain / name}.get(name, o / name)
    bad = tmp_path / name
    if name.endswith(".json"):
        payload = json.loads(src.read_text())
        change(payload)
        bad.write_text(json.dumps(payload))
    else:
        bad.write_bytes(change(src.read_bytes()))
    path = {n: str(bad if n == name else o / n)
            for n in ("heads.json", "clusters.json", "model_x.json")}
    config = bad if name == "cfg.ini" else chain / "cfg.ini"
    common = ["--config", str(config), "--out", str(tmp_path / "r")]
    if name == "cfg.ini":
        argv = ["mobility", *common]
    elif name == "predictions.csv":
        argv = ["cluster", *common, "--predictions", str(bad)]
    elif name == "report.json":
        argv = ["compare", *common, "--reports", str(bad),
                str(chain / "cen_off" / "report.json")]
    elif name == "model_x.json":
        argv = ["predict", *common, "--trace", str(o / "trace.csv"),
                "--model-x", path[name], "--model-y", str(o / "model_y.json")]
    else:
        argv = ["run", *common, "--mode", "centralized", "--clustering", "on",
                "--trace", str(o / "trace.csv"), "--clusters", path["clusters.json"],
                "--heads", path["heads.json"]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    for part in message.format(bad=bad).split(" … "):
        assert part in err


def test_compare_report_count_exits_1(chain, tmp_path, capsys):
    code = cli.main(["compare", "--out", str(tmp_path / "c"),
                     "--reports", str(chain / "cen_on" / "report.json")])
    assert code == 1
    assert "between 2 and 4" in capsys.readouterr().err


def test_usage_errors_exit_1():
    for argv in (["no-such-command"],
                 ["run", "--mode", "centralized"],  # missing required flags
                 ["run", "--mode", "mesh", "--clustering", "on", "--trace", "t.csv"],
                 # predict forecasts the trace's last sample only; --at is gone
                 ["predict", "--trace", "t.csv", "--model-x", "x.json",
                  "--model-y", "y.json", "--at", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1, argv


# Each subcommand's help line and flags, flag -> (required, nargs, choices,
# default); every one also takes --config, --seed and --out.
_PATH = (True, None, None, None)
_COMMON_FLAGS = {"--config": (False, None, None, None), "--seed": (False, None, None, None),
                 "--out": (False, None, None, "out")}
_PARSER_TABLE = {
    "mobility": ("generate a random-waypoint trace", {}),
    "train": ("train position predictors on a trace", {"--trace": _PATH}),
    "predict": ("predict station positions at the end of the trace",
                {"--trace": _PATH, "--model-x": _PATH, "--model-y": _PATH}),
    "cluster": ("cluster predicted positions", {"--predictions": _PATH}),
    "heads": ("elect a head per cluster", {"--clusters": _PATH, "--predictions": _PATH}),
    "run": ("simulate packet delivery for one scenario", {
        "--trace": _PATH,
        "--mode": (True, None, ("centralized", "decentralized"), None),
        "--clustering": (True, None, ("on", "off"), None),
        "--clusters": (False, None, None, None), "--heads": (False, None, None, None)}),
    "compare": ("compare 2-4 run reports", {"--reports": (True, "+", None, None)}),
    "bench": ("benchmark head-selection scaling", {
        "--m-values": (False, "+", None, [128, 256, 512, 1024, 2048, 4096]),
        "--repetitions": (False, None, None, 5), "--k": (False, None, None, 16)}),
}


def test_parser_declares_each_subcommand_as_pinned(tmp_path, capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(sub.choices) == list(_PARSER_TABLE)
    for stage, (help_text, flags) in _PARSER_TABLE.items():
        declared = {a.option_strings[0]: (a.required, a.nargs,
                                          a.choices and tuple(a.choices), a.default)
                    for a in sub.choices[stage]._actions if a.dest != "help"}
        assert declared == {**_COMMON_FLAGS, **flags}, stage
        assert helps[stage] == help_text, stage
        with pytest.raises(SystemExit) as exc:
            cli.main([stage, "--help"])
        assert exc.value.code == 0, stage
        assert capsys.readouterr().out.startswith(f"usage: fanetsim {stage} "), stage
    # A stage whose input is missing has already echoed its config.
    nope = str(tmp_path / "nope")
    for stage, flags in (("train", ["--trace", nope]),
                         ("predict", ["--trace", nope, "--model-x", nope, "--model-y", nope]),
                         ("cluster", ["--predictions", nope]),
                         ("heads", ["--clusters", nope, "--predictions", nope]),
                         ("run", ["--mode", "centralized", "--clustering", "off",
                                  "--trace", nope]),
                         ("compare", ["--reports", nope, nope])):
        out = tmp_path / stage
        assert cli.main([stage, "--seed", "7", "--out", str(out), *flags]) == 2, stage
        assert "missing " in capsys.readouterr().err
        assert load_config(str(out / "config_echo.ini")) == PipelineConfig(seed=7), stage


def test_bad_config_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    # subsample, [heads] and k_max: config echoes from before those knobs went
    for text, problem in [
            ("[pipeline]\nseed = 1\nmystery = 2\n", "unrecognized key 'mystery'"),
            ("[predictor]\nsubsample = 0.5\n", "unrecognized key 'subsample'"),
            ("[heads]\nsweep_mode = literal\n", "unrecognized section [heads]"),
            ("[clustering]\nk_max = \n", "unrecognized key 'k_max'")]:
        bad.write_text(text)
        code = cli.main(["mobility", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{bad}: {problem}" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulation]\narea_width = nan\n")
    out = tmp_path / "o"
    assert cli.main(["mobility", "--config", str(bad), "--out", str(out)]) == 2
    assert "area_width" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_inverted_power_bounds_and_negative_seed_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulation]\nmin_power = 90\nmax_power = 10\n")
    out = tmp_path / "o"
    assert cli.main(["mobility", "--config", str(bad), "--out", str(out)]) == 2
    assert f"{bad}: min_power 90.0 exceeds max_power 10.0" in capsys.readouterr().err
    # a negative seed used to reach numpy's SeedSequence and end in a traceback
    assert cli.main(["mobility", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_bench_writes_artifacts(tmp_path):
    out = tmp_path / "bench"
    assert cli.main(["bench", "--out", str(out), "--m-values", "64", "128",
                     "256", "--repetitions", "1", "--k", "4"]) == 0
    rows = (out / "bench.csv").read_text().strip().split("\n")
    assert rows[0] == "method,M,median_ns"
    assert len(rows) == 1 + 2 * 3
    refs = (out / "bench_refs.csv").read_text().strip().split("\n")
    assert refs[0] == "series,M,log10_ns"
    root = ET.fromstring((out / "bench.svg").read_text())
    assert root.tag.endswith("svg")
