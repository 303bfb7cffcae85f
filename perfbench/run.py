"""fanetsim benchmark: run one workload for one seed and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stock --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
``{"context": ...}`` (machine, versions, seed, input sizes, digests). With
``--trace 0`` the metrics are the end-to-end ones from BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, taken from a traced study, and the
spans are written to ``.perfbench-out/``. The exit code is 0 only when every
operation succeeded and every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
WORKLOADS = ("stock", "fleet", "overload")
# The seed of the README's CLI example; results record it next to the seed used.
DEFAULT_SEED = 1
SETUP_PROBES = 21
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads(nproc: int) -> None:
    """Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def _setup(workload: str):
    """Everything a study needs before it can begin: imports, the workload's
    config and a scratch directory inside the checkout."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    wl = harness.workloads()[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    config_path = harness.write_config(wl, os.path.join(work, "workload.ini"))
    return harness, wl, work, config_path


def _measure_setup(workload: str) -> list[float]:
    """Spawn fresh interpreters that set up and report ready; time each."""
    times = []
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", workload]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def _load_reference(name: str, seed: int):
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def run_studies(harness, wl, seed: int, seconds: float, traced: bool,
                work: str, config_path: str | None) -> list:
    """Studies until the next one would overrun ``seconds``.

    A traced run alternates untraced and traced studies (at least one of
    each), so tracing overhead is measured within one process.
    """
    studies = []
    minimum = 2 if traced else 1
    start = time.perf_counter()
    with harness.Session() as session:
        while True:
            study_dir = os.path.join(work, f"study-{len(studies)}")
            res = harness.run_study(session, wl, seed, study_dir,
                                    traced=traced and len(studies) % 2 == 1,
                                    config_path=config_path)
            shutil.rmtree(study_dir, ignore_errors=True)
            studies.append(res)
            if res.rec.failed:
                break
            elapsed = time.perf_counter() - start
            if len(studies) >= minimum and elapsed * (1 + 1 / len(studies)) > seconds:
                break
    return studies


def check_studies(wl, seed: int, studies: list) -> tuple[int, list[str], str]:
    """Cross-study checks: repeats agree, and simulated statistics equal
    the recorded reference for this seed. Returns (failures, problems,
    reference status)."""
    failures, problems = 0, []
    first = studies[0]
    for i, res in enumerate(studies[1:], start=1):
        if res.artifacts != first.artifacts or res.rec.topo != first.rec.topo:
            failures += 1
            problems.append(f"study {i} artifacts differ from study 0")
    if wl.predict:
        return failures, problems, "not checked (stock trees may change)"
    ref = _load_reference(wl.name, seed)
    if ref is None:
        return failures, problems, "none recorded for this seed"
    for topo in sorted(ref):
        got = first.rec.topo.get(topo)
        if got != ref[topo]:
            failures += 1
            problems.append(f"{topo}: simulated statistics {got} != reference {ref[topo]}")
    return failures, problems, "matched" if not failures else "MISMATCH"


def end_to_end(untraced: list, setup_times: list[float]) -> dict:
    return {
        "pipeline_s": (statistics.median(r.seconds for r in untraced), "s"),
        "sim_pkts_per_s": (statistics.median(r.sim_pkts_per_s for r in untraced), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        # Through the first study only: later studies grow it a little by
        # fragmentation, and how many fit in a run depends on the machine.
        "peak_rss_mb": (untraced[0].peak_rss_mb, "MB"),
    }


def per_layer(harness, untraced: list, traced: list) -> dict:
    """Medians over the traced studies; overhead against the untraced ones.

    Layer coverage is the share of each traced study's time spent inside
    the wrapped module functions (self times, glue left out)."""
    rows = [harness.study_layers(r) for r in traced]
    units = harness.layer_units()
    out = {name: (statistics.median(row[name] for row, _ in rows), unit)
           for name, unit in units.items()}
    plain = statistics.median(r.seconds for r in untraced)
    with_spans = statistics.median(r.seconds for r in traced)
    coverage = statistics.median(total / r.seconds
                                 for (_, total), r in zip(rows, traced))
    out["bench.pipeline_s.untraced"] = (plain, "s")
    out["bench.pipeline_s.traced"] = (with_spans, "s")
    out["bench.trace_overhead_frac"] = (with_spans / plain - 1.0, "ratio")
    out["bench.layer_coverage_frac"] = (coverage, "ratio")
    return out


def _write_spans(workload: str, seed: int, studies: list) -> str:
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    payload = []
    for i, res in enumerate(studies):
        if not res.rec.traced:
            continue
        t0 = res.rec.spans[0][2] if res.rec.spans else 0.0
        payload.append({"study": i, "spans": [
            {"name": n, "tag": tag, "start": s - t0, "end": e - t0, "parent": p}
            for n, tag, s, e, p in res.rec.spans]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time; studies start only while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    if not os.path.isfile(os.path.join(SRC, "fanetsim", "__init__.py")):
        print(f"perfbench: no fanetsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.probe_setup:
        _, _, work, _ = _setup(args.workload)
        print("ready", flush=True)
        shutil.rmtree(work, ignore_errors=True)
        return 0

    setup_times = _measure_setup(args.workload)
    harness, wl, work, config_path = _setup(args.workload)
    import numpy  # already loaded by fanetsim, after the thread caps above
    seed = args.seed
    try:
        studies = run_studies(harness, wl, seed, args.seconds, bool(args.trace),
                              work, config_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.rec.attempted for r in studies)
    failed = sum(r.rec.failed for r in studies)
    problems = [p for r in studies for p in r.rec.problems]
    cross_failed, cross_problems, ref_status = check_studies(wl, seed, studies)
    failed += cross_failed
    problems += cross_problems
    attempted = max(attempted, failed, 1)

    untraced = [r for r in studies if not r.rec.traced]
    traced = [r for r in studies if r.rec.traced]
    first = studies[0]
    context = {
        "workload": wl.name, "seed": seed, "default_seed": DEFAULT_SEED,
        "trace": args.trace, "seconds": args.seconds, "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "stations": first.rec.counts.get("mobility.stations", 0),
        "packets_per_topology": first.rec.counts.get("traffic.packets", 0) // 4,
        "training_rows": first.rec.counts.get("predictor.train.fit_rows", 0),
        "studies": len(studies), "study_seconds": [r.seconds for r in studies],
        "setup_probes_s": setup_times, "reference": ref_status,
        "topologies": first.rec.topo,
        "artifacts_sha256": _combined_digest(first.artifacts),
        "problems": problems,
    }
    if failed == 0:
        if args.trace:
            context["spans_file"] = _write_spans(wl.name, seed, studies)
            values = per_layer(harness, untraced, traced)
        else:
            values = end_to_end(untraced, setup_times)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        metrics = {}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _combined_digest(artifacts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for path, digest in sorted(artifacts.items()):
        h.update(f"{path} {digest}\n".encode())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
