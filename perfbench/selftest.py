"""Self-test of the benchmark harness. Run from the repository root:

    python3 perfbench/selftest.py

1. The stock study run in-process by the harness writes byte-identical
   artifacts to the README's `fanetsim` command sequence run as separate
   `python -m fanetsim` processes, for the same seed. This shows the
   instrumented in-process run measures what users run.
2. A tiny configuration of each workload runs end to end, traced and
   untraced, and passes its checks (repeat digests, reference statistics);
   its wrapped module functions cover at least MIN_COVERAGE of each traced
   study's time.
3. A reference that disagrees with the simulator makes the check fail.

Everything runs with the default seed, the one the tiny references are
recorded for. Takes about a minute on a 2-core machine; exits non-zero on any
failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run

MIN_COVERAGE = 0.9


def check_cli_equivalence(harness, work: str, seed: int) -> list[str]:
    stock = harness.workloads()["stock"]
    cli_out = os.path.join(work, "cli", "run")
    env = dict(os.environ, PYTHONPATH=run.SRC)
    for argv in harness.cli_commands(stock, seed, cli_out, None):
        subprocess.run([sys.executable, "-m", "fanetsim", *argv], env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=300)
    expected = harness._digest_tree(cli_out)
    with harness.Session() as session:
        res = harness.run_study(session, stock, seed, os.path.join(work, "harness"),
                                traced=False, config_path=None)
    problems = list(res.rec.problems)
    if res.artifacts != expected:
        differ = sorted(set(res.artifacts.items()) ^ set(expected.items()))
        problems.append(f"artifacts differ from the CLI's: {differ[:6]}")
    if len(expected) < 20:
        problems.append(f"CLI sequence wrote only {len(expected)} files")
    return problems


def check_tiny(harness, work: str, seed: int) -> list[str]:
    problems = []
    for wl in harness.tiny_workloads().values():
        wl_dir = os.path.join(work, wl.name)
        os.makedirs(wl_dir)
        config = harness.write_config(wl, os.path.join(wl_dir, "workload.ini"))
        studies = run.run_studies(harness, wl, seed, 0.0, True, wl_dir, config)
        failed, cross, status = run.check_studies(wl, seed, studies)
        found = [p for r in studies for p in r.rec.problems] + cross
        if failed or found or any(r.rec.failed for r in studies):
            problems.append(f"{wl.name}: {found}")
        if not wl.predict and status != "matched":
            problems.append(f"{wl.name}: reference {status}")
        layers = run.per_layer(harness, [studies[0]], [studies[1]])
        if set(harness.layer_units()) - set(layers):
            problems.append(f"{wl.name}: per-layer metrics missing")
        coverage = layers["bench.layer_coverage_frac"][0]
        if not MIN_COVERAGE <= coverage <= 1.0:
            problems.append(f"{wl.name}: module self times cover {coverage:.3f} "
                            f"of the traced study, expected {MIN_COVERAGE}-1")

        if not wl.predict:
            # The gate must catch a simulator whose statistics moved.
            real = run._load_reference
            try:
                run._load_reference = lambda name, s: {
                    t: dict(v, delivered=v["delivered"] + 1)
                    for t, v in real(name, s).items()}
                failed, _, _ = run.check_studies(wl, seed, studies)
            finally:
                run._load_reference = real
            if not failed:
                problems.append(f"{wl.name}: a wrong reference went unnoticed")
    return problems


def main() -> int:
    run._cap_blas_threads(len(os.sched_getaffinity(0)))
    harness, _, work, _ = run._setup("stock")
    failures = 0
    try:
        for name, check in (("tiny workloads", check_tiny),
                            ("stock artifacts equal the CLI's", check_cli_equivalence)):
            problems = check(harness, os.path.join(work, name.split()[0]),
                             run.DEFAULT_SEED)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {name}")
            for p in problems:
                print(f"     {p}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
