"""Record the simulated statistics that fleet and overload runs are checked against.

For fleet and overload and each of seeds 0-31 this runs one study and
stores, per topology, the delivered and dropped-by-reason counts and the
records digest in perfbench/reference.json (existing entries for other seeds
are kept). With --tiny it records the self-test's tiny configurations for the
default seed instead. Run it from the repository root, at a commit whose
simulator is trusted:

    python3 perfbench/record_reference.py
    python3 perfbench/record_reference.py --tiny

A change that only adds speed must leave every recorded entry matching.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="record the self-test's tiny configurations "
                             f"for seed {run.DEFAULT_SEED}")
    args = parser.parse_args(argv)
    seeds = [run.DEFAULT_SEED] if args.tiny else range(32)

    run._cap_blas_threads(len(os.sched_getaffinity(0)))
    harness, _, work, _ = run._setup("fleet")
    try:
        table = {}
        if os.path.exists(run.REFERENCE_FILE):
            with open(run.REFERENCE_FILE, encoding="utf-8") as fh:
                table = json.load(fh)
        chosen = harness.tiny_workloads() if args.tiny else harness.workloads()
        with harness.Session() as session:
            for name in ("fleet", "overload"):
                wl = chosen[name]
                config = harness.write_config(wl, os.path.join(work, f"{wl.name}.ini"))
                for seed in seeds:
                    study_dir = os.path.join(work, "study")
                    res = harness.run_study(session, wl, seed, study_dir,
                                            traced=False, config_path=config)
                    shutil.rmtree(study_dir, ignore_errors=True)
                    if res.rec.failed:
                        print(f"{wl.name} seed {seed}: {res.rec.problems}",
                              file=sys.stderr)
                        return 1
                    table.setdefault(wl.name, {})[str(seed)] = res.rec.topo
                    table[wl.name] = dict(sorted(table[wl.name].items(),
                                                 key=lambda kv: int(kv[0])))
                    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
                        json.dump(dict(sorted(table.items())), fh, indent=1)
                        fh.write("\n")
                    print(f"{wl.name} seed {seed}: {res.seconds:.1f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
