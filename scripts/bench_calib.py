"""Time calibration replicates per (model, constructor) pair; write the figures as JSON.

    python3 scripts/bench_calib.py --out BENCH.json [--seed 5] [--rounds 15] [--baseline FILE]

Run it from the root of a checkout: cdkit is imported from ./src and the
calib-exact and calib-boot workloads from ./perfbench/workloads.py, which is
only read.  For the tree it runs in, it records each (model, constructor)
pair's median ms per replicate of `simlab.calibrate`, over --rounds rounds, at
CDKIT_THREADS=1 and at 2.  A round runs every pair at one thread, then at
two, so the two thread counts sample the same spells of a drifting machine.
Beside the bootstrap pairs it records the median over rounds of
`workloads.bootstrap_floor_ms`, a numpy-only replicate at calib-boot's n and B.

The figures are wall times of this machine; the JSON names its Python, numpy
and CPU count.  To compare two trees, run the script in one, then in the other
with --baseline naming the first run's file: its figures are kept under
"baseline".
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from workloads import CalibBoot, CalibExact, bootstrap_floor_ms  # noqa: E402

THREADS = ("1", "2")


def replicate_ms(seed, rounds):
    """({threads: {label: median ms per replicate}} over the calib-exact and
    calib-boot operations, median bootstrap floor ms)."""
    ops = CalibExact(seed, tiny=False).operations() + CalibBoot(seed, tiny=False).operations()
    times = {t: {label: [] for label, _, _, _ in ops} for t in THREADS}
    floors = []
    saved = os.environ.get("CDKIT_THREADS")
    try:
        for k in range(rounds + 1):  # round 0 warms the caches and is not kept
            for threads in THREADS:
                os.environ["CDKIT_THREADS"] = threads
                for label, reps, run, describe in ops:
                    start = time.perf_counter()
                    report = run()
                    seconds = time.perf_counter() - start
                    failed, _, _ = describe(report)
                    if failed:
                        raise SystemExit(f"{label}: {failed} of {reps} replicates failed")
                    if k:
                        times[threads][label].append(1e3 * seconds / reps)
            if k:
                floors.append(bootstrap_floor_ms(seed))
    finally:
        if saved is None:
            os.environ.pop("CDKIT_THREADS", None)
        else:
            os.environ["CDKIT_THREADS"] = saved
    return ({t: {label: statistics.median(v) for label, v in by.items()}
             for t, by in times.items()}, statistics.median(floors))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seed", type=int, default=5, help="workload seed")
    p.add_argument("--rounds", type=int, default=15, help="timed rounds per figure")
    p.add_argument("--baseline", default=None, help="this script's JSON from another tree")
    args = p.parse_args(argv)

    figures, floor_ms = replicate_ms(args.seed, args.rounds)
    result = {
        "seed": args.seed,
        "rounds": args.rounds,
        "replicate_ms": {f"threads_{t}": by for t, by in figures.items()},
        "bootstrap_floor_ms": floor_ms,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count()},
    }
    if args.baseline:
        with open(args.baseline) as fh:
            result["baseline"] = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for t, by in figures.items():
        print(f"CDKIT_THREADS={t}: " + ", ".join(f"{label} {ms:.3f}" for label, ms in by.items())
              + " ms per replicate")
    print(f"bootstrap floor {floor_ms:.3f} ms per replicate")


if __name__ == "__main__":
    main()
