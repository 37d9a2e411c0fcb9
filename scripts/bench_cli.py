"""Time the in-process command line and the Tukey depth table; write the figures as JSON.

    python3 scripts/bench_cli.py --out BENCH.json [--seed 5] [--rounds 7] [--baseline FILE]

Run it from the root of a checkout: cdkit is imported from ./src and the
cli-session workload from ./perfbench/workloads.py, which is only read.  It
records, for the tree it runs in:

- each cli-session command's median ms in process, over --rounds rounds;
- the median ms and tracemalloc peak of a Tukey `centrality_fn` on a
  1000 x 2 cloud with 360 directions;
- the median ms of one argparse parser build in `cli._build_parser`.

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
import tempfile
import time
import tracemalloc

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from cdkit import cli  # noqa: E402
from cdkit.multivariate import DepthSpec, centrality_fn  # noqa: E402
from workloads import CliSession  # noqa: E402

TABLE_SHAPE = (1000, 2)
TABLE_DIRECTIONS = 360


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def session_ms(seed, rounds):
    """Median ms of every cli-session command, each round running them all in order."""
    with tempfile.TemporaryDirectory() as work:
        old = os.getcwd()
        os.chdir(work)
        try:
            session = CliSession(seed, tiny=False)
            ops = session.operations()
            session.warm_up()
            times = {label: [] for label, _, _, _ in ops}
            for _ in range(rounds):
                for label, _, run, describe in ops:
                    start = time.perf_counter()
                    raw = run()
                    times[label].append(time.perf_counter() - start)
                    failed, _, _ = describe(raw)
                    if failed:
                        raise SystemExit(f"{label} failed: {raw}")
        finally:
            os.chdir(old)
    return {label: 1e3 * statistics.median(t) for label, t in times.items()}


def table_figures(seed, repeats):
    cloud = np.random.default_rng([seed, 18]).normal(size=TABLE_SHAPE)
    spec = DepthSpec("tukey", directions=TABLE_DIRECTIONS)
    centrality_fn(spec, cloud)  # first calls fill once-per-process caches
    tracemalloc.start()
    try:
        centrality_fn(spec, cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return _median_ms(lambda: centrality_fn(spec, cloud), repeats), peak


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seed", type=int, default=5, help="cli-session workload seed")
    p.add_argument("--rounds", type=int, default=7, help="timed rounds per figure")
    p.add_argument("--baseline", default=None, help="this script's JSON from another tree")
    args = p.parse_args(argv)

    commands = session_ms(args.seed, args.rounds)
    table_ms, table_peak = table_figures(args.seed, 4 * args.rounds)
    build = getattr(cli._build_parser, "__wrapped__", cli._build_parser)  # the uncached build
    result = {
        "seed": args.seed,
        "rounds": args.rounds,
        "cli_session_command_ms": commands,
        "cli_session_round_ms": sum(commands.values()),
        "tukey_centrality_fn": {"cloud": list(TABLE_SHAPE), "directions": TABLE_DIRECTIONS,
                                "median_ms": table_ms, "tracemalloc_peak_bytes": table_peak},
        "build_parser_ms": _median_ms(build, 4 * args.rounds),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count(), "cdkit_threads": os.environ.get("CDKIT_THREADS")},
    }
    if args.baseline:
        with open(args.baseline) as fh:
            result["baseline"] = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"round {result['cli_session_round_ms']:.1f} ms, table {table_ms:.1f} ms "
          f"(peak {table_peak / 1e6:.2f} MB), parser build {result['build_parser_ms']:.2f} ms")


if __name__ == "__main__":
    main()
