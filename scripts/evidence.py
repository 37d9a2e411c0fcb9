"""Evidence for a change: every benchmark op's digest at fixed seeds, and its cost.

    python3 scripts/evidence.py --out FILE [--against FILE]

Run it from the root of a checkout: cdkit is imported from ./src and the four
workloads from ./perfbench, which is only read.  At each seed in SEEDS, each
workload is built in a temporary directory and every operation runs through
perfbench's run_round, once at CDKIT_THREADS=1 and once at 2.  Each output is
hashed as perfbench hashes its op digests, and the workload's own check()
reads the outputs of each thread count.

At TIMED_SEED every operation then runs ROUNDS more rounds, each at one thread
and then at two, so both counts sample the same spells of a drifting machine;
at one thread run_round pins each op to CPUs in turn, as perfbench's gated
ops_per_s does.  The JSON keeps each op's median ms per unit: a calibration
replicate, a paired compare replicate (a compare op over its Compare.reps) or
a CLI command.  Beside them are the median of workloads.bootstrap_floor_ms,
the median ms and tracemalloc peak of a Tukey centrality_fn on a 1000 x 2
cloud with 360 directions, and the median ms of one uncached
cli._build_parser.  Times are this machine's wall times; "host" names it.

--against names this script's JSON from another tree, such as a checkout of
the parent commit: the ops whose digests moved are printed seed by seed, and
its host and timings are kept under "baseline".  The exit status is 1 when
the thread count changes a byte or a check finds a problem, else 0; moves
against the other tree alone do not change it.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from cdkit import cli  # noqa: E402
from cdkit.multivariate import DepthSpec, centrality_fn  # noqa: E402
from run import describe_round, git_revision, run_round  # noqa: E402
from workloads import WORKLOADS, bootstrap_floor_ms  # noqa: E402

SEEDS = (1, 2, 3, 5, 7, 11, 13, 17, 42, 736, 739)
THREADS = (1, 2)
TIMED_SEED = 5
ROUNDS = 15
TABLE_SHAPE = (1000, 2)
TABLE_DIRECTIONS = 360


def median_ms(ops, threads, rounds, units):
    """{"threads_t": {label: median ms per unit}} over rounds of run_round; each
    round runs every op at each thread count in turn."""
    seconds = {t: {label: [] for label, *_ in ops} for t in threads}
    for k in range(rounds):
        for t in threads:
            for label, _, s, _, err in run_round(ops, t, None, k)[0]:
                if err is not None:
                    raise SystemExit(f"{label} at CDKIT_THREADS={t}: {err}")
                seconds[t][label].append(s)
    return {f"threads_{t}": {label: 1e3 * statistics.median(s) / units[label]
                             for label, s in by.items()} for t, by in seconds.items()}


def run_seed(seed):
    """({"workload/op": sha256 at one thread}, [ops whose bytes differ at two threads],
    {"workload@threads": check problems}, {workload: median_ms} at TIMED_SEED, else {})."""
    digests, thread_moves, problems, timings = {}, [], {}, {}
    for name, workload in WORKLOADS.items():
        texts = {}
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                wl = workload(seed, False)
                ops = wl.operations()
                for threads in THREADS:
                    results, _ = run_round(ops, threads, None, 0)
                    texts[threads] = {op["label"]: op["text"]
                                      for op in describe_round(ops, results)}
                    found = wl.check(texts[threads])
                    if found:
                        problems[f"{name}@{threads}"] = found
                if seed == TIMED_SEED:
                    units = {label: wl.reps[label] if name == "compare" else u
                             for label, u, _, _ in ops}
                    timings[name] = median_ms(ops, THREADS, ROUNDS, units)
            finally:
                os.chdir(ROOT)
        for label, text in texts[THREADS[0]].items():
            key = f"{name}/{label}"
            digests[key] = hashlib.sha256(text.encode()).hexdigest()
            if any(texts[t][label] != text for t in THREADS[1:]):
                thread_moves.append(key)
    return digests, thread_moves, problems, timings


def one_off_timings():
    """The bootstrap floor, the Tukey centrality table and the parser build."""
    cloud = np.random.default_rng([TIMED_SEED, 18]).normal(size=TABLE_SHAPE)
    spec = DepthSpec("tukey", directions=TABLE_DIRECTIONS)
    centrality_fn(spec, cloud)  # first calls fill once-per-process caches
    tracemalloc.start()
    try:
        centrality_fn(spec, cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    build = getattr(cli._build_parser, "__wrapped__", cli._build_parser)  # the uncached build
    ops = [("table", 1, partial(centrality_fn, spec, cloud), None), ("parser", 1, build, None)]
    ms = median_ms(ops, (1,), 4 * ROUNDS, {"table": 1, "parser": 1})["threads_1"]
    return {"bootstrap_floor_ms": statistics.median(
                bootstrap_floor_ms(TIMED_SEED) for _ in range(ROUNDS)),
            "tukey_centrality_fn": {"cloud": list(TABLE_SHAPE), "directions": TABLE_DIRECTIONS,
                                    "median_ms": ms["table"], "tracemalloc_peak_bytes": peak},
            "build_parser_ms": ms["parser"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--against", default=None, help="this script's JSON from another tree")
    args = p.parse_args(argv)

    start = time.perf_counter()
    saved = os.environ.get("CDKIT_THREADS")
    result = {"host": {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__, "cpus": os.cpu_count(),
                       "git_revision": git_revision()},
              "seeds": list(SEEDS), "threads": list(THREADS),
              "digests": {}, "thread_moves": {}, "problems": {}}
    per_unit = {}
    try:
        for seed in SEEDS:
            digests, thread_moves, problems, timings = run_seed(seed)
            result["digests"][str(seed)] = digests
            result["thread_moves"][str(seed)] = thread_moves
            result["problems"][str(seed)] = problems
            per_unit.update(timings)
        result["timings"] = {"seed": TIMED_SEED, "rounds": ROUNDS, "ms_per_unit": per_unit,
                             "cli_session_round_ms": {t: sum(by.values()) for t, by
                                                      in per_unit["cli-session"].items()},
                             **one_off_timings()}
    finally:
        if saved is None:
            os.environ.pop("CDKIT_THREADS", None)
        else:
            os.environ["CDKIT_THREADS"] = saved
    if args.against:
        with open(args.against) as fh:
            theirs = json.load(fh)
        result["baseline"] = {"host": theirs["host"], "timings": theirs["timings"]}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    ops = sum(len(d) for d in result["digests"].values())
    print(f"{ops} op digests at {len(SEEDS)} seeds in {time.perf_counter() - start:.0f} s")
    for name, by in per_unit.items():
        for t, figures in by.items():
            print(f"{name} {t}: " + ", ".join(f"{label} {ms:.3f}"
                                               for label, ms in figures.items()) + " ms")
    bad = False
    for seed in map(str, SEEDS):
        for key in result["thread_moves"][seed]:
            print(f"seed {seed}: {key} differs between CDKIT_THREADS=1 and 2")
            bad = True
        for key, found in result["problems"][seed].items():
            print(f"seed {seed}: {key} check: {found}")
            bad = True
    if args.against:
        for seed, digests in result["digests"].items():
            other = theirs["digests"].get(seed)
            if other is not None:
                moved = [k for k in sorted(set(digests) | set(other))
                         if digests.get(k) != other.get(k)]
                print(f"seed {seed}: " + (", ".join(moved) if moved else "no op moved"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
