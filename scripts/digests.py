"""Digest every benchmark operation's output at fixed seeds and thread counts.

    python3 scripts/digests.py --out DIGESTS.json [--against FILE]

Run it from the root of a checkout: cdkit is imported from ./src and the four
workloads from ./perfbench, which is only read.  At each seed in SEEDS, each
workload is built in a temporary directory and every operation runs once at
CDKIT_THREADS=1 and once at 2, in process, as a perfbench round runs it.  Each
output is hashed as perfbench hashes its op digests, and the workload's own
check() reads the outputs of each thread count.

The JSON holds the host's versions, then seed -> "workload/op" -> sha256 at
one thread, the ops whose bytes differ at two threads, and each check's
problems.  --against names another tree's JSON (from this script) and prints
the ops whose digests moved, seed by seed.  The exit status is 1 when the
thread count changes a byte or a check finds a problem, else 0; moves against
the other tree alone do not change it.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from run import describe_round, run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3, 5, 7, 11, 13, 17, 42, 736, 739)
THREADS = (1, 2)


def digest_seed(seed):
    """({"workload/op": sha256 at one thread}, [ops whose bytes differ at two threads],
    {"workload@threads": check problems})."""
    digests, thread_moves, problems = {}, [], {}
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
            finally:
                os.chdir(ROOT)
        for label, text in texts[THREADS[0]].items():
            key = f"{name}/{label}"
            digests[key] = hashlib.sha256(text.encode()).hexdigest()
            if any(texts[t][label] != text for t in THREADS[1:]):
                thread_moves.append(key)
    return digests, thread_moves, problems


def moves(ours, theirs):
    """{seed: ops whose digests differ between two runs of this script}."""
    out = {}
    for seed, digests in ours["digests"].items():
        other = theirs["digests"].get(seed)
        if other is not None:
            keys = sorted(set(digests) | set(other))
            out[seed] = [k for k in keys if digests.get(k) != other.get(k)]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--against", default=None, help="this script's JSON from another tree")
    args = p.parse_args(argv)

    start = time.perf_counter()
    saved = os.environ.get("CDKIT_THREADS")
    result = {"host": {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__, "cpus": os.cpu_count()},
              "seeds": list(SEEDS), "threads": list(THREADS),
              "digests": {}, "thread_moves": {}, "problems": {}}
    try:
        for seed in SEEDS:
            digests, thread_moves, problems = digest_seed(seed)
            result["digests"][str(seed)] = digests
            result["thread_moves"][str(seed)] = thread_moves
            result["problems"][str(seed)] = problems
    finally:
        if saved is None:
            os.environ.pop("CDKIT_THREADS", None)
        else:
            os.environ["CDKIT_THREADS"] = saved
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    ops = sum(len(d) for d in result["digests"].values())
    print(f"{ops} op digests at {len(SEEDS)} seeds in {time.perf_counter() - start:.0f} s")
    bad = False
    for seed in map(str, SEEDS):
        for key in result["thread_moves"][seed]:
            print(f"seed {seed}: {key} differs between CDKIT_THREADS=1 and 2")
            bad = True
        for key, found in result["problems"][seed].items():
            print(f"seed {seed}: {key} check: {found}")
            bad = True
    if args.against:
        with open(args.against) as fh:
            theirs = json.load(fh)
        for seed, keys in moves(result, theirs).items():
            print(f"seed {seed}: " + (", ".join(keys) if keys else "no op moved"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
