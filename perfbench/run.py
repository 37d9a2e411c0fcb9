"""cdkit benchmark: workloads run in one process, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root; cdkit is imported from ./src and nowhere
else.  With --trace 0 the run repeats rounds at CDKIT_THREADS=1, then at 2,
then times the set-up, and reports the end-to-end metrics.  With --trace 1 it repeats untraced rounds, then traced
rounds, both at CDKIT_THREADS=1, and reports per-layer metrics and the
tracing overhead.  A run lasts about --seconds.  The last line of stdout is the result.  Each workload also
prints an info line with report digests, run facts and its end-to-end
metrics under their workload names.  With --workload all, every workload
runs in turn, each followed by its own result line, and the last line sums
them, with metric names prefixed by the workload.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before cdkit is imported

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.getcwd()
SCRIPT = os.path.abspath(__file__)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # each operation's median time is taken over at least this many rounds
ONE_THREAD_SHARE = 0.8  # of the round time in an untraced run; 2 threads get the rest
TRACED_SHARE = 0.5  # of the round time in a traced run; untraced rounds get the rest
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    return p.parse_args(argv)


def load_workloads():
    """Import cdkit from ./src, and nowhere else, then the workloads built on it."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import cdkit
    except ImportError as exc:
        raise SystemExit(f"cannot import cdkit from {SRC}: {exc}")
    if not os.path.abspath(cdkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cdkit was imported from {cdkit.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


@contextlib.contextmanager
def private_dir(name):
    """Work inside a fresh directory of this process, removed afterwards.

    Inputs and outputs get bare file names, so reports name the same paths
    in every run, and runs sharing a checkout do not touch each other's files.
    """
    path = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(path)
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(ROOT)
        shutil.rmtree(path, ignore_errors=True)


def setup(args, start):
    """Import cdkit, generate the inputs in the current directory, run one
    warm-up operation; seconds since start."""
    workloads = load_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    wl = workloads[args.workload](args.seed, args.tiny)
    wl.warm_up()
    return wl, time.perf_counter() - start


def timed_setup(args):
    """Set-up seconds of a fresh interpreter."""
    argv = [sys.executable, SCRIPT, "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv + (["--tiny"] if args.tiny else []), capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_round(ops, threads, tracer, index):
    """Run every operation once; return per-op (label, units, seconds, raw, error) and wall.

    At one thread, operation k of round `index` is pinned to CPU k + index
    (mod the CPUs this process may use).  The CPUs of a shared machine slow
    down one at a time, and an unpinned thread tends to stay on one, so
    pinning makes each operation's rounds sample every CPU.
    """
    os.environ["CDKIT_THREADS"] = str(threads)
    cpus = sorted(os.sched_getaffinity(0))
    if tracer is not None:
        tracer.install()
    results = []
    start = time.perf_counter()
    try:
        for k, (label, units, run, _) in enumerate(ops):
            if threads == 1:
                os.sched_setaffinity(0, {cpus[(k + index) % len(cpus)]})
            t = time.perf_counter()
            try:
                raw, err = run(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                raw, err = None, f"{type(exc).__name__}: {exc}"
            results.append((label, units, time.perf_counter() - t, raw, err))
    finally:
        wall = time.perf_counter() - start
        os.sched_setaffinity(0, cpus)
        if tracer is not None:
            tracer.uninstall()
    return results, wall


def describe_round(ops, results):
    describers = {label: describe for label, _, _, describe in ops}
    out = []
    for label, units, seconds, raw, err in results:
        if err is None:
            failed, text, json_bytes = describers[label](raw)
        else:
            failed, text, json_bytes = units, err, 0
        out.append({"label": label, "units": units, "seconds": seconds, "failed": failed,
                    "text": text, "json_bytes": json_bytes})
    return out


def quantile(values, q):
    """The q-quantile, interpolated within the sample."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def git_revision():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip("\n").endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(args, threads_env, threads):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cdkit_threads_env": threads_env, "cdkit_threads_run": threads,
        "git_revision": git_revision(), "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        with private_dir("setup"):
            _, seconds = setup(args, T0)
        print(json.dumps({"setup_s": seconds}))
        return 0

    threads_env = os.environ.get("CDKIT_THREADS")
    workloads = load_workloads()  # before any directory is made, so a bad checkout leaves none
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            wargs = argparse.Namespace(**{**vars(args), "workload": name})
            with private_dir(name):
                wl, main_setup_s = setup(wargs, T0 if not results else time.perf_counter())
                info, result = measure(wargs, wl, main_setup_s, threads_env)
            print(json.dumps({"info": info}))
            if len(names) > 1:
                print(json.dumps({"workload": name, **result}))
            results.append((name, result))
    finally:
        if threads_env is None:
            os.environ.pop("CDKIT_THREADS", None)
        else:
            os.environ["CDKIT_THREADS"] = threads_env
    if len(names) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}/{k}": v for name, r in results for k, v in r["metrics"].items()},
        }))
    return 0


def measure(args, wl, main_setup_s, threads_env):
    from tracer import Tracer
    from workloads import bootstrap_floor_ms

    floor_ms = bootstrap_floor_ms(args.seed)
    # (mode, CDKIT_THREADS, traced, share of the round time by whose end it stops)
    if args.trace:
        modes = (("untraced", 1, False, 1.0 - TRACED_SHARE), ("traced", 1, True, 1.0))
    else:
        modes = (("1t", 1, False, ONE_THREAD_SHARE), ("2t", 2, False, 1.0))

    # Each mode's rounds run back to back, undisturbed by the other mode's
    # rounds or by set-ups, within the time left after the expected set-ups.
    # Each operation's time is its median over the rounds of its mode (see
    # op_times).
    ops = wl.operations()
    repeats = 0 if args.trace else SETUP_REPEATS
    rounds = []
    start = time.perf_counter()
    budget = args.seconds - repeats * main_setup_s
    for k, (mode, threads, traced, until) in enumerate(modes):
        end, done = start + until * budget, 0
        least = MIN_ROUNDS if k == 0 else 1
        while True:
            tracer = Tracer() if traced else None
            round_start = time.perf_counter()
            results, wall = run_round(ops, threads, tracer, done)
            rounds.append({"mode": mode, "wall": wall, "tracer": tracer,
                           "ops": describe_round(ops, results)})
            done += 1
            now = time.perf_counter()
            if done >= least and now + (now - round_start) > end:  # the next would overrun
                break
    setups = [timed_setup(args) for _ in range(repeats)]

    # correctness: the first round is checked; every later round must match it byte for byte
    reference = {op["label"]: op["text"] for op in rounds[0]["ops"]}
    problems = wl.check(reference)
    attempted = failed = 0
    for r in rounds:
        for op in r["ops"]:
            attempted += op["units"]
            bad = op["text"] != reference[op["label"]]
            if bad:
                problems.setdefault(op["label"], []).append(
                    f"{r['mode']} round output differs from the first round")
            failed += op["units"] if bad or op["label"] in problems else op["failed"]

    def of(mode):
        return [r for r in rounds if r["mode"] == mode]

    def op_times(rs):
        """(median seconds over the rounds, units) of each operation.

        Every round repeats the same operations on the same inputs, so the
        spread between repeats is interference from other work on the
        machine.  On a shared VM the CPU runs fast or 20-40% slower in spells
        of a tenth of a second to minutes.  An operation's fastest time
        depends on whether a short fast spell came during the run; its
        median follows the usual speed, which drifts less.
        """
        seconds = defaultdict(list)
        for r in rs:
            for op in r["ops"]:
                seconds[op["label"]].append(op["seconds"])
        return [(statistics.median(seconds[op["label"]]), op["units"]) for op in rs[0]["ops"]]

    def rate(rs):
        """Units per second of a round made of each operation's median time."""
        times = op_times(rs)
        return sum(u for _, u in times) / sum(s for s, _ in times)

    base_mode = modes[0][0]
    gap = 1e3 / rate(of(base_mode)) / floor_ms if args.workload == "calib-boot" else 0.0
    # every run of every operation at 1 thread (untraced), in ms per unit
    latencies = [op["seconds"] * 1e3 / op["units"] for r in of(base_mode) for op in r["ops"]]
    digests = {label: hashlib.sha256(text.encode()).hexdigest()
               for label, text in reference.items()}
    whole = hashlib.sha256()
    for label, text in reference.items():
        whole.update(label.encode() + b"\0" + text.encode() + b"\0")

    if args.trace:
        traced = of("traced")
        layer = [r["tracer"].layer_metrics(r["wall"], sum(op["json_bytes"] for op in r["ops"]))
                 for r in traced]
        values = {k: statistics.median_low(m[k] for m in layer) for k in layer[0]}
        values["bootstrap.floor_ms"] = floor_ms
        values["bootstrap.gap_to_floor"] = gap
        values["trace.overhead_ratio"] = rate(of("untraced")) / rate(traced)
        units = _load_units("per_layer")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        trace_path = os.path.join(WORK, f"trace-{args.workload}.jsonl")
        traced[-1]["tracer"].dump(trace_path)
        named = {}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": rate(of("1t")),
            "peak_rss_mb": peak_rss_mb,
        }
        units = _load_units("end_to_end")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        named = _named_metrics(wl.unit, {**values, "ops_per_s_2t": rate(of("2t"))},
                               latencies, failed / attempted)
        trace_path = None

    info = {
        "facts": run_facts(args, threads_env, [m[1] for m in modes]),
        "unit": wl.unit,
        "rounds": {m[0]: len(of(m[0])) for m in modes},
        "latency_samples": len(latencies),
        "setup_s_samples": setups,
        "main_setup_s": main_setup_s,
        "bootstrap_floor_ms": floor_ms,
        "bootstrap_gap_to_floor": {"value": gap, "base": (
            "ms per replicate of a calib-boot round at CDKIT_THREADS=1, untraced, made of "
            "each constructor's median calibrate time, divided by bootstrap_floor_ms")},
        "named_metrics": named,
        "report_digest": whole.hexdigest(),
        "op_digests": digests,
        "problems": problems,
        "trace_file": trace_path,
    }
    return info, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}


def _load_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _named_metrics(unit, values, latencies, failed_share):
    """The end-to-end metrics under the names the workload's users know them by,
    with the throughput at 2 threads and the latency percentiles over every
    run of every operation at 1 thread, which are not gated."""
    p50, p90 = quantile(latencies, 0.5), quantile(latencies, 0.9)
    named = {"setup_s": (values["setup_s"], "s"), "failed_share": (failed_share, "share"),
             "peak_rss_mb": (values["peak_rss_mb"], "MB"),
             "ops_per_s_2t": (values["ops_per_s_2t"], "1/s"),
             "op_ms_p50": (p50, "ms"), "op_ms_p90": (p90, "ms")}
    if unit == "replicate":
        named["replicates_per_s"] = (values["ops_per_s"], "1/s")
        named["replicates_per_s_2t"] = (values["ops_per_s_2t"], "1/s")
    elif unit == "compare":
        named["compare_s"] = (p50 / 1e3, "s")
    else:
        named["command_ms_p50"] = (p50, "ms")
        named["command_ms_p90"] = (p90, "ms")
        named["commands_per_s"] = (values["ops_per_s"], "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


if __name__ == "__main__":
    sys.exit(main())
