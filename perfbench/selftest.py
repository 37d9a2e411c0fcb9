"""Quick self-test of the benchmark: every workload once at a tiny size.

    python3 perfbench/selftest.py      (from the repository root, about a minute)

For each workload it runs the benchmark untraced and traced and checks that
both exit 0 with correct outputs, that the result line names exactly the
metrics BENCHMARK.json lists for that mode, each with its unit and a numeric
value, and that the traced run's report digests equal the untraced run's, so
the tracing wrappers change no output.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def problems_of(bench, section, info, result):
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        found.append(f"outputs failed their checks: {info['problems']}")
    want = {m["name"]: m["unit"] for m in bench[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        found.append(f"metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, "
                     f"wrong units {sorted(k for k in got if k in want and got[k] != want[k])}")
    for k, v in result["metrics"].items():
        if isinstance(v["value"], bool) or not isinstance(v["value"], (int, float)):
            found.append(f"{k} is not a number: {v['value']!r}")
    return found


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        infos = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            info, result = run(workload, trace)
            failures += [f"{workload} trace={trace}: {p}"
                         for p in problems_of(bench, section, info, result)]
            infos[trace] = info
        if infos[0]["op_digests"] != infos[1]["op_digests"]:
            failures.append(f"{workload}: traced report digests differ from untraced ones")
        print(f"{workload}: digest {infos[0]['report_digest'][:16]}, "
              f"rounds {infos[0]['rounds']} / {infos[1]['rounds']}")
    for failure in failures:
        print("FAIL", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
