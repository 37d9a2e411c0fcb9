"""The four benchmark workloads: seeded inputs, one round of operations, checks.

A workload is built from the workload seed alone and hands cdkit only the
configs and CSV files it generated, under bare names in the current
directory.  Each round runs the same operations on
the same inputs, so every round's outputs must be byte-identical to the
first round's, at any thread count and with or without tracing.

An operation is a ``(label, units, run, describe)`` tuple.  Units are the
replicates, compares or commands it stands for.  ``run()`` is the timed call
into cdkit; ``describe(raw)`` runs untimed afterwards and returns
``(failed_units, output_text, json_bytes)``.
"""

import contextlib
import csv
import io
import json
import math
import time

import numpy as np

from cdkit import cli, simlab

LEVELS = (0.5, 0.9, 0.95, 0.99)
KS_P_FLOOR = 1e-6     # exact CDs give uniform p-values; one run in a million fails
COVERAGE_SE = 6.0     # allowed |coverage - level| in binomial standard errors
RATIO_TOL = 0.1       # |dispersion ratio - 2/pi|; about 4.5 standard errors at 300 reps
# Resamples per bootstrap CD.  ROADMAP's floor case is B=1000; a fifth of it
# keeps a calib-boot round near a second, so each replicate is timed often
# enough in a run for its median time to settle on a shared machine.
BOOT_B = 200
EXACT_MODELS = ("normal-mean-known-sigma", "normal-mean-unknown-sigma", "normal-variance",
                "bivariate-normal-correlation", "exponential-rate")


def _theta0(model, rng):
    if model.startswith("normal-mean"):
        return float(rng.uniform(-2.0, 2.0))
    if model == "normal-variance":
        return float(rng.uniform(0.5, 4.0))
    if model == "bivariate-normal-correlation":
        return float(rng.uniform(-0.8, 0.8))
    return float(rng.uniform(0.5, 3.0))


def _config(model, constructor, n, rng, params=None):
    return {"model": model, "constructor": constructor, "n": int(n),
            "theta0": _theta0(model, rng), "seed": int(rng.integers(2 ** 31)),
            "params": dict(params or {})}


def _label(config):
    return f"{config['constructor']}/{config['model']}"


def _run_cli(argv):
    """cli.run in process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def _coverage_problems(report, reps):
    out = []
    for row in report["coverage"]:
        level, freq = row["level"], row["frequency"]
        band = COVERAGE_SE * math.sqrt(level * (1.0 - level) / reps)
        if abs(freq - level) > band:
            out.append(f"coverage {freq:.4f} at level {level} is outside {level} +- {band:.4f}")
    return out


# ---------------------------------------------------------------------------
# calibration workloads

class _Calibration:
    """simlab.calibrate over a fixed list of generator configs."""

    unit = "replicate"

    def __init__(self, configs, reps):
        self.configs = configs
        self.reps = reps

    def _op(self, config, reps):
        def run():
            return simlab.calibrate(simlab.generator_from_config(config), reps, LEVELS)

        def describe(report):
            return report.failures, simlab.report_to_json(report), 0

        return _label(config), reps, run, describe

    def operations(self):
        return [self._op(c, self.reps) for c in self.configs]

    def check(self, outputs):
        problems = {}
        for config in self.configs:
            label = _label(config)
            report = json.loads(outputs[label])
            found = []
            if report["failures"]:
                found.append(f"{report['failures']} replicates failed")
            found += _coverage_problems(report, self.reps)
            if config["constructor"] == "pivot" and report["ks_p_value"] < KS_P_FLOOR:
                found.append(f"KS p-value {report['ks_p_value']:.3g} is below {KS_P_FLOOR}")
            if found:
                problems[label] = found
        return problems


class CalibExact(_Calibration):
    """Exact pivots for all five models plus two likelihood CDs, n in [30, 100].

    The sample sizes are fixed and only the parameters and data seeds come
    from the workload seed, so every seed asks for the same amount of work.
    """

    SIZES = (30, 100, 65, 45, 85, 100, 60)

    def __init__(self, seed, tiny):
        rng = np.random.default_rng([seed, 1])
        pairs = [(m, "pivot") for m in EXACT_MODELS]
        pairs += [("normal-mean-known-sigma", "likelihood"), ("exponential-rate", "likelihood")]
        configs = []
        for (model, constructor), n in zip(pairs, self.SIZES):
            known = model.endswith("known-sigma")
            params = {"sigma": float(rng.uniform(0.5, 2.0))} if known else {}
            configs.append(_config(model, constructor, n, rng, params))
        super().__init__(configs, 100 if tiny else 200)

    def warm_up(self):
        self._op(self.configs[0], 100)[2]()


class CalibBoot(_Calibration):
    """The four bootstrap CDs on a normal mean with unknown sigma, n=100, B=BOOT_B."""

    def __init__(self, seed, tiny):
        rng = np.random.default_rng([seed, 2])
        b = 100 if tiny else BOOT_B
        configs = [_config("normal-mean-unknown-sigma", c, 100, rng, {"B": b})
                   for c in ("raw-bootstrap", "reflected-bootstrap", "bootstrap-t",
                             "hall-bootstrap")]
        super().__init__(configs, 100)

    def warm_up(self):
        for config in self.configs:
            simlab.generator_from_config(config).replicate(0)


# ---------------------------------------------------------------------------
# CLI workloads

def _cli_op(label, argv, files=()):
    """One cli.run call; its output is the exit code, both streams and the files it wrote."""
    def run():
        return _run_cli(argv)

    def describe(raw):
        code, stdout, stderr = raw
        text = json.dumps({"exit": code, "stdout": stdout, "stderr": stderr,
                           "files": {p: _read(p) for p in files if code == 0}})
        return int(code != 0), text, len(stdout)

    return label, 1, run, describe


def _cli_problems(text):
    """The parsed stdout of a cli op, or a problem list when it failed."""
    body = json.loads(text)
    if body["exit"] != 0:
        return None, [f"exit {body['exit']}: {body['stderr'].strip()}"]
    try:
        return json.loads(body["stdout"]), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


class Compare:
    """`cdkit compare` on two generator pairs, 300 and 100 paired replicates.

    The sample sizes are fixed, as the likelihood CD's vector reads cost in
    proportion to n; only parameters and data seeds come from the workload seed.
    Pair 1 needs its 300 replicates for the verdict and ratio checks; pair 2,
    whose likelihood CD is read by root finding, is kept short so that each
    compare lasts well under a second.
    """

    unit = "compare"
    N1, N2 = 80, 30

    def __init__(self, seed, tiny):
        rng = np.random.default_rng([seed, 3])
        self.reps = {"pair1": 300, "pair2": 100}
        n1 = self.N1
        g1 = _config("normal-mean-known-sigma", "pivot", n1, rng)
        # 2.5 and 3.5 CD standard deviations: where the two tail-mass laws differ
        # by more than the dominance test's DKW tolerance
        eps1 = [round(k / math.sqrt(n1), 6) for k in (2.5, 3.5)]
        g2 = _config("exponential-rate", "pivot", self.N2, rng)
        self.pairs = []
        for tag, first, second, eps in (
                ("pair1", g1, dict(g1, constructor="asymptotic-median"), eps1),
                ("pair2", g2, dict(g2, constructor="likelihood"), [0.1, 0.5])):
            paths = [f"{tag}-g1.json", f"{tag}-g2.json"]
            for path, cfg in zip(paths, (first, second)):
                with open(path, "w") as fh:
                    json.dump(cfg, fh)
            self.pairs.append((tag, paths, ",".join(repr(e) for e in eps)))

    def _op(self, tag, paths, eps, reps):
        prefix = f"cmp-{tag}"
        argv = ["compare", "--config1", paths[0], "--config2", paths[1], "--eps", eps,
                "--reps", str(reps), "--out-prefix", prefix]
        files = [f"{prefix}-dominance.json", f"{prefix}-slopes-1.csv", f"{prefix}-slopes-2.csv"]
        return _cli_op(tag, argv, files)

    def operations(self):
        return [self._op(tag, paths, eps, self.reps[tag]) for tag, paths, eps in self.pairs]

    def warm_up(self):
        tag, paths, eps = self.pairs[0]
        self._op(tag, paths, eps, 100)[2]()

    def check(self, outputs):
        problems = {}
        for tag, _, _ in self.pairs:
            body, found = _cli_problems(outputs[tag])
            if body is not None:
                means = [body[k][g]["mean"]
                         for k in ("dispersion", "risk") for g in ("gen1", "gen2")]
                if not all(math.isfinite(m) and m > 0.0 for m in means):
                    found.append(f"dispersion and risk means must be positive: {means}")
                if tag == "pair1":
                    if body["verdict"] != "1 dominates":
                        found.append(f"verdict {body['verdict']!r}, want '1 dominates'")
                    ratio = means[0] / means[1]
                    if abs(ratio - 2.0 / math.pi) > RATIO_TOL:
                        found.append(f"dispersion ratio {ratio:.4f} is not near 2/pi")
            if found:
                problems[tag] = found
        return problems


class CliSession:
    """A scripted in-process CLI session: construct, estimate, test and mv.

    Dataset sizes are fixed; the values come from the workload seed.
    """

    unit = "command"
    SIZES = (60, 120, 180)

    def __init__(self, seed, tiny):
        rng = np.random.default_rng([seed, 4])
        self.ops = []
        self.pairs = []   # (construct label, estimate label) that must agree
        for k in range(1 if tiny else 3):
            mu, sigma = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.5, 2.0))
            rho, rate = float(rng.uniform(-0.8, 0.8)), float(rng.uniform(0.5, 3.0))
            n = self.SIZES[k]
            x = rng.normal(mu, sigma, size=n)
            z = rng.normal(size=(n, 2))
            pairs = np.column_stack([z[:, 0],
                                     rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]])
            pos = rng.exponential(1.0 / rate, size=n)
            paths = {name: f"{name}-{k}.csv" for name in ("x", "pairs", "pos")}
            _write_csv(paths["x"], ["x"], x[:, None])
            _write_csv(paths["pairs"], ["x", "y"], pairs)
            _write_csv(paths["pos"], ["x"], pos[:, None])
            sigma_arg = f"known={sigma!r}" if k % 2 == 0 else "unknown"
            for model, data, truth, sigma_opt in (
                    ("normal-mean", paths["x"], mu, sigma_arg),
                    ("normal-variance", paths["x"], sigma * sigma, "unknown"),
                    ("correlation", paths["pairs"], rho, "unknown"),
                    ("exponential-rate", paths["pos"], rate, "unknown")):
                self._model_ops(k, model, data, truth, sigma_opt)
        self._mv_ops(rng, 1000)

    def _model_ops(self, k, model, data, truth, sigma_opt):
        cd = f"cd-{model}-{k}.csv"
        tag = f"{model}/{k}"
        construct = ["construct", "--model", model, "--sigma", sigma_opt, "--data", data,
                     "--out", cd]
        if model == "correlation":
            lo, hi = max(truth - 0.1, -0.99), min(truth + 0.1, 0.99)
            points = [truth, min(truth + 0.05, 0.99)]
        elif model == "normal-mean":
            lo, hi = truth - 0.3, truth + 0.3
            points = [truth, truth + 0.2]
        else:
            lo, hi = 0.8 * truth, 1.25 * truth
            points = [truth, 1.1 * truth]
        intervals = json.dumps({"intervals": [[None, lo], [hi, None]]})
        self.ops += [
            _cli_op(f"construct {tag}", construct, [cd]),
            _cli_op(f"estimate {tag}", ["estimate", "--cd", cd]),
            _cli_op(f"test-intervals {tag}", ["test", "--cd", cd, "--region", intervals]),
            _cli_op(f"test-points {tag}", ["test", "--cd", cd,
                                           "--region", json.dumps({"points": points})]),
        ]
        self.pairs.append((f"construct {tag}", f"estimate {tag}"))

    def _mv_ops(self, rng, m):
        mean = rng.uniform(-1.0, 1.0, size=2)
        rho = float(rng.uniform(-0.6, 0.6))
        cloud = rng.multivariate_normal(mean, [[1.0, rho], [rho, 1.0]], size=m)
        path = "cloud.csv"
        _write_csv(path, ["x1", "x2"], cloud)
        point = ",".join(repr(float(v)) for v in mean + rng.uniform(-0.8, 0.8, size=2))
        proj = "proj.csv"
        self.ops.append(_cli_op("mv project", ["mv", "project", "--cloud", path,
                                               "--axis", "1,0.5", "--out", proj], [proj]))
        for action in ("depth", "centrality", "coverage"):
            for kind in ("mahalanobis", "tukey"):
                self.ops.append(_cli_op(f"mv {action} {kind}", [
                    "mv", action, "--cloud", path, "--kind", kind, f"--point={point}"]))

    def operations(self):
        return list(self.ops)

    def warm_up(self):
        self.ops[0][2]()

    def check(self, outputs):
        problems, bodies = {}, {}
        for label, text in outputs.items():
            body, found = _cli_problems(text)
            bodies[label] = body
            if body is not None and body["command"] == "test":
                rep = body["report"]
                if not 0.0 <= rep["p_s"] <= rep["p_w"] + 1e-12 <= 1.0 + 1e-12:
                    found.append(f"supports out of order: p_s={rep['p_s']}, p_w={rep['p_w']}")
            if body is not None and body["command"] == "mv" and body["action"] != "project":
                value = body.get("depth", body.get("centrality"))
                if not 0.0 <= value <= 1.0:
                    found.append(f"{body['action']} {value} is outside [0, 1]")
                level = body["config"].get("level")
                if level is not None and body["inside"] != (value >= 1.0 - level):
                    found.append("coverage membership disagrees with centrality")
            if found:
                problems[label] = found
        for construct, estimate in self.pairs:
            a, b = bodies[construct], bodies[estimate]
            if a is not None and b is not None and a["estimates"] != b["estimates"]:
                problems.setdefault(construct, []).append(
                    "construct estimates differ from those read back from its file")
        return problems


WORKLOADS = {
    "calib-exact": CalibExact,
    "calib-boot": CalibBoot,
    "compare": Compare,
    "cli-session": CliSession,
}


def bootstrap_floor_ms(seed, n=100, b=BOOT_B, reps=30):
    """Fastest ms of a numpy-only bootstrap replicate: the index-block draw from
    a fresh seeded stream, the gather, and a mean and sd along axis 1."""
    x = np.random.default_rng([seed, 5]).normal(size=n)
    times = []
    for i in range(reps):
        t = time.perf_counter()
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(i, 1))
        rows = x[np.random.Generator(np.random.PCG64(stream)).integers(0, n, size=(b, n))]
        rows.mean(axis=1)
        rows.std(axis=1, ddof=1)
        times.append(time.perf_counter() - t)
    return min(times) * 1e3
