"""Exit codes, JSON schemas, and round-trips for the command-line surface."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cdkit import cli, multivariate
from cdkit.cd_core import cd_quantile, load_cd_csv, save_cd_csv
from cdkit.cli import run
from cdkit.constructors import (
    DataSample,
    PairedSample,
    exponential_rate_cd,
    fisher_z_corr_cd,
    normal_mean_cd,
    normal_variance_cd,
)
from cdkit.errors import DegenerateSampleError
from cdkit.inference import NullRegion, cd_mean, cd_median, cd_mode, support_report
from cdkit.multivariate import (
    DepthSpec,
    MultiCD,
    central_region_test,
    centrality,
    centrality_fn,
    depth,
    save_cloud_csv,
)
from cdkit.simlab import CdGenerator


@pytest.fixture()
def mean_one_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x\n0.5\n1.5\n0.8\n1.2\n")
    return str(path)


@pytest.fixture()
def cloud_csv(tmp_path):
    mcd = MultiCD(np.random.default_rng(42).normal(size=(1000, 2)))
    path = tmp_path / "cloud.csv"
    save_cloud_csv(mcd, path)
    return str(path), mcd


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _construct(capsys, tmp_path, data, *extra):
    out = str(tmp_path / "cd.csv")
    code, stdout, _ = _run(capsys, [
        "construct", "--model", "normal-mean", "--sigma", "known=1",
        "--data", data, "--out", out, *extra])
    assert code == 0
    return out, json.loads(stdout)


class TestConstruct:
    def test_known_sigma_summary(self, capsys, tmp_path, mean_one_csv):
        out, body = _construct(capsys, tmp_path, mean_one_csv)
        assert body["command"] == "construct"
        assert body["estimates"]["median"] == pytest.approx(1.0, abs=1e-9)
        assert set(body["intervals"]) == {"0.90", "0.95", "0.99"}
        lo, hi = body["intervals"]["0.95"]
        assert lo < 1.0 < hi
        assert body["config"]["sigma"] == "known=1"
        with open(out, newline="") as fh:
            lines = fh.readlines()
        assert len(lines) == 1 and lines[0].startswith("# cdkit-family {")

    def test_headerless_data_and_unknown_sigma(self, capsys, tmp_path):
        data = tmp_path / "y.csv"
        data.write_text("0.5\n1.5\n0.8\n1.2\n")
        out = str(tmp_path / "cd.csv")
        code, stdout, _ = _run(capsys, [
            "construct", "--model", "normal-mean", "--data", str(data),
            "--out", out])
        assert code == 0
        assert json.loads(stdout)["estimates"]["median"] == pytest.approx(1.0, abs=1e-9)

    def test_sigma_flag_rejected_elsewhere(self, capsys, tmp_path, mean_one_csv):
        code, _, err = _run(capsys, [
            "construct", "--model", "exponential-rate", "--sigma", "known=1",
            "--data", mean_one_csv, "--out", str(tmp_path / "cd.csv")])
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("sigma", ["2", "known=0", "known=-1"])
    def test_a_sigma_that_is_not_known_and_positive_exits_two(self, capsys, tmp_path,
                                                              mean_one_csv, sigma):
        code, _, err = _run(capsys, [
            "construct", "--model", "normal-mean", "--sigma", sigma,
            "--data", mean_one_csv, "--out", str(tmp_path / "cd.csv")])
        assert code == 2
        assert err.startswith("config error: --sigma") and err.count("\n") == 1

    def test_two_columns_for_normal_mean_exits_two(self, capsys, tmp_path):
        data = tmp_path / "xy.csv"
        data.write_text("x,y\n0.1,0.3\n0.9,0.7\n-0.4,0.1\n1.2,1.5\n")
        code, _, err = _run(capsys, [
            "construct", "--model", "normal-mean", "--data", str(data),
            "--out", str(tmp_path / "cd.csv")])
        assert code == 2
        assert err.startswith("config error:") and "one-column" in err and err.count("\n") == 1
        assert not (tmp_path / "cd.csv").exists()

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "construct", "--model", "normal-mean", "--data",
            str(tmp_path / "absent.csv"), "--out", str(tmp_path / "cd.csv")])
        assert code == 2
        assert "config error:" in err

    @pytest.mark.parametrize("text", ["", "x\n", "0.5,1\n0.7\n", "x\n0.5\nnan?\n"])
    def test_bad_data_file_exits_two_naming_it(self, capsys, tmp_path, text):
        data = tmp_path / "bad-data.csv"
        data.write_text(text)
        code, _, err = _run(capsys, [
            "construct", "--model", "normal-mean", "--data", str(data),
            "--out", str(tmp_path / "cd.csv")])
        assert code == 2
        assert err.startswith("config error:") and "bad-data.csv" in err

    def test_blank_lines_in_data_are_skipped(self, capsys, tmp_path, mean_one_csv):
        data = tmp_path / "gappy.csv"
        data.write_text("\nx\n\n0.5\n1.5\n\n0.8\n1.2\n\n")
        _, want = _construct(capsys, tmp_path, mean_one_csv)
        _, got = _construct(capsys, tmp_path, str(data))
        assert got["estimates"] == want["estimates"]

    def test_bad_model_choice(self, capsys, tmp_path, mean_one_csv):
        code, _, _ = _run(capsys, [
            "construct", "--model", "poisson-mean", "--data", mean_one_csv])
        assert code == 2


class TestEstimateAndTest:
    def test_reload_matches_construct_exactly(self, capsys, tmp_path, mean_one_csv):
        out, body = _construct(capsys, tmp_path, mean_one_csv)
        code, stdout, _ = _run(capsys, ["estimate", "--cd", out])
        assert code == 0
        again = json.loads(stdout)["estimates"]
        for key in ("median", "mean", "mode"):
            assert abs(again[key] - body["estimates"][key]) <= 1e-12

    def test_support_report_invariants(self, capsys, tmp_path, mean_one_csv):
        out, _ = _construct(capsys, tmp_path, mean_one_csv)
        region = '{"intervals": [[null, 0.8], [1.25, null]]}'
        code, stdout, _ = _run(capsys, ["test", "--cd", out, "--region", region])
        assert code == 0
        report = json.loads(stdout)["report"]
        assert report["p_s_star"] <= report["p_s"] + 1e-12
        assert report["p_s"] <= report["p_w"] + 1e-12
        assert len(report["per_component"]) == 2

    def test_blank_lines_in_a_cd_file_are_skipped(self, capsys, tmp_path):
        cd = tmp_path / "gappy-cd.csv"
        cd.write_text("theta,H\n\n0,0\n1,0.5\n\n2,1\n\n")
        code, stdout, _ = _run(capsys, ["estimate", "--cd", str(cd)])
        assert code == 0
        assert json.loads(stdout)["estimates"]["median"] == 1.0

    def test_bad_region_json(self, capsys, tmp_path, mean_one_csv):
        out, _ = _construct(capsys, tmp_path, mean_one_csv)
        for region in ("{oops", '{"intervals": 5}', '{"intervals": [[0, 1, 2]]}'):
            code, _, err = _run(capsys, ["test", "--cd", out, "--region", region])
            assert code == 2
            assert err.startswith("config error:") and err.count("\n") == 1

    def test_a_cd_without_a_mean_reports_a_null_mean(self, capsys, tmp_path):
        # three rows give an inverse-chi2 CD on df 2, whose mean diverges
        data = tmp_path / "x.csv"
        data.write_text("0.5\n1.5\n0.8\n")
        out = str(tmp_path / "cd.csv")
        code, stdout, _ = _run(capsys, ["construct", "--model", "normal-variance",
                                        "--data", str(data), "--out", out])
        assert code == 0
        built = json.loads(stdout)["estimates"]
        code, stdout, _ = _run(capsys, ["estimate", "--cd", out])
        assert code == 0
        estimates = json.loads(stdout)["estimates"]
        assert estimates == built and estimates["mean"] is None
        assert estimates["median"] == pytest.approx(0.37991, abs=1e-5)
        scale_ssq = 2.0 * float(np.var([0.5, 1.5, 0.8], ddof=1))
        assert estimates["mode"] == pytest.approx(scale_ssq / 4.0, rel=1e-8)  # df + 2 = 4

    def test_numeric_failure_in_a_family_file_exits_one(self, capsys, tmp_path):
        # the chi-square quantile is 0 at df 1e-300, and scale_ssq / 0 divides by zero
        path = tmp_path / "cd.csv"
        path.write_text('# cdkit-family {"family": "inverse-chi2-scale", "df": 1e-300, '
                        '"scale_ssq": 1.0}\r\n')
        code, stdout, err = _run(capsys, ["estimate", "--cd", str(path)])
        assert (code, stdout) == (1, "")
        assert err == "ZeroDivisionError: float division by zero\n"

    def test_value_error_after_parsing_exits_one(self, capsys, tmp_path, mean_one_csv,
                                                 monkeypatch):
        out, _ = _construct(capsys, tmp_path, mean_one_csv)

        def failing(cd):
            raise ValueError("math domain error")

        monkeypatch.setattr(cli, "cd_mode", failing)
        code, stdout, err = _run(capsys, ["estimate", "--cd", out])
        assert (code, stdout, err) == (1, "", "ValueError: math domain error\n")


def _dataset(tmp_path, model, sigma, seed=3):
    """A data file for the model, and the CD construct builds from it in memory."""
    rng = np.random.default_rng(seed)
    if model == "correlation":
        z = rng.normal(size=(40, 2))
        rows = np.column_stack([z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]])
        cd = fisher_z_corr_cd(PairedSample(rows))
    else:
        rows = (rng.exponential(0.7, size=25) if model == "exponential-rate"
                else rng.normal(1.2, 0.9, size=25))[:, None]
        sample = DataSample(rows[:, 0])
        cd = {"normal-mean": lambda: normal_mean_cd(
                  sample, sigma=None if sigma == "unknown" else float(sigma[6:])),
              "normal-variance": lambda: normal_variance_cd(sample),
              "exponential-rate": lambda: exponential_rate_cd(sample)}[model]()
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(rows.shape[1])])
        writer.writerows([[f"{v:.17g}" for v in row] for row in rows])
    return str(path), cd


_MODELS = [("normal-mean", "known=0.9"), ("normal-mean", "unknown"),
           ("normal-variance", "unknown"), ("correlation", "unknown"),
           ("exponential-rate", "unknown")]


class TestFamilyFiles:
    @pytest.mark.parametrize("model,sigma", _MODELS)
    def test_every_command_reads_the_in_memory_cd(self, capsys, tmp_path, model, sigma):
        data, cd = _dataset(tmp_path, model, sigma)
        out = str(tmp_path / "cd.csv")
        code, stdout, _ = _run(capsys, ["construct", "--model", model, "--sigma", sigma,
                                        "--data", data, "--out", out])
        assert code == 0
        want = {"median": cd_median(cd), "mean": cd_mean(cd), "mode": cd_mode(cd)}
        assert json.loads(stdout)["estimates"] == want
        code, stdout, _ = _run(capsys, ["estimate", "--cd", out])
        assert code == 0 and json.loads(stdout)["estimates"] == want
        lo, mid, hi = (float(q) for q in cd_quantile(cd, np.array([1e-5, 0.4, 0.9])))
        for region in (json.dumps({"intervals": [[None, lo], [hi, None]]}),
                       json.dumps({"intervals": [[lo, mid]]}),
                       json.dumps({"points": [mid, hi]})):
            code, stdout, _ = _run(capsys, ["test", "--cd", out, "--region", region])
            assert code == 0
            got = json.loads(stdout)["report"]
            want_report = support_report(cd, NullRegion.from_json(region))
            assert (got["p_s"], got["p_w"]) == (want_report.p_s, want_report.p_w)

    @pytest.mark.parametrize("model,sigma,lab_model,params", [
        ("normal-mean", "known=0.9", "normal-mean-known-sigma", {"sigma": 0.9}),
        ("normal-mean", "unknown", "normal-mean-unknown-sigma", {}),
        ("normal-variance", "unknown", "normal-variance", {}),
        ("correlation", "unknown", "bivariate-normal-correlation", {}),
        ("exponential-rate", "unknown", "exponential-rate", {}),
    ])
    def test_construct_writes_the_cd_the_lab_calibrates(self, capsys, tmp_path, model, sigma,
                                                        lab_model, params):
        data, _ = _dataset(tmp_path, model, sigma)
        out = tmp_path / "cd.csv"
        assert _run(capsys, ["construct", "--model", model, "--sigma", sigma,
                             "--data", data, "--out", str(out)])[0] == 0
        rows = np.loadtxt(data, delimiter=",", skiprows=1)
        gen = CdGenerator(lab_model, "pivot", len(rows), 0.5, 1, params)
        save_cd_csv(gen.build_cd(rows, 0), tmp_path / "lab.csv")
        assert out.read_bytes() == (tmp_path / "lab.csv").read_bytes()
        assert out.read_bytes().count(b"\n") == 1  # the spec line alone

    def test_known_sigma_deep_tail_survives_the_file(self, capsys, tmp_path):
        z = np.random.default_rng(20).normal(size=20)
        path = tmp_path / "x.csv"
        path.write_text("x\n" + "".join(f"{v:.17g}\n" for v in 0.8676 + z - z.mean()))
        cd = normal_mean_cd(DataSample(np.loadtxt(path, skiprows=1)), sigma=1.0)
        out = str(tmp_path / "cd.csv")
        assert _run(capsys, ["construct", "--model", "normal-mean", "--sigma", "known=1",
                             "--data", str(path), "--out", out])[0] == 0
        region = '{"intervals": [[null, 0.0]]}'
        code, stdout, _ = _run(capsys, ["test", "--cd", out, "--region", region])
        p_s = json.loads(stdout)["report"]["p_s"]
        assert p_s == support_report(cd, NullRegion.from_json(region)).p_s
        assert p_s == pytest.approx(5.22e-5, rel=1e-2)
        back = load_cd_csv(out)
        assert cd_quantile(back, 1e-6) == cd_quantile(cd, 1e-6) < 0.0
        assert cd_mode(back) == cd_mode(cd)

    @pytest.mark.parametrize("header", [
        '{"family": "gamma-shape", "shape": 2.0}',
        '{"family": "fisher-z", "r": 0.5}',
        '{"family": "fisher-z", "r": 0.5, "n": 10.0, "df": 3.0}',
        '{"family": "chi2-rate", "n": 5.0, "total": NaN}',
        '{"family": "location-scale", "loc": 0.0, "scale": -2.0, "df": null}',
        '{"family": "inverse-chi2-scale", "df": 0.0, "scale_ssq": 1.0}',
        '{"family": "fisher-z", "r": -1.0, "n": 10.0}',
    ])
    def test_malformed_header_exits_two(self, capsys, tmp_path, header):
        path = tmp_path / "bad-header.csv"
        path.write_text(f"# cdkit-family {header}\ntheta,H\n0,0\n1,1\n")
        for argv in (["estimate", "--cd", str(path)],
                     ["test", "--cd", str(path), "--region", '{"points": [0.5]}']):
            code, stdout, err = _run(capsys, argv)
            assert code == 2 and stdout == ""
            assert err.startswith("config error:") and "bad-header.csv" in err


class TestCalibrate:
    def _config(self, tmp_path, **overrides):
        body = {"model": "normal-mean-known-sigma", "constructor": "pivot",
                "n": 20, "theta0": 0.7, "seed": 99, "reps": 150,
                "levels": [0.9]}
        body.update(overrides)
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_report_and_artifacts(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        out = str(tmp_path / "report.json")
        uvals = str(tmp_path / "u.csv")
        code, stdout, _ = _run(capsys, [
            "calibrate", "--config", cfg, "--out", out, "--u-values", uvals])
        assert code == 0
        body = json.loads(stdout)
        assert body["config"]["reps"] == 150
        assert body["report"]["ks_p_value"] > 0.001
        with open(out) as fh:
            assert json.load(fh) == body["report"]
        with open(uvals, newline="") as fh:
            assert len(list(csv.reader(fh))) == 151

    def test_rerun_is_byte_identical_across_thread_counts(self, capsys, tmp_path,
                                                          monkeypatch):
        cfg = self._config(tmp_path)
        monkeypatch.setenv("CDKIT_THREADS", "1")
        _, first, _ = _run(capsys, ["calibrate", "--config", cfg])
        monkeypatch.setenv("CDKIT_THREADS", "4")
        _, second, _ = _run(capsys, ["calibrate", "--config", cfg])
        assert first == second

    def test_missing_key_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "exponential-rate"}))
        code, _, err = _run(capsys, ["calibrate", "--config", str(path)])
        assert code == 2
        assert "config error:" in err

    def test_numeric_failure_exits_one(self, capsys, tmp_path):
        # with n=2 about half the resamples repeat one point and have se = 0,
        # so every bootstrap-t replicate keeps fewer than 100 rows
        cfg = self._config(tmp_path, model="normal-mean-unknown-sigma",
                           constructor="bootstrap-t", n=2, reps=100,
                           params={"B": 100})
        code, _, err = _run(capsys, ["calibrate", "--config", cfg])
        assert code == 1
        assert err.startswith("InsufficientDataError: only 0 usable replicates of 100")

    @pytest.mark.parametrize("overrides, key", [
        ({"theta0": math.nan}, "theta0"),
        ({"theta0": math.inf}, "theta0"),
        ({"theta0": -math.inf}, "theta0"),
        ({"model": "normal-mean-unknown-sigma", "theta0": math.nan}, "theta0"),
        ({"model": "normal-mean-unknown-sigma", "theta0": -math.inf}, "theta0"),
        ({"model": "normal-variance", "theta0": math.inf}, "theta0"),
        ({"model": "exponential-rate", "theta0": math.inf}, "theta0"),
        ({"seed": -1}, "seed"),
        ({"model": "normal-variance", "theta0": 1.0, "params": {"mean": math.nan}},
         "params.mean"),
        ({"model": "normal-variance", "theta0": 1.0, "params": {"mean": -math.inf}},
         "params.mean"),
        ({"levels": [0.9, 1.5]}, "levels"),
        ({"levels": [0.0]}, "levels"),
        ({"levels": [math.nan]}, "levels"),
    ])
    def test_bad_config_fails_before_any_replicate(self, capsys, tmp_path, monkeypatch,
                                                   overrides, key):
        # every draw, of a block or of one replicate, goes through draw_block
        draws = []
        draw = CdGenerator.draw_block
        monkeypatch.setattr(CdGenerator, "draw_block",
                            lambda gen, indices: draws.append(indices) or draw(gen, indices))
        code, stdout, err = _run(capsys, ["calibrate", "--config",
                                          self._config(tmp_path, **overrides)])
        assert (code, stdout, draws) == (2, "", [])
        assert err.startswith(f"config error: {key} must")

    @pytest.mark.parametrize("overrides", [
        {"n": None}, {"seed": "one"}, {"params": [1.0]}, {"reps": "many"}, {"reps": 1e400},
        {"levels": 0.9}, {"levels": ["high"]}])
    def test_unparseable_config_is_config_error(self, capsys, tmp_path, overrides):
        code, stdout, err = _run(capsys, ["calibrate", "--config",
                                          self._config(tmp_path, **overrides)])
        assert (code, stdout) == (2, "")
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["[1, 2]", "{", '"model"'])
    def test_config_that_is_not_an_object_is_config_error(self, capsys, tmp_path, text):
        path = tmp_path / "cal.json"
        path.write_text(text)
        code, _, err = _run(capsys, ["calibrate", "--config", str(path)])
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_too_few_resamples_is_config_error(self, capsys, tmp_path):
        cfg = self._config(tmp_path, model="normal-mean-unknown-sigma",
                           constructor="bootstrap-t", reps=100,
                           params={"B": 50})
        code, stdout, err = _run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert stdout == ""
        assert err.startswith("config error: params.B must be at least 100")


class TestCompare:
    def test_artifacts_and_verdict(self, capsys, tmp_path):
        c1 = tmp_path / "g1.json"
        c2 = tmp_path / "g2.json"
        c1.write_text(json.dumps({"model": "normal-mean-known-sigma",
                                  "constructor": "pivot", "n": 10,
                                  "theta0": 0.0, "seed": 5}))
        c2.write_text(json.dumps({"model": "normal-mean-unknown-sigma",
                                  "constructor": "pivot", "n": 10,
                                  "theta0": 0.0, "seed": 5}))
        prefix = str(tmp_path / "cmp")
        code, stdout, _ = _run(capsys, [
            "compare", "--config1", str(c1), "--config2", str(c2),
            "--eps", "0.2", "--reps", "150", "--out-prefix", prefix])
        assert code == 0
        body = json.loads(stdout)
        assert body["verdict"] in ("1 dominates", "2 dominates", "inconclusive")
        assert body["dispersion"]["gen1"]["mean"] > 0.0
        with open(f"{prefix}-dominance.json") as fh:
            assert json.load(fh)["verdict"] == body["verdict"]
        with open(f"{prefix}-slopes-2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "eps", "left_slope", "right_slope"]
        assert len(rows) == 2

    def test_thread_count_never_changes_a_byte(self, capsys, tmp_path, monkeypatch):
        c1 = tmp_path / "g1.json"
        c2 = tmp_path / "g2.json"
        c1.write_text(json.dumps({"model": "exponential-rate", "constructor": "pivot",
                                  "n": 20, "theta0": 1.5, "seed": 8}))
        c2.write_text(json.dumps({"model": "exponential-rate", "constructor": "likelihood",
                                  "n": 20, "theta0": 1.5, "seed": 8}))
        prefix = str(tmp_path / "cmp")
        argv = ["compare", "--config1", str(c1), "--config2", str(c2),
                "--eps", "0.1,0.5", "--reps", "100", "--out-prefix", prefix]
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CDKIT_THREADS", threads)
            code, stdout, _ = _run(capsys, argv)
            assert code == 0
            files = []
            for path in json.loads(stdout)["artifacts"]:
                with open(path, "rb") as fh:
                    files.append(fh.read())
            runs.append((stdout, files))
        assert runs[0] == runs[1]

    def test_shared_draws_build_each_cd_once(self, capsys, tmp_path, monkeypatch):
        # slopes and the risk weight reuse replicate 0's CDs: no extra builds
        original = CdGenerator.build_cd
        calls = []

        def counting(gen, data, index):
            calls.append((gen.constructor, index))
            return original(gen, data, index)

        monkeypatch.setattr(CdGenerator, "build_cd", counting)
        c1 = tmp_path / "g1.json"
        c2 = tmp_path / "g2.json"
        c1.write_text(json.dumps({"model": "exponential-rate", "constructor": "pivot",
                                  "n": 20, "theta0": 1.5, "seed": 8}))
        c2.write_text(json.dumps({"model": "exponential-rate", "constructor": "likelihood",
                                  "n": 20, "theta0": 1.5, "seed": 8}))
        code, _, _ = _run(capsys, [
            "compare", "--config1", str(c1), "--config2", str(c2),
            "--eps", "0.1,0.5", "--reps", "100", "--out-prefix", str(tmp_path / "cmp")])
        assert code == 0
        assert sorted(calls) == sorted((c, i) for c in ("pivot", "likelihood")
                                       for i in range(100))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("seed2", [8, 9], ids=["shared draws", "own draws"])
    def test_a_failing_replicate_ends_the_run(self, capsys, tmp_path, monkeypatch, seed2,
                                              threads):
        # the lowest failing replicate's error, at any thread count, and no artifact
        original = CdGenerator.build_cd

        def failing(gen, data, index):
            if index in (7, 300):
                raise DegenerateSampleError(f"replicate {index}")
            return original(gen, data, index)

        monkeypatch.setattr(CdGenerator, "build_cd", failing)
        monkeypatch.setenv("CDKIT_THREADS", threads)
        c1 = tmp_path / "g1.json"
        c2 = tmp_path / "g2.json"
        c1.write_text(json.dumps({"model": "normal-mean-known-sigma", "constructor": "pivot",
                                  "n": 10, "theta0": 0.0, "seed": 8}))
        c2.write_text(json.dumps({"model": "normal-mean-known-sigma",
                                  "constructor": "asymptotic-median",
                                  "n": 10, "theta0": 0.0, "seed": seed2}))
        code, stdout, err = _run(capsys, [
            "compare", "--config1", str(c1), "--config2", str(c2),
            "--eps", "0.2", "--reps", "400", "--out-prefix", str(tmp_path / "cmp")])
        assert (code, stdout, err) == (1, "", "DegenerateSampleError: replicate 7\n")
        assert list(tmp_path.glob("cmp-*")) == []

    def test_shape_mismatch_is_config_error(self, capsys, tmp_path):
        c1 = tmp_path / "g1.json"
        c2 = tmp_path / "g2.json"
        c1.write_text(json.dumps({"model": "normal-mean-known-sigma",
                                  "constructor": "pivot", "n": 10,
                                  "theta0": 0.0, "seed": 5}))
        c2.write_text(json.dumps({"model": "normal-mean-known-sigma",
                                  "constructor": "pivot", "n": 12,
                                  "theta0": 0.0, "seed": 5}))
        code, _, err = _run(capsys, [
            "compare", "--config1", str(c1), "--config2", str(c2),
            "--reps", "150"])
        assert code == 2
        assert "config error:" in err


class TestMv:
    def test_project_writes_cd(self, capsys, tmp_path, cloud_csv):
        path, mcd = cloud_csv
        out = str(tmp_path / "proj.csv")
        code, stdout, _ = _run(capsys, [
            "mv", "project", "--cloud", path, "--axis", "1,0", "--out", out])
        assert code == 0
        body = json.loads(stdout)
        assert set(body["intervals"]) == {"0.90", "0.95", "0.99"}
        reloaded = load_cd_csv(out)
        assert reloaded.atoms.size == 1000
        # a sample CD has atoms, not a density: its mode is null
        code, stdout, _ = _run(capsys, ["estimate", "--cd", out])
        assert code == 0
        estimates = json.loads(stdout)["estimates"]
        assert estimates["mode"] is None and estimates["median"] == body["estimates"]["median"]

    def test_headerless_cloud_uses_every_row(self, capsys, tmp_path):
        cloud = np.random.default_rng(43).normal(size=(1001, 2))
        path = tmp_path / "bare-cloud.csv"
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in cloud.tolist()))
        out = str(tmp_path / "proj.csv")
        code, _, _ = _run(capsys, [
            "mv", "project", "--cloud", str(path), "--axis", "1,0", "--out", out])
        assert code == 0
        assert np.array_equal(load_cd_csv(out).atoms, np.sort(cloud[:, 0]))
        code, stdout, _ = _run(capsys, [
            "mv", "depth", "--cloud", str(path), "--point", "0.1,-0.3"])
        assert code == 0
        assert json.loads(stdout)["depth"] == depth(DepthSpec("mahalanobis"), cloud, (0.1, -0.3))

    def test_depth_matches_library(self, capsys, cloud_csv):
        path, mcd = cloud_csv
        code, stdout, _ = _run(capsys, [
            "mv", "depth", "--cloud", path, "--kind", "tukey",
            "--point", "0.1,-0.3"])
        assert code == 0
        got = json.loads(stdout)["depth"]
        want = depth(DepthSpec("tukey"), mcd.cloud, (0.1, -0.3))
        assert got == want

    @pytest.mark.parametrize("kind", ["mahalanobis", "tukey"])
    def test_centrality_matches_library(self, capsys, cloud_csv, kind):
        path, mcd = cloud_csv
        code, stdout, _ = _run(capsys, [
            "mv", "centrality", "--cloud", path, "--kind", kind, "--point=0.4,-0.2"])
        assert code == 0
        body = json.loads(stdout)
        assert body["action"] == "centrality" and body["config"]["point"] == [0.4, -0.2]
        want = centrality(centrality_fn(DepthSpec(kind), mcd.cloud), (0.4, -0.2))
        assert body["centrality"] == want and 0.0 < want < 1.0

    def test_coverage_membership(self, capsys, cloud_csv):
        path, mcd = cloud_csv
        center = ",".join(str(v) for v in mcd.cloud.mean(axis=0))
        # --point=... keeps argparse from reading a leading minus as a flag
        code, stdout, _ = _run(capsys, [
            "mv", "coverage", "--cloud", path, f"--point={center}",
            "--level", "0.9"])
        assert code == 0
        body = json.loads(stdout)
        assert body["inside"] is True
        assert body["centrality"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("level", [0.1, 0.5, 0.9])
    def test_coverage_reads_the_query_once(self, capsys, monkeypatch, cloud_csv, level):
        path, mcd = cloud_csv
        queries = []
        spy = lambda cf, x: queries.append(x) or centrality(cf, x)  # noqa: E731
        # under both names: central_region_test looks it up in multivariate
        monkeypatch.setattr(cli, "centrality", spy)
        monkeypatch.setattr(multivariate, "centrality", spy)
        code, stdout, _ = _run(capsys, ["mv", "coverage", "--cloud", path, "--kind", "tukey",
                                        "--point", "0.4,0.1", "--level", str(level)])
        assert code == 0 and len(queries) == 1
        body = json.loads(stdout)
        cf = centrality_fn(DepthSpec("tukey"), mcd.cloud)
        assert body["centrality"] == centrality(cf, (0.4, 0.1))
        assert body["inside"] is central_region_test(cf, level, (0.4, 0.1))

    def test_missing_flags(self, capsys, cloud_csv):
        path, _ = cloud_csv
        code, _, err = _run(capsys, ["mv", "project", "--cloud", path])
        assert code == 2 and "--axis" in err
        code, _, err = _run(capsys, ["mv", "depth", "--cloud", path])
        assert code == 2 and "--point" in err

    def test_bad_level_is_config_error(self, capsys, cloud_csv):
        path, _ = cloud_csv
        code, _, err = _run(capsys, [
            "mv", "coverage", "--cloud", path, "--point", "0,0",
            "--level", "1.5"])
        assert code == 2
        assert "config error:" in err

    @pytest.mark.parametrize("action, options, message", [
        ("coverage", ["--level", "1.5"], "level must lie strictly between 0 and 1"),
        ("coverage", ["--level", "nan"], "level must lie strictly between 0 and 1"),
        ("centrality", ["--directions", "90"], "tukey depth needs at least 180 directions"),
        ("depth", ["--directions", "179"], "tukey depth needs at least 180 directions"),
        ("coverage", ["--point", "0,x"], "expected comma-separated numbers"),
    ], ids=["level-1.5", "level-nan", "directions-90", "directions-179", "point-text"])
    def test_bad_options_fail_before_the_cloud_is_read(self, capsys, monkeypatch, cloud_csv,
                                                       action, options, message):
        path, _ = cloud_csv
        calls = []

        def spy(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        monkeypatch.setattr(cli, "load_cloud_csv", spy("load", cli.load_cloud_csv))
        monkeypatch.setattr(cli, "centrality_fn", spy("table", cli.centrality_fn))
        code, _, err = _run(capsys, ["mv", action, "--cloud", path, "--kind", "tukey",
                                     "--point", "0,0", *options])
        assert code == 2
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert calls == []


class TestOneParser:
    def test_every_run_shares_one_build(self, capsys, tmp_path, mean_one_csv):
        cli._build_parser.cache_clear()
        out, _ = _construct(capsys, tmp_path, mean_one_csv)
        assert _run(capsys, ["estimate", "--cd", out])[0] == 0
        assert _run(capsys, ["frobnicate"])[0] == 2
        assert _run(capsys, ["test", "--cd", out, "--region", '{"points": [1.0]}'])[0] == 0
        assert cli._build_parser.cache_info().misses == 1

    def test_a_usage_error_leaves_the_parser_working(self, capsys, tmp_path, mean_one_csv):
        code, _, err = _run(capsys, ["construct", "--model", "normal-mean"])
        assert code == 2 and "--data" in err
        out, body = _construct(capsys, tmp_path, mean_one_csv)
        assert body["config"]["out"] == out

    def test_defaults_do_not_leak_between_runs(self, capsys, tmp_path, monkeypatch,
                                               mean_one_csv):
        monkeypatch.chdir(tmp_path)
        argv = ["construct", "--model", "normal-mean", "--data", mean_one_csv]
        code, stdout, _ = _run(capsys, [*argv, "--sigma", "known=2", "--out", "a.csv"])
        assert code == 0 and json.loads(stdout)["config"]["out"] == "a.csv"
        code, stdout, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(stdout)["config"] == {"model": "normal-mean", "sigma": "unknown",
                                                "data": mean_one_csv, "out": "cd.csv"}
        assert (tmp_path / "cd.csv").is_file()

    def test_in_process_runs_print_what_a_fresh_process_prints(self, capsys, tmp_path,
                                                              mean_one_csv, cloud_csv):
        cd = str(tmp_path / "cd.csv")
        cloud, _ = cloud_csv
        for argv in (
                ["construct", "--model", "normal-mean", "--data", mean_one_csv, "--out", cd],
                ["estimate", "--cd", cd],
                ["test", "--cd", cd, "--region", '{"intervals": [[null, 0.8], [1.25, null]]}'],
                ["mv", "coverage", "--cloud", cloud, "--kind", "tukey", "--point=0.1,-0.2"]):
            fresh = subprocess.run([sys.executable, "-m", "cdkit.cli", *argv],
                                   capture_output=True, text=True)
            assert fresh.returncode == 0, fresh.stderr
            for _ in range(2):
                assert _run(capsys, argv) == (0, fresh.stdout, "")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, mean_one_csv, capsys):
        out, _ = _construct(capsys, tmp_path, mean_one_csv)
        proc = subprocess.run(
            [sys.executable, "-m", "cdkit.cli", "estimate", "--cd", out],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "estimates" in json.loads(proc.stdout)

    def test_bad_config_exits_two_through_main(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"model": "normal-mean-known-sigma", "constructor": "pivot",
                                    "n": 20, "theta0": math.nan, "seed": 1, "reps": 100}))
        proc = subprocess.run([sys.executable, "-m", "cdkit.cli", "calibrate",
                               "--config", str(path)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: theta0 must be finite")

    def test_calibrate_never_loads_scipy_optimize(self, tmp_path):
        # only a mode or a nuisance maximizer needs it, and this run reads neither
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"model": "normal-mean-known-sigma", "constructor": "pivot",
                                    "n": 20, "theta0": 0.3, "seed": 1, "reps": 100}))
        script = ("import sys; import cdkit.cli as cli; "
                  f"code = cli.run(['calibrate', '--config', {str(path)!r}]); "
                  "assert code == 0; assert 'scipy.optimize' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "calibrate"

    def test_unknown_command(self, capsys):
        code, _, _ = _run(capsys, ["frobnicate"])
        assert code == 2
