"""Generator matrix, uniformity testing, and calibration experiments."""

import csv
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from cdkit import simlab
from cdkit.cd_core import (
    FamilySpec,
    _interval_probs,
    cd_eval,
    cd_quantile,
    family_block,
    family_cd,
)
from cdkit.errors import (
    CdkitError,
    ConfigError,
    InsufficientDataError,
    ParameterDomainError,
)
from cdkit.inference import cd_mean, cd_median, cd_mode
from cdkit.simlab import (
    _REPLICATE_BLOCK,
    CdGenerator,
    calibrate,
    coverage,
    dump_u_values,
    generator_from_config,
    generator_to_config,
    ks_uniform,
    report_to_json,
    run_replicates,
)


class TestGeneratorConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            CdGenerator("normal-median", "pivot", 20, 0.0, 1)

    def test_unsupported_pairing_rejected(self):
        with pytest.raises(ConfigError):
            CdGenerator("normal-variance", "likelihood", 20, 1.0, 1)

    def test_parameter_domains(self):
        with pytest.raises(ConfigError):
            CdGenerator("normal-variance", "pivot", 20, -1.0, 1)
        with pytest.raises(ConfigError):
            CdGenerator("exponential-rate", "pivot", 20, 0.0, 1)
        with pytest.raises(ConfigError):
            CdGenerator("bivariate-normal-correlation", "pivot", 3, 0.5, 1)
        with pytest.raises(ConfigError):
            CdGenerator("bivariate-normal-correlation", "pivot", 20, 1.0, 1)

    @pytest.mark.parametrize("params, message", [
        ({"B": 50}, "params.B must be at least 100, got 50"),
        ({"grid_size": 32}, "params.grid_size must be at least 64, got 32"),
        ({"sigma": 0.0}, "params.sigma must be positive and finite"),
        ({"sigma": -2.0}, "params.sigma must be positive and finite"),
        ({"sigma": math.inf}, "params.sigma must be positive and finite"),
        ({"sigma": math.nan}, "params.sigma must be positive and finite"),
        ({"sigma": "wide"}, "params.sigma must be a number"),
        ({"B": None}, "params.B must be a number"),
        ({"Bee": 200}, "unknown params key 'Bee'"),
        ({"mean": math.nan}, "params.mean must be finite"),
    ])
    def test_bad_params_are_config_errors_naming_the_key(self, params, message):
        with pytest.raises(ConfigError) as info:
            CdGenerator("normal-mean-known-sigma", "pivot", 20, 0.0, 1, params)
        assert str(info.value).startswith(message)

    def test_known_params_at_their_floors_pass(self):
        CdGenerator("normal-mean-known-sigma", "likelihood", 20, 0.0, 1,
                    {"sigma": 0.5, "B": 100, "grid_size": 64})
        CdGenerator("normal-variance", "pivot", 20, 1.0, 1, {"mean": -3.0})

    def test_config_round_trip(self):
        gen = CdGenerator("normal-mean-known-sigma", "pivot", 25, 0.3, 99,
                          {"sigma": 2.0})
        assert generator_from_config(generator_to_config(gen)) == gen
        with pytest.raises(ConfigError):
            generator_from_config({"model": "exponential-rate"})

    @pytest.mark.parametrize("model, constructor, theta0, defaults", [
        ("normal-mean-known-sigma", "pivot", 0.5, {"sigma": 1.0}),
        ("normal-mean-known-sigma", "likelihood", 0.5, {"sigma": 1.0, "grid_size": 256}),
        ("normal-variance", "pivot", 2.0, {"mean": 0.0}),
        ("normal-mean-unknown-sigma", "bootstrap-t", 0.5, {"B": 1000}),
    ])
    def test_spelled_out_defaults_equal_absent_params(self, model, constructor, theta0,
                                                      defaults):
        bare = CdGenerator(model, constructor, 30, theta0, 31)
        spelled = CdGenerator(model, constructor, 30, theta0, 31, defaults)
        assert spelled.draw_key == bare.draw_key
        for i in range(3):
            assert spelled.draw_data(i).tobytes() == bare.draw_data(i).tobytes()
            u = [cd_eval(gen.replicate(i), np.array([theta0])) for gen in (bare, spelled)]
            assert u[0].tobytes() == u[1].tobytes()
        # the report config echoes params as given
        assert generator_to_config(bare)["params"] == {}
        assert generator_to_config(spelled)["params"] == defaults

    def test_data_is_deterministic_per_index(self):
        gen = CdGenerator("exponential-rate", "pivot", 15, 2.0, 7)
        assert np.array_equal(gen.draw_data(3), gen.draw_data(3))
        assert not np.array_equal(gen.draw_data(3), gen.draw_data(4))

    BASE = CdGenerator("normal-mean-known-sigma", "pivot", 12, 0.5, 31)
    VARIANCE = CdGenerator("normal-variance", "pivot", 12, 2.0, 31)

    @pytest.mark.parametrize("gen1, gen2", [
        (BASE, CdGenerator("normal-mean-unknown-sigma", "hall-bootstrap", 12, 0.5, 31)),
        (BASE, CdGenerator("normal-mean-known-sigma", "pivot", 12, 0.5, 31, {"sigma": 1.0})),
        (BASE, CdGenerator("normal-mean-unknown-sigma", "pivot", 12, 0.5, 31, {"sigma": 2.0})),
        (BASE, CdGenerator("normal-mean-known-sigma", "pivot", 12, 0.5, 32)),
        (BASE, CdGenerator("normal-mean-known-sigma", "pivot", 12, 0.7, 31)),
        (BASE, CdGenerator("normal-mean-known-sigma", "pivot", 13, 0.5, 31)),
        (BASE, CdGenerator("normal-mean-known-sigma", "bootstrap-t", 12, 0.5, 31, {"B": 300})),
        (BASE, CdGenerator("normal-mean-known-sigma", "likelihood", 12, 0.5, 31,
                           {"grid_size": 128})),
        (VARIANCE, CdGenerator("normal-variance", "point-mass", 12, 2.0, 31, {"mean": 0.0})),
        (VARIANCE, CdGenerator("normal-variance", "pivot", 12, 2.0, 31, {"mean": 1.5})),
        (VARIANCE, CdGenerator("normal-variance", "pivot", 12, 2.0, 30)),
        (VARIANCE, CdGenerator("normal-variance", "pivot", 12, 2.0, 31, {"sigma": 3.0})),
        (CdGenerator("exponential-rate", "pivot", 12, 2.0, 31),
         CdGenerator("exponential-rate", "likelihood", 12, 2.0, 31, {"sigma": 3.0})),
        (CdGenerator("exponential-rate", "pivot", 12, 2.0, 31),
         CdGenerator("exponential-rate", "pivot", 12, 2.5, 31)),
        (CdGenerator("bivariate-normal-correlation", "pivot", 12, 0.3, 31),
         CdGenerator("bivariate-normal-correlation", "point-mass", 12, 0.3, 31, {"mean": 1.0})),
        (CdGenerator("bivariate-normal-correlation", "pivot", 12, 0.3, 31),
         CdGenerator("bivariate-normal-correlation", "pivot", 12, 0.3, 33)),
    ])
    def test_draw_keys_agree_exactly_when_draws_do(self, gen1, gen2):
        same = all(np.array_equal(gen1.draw_data(i), gen2.draw_data(i)) for i in range(5))
        assert (gen1.draw_key == gen2.draw_key) == same

    def test_correlation_data_shape_and_moments(self):
        gen = CdGenerator("bivariate-normal-correlation", "pivot", 4000, 0.6, 11)
        data = gen.draw_data(0)
        assert data.shape == (4000, 2)
        r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert r == pytest.approx(0.6, abs=0.05)


class TestKsUniform:
    def test_equally_spaced_statistic_by_direct_formula(self):
        u = (2.0 * np.arange(1, 11) - 1.0) / 20.0
        stat, _ = ks_uniform(u)
        # every step deviates by exactly 1/20 on both sides
        assert stat == pytest.approx(0.05, abs=1e-15)

    def test_constant_half_statistic(self):
        stat, p = ks_uniform([0.5] * 40)
        assert stat == pytest.approx(0.5, abs=1e-15)
        assert p < 1e-6

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(2)
        u = rng.random(500)
        stat, p = ks_uniform(u)
        ref = kstest(u, "uniform", mode="asymp")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)

    def test_p_value_is_one_for_a_tiny_statistic(self):
        # sqrt(n) * D is about 1.1e-3 here, where the Kolmogorov series needs
        # far more than a thousand terms to converge
        _, p = ks_uniform((np.arange(200_000) + 0.5) / 200_000)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_large_null_sample_passes(self):
        rng = np.random.default_rng(8)
        _, p = ks_uniform(rng.random(100000))
        assert p > 0.001

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            ks_uniform([0.5] * 9)
        with pytest.raises(ParameterDomainError):
            ks_uniform([0.5] * 11 + [1.5])


class TestCalibrate:
    def test_exact_pivot_is_calibrated(self):
        gen = CdGenerator("normal-mean-known-sigma", "pivot", 20, 0.7, 1234)
        report = calibrate(gen, 5000, levels=(0.5, 0.95))
        assert report.ks_p_value > 0.01
        assert report.failures == 0
        for level, freq, se in report.coverage:
            assert abs(freq - level) <= 3.0 * math.sqrt(level * (1.0 - level) / 5000)
        assert abs(report.median_unbiased_fraction - 0.5) <= 3.0 * math.sqrt(0.25 / 5000)

    def test_mis_scaled_cd_is_detected(self):
        gen = CdGenerator("normal-mean-known-sigma", "mis-scaled-pivot", 20, 0.7, 1234)
        report = calibrate(gen, 2000, levels=(0.95,))
        assert report.ks_p_value < 1e-6

    def test_point_mass_u_values_degenerate(self):
        gen = CdGenerator("normal-mean-known-sigma", "point-mass", 20, 0.7, 5)
        report = calibrate(gen, 100, levels=(0.5, 0.99))
        assert set(np.unique(report.u_values)) <= {0.0, 1.0}
        assert report.ks_p_value < 1e-6
        assert all(freq == 1.0 for _, freq, _ in report.coverage)

    def test_reflected_bootstrap_at_b_200_covers_within_six_se(self):
        # n=100, B=200, 100 replicates: the lower interval end is the
        # ceil(B a/2)-th atom, not one further in, so 0.99 reads 0.95 (0.92
        # with the extra atom, outside 0.99 - 0.0597)
        gen = CdGenerator("normal-mean-unknown-sigma", "reflected-bootstrap", 100,
                          -1.627822471454781, 2044397375, {"B": 200})
        report = calibrate(gen, 100, levels=(0.5, 0.9, 0.95, 0.99))
        assert report.failures == 0
        for level, freq, _ in report.coverage:
            assert abs(freq - level) <= 6.0 * math.sqrt(level * (1.0 - level) / 100)

    def test_coverage_wrapper(self):
        gen = CdGenerator("normal-mean-known-sigma", "point-mass", 20, 0.7, 5)
        table = coverage(gen, (0.9,), 100)
        assert table[0][1] == 1.0

    def test_reps_floor(self):
        gen = CdGenerator("normal-mean-known-sigma", "pivot", 20, 0.7, 5)
        with pytest.raises(ConfigError):
            calibrate(gen, 99)

    def test_report_round_trip_files(self, tmp_path):
        gen = CdGenerator("exponential-rate", "pivot", 30, 1.5, 77)
        report = calibrate(gen, 150, levels=(0.9,))
        path = tmp_path / "u.csv"
        dump_u_values(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 151
        assert float(rows[1][1]) == report.u_values[0]


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        gen = CdGenerator("normal-mean-unknown-sigma", "bootstrap-t", 30, 0.0, 303,
                          {"B": 150})
        a = calibrate(gen, 120, levels=(0.9,))
        b = calibrate(gen, 120, levels=(0.9,))
        assert np.array_equal(a.u_values, b.u_values)
        assert report_to_json(a) == report_to_json(b)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        gen = CdGenerator("normal-mean-unknown-sigma", "bootstrap-t", 30, 0.0, 303,
                          {"B": 150})
        monkeypatch.setenv("CDKIT_THREADS", "1")
        serial = report_to_json(calibrate(gen, 120, levels=(0.9,)))
        monkeypatch.setenv("CDKIT_THREADS", "4")
        threaded = report_to_json(calibrate(gen, 120, levels=(0.9,)))
        assert serial == threaded

    @staticmethod
    def _record_pools(monkeypatch, cpus):
        """Each pool's max_workers; the pools map serially and start no thread."""
        pools = []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simlab.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(simlab, "ThreadPoolExecutor", Recorder)
        return pools

    def test_replicates_reach_reduce_in_blocks_in_order(self, monkeypatch):
        monkeypatch.setenv("CDKIT_THREADS", "2")
        blocks = run_replicates(lambda block: [i * i for i in block], range(600))
        assert [len(b) for b in blocks] == [_REPLICATE_BLOCK, _REPLICATE_BLOCK, 88] \
            == [256, 256, 88]
        assert [v for b in blocks for v in b] == [i * i for i in range(600)]

    def test_bad_thread_env_falls_back_to_serial(self, monkeypatch):
        pools = self._record_pools(monkeypatch, 2)
        monkeypatch.setenv("CDKIT_THREADS", "many")
        assert run_replicates(list, range(5)) == [[0, 1, 2, 3, 4]]
        assert pools == []

    @pytest.mark.parametrize("threads, cpus, count, pools", [
        ("64", 2, 900, [2]),    # capped at the CPU count
        ("64", None, 900, []),  # an unknown CPU count runs serially
        ("2", 8, 900, [2]),
        ("8", 8, 900, [4]),     # never more workers than blocks
        ("8", 8, 300, [2]),
        ("8", 8, 3, []),        # one block runs serially
        ("1", 8, 900, []),
    ])
    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch, threads, cpus, count,
                                                  pools):
        made = self._record_pools(monkeypatch, cpus)
        monkeypatch.setenv("CDKIT_THREADS", threads)
        blocks = run_replicates(lambda block: [-i for i in block], range(count))
        assert [v for b in blocks for v in b] == [-i for i in range(count)]
        assert made == pools


class TestConsistency:
    def test_estimators_shrink_at_root_n_rate(self):
        # quadrupling n should halve each estimator's mean absolute error
        theta0 = 1.2
        errors = {}
        for n in (100, 400):
            gen = CdGenerator("normal-mean-known-sigma", "pivot", n, theta0, 888)
            med = mean = mode = 0.0
            reps = 2000
            for i in range(reps):
                cd = gen.replicate(i)
                med += abs(cd_median(cd) - theta0)
                mean += abs(cd_mean(cd) - theta0)
                mode += abs(cd_mode(cd) - theta0)
            errors[n] = (med / reps, mean / reps, mode / reps)
        for small, large in zip(errors[400], errors[100]):
            assert 1.8 <= large / small <= 2.2


# ---------------------------------------------------------------------------
# block reads: calibrate draws and binds a block of pivot or normal-approximation
# replicates at once

_PIVOTS = [("normal-mean-known-sigma", 0.7), ("normal-mean-unknown-sigma", -1.2),
           ("normal-variance", 2.5), ("bivariate-normal-correlation", 0.6),
           ("exponential-rate", 1.7)]
# every recipe calibrate builds a block at a time
_BLOCK_BORN = [(model, "pivot", theta0) for model, theta0 in _PIVOTS] + [
    ("normal-mean-known-sigma", c, 0.7)
    for c in ("asymptotic-mean", "asymptotic-median", "mis-scaled-pivot")]
_LEVELS = (0.5, 0.9, 0.95, 0.99)
_PROBS = np.array([_interval_probs(lv)[0] for lv in _LEVELS]
                  + [_interval_probs(lv)[1] for lv in _LEVELS] + [0.5])
# not a multiple of the block, so the last block is short
_REPS = _REPLICATE_BLOCK + 44


def _one_at_a_time(gen, skip=()):
    """calibrate's u-values, coverage and median fraction at _REPS and _LEVELS,
    each CD read alone."""
    rows = []
    k = len(_LEVELS)
    for i in range(_REPS):
        if i in skip:
            continue
        cd = gen.replicate(i)
        q = cd_quantile(cd, _PROBS)
        rows.append((float(cd_eval(cd, gen.theta0)),
                     [bool(q[j] <= gen.theta0 <= q[k + j]) for j in range(k)],
                     bool(q[-1] <= gen.theta0)))
    m = len(rows)
    freqs = [sum(row[1][j] for row in rows) / m for j in range(k)]
    return (np.array([row[0] for row in rows]), freqs, sum(row[2] for row in rows) / m)


def _builds(gen, data, index):
    """Whether the one-row build of data raises no CdkitError."""
    try:
        gen.build_cd(data, index)
    except CdkitError:
        return False
    return True


def _bad_rows(gen, data):
    """data with rows 1 to 7 replaced by samples that a constructor may refuse."""
    data = data.copy()
    n = data.shape[1]
    if gen.data_shape == "paired":
        # |r| = 1 or near it, then a constant marginal
        for j, line in enumerate((lambda x: x, lambda x: -x, lambda x: 3.0 * x + 1.0,
                                  lambda x: np.full(n, 2.0)), start=1):
            data[j, :, 1] = line(data[j, :, 0])
        data[5, 2, 0], data[6, 0, 1] = math.nan, -math.inf
        data[7] *= 1e-300  # the marginals' variances underflow
    else:
        data[1] = 1.5  # a constant sample
        data[2, 0], data[3, -1] = math.nan, math.inf
        data[4, 1], data[5, 0] = 0.0, -1e-3  # non-positive exponential draws
        data[6] = 1e308  # the mean and the sum overflow
        data[7] *= 1e-300
    return data


class TestBlockRead:
    @pytest.mark.parametrize("model, constructor, theta0", _BLOCK_BORN)
    @pytest.mark.parametrize("n", [2, 3, 17, 64, 65, 100, 1000])
    def test_block_reads_each_one_row_cd_bit_for_bit(self, model, constructor, theta0, n):
        # one formula: a block of rows binds the CDs that the public constructors
        # build from each row alone, byte for byte
        if model == "bivariate-normal-correlation" and n < 4:
            n += 2  # the correlation model needs n >= 4
        gen = CdGenerator(model, constructor, n, theta0, 911, {"sigma": 1.3}
                          if model.endswith("known-sigma") else {})
        count = 40 if n == 1000 else 260
        data = gen.draw_block(range(count))
        cd, kept = family_block(*gen.family_rows(data))
        assert kept.all()
        u = cd_eval(cd, np.array([theta0]))
        q = cd_quantile(cd, _PROBS[:, None])
        for i in range(count):
            assert data[i].tobytes() == gen.draw_data(i).tobytes()
            one = gen.build_cd(data[i], i)
            assert u[i].tobytes() == cd_eval(one, np.array([theta0])).tobytes()
            assert q[:, i].tobytes() == cd_quantile(one, _PROBS).tobytes()

    @pytest.mark.parametrize("r", [0.999999, -0.999999, 0.5, 0.3])
    def test_fisher_z_block_keeps_math_atanh(self, r):
        # the row is numpy's arctanh and tanh, on a spec's floats or a block's
        # arrays alike
        specs = [FamilySpec("fisher-z", {"r": v, "n": 40}) for v in (r, 0.1, r, -0.7)]
        cds = [family_cd(spec) for spec in specs]
        r_of = np.array([spec.params["r"] for spec in specs])
        block, kept = family_block("fisher-z", {"r": r_of, "n": 40})
        assert kept.all()
        for x in (r, 0.2, math.nextafter(r, 0.0)):
            assert cd_eval(block, np.array([x])).tobytes() == np.array(
                [cd_eval(cd, x) for cd in cds]).tobytes()
        want = np.column_stack([cd_quantile(cd, _PROBS) for cd in cds])
        assert cd_quantile(block, _PROBS[:, None]).tobytes() == want.tobytes()
        # and each CD reads tanh(arctanh(r) + q / sqrt(n - 3)) in numpy, n = 40
        formula = np.tanh(np.arctanh(r_of) + ndtri(_PROBS)[:, None] / np.sqrt(40.0 - 3.0))
        assert want.tobytes() == formula.tobytes()

    def test_family_block_keeps_the_rows_a_spec_takes(self):
        loc = np.array([0.0, math.nan, 1.0, math.inf, 2.0, 3.0])
        scale = np.array([1.0, 1.0, 0.0, 1.0, 2.0, 0.5])
        ok = np.array([True, True, True, True, False, True])
        cd, kept = family_block("location-scale", {"loc": loc, "scale": scale, "df": 3.0}, ok)
        assert kept.tolist() == [True, False, False, False, False, True]
        specs = []
        for j in np.flatnonzero(ok):
            params = {"loc": float(loc[j]), "scale": float(scale[j]), "df": 3.0}
            if kept[j]:
                specs.append(FamilySpec("location-scale", params))
            else:
                with pytest.raises(ParameterDomainError):
                    FamilySpec("location-scale", params)
        assert cd_eval(cd, np.array([0.7])).tobytes() == np.array(
            [cd_eval(family_cd(spec), 0.7) for spec in specs]).tobytes()

    @pytest.mark.parametrize("model, constructor, theta0", _BLOCK_BORN)
    def test_a_row_is_kept_exactly_when_its_one_row_build_succeeds(self, model, constructor,
                                                                     theta0):
        # constant samples, non-finite values, non-positive exponential draws,
        # |r| = 1 and overflowing sums, each dropped exactly when the constructor
        # on that row alone raises
        gen = CdGenerator(model, constructor, 12, theta0, 5)
        data = _bad_rows(gen, gen.draw_block(range(10)))
        _, kept = family_block(*gen.family_rows(data))
        builds = [_builds(gen, data[i], i) for i in range(10)]
        assert kept.tolist() == builds
        assert not all(builds) and builds[0] and builds[8] and builds[9]

    @pytest.mark.parametrize("model, constructor, theta0", _BLOCK_BORN + [
        ("normal-mean-known-sigma", "likelihood", 0.7),
        ("exponential-rate", "likelihood", 1.7),
        ("normal-mean-known-sigma", "point-mass", 0.7),
        ("normal-mean-unknown-sigma", "raw-bootstrap", -1.2)])
    def test_calibrate_equals_one_cd_at_a_time(self, model, constructor, theta0):
        gen = CdGenerator(model, constructor, 15, theta0, 736)
        report = calibrate(gen, _REPS, _LEVELS)
        u, freqs, med = _one_at_a_time(gen)
        assert report.u_values.tobytes() == u.tobytes()
        assert [row[1] for row in report.coverage] == freqs
        assert report.median_unbiased_fraction == med and report.failures == 0

    @pytest.mark.parametrize("model, constructor, theta0", _BLOCK_BORN)
    def test_failed_builds_leave_every_other_row(self, monkeypatch, model, constructor, theta0):
        gen = CdGenerator(model, constructor, 15, theta0, 42)
        # the first and last replicates of both blocks, and one inside; their
        # drawn rows turn non-finite, which every constructor refuses
        failing = {0, 17, _REPLICATE_BLOCK - 1, _REPLICATE_BLOCK, _REPS - 1}
        draw = CdGenerator.draw_block

        def flaky(self, indices):
            data = draw(self, indices)
            for j, i in enumerate(indices):
                if i in failing:
                    data[j] = math.nan
            return data

        u, freqs, med = _one_at_a_time(gen, skip=failing)
        monkeypatch.setattr(CdGenerator, "draw_block", flaky)
        report = calibrate(gen, _REPS, _LEVELS)
        assert report.failures == len(failing)
        assert report.u_values.tobytes() == u.tobytes()
        assert [row[1] for row in report.coverage] == freqs
        assert report.median_unbiased_fraction == med

    @pytest.mark.parametrize("model, constructor, theta0", _BLOCK_BORN)
    def test_constructor_refusals_are_dropped_and_counted(self, monkeypatch, model,
                                                          constructor, theta0):
        # rows 1 to 7 of each block turn into samples a constructor may refuse
        gen = CdGenerator(model, constructor, 12, theta0, 8)
        draw = CdGenerator.draw_block
        data = np.concatenate([_bad_rows(gen, draw(gen, range(start, start + _REPLICATE_BLOCK)))
                               for start in (0, _REPLICATE_BLOCK)])[:_REPS]
        builds = [_builds(gen, data[i], i) for i in range(_REPS)]
        monkeypatch.setattr(CdGenerator, "draw_block",
                            lambda self, indices: _bad_rows(self, draw(self, indices)))
        report = calibrate(gen, _REPS, _LEVELS)
        assert report.failures == builds.count(False) > 0
        want = [float(cd_eval(gen.build_cd(data[i], i), theta0))
                for i in range(_REPS) if builds[i]]
        assert report.u_values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("model, theta0", _PIVOTS)
    def test_reports_equal_across_thread_counts(self, monkeypatch, model, theta0):
        gen = CdGenerator(model, "pivot", 15, theta0, 739)
        monkeypatch.setenv("CDKIT_THREADS", "1")
        serial = report_to_json(calibrate(gen, _REPS, _LEVELS))
        monkeypatch.setenv("CDKIT_THREADS", "2")
        assert report_to_json(calibrate(gen, _REPS, _LEVELS)) == serial
