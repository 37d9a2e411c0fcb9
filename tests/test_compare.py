"""Dispersion, risk, slope, and dominance comparisons between CDs."""

import csv
import functools
import json
import math

import numpy as np
import pytest

import cdkit.compare as compare_module
import cdkit.inference as inference_module
import cdkit.probkernel as pk
from cdkit.cd_core import (
    _FAMILIES,
    analytic_cd,
    cd_eval,
    cd_quantile,
    location_scale_cd,
    materialize,
    sample_cd,
)
from cdkit.compare import (
    Absolute,
    LossSpec,
    RiskSpec,
    SquaredError,
    bahadur_slopes,
    default_risk,
    dkw_epsilon,
    dominance_mc,
    dominance_to_json,
    dump_slopes,
    gaussian_risk,
    identity_psi,
    mc_dispersion,
    paired_compare,
    point_risk,
    risk,
    sample_dispersion,
    square_psi,
    uniform_risk,
)
from cdkit.constructors import (
    DataSample,
    PairedSample,
    exponential_rate_cd,
    fisher_z_corr_cd,
    normal_variance_cd,
)
from cdkit.errors import (
    ConfigError,
    DegenerateSampleError,
    NonintegrableCdError,
    PairingError,
    ParameterDomainError,
)
from cdkit.inference import _PROBES, _grid_probs, _quantiles, cd_mean
from cdkit.simlab import CdGenerator

THETA0 = 0.0


@pytest.fixture(scope="module")
def z_gen():
    return CdGenerator("normal-mean-known-sigma", "pivot", 10, THETA0, 424242)


@pytest.fixture(scope="module")
def t_gen():
    return CdGenerator("normal-mean-unknown-sigma", "pivot", 10, THETA0, 424242)


@pytest.fixture(scope="module")
def z_vs_t_report(z_gen, t_gen):
    return dominance_mc(z_gen, t_gen, THETA0, (0.1, 0.5), 5000)


class TestSpecs:
    def test_presets_pass_their_own_spot_check(self):
        SquaredError.spot_check(1.5, 2.0)
        Absolute.spot_check(-0.3, 0.5)

    def test_monotone_loss_rejected(self):
        bad = LossSpec("tilt", lambda x, theta: x - theta)
        cd = location_scale_cd(pk.Normal(0.0, 1.0), 0.0, 1.0)
        with pytest.raises(ParameterDomainError):
            sample_dispersion(cd, bad, 0.0)

    def test_psi_must_be_monotone(self):
        with pytest.raises(ParameterDomainError):
            RiskSpec(lambda u: 1.0 - u, None, (0.0, 0.0))

    def test_window_must_be_finite_and_ordered(self):
        with pytest.raises(ParameterDomainError):
            RiskSpec(identity_psi, None, (1.0, 0.0))
        with pytest.raises(ParameterDomainError):
            uniform_risk(0.0, math.inf)

    def test_default_weight_window(self):
        spec = default_risk(2.0, 0.5)
        assert spec.window == (0.5, 3.5)


class TestSampleDispersion:
    def test_squared_error_normal(self):
        # second-moment algebra: E(X - t0)^2 = (xbar - t0)^2 + var
        xbar, sigma, n = 1.3, 2.0, 16
        cd = location_scale_cd(pk.Normal(0.0, 1.0), xbar, sigma / math.sqrt(n))
        want = (xbar - THETA0 - 0.4) ** 2 + sigma ** 2 / n
        got = sample_dispersion(cd, SquaredError, THETA0 + 0.4)
        assert got == pytest.approx(want, abs=1e-6)

    def test_absolute_loss_half_normal_mean(self):
        cd = location_scale_cd(pk.Normal(0.0, 1.0), 0.7, 1.0)
        got = sample_dispersion(cd, Absolute, 0.7)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-4)

    def test_point_mass_is_zero(self):
        assert sample_dispersion(sample_cd([0.7]), SquaredError, 0.7) == 0.0

    def test_sample_kind_sums_exactly(self):
        cd = sample_cd([-1.0, 0.0, 2.0], weights=[0.25, 0.5, 0.25])
        got = sample_dispersion(cd, SquaredError, 0.0)
        assert got == pytest.approx(0.25 * 1.0 + 0.25 * 4.0, abs=1e-15)

    def test_grid_kind_close_to_analytic(self):
        xbar, sigma, n = 1.3, 2.0, 16
        cd = location_scale_cd(pk.Normal(0.0, 1.0), xbar, sigma / math.sqrt(n))
        want = (xbar - 0.9) ** 2 + sigma ** 2 / n
        got = sample_dispersion(materialize(cd, 4097), SquaredError, 0.9)
        assert got == pytest.approx(want, abs=2e-4)

    def test_heavy_tails_rejected(self):
        cd = location_scale_cd(pk.StudentT(1), 0.0, 1.0)
        with pytest.raises(NonintegrableCdError):
            sample_dispersion(cd, SquaredError, 0.0)


def _exponential_cd(n, seed=17):
    return exponential_rate_cd(DataSample(np.random.default_rng(seed).exponential(0.5, n)))


def _correlation_cd(n, rho, seed=23):
    cov = [[1.0, rho], [rho, 1.0]]
    pairs = np.random.default_rng(seed).multivariate_normal([0.0, 0.0], cov, n)
    return fisher_z_corr_cd(PairedSample(pairs))


# every row of the family table: location-scale (twice), chi2-rate (twice),
# inverse-chi2-scale, which reads the upper chi-square tail, and fisher-z
_BASE_MAPPED = [
    location_scale_cd(pk.Normal(), -1.3, 0.02),
    location_scale_cd(pk.StudentT(4), 12.5, 3.0),
    _exponential_cd(7),
    _exponential_cd(500, seed=3),
    normal_variance_cd(DataSample(np.random.default_rng(5).normal(1.0, 2.0, 30))),
    _correlation_cd(30, 0.8),
]
_BASE_MAPPED_IDS = ["normal", "student-t", "exponential-n7", "exponential-n500",
                    "normal-variance", "correlation"]


class TestDispersionFastPath:
    @pytest.mark.parametrize("base", [pk.Normal(), pk.StudentT(9), pk.StudentT(3.5)])
    @pytest.mark.parametrize("loss", [SquaredError, Absolute])
    def test_location_scale_equals_generic_quadrature(self, base, loss):
        cd = location_scale_cd(base, 0.37, 0.81)
        # the same CD, meta included, without the factory's structure
        generic = analytic_cd(functools.partial(cd_eval, cd),
                              quantile=functools.partial(cd_quantile, cd), meta=cd.meta)
        assert _FAMILIES["location-scale"].base(**cd.family.params) == base
        assert generic.family is None
        # cached base quantiles, then loc + scale * q: the bytes of cd_quantile
        assert sample_dispersion(cd, loss, 0.1) == sample_dispersion(generic, loss, 0.1)

    @pytest.mark.parametrize("n", [2, 30, 200])
    @pytest.mark.parametrize("loss", [SquaredError, Absolute])
    def test_exponential_rate_equals_generic_quadrature(self, n, loss):
        cd = _exponential_cd(n)
        generic = analytic_cd(functools.partial(cd_eval, cd), cd.support,
                              quantile=functools.partial(cd_quantile, cd), meta=cd.meta)
        assert _FAMILIES["chi2-rate"].base(**cd.family.params) == pk.ChiSquare(2.0 * n)
        assert generic.family is None
        # cached chi-square quantiles, then q / (2 sum x): the bytes of cd_quantile
        assert sample_dispersion(cd, loss, 2.0) == sample_dispersion(generic, loss, 2.0)

    @pytest.mark.parametrize("cd", _BASE_MAPPED, ids=_BASE_MAPPED_IDS)
    def test_probes_are_the_map_of_base_quantiles(self, cd):
        # the four probes sample_dispersion reads first come off the base cache
        assert np.array_equal(_quantiles(cd, "probes"), cd_quantile(cd, _PROBES))
        assert np.array_equal(_quantiles(cd, "nodes"), cd_quantile(cd, _grid_probs("nodes")))

    @pytest.mark.parametrize("cd", _BASE_MAPPED, ids=_BASE_MAPPED_IDS)
    def test_quantile_is_the_map_of_base_quantiles(self, cd):
        row, params = _FAMILIES[cd.family.name], cd.family.params
        base = row.base(**params)
        to_cd = functools.partial(row.from_base, **params)
        s = np.random.default_rng(2024).uniform(1e-12, 1.0 - 1e-12, 4000)
        assert np.array_equal(to_cd(pk.quantile(base, s, row.side)), cd_quantile(cd, s))
        for si in s[:50]:
            assert to_cd(pk.quantile(base, float(si), row.side)) == cd_quantile(cd, float(si))

    @pytest.mark.parametrize("cd", _BASE_MAPPED, ids=_BASE_MAPPED_IDS)
    def test_a_second_mean_reads_no_quantiles(self, monkeypatch, cd):
        # the first mean fills the base-quantile cache; every later one maps it
        # and reads no quantile, neither of the base law nor of the CD
        first = cd_mean(cd)
        calls = []
        for module, name in ((pk, "quantile"), (inference_module, "cd_quantile")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
        assert cd_mean(cd) == first
        assert calls == []


class TestMcDispersion:
    def test_known_sigma_expected_value(self, z_gen):
        # E dispersion = E(xbar - t0)^2 + sigma^2/n = 2 sigma^2/n
        est = mc_dispersion(z_gen, SquaredError, 2000)
        assert abs(est.mean - 0.2) <= 3.0 * est.se

    def test_degenerate_generator_is_zero(self):
        gen = CdGenerator("normal-mean-known-sigma", "point-mass", 10, THETA0, 1)
        est = mc_dispersion(gen, SquaredError, 100)
        assert est.mean == 0.0 and est.se == 0.0

    def test_known_sigma_beats_estimated_sigma(self, z_gen, t_gen):
        # same datasets on both sides: the difference is pure construction
        za = mc_dispersion(z_gen, SquaredError, 800)
        ta = mc_dispersion(t_gen, SquaredError, 800)
        diff = ta.values - za.values
        se_d = float(np.std(diff, ddof=1)) / math.sqrt(800)
        assert float(np.mean(diff)) > 2.0 * se_d

    def test_reps_floor(self, z_gen):
        with pytest.raises(ConfigError):
            mc_dispersion(z_gen, SquaredError, 99)

    def test_scalar_only_loss_is_read_element_by_element(self, z_gen):
        # math.fabs takes no array; abs is exact, so both losses agree exactly
        loss = LossSpec("abs", lambda x, theta: math.fabs(x - theta))
        assert np.array_equal(mc_dispersion(z_gen, loss, 100).values,
                              mc_dispersion(z_gen, Absolute, 100).values)


class TestRisk:
    def test_ks_at_truth_constant(self, z_gen):
        # max(U, 1-U) for uniform U has mean 3/4 whatever the CD family
        est = risk(z_gen, point_risk(THETA0), 3000)
        assert abs(est.mean - 0.75) <= 0.01

    def test_square_psi_at_truth(self, z_gen):
        # E max(U, 1-U)^2 = 7/12
        est = risk(z_gen, point_risk(THETA0, psi=square_psi), 3000)
        assert abs(est.mean - 7.0 / 12.0) <= 0.015

    def test_point_mass_generator_has_zero_risk(self):
        gen = CdGenerator("normal-mean-known-sigma", "point-mass", 10, THETA0, 1)
        est = risk(gen, uniform_risk(THETA0 - 3.0, THETA0 + 3.0), 100)
        assert est.mean == 0.0

    def test_known_sigma_beats_estimated_sigma(self, z_gen, t_gen):
        spec = uniform_risk(THETA0 - 3.0, THETA0 + 3.0)
        rz = risk(z_gen, spec, 1000)
        rt = risk(t_gen, spec, 1000)
        diff = rt.values - rz.values
        se_d = float(np.std(diff, ddof=1)) / math.sqrt(1000)
        assert rz.mean <= rt.mean + 2.0 * se_d
        assert float(np.mean(diff)) > 2.0 * se_d

    def test_gaussian_weight_runs(self, z_gen):
        est = risk(z_gen, gaussian_risk(THETA0), 100)
        assert 0.0 < est.mean < 1.0

    def test_reps_floor(self, z_gen):
        with pytest.raises(ConfigError):
            risk(z_gen, point_risk(THETA0), 50)

    def test_scalar_only_psi_and_weight_are_read_element_by_element(self, z_gen):
        # math.sqrt takes no array (TypeError) and a chained comparison has no
        # array truth value (ValueError); sqrt is correctly rounded either way
        want = risk(z_gen, uniform_risk(-1.0, 1.0, psi=np.sqrt), 100).values
        assert np.array_equal(risk(z_gen, uniform_risk(-1.0, 1.0, psi=math.sqrt), 100).values,
                              want)
        boxcar = RiskSpec(np.sqrt, lambda x: 0.5 if -1.0 <= x <= 1.0 else 0.0, (-1.0, 1.0))
        assert np.array_equal(risk(z_gen, boxcar, 100).values, want)


class TestBahadurSlopes:
    def test_normal_rate_one_half(self):
        n = 10 ** 6
        cd = location_scale_cd(pk.Normal(0.0, 1.0), 0.0, 1.0 / math.sqrt(n))
        left, right = bahadur_slopes(cd, 0.0, 1.0, n)
        assert left == pytest.approx(-0.5, abs=1e-4)
        assert right == pytest.approx(left, abs=1e-12)

    def test_t_rate_approaches_half_log_two(self):
        target = -0.5 * math.log(2.0)
        slopes = []
        for n in (100, 1000, 10000):
            cd = location_scale_cd(pk.StudentT(n - 1), 0.0, 1.0 / math.sqrt(n))
            slopes.append(bahadur_slopes(cd, 0.0, 1.0, n)[0])
        assert slopes[0] < slopes[1] < slopes[2] < 0.0
        assert abs(slopes[2] - target) <= 0.05 * abs(target)

    def test_cauchy_slopes_stay_finite_near_the_largest_double(self):
        # log P(T_1 <= -1e290), frozen via mpmath (dps=60)
        cd = location_scale_cd(pk.StudentT(1.0), 0.0, 1.0)
        left, right = bahadur_slopes(cd, 0.0, 1e290, 10)
        assert left == pytest.approx(-66.88944068541226, rel=1e-12)
        assert right == left

    def test_vanishing_eps_gives_log_half(self):
        cd = location_scale_cd(pk.Normal(0.0, 1.0), 2.0, 0.2)
        left, right = bahadur_slopes(cd, 2.0, 1e-12, 25)
        want = math.log(0.5) / 25
        assert left == pytest.approx(want, abs=1e-9)
        assert right == pytest.approx(want, abs=1e-9)

    def test_empty_sample_tail_is_minus_inf(self):
        cd = sample_cd([1.0, 2.0, 3.0])
        left, right = bahadur_slopes(cd, 2.0, 5.0, 3)
        assert left == -math.inf and right == -math.inf

    def test_nonpositive_and_nonincreasing_in_eps(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cd = location_scale_cd(pk.Normal(0.0, 1.0), rng.normal(),
                                   math.exp(rng.normal()))
            theta0 = rng.normal()
            prev = (0.0, 0.0)
            for eps in (0.1, 0.5, 1.0, 2.0):
                pair = bahadur_slopes(cd, theta0, eps, 7)
                assert pair[0] <= 0.0 and pair[1] <= 0.0
                assert pair[0] <= prev[0] + 1e-15 and pair[1] <= prev[1] + 1e-15
                prev = pair

    def test_validation(self):
        cd = sample_cd([1.0])
        with pytest.raises(ParameterDomainError):
            bahadur_slopes(cd, 0.0, 0.0, 5)
        with pytest.raises(ParameterDomainError):
            bahadur_slopes(cd, 0.0, 1.0, 0)

    def test_csv_dump(self, tmp_path):
        path = tmp_path / "slopes.csv"
        dump_slopes(path, [(10, 0.5, -0.125, -0.129), (3, 5.0, -math.inf, -math.inf)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "eps", "left_slope", "right_slope"]
        assert float(rows[1][2]) == -0.125
        assert float(rows[2][3]) == -math.inf


class TestDominance:
    def test_dkw_band_value(self):
        want = math.sqrt(math.log(2.0 / 0.05) / (2.0 * 5000))
        assert dkw_epsilon(5000) == pytest.approx(want, abs=1e-15)

    def test_equal_generators_inconclusive(self, z_gen):
        report = dominance_mc(z_gen, z_gen, THETA0, (0.25,), 300)
        assert report.verdict == "inconclusive"
        assert report.covers == ((True, True),)

    def test_known_sigma_dominates_t(self, z_vs_t_report):
        assert z_vs_t_report.verdict == "1 dominates"

    def test_reversed_order_flips_verdict(self, z_gen, t_gen):
        report = dominance_mc(t_gen, z_gen, THETA0, (0.1, 0.5), 5000)
        assert report.verdict == "2 dominates"

    def test_verdict_recomputable_from_stored_curves(self, z_vs_t_report):
        rep = z_vs_t_report
        for c, (one, two) in zip(rep.curves, rep.covers):
            assert one == bool(
                np.all(c.left_1 >= c.left_2 - rep.tolerance)
                and np.all(c.right_1 >= c.right_2 - rep.tolerance))
            assert two == bool(
                np.all(c.left_2 >= c.left_1 - rep.tolerance)
                and np.all(c.right_2 >= c.right_1 - rep.tolerance))

    def test_smaller_asymptotic_sd_wins_locally(self):
        # local alternatives eps/sqrt(n): mean-based aCD vs median-based aCD
        n = 400
        gm = CdGenerator("normal-mean-known-sigma", "asymptotic-mean", n, THETA0, 777)
        gq = CdGenerator("normal-mean-known-sigma", "asymptotic-median", n, THETA0, 777)
        eps = (1.0 / math.sqrt(n), 2.0 / math.sqrt(n))
        assert dominance_mc(gm, gq, THETA0, eps, 4000).verdict == "1 dominates"

    def test_shape_mismatch_raises(self, z_gen):
        other = CdGenerator("normal-mean-known-sigma", "pivot", 11, THETA0, 1)
        with pytest.raises(PairingError):
            dominance_mc(z_gen, other, THETA0, (0.1,), 200)

    def test_eps_validation(self, z_gen):
        with pytest.raises(ParameterDomainError):
            dominance_mc(z_gen, z_gen, THETA0, (0.1, -0.2), 200)
        with pytest.raises(ConfigError):
            dominance_mc(z_gen, z_gen, THETA0, (0.1,), 99)

    def test_json_schema(self, z_vs_t_report):
        body = json.loads(dominance_to_json(z_vs_t_report))
        assert body["verdict"] == "1 dominates"
        assert len(body["probe_grid"]) == 99
        assert len(body["comparisons"]) == 2
        first = body["comparisons"][0]
        assert first["one_covers_two"] is True
        assert len(first["left_ecdf_1"]) == 99

    def test_interval_errors_inherit_the_ordering(self, z_gen, t_gen, z_vs_t_report):
        # tighter tail mass must show up as tighter quantile errors too
        assert z_vs_t_report.verdict == "1 dominates"
        reps = 2000
        tol = 2.0 * dkw_epsilon(reps)
        for t in (0.25, 0.5, 0.75):
            a = np.empty(reps)
            b = np.empty(reps)
            for i in range(reps):
                data = z_gen.draw_data(i)
                a[i] = abs(cd_quantile(z_gen.build_cd(data, i), t) - THETA0)
                b[i] = abs(cd_quantile(t_gen.build_cd(data, i), t) - THETA0)
            probes = np.quantile(np.concatenate([a, b]), np.arange(1, 100) / 100.0)
            fa = np.searchsorted(np.sort(a), probes, side="right") / reps
            fb = np.searchsorted(np.sort(b), probes, side="right") / reps
            assert float(np.min(fa - fb)) >= -tol


class TestPairedCompare:
    EPS = (0.1, 0.5)
    REPS = 120

    CASES = {
        # same model draws, seed, n and theta0: both CDs come from one dataset
        "shared draws": (
            CdGenerator("normal-mean-known-sigma", "pivot", 10, THETA0, 424242),
            CdGenerator("normal-mean-unknown-sigma", "pivot", 10, THETA0, 424242)),
        # another seed: generator 2's dispersion and risk use its own draws
        "own draws": (
            CdGenerator("normal-mean-known-sigma", "pivot", 10, THETA0, 424242),
            CdGenerator("normal-mean-unknown-sigma", "pivot", 10, THETA0, 99)),
        # resampling draws from a per-index stream of generator 2's seed
        "bootstrap": (
            CdGenerator("normal-mean-unknown-sigma", "pivot", 20, THETA0, 31),
            CdGenerator("normal-mean-unknown-sigma", "bootstrap-t", 20, THETA0, 31,
                        {"B": 100})),
        # a chi-square scale-family CD against a profile-likelihood CD
        "exponential pivot vs likelihood": (
            CdGenerator("exponential-rate", "pivot", 30, 2.0, 77),
            CdGenerator("exponential-rate", "likelihood", 30, 2.0, 77)),
        # generator 2 draws with another sigma: its own draws
        "another sigma": (
            CdGenerator("normal-mean-known-sigma", "pivot", 10, THETA0, 424242),
            CdGenerator("normal-mean-unknown-sigma", "pivot", 10, THETA0, 424242,
                        {"sigma": 1.5})),
        # generator 2 draws around another mean: its own draws
        "normal-variance, another mean": (
            CdGenerator("normal-variance", "pivot", 12, 2.0, 5),
            CdGenerator("normal-variance", "pivot", 12, 2.0, 5, {"mean": 1.0})),
    }

    @staticmethod
    def _same(a, b):
        return (a.mean == b.mean and a.se == b.se and a.reps == b.reps
                and np.array_equal(a.values, b.values))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_separate_passes(self, case):
        gen1, gen2 = self.CASES[case]
        theta0 = gen1.theta0
        # the stock weight: uniform over theta0 +- 3 IQR of gen1's replicate 0
        cd0 = gen1.replicate(0)
        spec = default_risk(theta0, float(cd_quantile(cd0, 0.75) - cd_quantile(cd0, 0.25)))
        fused = paired_compare(gen1, gen2, theta0, self.EPS, self.REPS)
        report = dominance_mc(gen1, gen2, theta0, self.EPS, self.REPS)
        assert dominance_to_json(fused.dominance) == dominance_to_json(report)
        for got, gen in zip(fused.dispersion, (gen1, gen2)):
            assert self._same(got, mc_dispersion(gen, SquaredError, self.REPS))
        for got, gen in zip(fused.risk, (gen1, gen2)):
            assert self._same(got, risk(gen, spec, self.REPS))

    @pytest.mark.parametrize("case, builds", [("shared draws", 2), ("own draws", 3)])
    def test_builds_each_cd_once_per_replicate(self, monkeypatch, case, builds):
        monkeypatch.setenv("CDKIT_THREADS", "1")
        original = CdGenerator.build_cd
        calls = []

        def counting(gen, data, index):
            calls.append(index)
            return original(gen, data, index)

        monkeypatch.setattr(CdGenerator, "build_cd", counting)
        gen1, gen2 = self.CASES[case]
        paired_compare(gen1, gen2, THETA0, self.EPS, 100)
        # replicate 0's CDs also give the default risk weight
        assert len(calls) == builds * 100

    def test_shared_draws_read_each_cd_once(self, monkeypatch):
        monkeypatch.setenv("CDKIT_THREADS", "1")
        draws, evals = [], []
        draw, evaluate = CdGenerator.draw_data, compare_module.cd_eval

        def counting_draw(gen, index):
            draws.append(index)
            return draw(gen, index)

        def counting_eval(cd, x):
            evals.append(np.size(x))
            return evaluate(cd, x)

        monkeypatch.setattr(CdGenerator, "draw_data", counting_draw)
        monkeypatch.setattr(compare_module, "cd_eval", counting_eval)
        gen1, gen2 = self.CASES["shared draws"]
        paired_compare(gen1, gen2, THETA0, self.EPS, 100)
        # pairing is decided from the draw keys, not by drawing gen2's data
        assert sorted(draws) == list(range(100))
        # one read per CD: both tail points and risk nodes
        assert evals == [2 * len(self.EPS) + 256] * 200

    @pytest.mark.parametrize("case", ["shared draws", "own draws"])
    def test_first_cds_are_the_replicate_zero_cds(self, case):
        gen1, gen2 = self.CASES[case]
        fused = paired_compare(gen1, gen2, THETA0, self.EPS, 100)
        s = np.linspace(0.01, 0.99, 99)
        for got, gen in zip(fused.first_cds, (gen1, gen2)):
            assert np.array_equal(cd_quantile(got, s), cd_quantile(gen.replicate(0), s))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_lowest_failing_replicate_ends_each_pass(self, monkeypatch, threads):
        original = CdGenerator.build_cd

        def failing(gen, data, index):
            if index in (7, 300):
                raise DegenerateSampleError(f"replicate {index}")
            return original(gen, data, index)

        monkeypatch.setattr(CdGenerator, "build_cd", failing)
        monkeypatch.setenv("CDKIT_THREADS", threads)
        gen1, gen2 = self.CASES["own draws"]
        passes = [functools.partial(dominance_mc, gen1, gen2, THETA0, self.EPS),
                  functools.partial(mc_dispersion, gen1, SquaredError),
                  functools.partial(risk, gen2, default_risk(THETA0, 1.0))]
        for run in passes:
            with pytest.raises(DegenerateSampleError, match="^replicate 7$"):
                run(400)

    def test_config_checks_come_before_any_replicate(self, monkeypatch):
        def refuse(gen, data, index):
            raise AssertionError("a replicate was built")

        monkeypatch.setattr(CdGenerator, "build_cd", refuse)
        gen1, gen2 = self.CASES["shared draws"]
        short = CdGenerator("normal-mean-known-sigma", "pivot", 11, THETA0, 1)
        with pytest.raises(ConfigError):
            paired_compare(gen1, gen2, THETA0, self.EPS, 99)
        with pytest.raises(PairingError):
            paired_compare(gen1, short, THETA0, self.EPS, 100)
        with pytest.raises(ParameterDomainError):
            paired_compare(gen1, gen2, THETA0, (0.1, 0.0), 100)
