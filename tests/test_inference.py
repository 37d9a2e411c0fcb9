"""Point estimators and hypothesis supports."""

import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from cdkit import inference
from cdkit.cd_core import FamilySpec, cd_eval, family_cd, grid_cd, location_scale_cd, sample_cd
from cdkit.constructors import DataSample, normal_mean_cd, normal_variance_cd
from cdkit.errors import (
    NonintegrableCdError,
    ParameterDomainError,
    PartitionError,
    UnsupportedRepresentationError,
)
from cdkit.inference import (
    NullRegion,
    classify,
    cd_mean,
    cd_median,
    cd_mode,
    iut_support,
    strong_support,
    support_report,
    weak_support,
)
from cdkit.probkernel import Normal, StudentT


def _phi(x):
    # composite-Simpson normal CDF, independent of the library under test
    if x < 0.0:
        return 1.0 - _phi(-x)
    n = 4096
    t = np.linspace(0.0, x, n + 1)
    f = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    h = x / n
    return 0.5 + h / 3.0 * (f[0] + f[-1] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum())


def _unit_sample():
    # n=5, mean 0, sum of squares exactly 4, so the sample variance is 1
    return DataSample([-math.sqrt(8.0 / 5.0), -math.sqrt(2.0 / 5.0), 0.0,
                       math.sqrt(2.0 / 5.0), math.sqrt(8.0 / 5.0)])


@pytest.fixture(scope="module")
def variance_cd():
    return normal_variance_cd(_unit_sample())


class TestPointEstimators:
    def test_variance_cd_median(self, variance_cd):
        # 4 / median(chi2_4), median frozen from a regularized-gamma bisection
        assert cd_median(variance_cd) == pytest.approx(1.1916486947553952, abs=1e-12)

    def test_variance_cd_mean(self, variance_cd):
        # E[c / X] = c / (nu - 2) = 4 / 2 exactly
        assert cd_mean(variance_cd) == pytest.approx(2.0, abs=1e-3)

    def test_variance_cd_mode(self, variance_cd):
        # argmax of the c/X density sits at c / (nu + 2) = 2/3
        assert cd_mode(variance_cd) == pytest.approx(2.0 / 3.0, abs=1e-7)

    def test_normal_cd_all_three_agree(self):
        rng = np.random.default_rng(7)
        data = DataSample(rng.normal(0.3, 1.2, size=40))
        cd = normal_mean_cd(data, sigma=1.2)
        xbar = data.mean
        assert cd_median(cd) == pytest.approx(xbar, abs=1e-10)
        assert cd_mean(cd) == pytest.approx(xbar, abs=1e-9)
        assert cd_mode(cd) == pytest.approx(xbar, abs=1e-7)

    def test_sample_mean_is_exact(self):
        cd = sample_cd([1.0, 2.0, 4.0], [0.2, 0.3, 0.5])
        assert cd_mean(cd) == pytest.approx(2.8, abs=1e-15)

    def test_grid_mean_is_exact(self):
        cd = grid_cd([0.0, 1.0, 3.0], [0.0, 0.5, 1.0])
        # uniform mass on each segment: 0.5 * 0.5 + 0.5 * 2.0
        assert cd_mean(cd) == pytest.approx(1.25, abs=1e-15)

    def test_grid_mean_counts_the_end_masses(self):
        # 0.2 on knot 0, then 0.8 spread evenly over [0, 1]
        assert cd_mean(grid_cd([0.0, 1.0], [0.2, 1.0])) == pytest.approx(0.4, abs=1e-15)
        assert cd_mean(grid_cd([0.0, 1.0], [0.0, 0.9])) == pytest.approx(0.55, abs=1e-15)

    @pytest.mark.parametrize("cd, want", [
        (family_cd(FamilySpec("inverse-chi2-scale", {"df": 4.0, "scale_ssq": 3.7})), 3.7 / 2.0),
        (family_cd(FamilySpec("inverse-chi2-scale", {"df": 10.0, "scale_ssq": 12.5})),
         12.5 / 8.0),
        (family_cd(FamilySpec("chi2-rate", {"n": 5, "total": 2.5})), 5 / 2.5),
        (family_cd(FamilySpec("chi2-rate", {"n": 30, "total": 17.0})), 30 / 17.0),
        (location_scale_cd(StudentT(3.0), 1.7, 0.4), 1.7),
        (location_scale_cd(StudentT(19.0), -2.2, 1.3), -2.2),
        (location_scale_cd(Normal(), 0.35, 0.05), 0.35),
    ], ids=["inv-chi2-df4", "inv-chi2-df10", "chi2-rate-n5", "chi2-rate-n30", "t3", "t19",
            "normal"])
    def test_analytic_mean_matches_the_closed_form(self, cd, want):
        # scale_ssq / (df - 2), n / total, and the location
        assert cd_mean(cd) == pytest.approx(want, rel=1e-9)

    def test_the_tabulated_rule_is_gauss_legendre_at_2048(self):
        # scipy builds the rule in 0.15 s; the table mirrors its positive half
        x, gw = roots_legendre(2048)
        v = 0.5 * (x + 1.0)
        s, w, w_sum = inference._rule()
        np.testing.assert_allclose(s, 3.0 * v * v - 2.0 * v ** 3, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, 3.0 * gw * v * (1.0 - v), rtol=1e-12)
        assert w_sum == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("npts", [256, 2048])
    def test_the_tabulated_nodes_are_scipys(self, npts):
        # the risk reader reads the 256 table, the expectation rule the 2048 one
        x, w = inference._gauss_legendre(npts)
        want_x, want_w = roots_legendre(npts)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)

    def test_heavy_tailed_mean_rejected(self):
        cauchy = location_scale_cd(StudentT(1.0), 0.0, 1.0)
        with pytest.raises(NonintegrableCdError):
            cd_mean(cauchy)

    def test_grid_mode_steepest_segment(self):
        cd = grid_cd([0.0, 1.0, 2.0, 3.0], [0.0, 0.2, 0.8, 1.0])
        assert cd_mode(cd) == pytest.approx(1.5)

    def test_grid_mode_tie_takes_first(self):
        cd = grid_cd([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        assert cd_mode(cd) == pytest.approx(0.5)

    def test_sample_mode_unsupported(self):
        cd = sample_cd([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(UnsupportedRepresentationError):
            cd_mode(cd)


class TestNullRegion:
    def test_interval_validation(self):
        with pytest.raises(ParameterDomainError):
            NullRegion.from_intervals([(2.0, 1.0)])
        with pytest.raises(ParameterDomainError):
            NullRegion.from_intervals([(0.0, 1.0), (0.5, 2.0)])
        with pytest.raises(ParameterDomainError):
            NullRegion.from_intervals([])

    def test_points_validation(self):
        with pytest.raises(ParameterDomainError):
            NullRegion.from_points([math.inf])
        region = NullRegion.from_points([3.0, 1.0])
        assert region.points == (1.0, 3.0)

    def test_json_round_trip_intervals(self):
        region = NullRegion.from_intervals([(-math.inf, 0.8), (1.25, math.inf)])
        back = NullRegion.from_json(region.to_json())
        assert back == region

    def test_json_round_trip_points(self):
        region = NullRegion.from_points([0.0, 1.5])
        assert NullRegion.from_json(region.to_json()) == region

    def test_json_rejects_garbage(self):
        with pytest.raises(ParameterDomainError):
            NullRegion.from_json('{"neither": 1}')
        with pytest.raises(ParameterDomainError):
            NullRegion.from_json('[1, 2]')


class TestSupports:
    def test_one_sided_strong_support(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        region = NullRegion.from_intervals([(-math.inf, -1.959963984540054)])
        p_s = strong_support(cd, region)
        assert p_s == pytest.approx(0.025, abs=1e-12)
        assert p_s == pytest.approx(_phi(-1.959963984540054), abs=1e-10)
        assert weak_support(cd, region) == pytest.approx(0.05, abs=1e-12)

    def test_interval_through_median_has_full_weak_support(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        region = NullRegion.from_intervals([(-0.5, 0.5)])
        assert weak_support(cd, region) == pytest.approx(1.0)
        assert strong_support(cd, region) < 1.0

    def test_point_null_support(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        region = NullRegion.from_points([0.0, 1.0])
        assert strong_support(cd, region) == 0.0
        # best point is the median itself
        assert weak_support(cd, region) == pytest.approx(1.0, abs=1e-12)
        report = support_report(cd, region)
        assert report.points_null
        assert report.p_s == 0.0 and report.p_s_star == 0.0

    def test_equivalence_style_union(self):
        # mean CD centered at 1.0 with standard error 0.1 against the
        # two-sided non-equivalence region
        cd = location_scale_cd(Normal(0.0, 1.0), 1.0, 0.1)
        region = NullRegion.from_intervals([(-math.inf, 0.8), (1.25, math.inf)])
        p_s = strong_support(cd, region)
        p_w = weak_support(cd, region)
        p_star = iut_support(cd, region)
        assert p_star == pytest.approx(0.0227501319481792, abs=1e-12)
        assert p_s == pytest.approx(0.0289597972739553, abs=1e-12)
        assert p_w == pytest.approx(0.0455002638963584, abs=1e-12)
        assert p_star == pytest.approx(_phi(-2.0), abs=1e-10)
        report = support_report(cd, region)
        assert report.p_s == pytest.approx(p_s)
        assert len(report.per_component) == 2
        assert report.per_component[0]["interval"][0] is None

    def test_iut_requires_intervals(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        with pytest.raises(ParameterDomainError):
            iut_support(cd, NullRegion.from_points([0.0]))

    def test_support_ordering_randomized(self):
        # p_s_star <= p_s <= p_w over arbitrary disjoint unions
        rng = np.random.default_rng(20260814)
        for _ in range(200):
            cd = location_scale_cd(Normal(0.0, 1.0),
                                   rng.normal(), 0.1 + rng.random())
            m = rng.integers(1, 4)
            cuts = np.sort(rng.normal(0.0, 2.0, size=2 * m))
            if np.unique(cuts).size < cuts.size:
                continue
            pairs = [(cuts[2 * j], cuts[2 * j + 1]) for j in range(m)]
            if rng.random() < 0.3:
                pairs[0] = (-math.inf, pairs[0][1])
            if rng.random() < 0.3:
                pairs[-1] = (pairs[-1][0], math.inf)
            region = NullRegion.from_intervals(pairs)
            p_star = iut_support(cd, region)
            p_s = strong_support(cd, region)
            p_w = weak_support(cd, region)
            assert p_star <= p_s + 1e-12
            assert p_s <= p_w + 1e-12


class TestSupportReport:
    CDS = [location_scale_cd(Normal(0.0, 1.0), 0.3, 0.8),
           grid_cd([-2.0, 0.0, 1.0, 3.0], [0.1, 0.3, 0.85, 0.95]),
           sample_cd(np.random.default_rng(5).normal(size=300))]
    REGIONS = [NullRegion.from_intervals([(-2.0, -0.5), (1.0, 2.0)]),
               NullRegion.from_intervals([(-math.inf, 0.1), (0.2, 0.4), (2.5, math.inf)]),
               NullRegion.from_intervals([(-3.0, 3.0)]),
               NullRegion.from_points([-0.4, 1.7])]

    @pytest.mark.parametrize("cd", CDS, ids=["analytic", "grid", "sample"])
    def test_report_is_its_definition_bit_for_bit(self, cd):
        med = cd_median(cd)
        for region in self.REGIONS:
            report = support_report(cd, region)
            assert report.p_w == weak_support(cd, region)
            assert report.p_s == strong_support(cd, region)
            if region.kind == "points":
                h = [cd_eval(cd, p) for p in region.points]
                assert [c["p_w"] for c in report.per_component] == [2.0 * min(v, 1.0 - v)
                                                                    for v in h]
                continue
            assert report.p_s_star == iut_support(cd, region)
            masses, weaks = [], []
            for lo, hi in region.intervals:
                top = cd_eval(cd, hi) if math.isfinite(hi) else 1.0
                bot = cd_eval(cd, lo) if math.isfinite(lo) else 0.0
                masses.append(float(np.clip(top - bot, 0.0, 1.0)))
                h = top if hi < med else bot
                weaks.append(1.0 if lo <= med <= hi else 2.0 * min(h, 1.0 - h))
            assert [c["p_s"] for c in report.per_component] == masses
            assert [c["p_w"] for c in report.per_component] == weaks
            assert report.p_s == float(np.clip(sum(masses), 0.0, 1.0))
            assert (report.p_w, report.p_s_star) == (max(weaks), max(masses))

    @pytest.mark.parametrize("end", [-math.inf, math.inf])
    def test_an_infinite_point_interval_carries_no_support(self, end):
        # H(-inf) = 0 and H(inf) = 1, whichever end of the interval they close
        report = support_report(location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0),
                                NullRegion.from_intervals([(end, end)]))
        assert (report.p_s, report.p_s_star, report.p_w) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("region, evals, quantiles", [
        (NullRegion.from_intervals([(-2.0, -0.5), (1.0, 2.0)]), 4, 1),
        (NullRegion.from_intervals([(-math.inf, 0.1), (2.5, math.inf)]), 2, 1),
        (NullRegion.from_points([-0.4, 1.7]), 2, 0),
    ], ids=["two-intervals", "two-tails", "two-points"])
    def test_each_component_is_read_once(self, monkeypatch, region, evals, quantiles):
        calls = {"cd_eval": 0, "cd_quantile": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(inference, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(inference, name, counted)
        support_report(location_scale_cd(Normal(0.0, 1.0), 0.3, 0.8), region)
        assert calls == {"cd_eval": evals, "cd_quantile": quantiles}


class TestClassify:
    def test_symmetric_split_ties_to_first(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        cells = [
            NullRegion.from_intervals([(-math.inf, 0.0)]),
            NullRegion.from_intervals([(0.0, math.inf)]),
        ]
        assert classify(cd, cells) == 0

    def test_shifted_split(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 1.0, 0.5)
        cells = [
            NullRegion.from_intervals([(-math.inf, 0.0)]),
            NullRegion.from_intervals([(0.0, math.inf)]),
        ]
        assert classify(cd, cells) == 1

    def test_three_grid_regions(self):
        # contents 0.2 / 0.5 / 0.3 by construction
        cd = grid_cd([0.0, 1.0, 2.0, 3.0], [0.0, 0.2, 0.7, 1.0])
        cells = [
            NullRegion.from_intervals([(-math.inf, 1.0)]),
            NullRegion.from_intervals([(1.0, 2.0)]),
            NullRegion.from_intervals([(2.0, math.inf)]),
        ]
        assert classify(cd, cells) == 1

    def test_gap_is_rejected(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        cells = [
            NullRegion.from_intervals([(-math.inf, 0.0)]),
            NullRegion.from_intervals([(1.0, math.inf)]),
        ]
        with pytest.raises(PartitionError):
            classify(cd, cells)

    def test_overlap_is_rejected(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        cells = [
            NullRegion.from_intervals([(-math.inf, 0.5)]),
            NullRegion.from_intervals([(0.0, math.inf)]),
        ]
        with pytest.raises(PartitionError):
            classify(cd, cells)

    def test_point_cells_rejected(self):
        cd = location_scale_cd(Normal(0.0, 1.0), 0.0, 1.0)
        with pytest.raises(PartitionError):
            classify(cd, [NullRegion.from_points([0.0])])
        with pytest.raises(PartitionError):
            classify(cd, [])


def _mean_cd(xbar, sigma, n):
    return location_scale_cd(Normal(0.0, 1.0), xbar, sigma / math.sqrt(n))


class TestWorkedExamples:
    def test_one_sided_support_at_two_se(self):
        # xbar = 1, sigma = 1, n = 4: H(1.98) = Phi(1.96)
        cd = _mean_cd(1.0, 1.0, 4)
        region = NullRegion.from_intervals([(-math.inf, 1.98)])
        p_s = strong_support(cd, region)
        assert p_s == pytest.approx(_phi(1.96), abs=1e-10)
        assert weak_support(cd, NullRegion.from_points([1.98])) == pytest.approx(
            2.0 * (1.0 - _phi(1.96)), abs=1e-10)

    def test_full_support_and_median_split(self):
        cd = _mean_cd(0.7, 2.0, 9)
        med = cd_median(cd)
        assert strong_support(cd, NullRegion.from_intervals([(-math.inf, med)])) == \
            pytest.approx(0.5, abs=1e-9)
        assert strong_support(cd, NullRegion.from_intervals([(-math.inf, math.inf)])) == 1.0

    def test_pigeonhole_bound(self):
        cd = _mean_cd(0.0, 1.0, 16)
        region = NullRegion.from_intervals([(-1.0, -0.5), (-0.2, 0.1), (0.4, 0.9)])
        k = len(region.intervals)
        assert iut_support(cd, region) >= strong_support(cd, region) / k - 1e-15


class TestCalibrationProperties:
    def test_boundary_support_is_uniform(self):
        # at theta0 on the boundary of a half-line null, p_s = H(theta0) ~ U(0,1)
        rng = np.random.default_rng(314)
        theta0, sigma, n, reps = 0.0, 1.0, 25, 5000
        region = NullRegion.from_intervals([(-math.inf, theta0)])
        hits_05 = hits_50 = 0
        for xbar in rng.normal(theta0, sigma / math.sqrt(n), size=reps):
            p_s = strong_support(_mean_cd(xbar, sigma, n), region)
            hits_05 += p_s <= 0.05
            hits_50 += p_s <= 0.50
        for alpha, hits in ((0.05, hits_05), (0.50, hits_50)):
            band = 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
            assert abs(hits / reps - alpha) <= band

    def test_interval_union_size(self):
        # strong support of (-inf,0] U [1,2] rejects at level 0.05 with
        # frequency near 0.05 at every boundary point, below it inside
        rng = np.random.default_rng(1009)
        sigma, n, reps = 1.0, 200, 5000
        region = NullRegion.from_intervals([(-math.inf, 0.0), (1.0, 2.0)])
        worst = 0.0
        for theta in (0.0, 1.0, 1.5, 2.0):
            xbars = rng.normal(theta, sigma / math.sqrt(n), size=reps)
            rate = np.mean([strong_support(_mean_cd(x, sigma, n), region) <= 0.05
                            for x in xbars])
            worst = max(worst, rate)
        assert 0.03 <= worst <= 0.07

    def test_point_null_weak_support_is_uniform(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(77)
        sigma, n, reps = 1.0, 200, 2000
        region = NullRegion.from_points([0.0, 1.0])
        vals = [weak_support(_mean_cd(x, sigma, n), region)
                for x in rng.normal(0.0, sigma / math.sqrt(n), size=reps)]
        assert kstest(vals, "uniform").pvalue > 0.001

    def test_median_unbiasedness(self):
        rng = np.random.default_rng(555)
        theta0, sigma, n, reps = 1.5, 2.0, 5, 5000
        below = sum(cd_median(_mean_cd(x, sigma, n)) <= theta0
                    for x in rng.normal(theta0, sigma / math.sqrt(n), size=reps))
        assert abs(below / reps - 0.5) <= 3.0 * math.sqrt(0.25 / reps)
