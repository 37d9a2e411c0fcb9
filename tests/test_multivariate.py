"""Cloud CDs, projections, depth, and centrality regions."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

import cdkit.probkernel as pk
from cdkit.cd_core import cd_eval, cd_quantile, central_interval, location_scale_cd, sample_cd
from cdkit.errors import (
    InsufficientDataError,
    MapDomainError,
    ParameterDomainError,
    SingularMatrixError,
)
from cdkit.inference import NullRegion, _ccf, weak_support
from cdkit.multivariate import (
    CentralityFn,
    DepthSpec,
    MultiCD,
    _direction_matrix,
    central_region_test,
    centrality,
    centrality_fn,
    depth,
    lcd_from_pivot,
    load_cloud_csv,
    project,
    save_cloud_csv,
    transform_mcd,
)
from cdkit.simlab import ks_uniform


def _gaussian_lcd(seed, n, theta0, m):
    g = pk.RngStream(seed, 0).child(0).generator()
    data = g.normal(theta0, 1.0, size=(n, 2))
    eta_rng = pk.RngStream(seed, 0).child(1).generator()
    return lcd_from_pivot(data.mean(axis=0), math.sqrt(n) * np.eye(2),
                          lambda c: eta_rng.normal(size=(c, 2)), m)


class TestMultiCD:
    def test_validation(self):
        flat = np.zeros(2000)
        with pytest.raises(ParameterDomainError):
            MultiCD(flat)
        with pytest.raises(ParameterDomainError):
            MultiCD(flat[:, None])
        with pytest.raises(InsufficientDataError):
            MultiCD(np.zeros((999, 2)))
        bad = np.zeros((1000, 2))
        bad[3, 1] = math.nan
        with pytest.raises(ParameterDomainError):
            MultiCD(bad)

    def test_shape_properties(self):
        mcd = MultiCD(np.zeros((1500, 3)))
        assert (mcd.m, mcd.k) == (1500, 3)


class TestLcdFromPivot:
    def test_degenerate_eta_collapses_to_estimate(self):
        th = np.array([1.5, -2.0])
        mcd = lcd_from_pivot(th, np.eye(2), lambda c: np.zeros((c, 2)), 1000)
        assert np.all(mcd.cloud == th)
        assert mcd.a_condition == pytest.approx(1.0)

    def test_cloud_law_matches_sigma_over_n(self):
        # A = sqrt(n) Sigma^{-1/2} with standard normal eta: cloud ~ N(th, Sigma/n)
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        n = 25
        vals, vecs = np.linalg.eigh(sigma)
        root_inv = vecs @ np.diag(vals ** -0.5) @ vecs.T
        rng = np.random.default_rng(12)
        mcd = lcd_from_pivot(np.zeros(2), math.sqrt(n) * root_inv,
                             lambda c: rng.normal(size=(c, 2)), 10000)
        got = np.cov(mcd.cloud, rowvar=False)
        assert np.allclose(got, sigma / n, rtol=0.10, atol=1e-3)

    def test_symmetric_eta_centers_on_estimate(self):
        th = np.array([0.3, 0.8])
        rng = np.random.default_rng(4)
        mcd = lcd_from_pivot(th, np.eye(2),
                             lambda c: rng.uniform(-1.0, 1.0, size=(c, 2)), 10000)
        band = 4.0 / (math.sqrt(3.0) * 100.0)
        assert np.all(np.abs(mcd.cloud.mean(axis=0) - th) <= band)

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrixError):
            lcd_from_pivot(np.zeros(2), np.ones((2, 2)),
                           lambda c: np.zeros((c, 2)), 1000)

    def test_sampler_shape_checked(self):
        with pytest.raises(ParameterDomainError):
            lcd_from_pivot(np.zeros(2), np.eye(2), lambda c: np.zeros((c, 3)), 1000)

    def test_deterministic_under_fixed_seed(self):
        def build():
            rng = np.random.default_rng(55)
            return lcd_from_pivot(np.zeros(2), np.eye(2),
                                  lambda c: rng.normal(size=(c, 2)), 1000)
        assert np.array_equal(build().cloud, build().cloud)


class TestProject:
    def test_first_coordinate_recovers_marginal(self):
        rng = np.random.default_rng(21)
        mcd = MultiCD(rng.normal(size=(10000, 2)))
        cd = project(mcd, (1.0, 0.0))
        assert kstest(cd.atoms, "norm").statistic < 0.02

    def test_positive_scaling_scales_quantiles(self):
        # dyadic factor keeps every float product exact
        rng = np.random.default_rng(22)
        mcd = MultiCD(rng.normal(size=(1200, 2)))
        base = project(mcd, (0.7, -0.4))
        scaled = project(mcd, (2.0 * 0.7, 2.0 * -0.4))
        for s in (0.1, 0.5, 0.9):
            assert cd_quantile(scaled, s) == 2.0 * cd_quantile(base, s)

    def test_zero_lambda_rejected(self):
        mcd = MultiCD(np.random.default_rng(1).normal(size=(1000, 2)))
        with pytest.raises(ParameterDomainError):
            project(mcd, (0.0, 0.0))
        with pytest.raises(ParameterDomainError):
            project(mcd, (1.0, 0.0, 0.0))

    def test_projected_gaussian_lcd_calibrates(self):
        theta0 = np.array([0.4, -0.2])
        us = np.empty(2000)
        for i in range(2000):
            g = pk.RngStream(778, i).child(0).generator()
            data = g.normal(theta0, 1.0, size=(25, 2))
            eta_rng = pk.RngStream(778, i).child(1).generator()
            mcd = lcd_from_pivot(data.mean(axis=0), 5.0 * np.eye(2),
                                 lambda c: eta_rng.normal(size=(c, 2)), 4000)
            us[i] = cd_eval(project(mcd, (1.0, 0.0)), theta0[0])
        _, p = ks_uniform(us)
        assert p > 0.001


class TestTransform:
    def test_affine_image_is_exact(self):
        rng = np.random.default_rng(9)
        mcd = MultiCD(rng.normal(size=(1000, 2)))
        b = np.array([[1.0, 2.0], [0.0, -1.5]])
        c = np.array([0.3, 0.4])
        image = transform_mcd(mcd, lambda v: b @ v + c)
        assert np.array_equal(image.cloud, mcd.cloud @ b.T + c)

    def test_constant_map_gives_point_cloud(self):
        mcd = MultiCD(np.random.default_rng(9).normal(size=(1000, 2)))
        image = transform_mcd(mcd, lambda v: (4.0, 5.0))
        assert np.all(image.cloud == np.array([4.0, 5.0]))

    def test_non_finite_image_rejected(self):
        mcd = MultiCD(np.random.default_rng(9).normal(size=(1000, 2)))
        with pytest.raises(MapDomainError):
            transform_mcd(mcd, lambda v: (v[0], math.inf))

    def test_scalar_image_rejected(self):
        mcd = MultiCD(np.random.default_rng(9).normal(size=(1000, 2)))
        with pytest.raises(ParameterDomainError):
            transform_mcd(mcd, lambda v: v[0] / v[1])

    def test_ratio_of_means_calibrates(self):
        mu = np.array([1.0, 2.0])
        r0 = 0.5
        us = np.empty(1200)
        for i in range(1200):
            g = pk.RngStream(888, i).child(0).generator()
            data = g.normal(mu, 1.0, size=(400, 2))
            eta_rng = pk.RngStream(888, i).child(1).generator()
            mcd = lcd_from_pivot(data.mean(axis=0), 20.0 * np.eye(2),
                                 lambda c: eta_rng.normal(size=(c, 2)), 1500)
            ratio = transform_mcd(mcd, lambda v: (v[0] / v[1], v[1]))
            us[i] = cd_eval(project(ratio, (1.0, 0.0)), r0)
        _, p = ks_uniform(us)
        assert p > 0.001


class TestDepth:
    def test_spec_validation(self):
        with pytest.raises(ParameterDomainError):
            DepthSpec("simplicial")
        with pytest.raises(ParameterDomainError):
            DepthSpec("tukey", directions=90)

    def test_mahalanobis_at_center_is_one(self):
        rng = np.random.default_rng(2)
        cloud = rng.normal(size=(2000, 2))
        assert depth(DepthSpec("mahalanobis"), cloud, cloud.mean(axis=0)) == 1.0

    def test_singular_scatter(self):
        base = np.random.default_rng(2).normal(size=2000)
        cloud = np.column_stack([base, 2.0 * base])
        with pytest.raises(SingularMatrixError):
            depth(DepthSpec("mahalanobis"), cloud, (0.0, 0.0))

    def test_tukey_1d_tail_fractions(self):
        spec = DepthSpec("tukey")
        cloud = [1.0, 2.0, 3.0, 4.0]
        assert depth(spec, cloud, 2.0) == 0.5
        assert depth(spec, cloud, 2.5) == 0.5
        assert depth(spec, cloud, 1.0) == 0.25
        assert depth(spec, cloud, 0.0) == 0.0

    def test_tukey_1d_median_is_half(self):
        cloud = np.random.default_rng(31).normal(size=1000)
        got = depth(DepthSpec("tukey"), cloud, float(np.median(cloud)))
        assert abs(got - 0.5) <= 1.0 / 1000

    def test_tukey_2d_center_and_hull(self):
        cloud = np.random.default_rng(17).normal(size=(4000, 2))
        spec = DepthSpec("tukey")
        assert abs(depth(spec, cloud, cloud.mean(axis=0)) - 0.5) < 0.05
        assert depth(spec, cloud, (50.0, 50.0)) == 0.0

    @pytest.mark.parametrize("kind", ["mahalanobis", "tukey"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cloud_is_rejected(self, kind, bad):
        cloud = np.random.default_rng(3).normal(size=(1000, 2))
        cloud[7, 0] = bad
        with pytest.raises(ParameterDomainError, match="finite"):
            depth(DepthSpec(kind), cloud, (0.0, 0.0))
        with pytest.raises(ParameterDomainError, match="finite"):
            centrality_fn(DepthSpec(kind), cloud)

    def test_tukey_beyond_two_dims_unsupported(self):
        with pytest.raises(ParameterDomainError):
            depth(DepthSpec("tukey"), np.zeros((100, 3)) + np.arange(3), (0.0,) * 3)

    def test_affine_invariance_spot_check(self):
        rng = np.random.default_rng(5)
        m = 2000
        cloud = rng.normal(size=(m, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
        spec_m = DepthSpec("mahalanobis")
        spec_t = DepthSpec("tukey", 360)
        bound_m = 2.0 / math.sqrt(m)
        bound_t = bound_m + 2.0 * math.pi / 360.0
        for _ in range(100):
            while True:
                t_mat = rng.normal(size=(2, 2))
                if np.linalg.cond(t_mat) < 20.0:
                    break
            shift = rng.normal(size=2)
            x = 1.5 * rng.normal(size=2)
            t_cloud = cloud @ t_mat.T + shift
            t_x = t_mat @ x + shift
            assert abs(depth(spec_m, cloud, x) - depth(spec_m, t_cloud, t_x)) <= bound_m
            assert abs(depth(spec_t, cloud, x) - depth(spec_t, t_cloud, t_x)) <= bound_t


# a half-unit lattice with 400 points doubled: ties in every direction (1001 points)
_HALF = np.round(np.random.default_rng(5).normal(size=(600, 2)) * 2.0) / 2.0
_LATTICE = np.concatenate([_HALF, _HALF[:400], _HALF[:1]])


@pytest.fixture(scope="module")
def gauss_cf():
    cloud = np.random.default_rng(99).normal(size=(10000, 2))
    return centrality_fn(DepthSpec("mahalanobis"), cloud)


class TestCentrality:
    def test_deepest_point_scores_one(self, gauss_cf):
        best = gauss_cf.cloud[np.argmax([gauss_cf.depth_of(p) for p in gauss_cf.cloud[:200]])]
        assert centrality(gauss_cf, best) <= 1.0
        center = gauss_cf.cloud.mean(axis=0)
        assert centrality(gauss_cf, center) == 1.0

    def test_far_outlier_scores_at_most_one_over_m(self, gauss_cf):
        assert centrality(gauss_cf, (80.0, -80.0)) <= 1.0 / 10000

    def test_gaussian_centrality_matches_chi2_tail(self, gauss_cf):
        # Mahalanobis ranking reduces to P(chi2_2 >= |x|^2) = exp(-|x|^2 / 2)
        r = math.sqrt(2.0 * math.log(2.0))
        for angle in (0.0, 1.0, 2.5, 4.0):
            x = (r * math.cos(angle), r * math.sin(angle))
            assert centrality(gauss_cf, x) == pytest.approx(0.5, abs=0.02)
        far = 2.0 * math.sqrt(2.0)
        assert centrality(gauss_cf, (far, 0.0)) == pytest.approx(math.exp(-4.0), abs=0.02)

    def test_nonincreasing_along_rays(self, gauss_cf):
        center = gauss_cf.cloud.mean(axis=0)
        for angle in (0.3, 1.7, 3.9):
            u = np.array([math.cos(angle), math.sin(angle)])
            prev = 1.0 + 1e-15
            for radius in (0.2, 0.5, 1.0, 2.0, 4.0):
                val = centrality(gauss_cf, center + radius * u)
                assert val <= prev + 1e-15
                prev = val

    def test_matches_standalone_depth(self, gauss_cf):
        probe = np.array([0.3, -0.2])
        spec = DepthSpec("mahalanobis")
        assert gauss_cf.depth_of(probe) == depth(spec, gauss_cf.cloud, probe)
        cloud2 = np.random.default_rng(17).normal(size=(3000, 2))
        cf2 = centrality_fn(DepthSpec("tukey"), cloud2)
        assert cf2.depth_of(probe) == depth(DepthSpec("tukey"), cloud2, probe)
        # depth() is centrality_fn's reader: equal bit for bit in every kind
        for seed in range(8):
            rng = np.random.default_rng(seed)
            for kind, k in (("mahalanobis", 2), ("tukey", 2), ("tukey", 1)):
                cloud = rng.normal(size=(1000, k))
                cf = centrality_fn(DepthSpec(kind), cloud)
                for pt in rng.normal(scale=1.5, size=(5, k)):
                    assert depth(DepthSpec(kind), cloud, pt) == cf.depth_of(pt)

    def test_tukey_table_equals_per_direction_search(self):
        clouds = [*(_LATTICE[:m] for m in (2, 3, 1000, 1001)),
                  *(_LATTICE[:m, :1] for m in (2, 3, 1000, 1001)),  # normals +1 and -1
                  np.full((1000, 2), 0.5), np.full((1000, 1), -2.0)]  # one point repeated
        for cloud in clouds:
            for directions in (180, 181, 360, 997):  # not all a multiple of the block
                self._check_tukey_table(cloud, directions)

    @staticmethod
    def _check_tukey_table(cloud, directions):
        cf = centrality_fn(DepthSpec("tukey", directions=directions), cloud)
        # the reference: one searchsorted per direction on that column of the sorted table
        m, k = cloud.shape
        u = _direction_matrix(directions) if k == 2 else np.array([[1.0], [-1.0]])
        proj = cloud @ u.T
        cols = np.sort(proj, axis=0)

        def count_at_least(j, values):
            return m - np.searchsorted(cols[:, j], values, side="left")

        table = np.column_stack([count_at_least(j, proj[:, j]) for j in range(len(u))])
        assert np.array_equal(cf.depth_table, np.sort(np.min(table, axis=1) / m))
        probes = [*cloud[:50], *np.array([(0.25, -0.25), (0.0, 0.0), (3.0, 1.5), (-9.0, 9.0),
                                           (0.5, 0.5), (-2.0, -2.0)])[:, :k]]
        for pt in probes:
            px = u @ pt
            assert cf.depth_of(pt) == min(count_at_least(j, px[j]) for j in range(len(u))) / m

    def test_tukey_table_holds_one_block_besides_the_projections(self):
        cloud = np.random.default_rng(6).normal(size=(1000, 2))
        spec = DepthSpec("tukey", directions=360)
        proj_bytes = 360 * 1000 * 8
        centrality_fn(spec, cloud)  # first calls allocate once-per-process caches
        tracemalloc.start()
        try:
            centrality_fn(spec, cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * proj_bytes

    def test_region_level_validation(self, gauss_cf):
        with pytest.raises(ParameterDomainError):
            central_region_test(gauss_cf, 0.0, (0.0, 0.0))
        with pytest.raises(ParameterDomainError):
            central_region_test(gauss_cf, 1.0, (0.0, 0.0))
        assert central_region_test(gauss_cf, 0.5, gauss_cf.cloud.mean(axis=0))

    def test_gaussian_model_calibration_and_coverage(self):
        # C(theta0) across replications: uniform, and regions cover at level
        theta0 = np.array([0.4, -0.2])
        reps = 2000
        us = np.empty(reps)
        for i in range(reps):
            g = pk.RngStream(31415, i).child(0).generator()
            data = g.normal(theta0, 1.0, size=(25, 2))
            eta_rng = pk.RngStream(31415, i).child(1).generator()
            mcd = lcd_from_pivot(data.mean(axis=0), 5.0 * np.eye(2),
                                 lambda c: eta_rng.normal(size=(c, 2)), 1000)
            cf = centrality_fn(DepthSpec("mahalanobis"), mcd.cloud)
            us[i] = centrality(cf, theta0)
        _, p = ks_uniform(us)
        assert p > 0.001
        assert abs(float(np.mean(us >= 0.5)) - 0.5) <= 0.02
        assert abs(float(np.mean(us >= 0.1)) - 0.9) <= 0.02


class TestCcf1d:
    def test_analytic_values(self):
        cd = location_scale_cd(pk.Normal(0.0, 1.0), 1.2, 0.4)
        assert _ccf(cd, 1.2) == pytest.approx(1.0, abs=1e-12)
        q = cd_quantile(cd, 0.975)
        assert _ccf(cd, q) == pytest.approx(0.05, abs=1e-9)

    def test_agrees_with_point_weak_support(self):
        cds = [
            location_scale_cd(pk.Normal(0.0, 1.0), 0.3, 2.0),
            sample_cd(np.random.default_rng(6).normal(size=500)),
        ]
        for cd in cds:
            for x in (-1.0, 0.0, 0.4, 2.2):
                region = NullRegion.from_points([x])
                assert abs(_ccf(cd, x) - weak_support(cd, region)) <= 1e-15

    def test_interval_region_agreement_in_one_dim(self):
        # depth region on a projected cloud = equal-tail interval, up to 1/sqrt(m)
        cloud = np.random.default_rng(17).normal(size=(10000, 2))
        proj = project(MultiCD(cloud), (1.0, 0.0))
        lo, hi = central_interval(proj, 0.9)
        cf = centrality_fn(DepthSpec("tukey"), cloud[:, 0])
        for s in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            x = float(np.quantile(cloud[:, 0], s))
            assert central_region_test(cf, 0.9, x) == (lo <= x <= hi)


class TestCloudCsv:
    def test_round_trip(self, tmp_path):
        mcd = MultiCD(np.random.default_rng(8).normal(size=(1000, 3)))
        path = tmp_path / "cloud.csv"
        save_cloud_csv(mcd, path)
        with open(path, newline="") as fh:
            assert next(csv.reader(fh)) == ["x1", "x2", "x3"]
        back = load_cloud_csv(path)
        assert np.array_equal(back.cloud, mcd.cloud)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("x1\n1.0\n2.0\n")
        with pytest.raises(ParameterDomainError):
            load_cloud_csv(path)
