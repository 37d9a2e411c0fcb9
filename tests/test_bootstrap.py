"""Resampling engine and the four bootstrap CD variants."""

import csv
import math

import numpy as np
import pytest

import cdkit.bootstrap as bootstrap_module
from cdkit.bootstrap import (
    ReplicateSet,
    ResamplePlan,
    bootstrap_t_cd,
    dump_replicates,
    hall_bootstrap_cd,
    mean_block,
    mean_se_block,
    raw_bootstrap_cd,
    reflected_bootstrap_cd,
    resample,
    resample_block,
)
from cdkit.cd_core import (
    _interval_probs,
    cd_eval,
    cd_quantile,
    central_interval,
    load_cd_csv,
    save_cd_csv,
)
from cdkit.constructors import DataSample, hall_pivot, hall_pivot_inverse
from cdkit.errors import (
    InsufficientDataError,
    InsufficientReplicatesError,
    ParameterDomainError,
)
from cdkit.probkernel import RngStream


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _mean(row):
    return row.mean()


def _se(row):
    return row.std(ddof=1) / math.sqrt(row.size)


@pytest.fixture(scope="module")
def skewed_data():
    rng = np.random.default_rng(11)
    return DataSample(rng.gamma(2.0, 1.5, size=30))


class TestResampling:
    def test_plan_rejects_small_b(self):
        with pytest.raises(InsufficientReplicatesError):
            ResamplePlan(99, RngStream(1))

    def test_replicates_are_deterministic(self, skewed_data):
        plan = ResamplePlan(150, RngStream(42, 3))
        a = resample(skewed_data, plan, _mean)
        b = resample(skewed_data, plan, _mean)
        assert np.array_equal(a.theta, b.theta)
        c = resample(skewed_data, ResamplePlan(150, RngStream(42, 4)), _mean)
        assert not np.array_equal(a.theta, c.theta)

    def test_exclusion_of_degenerate_rows(self):
        data = DataSample([0.0, 0.0, 0.0, 0.0, 1.0])
        plan = ResamplePlan(200, RngStream(5))
        rep = resample(data, plan, _mean, _se)
        # resamples drawing a single atom have zero spread and no usable se
        assert rep.excluded > 0
        assert rep.kept == 200 - rep.excluded
        assert rep.se is not None and np.all(rep.se > 0.0)

    def test_too_many_exclusions_raise(self):
        data = DataSample([0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(InsufficientReplicatesError):
            resample(data, ResamplePlan(100, RngStream(5)), _mean, _se)

    @pytest.mark.parametrize("values", [
        *(np.random.default_rng(n).gamma(2.0, 1.5, size=n) for n in (2, 3, 7, 20, 100, 257)),
        np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
    ])
    def test_axis_reductions_equal_per_row_statistics(self, values):
        # the block statistics the calibration recipes use must reproduce the
        # per-row reference bit for bit, degenerate (zero-spread) rows included
        data = DataSample(values)
        plan = ResamplePlan(300, RngStream(61, values.size))
        for block, stats in ((mean_block, (_mean,)), (mean_se_block, (_mean, _se))):
            fast = resample_block(data, plan, block)
            ref = resample(data, plan, *stats)
            assert fast.excluded == ref.excluded
            assert fast.theta_hat == ref.theta_hat and fast.se_hat == ref.se_hat
            assert np.array_equal(fast.theta, ref.theta)
            assert (fast.se is None) == (ref.se is None)
            if ref.se is not None:
                assert np.array_equal(fast.se, ref.se)
        if values.size == 5:
            assert resample_block(data, plan, mean_se_block).excluded > 0

    @pytest.mark.parametrize("n", [2, 3, 20, 101])
    def test_block_sds_are_numpy_std_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        # constant rows, at zero and away from it, have sd exactly 0
        rows = np.vstack([rng.gamma(2.0, 1.5, size=(40, n)), np.full((1, n), 2.5),
                          np.zeros((1, n))])
        means, se = mean_se_block(rows)
        assert _same_bits(means, rows.mean(axis=1))
        assert _same_bits(se, rows.std(axis=1, ddof=1) / math.sqrt(n))

    def test_dump_replicates_csv(self, skewed_data, tmp_path):
        rep = resample(skewed_data, ResamplePlan(120, RngStream(8)), _mean, _se)
        path = tmp_path / "reps.csv"
        dump_replicates(rep, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replicate", "theta", "se"]
        assert len(rows) == rep.kept + 1
        assert float(rows[1][1]) == rep.theta[0]


class TestPercentileVariants:
    def test_reflection_identity(self, skewed_data):
        rep = resample(skewed_data, ResamplePlan(400, RngStream(21)), _mean)
        raw = raw_bootstrap_cd(rep)
        refl = reflected_bootstrap_cd(rep)
        total = raw.atoms.mean() + refl.atoms.mean()
        assert total == pytest.approx(2.0 * rep.theta_hat, abs=1e-9)
        assert np.allclose(np.sort(2.0 * rep.theta_hat - raw.atoms), refl.atoms)

    def test_reflected_complement_convention(self, skewed_data):
        rep = resample(skewed_data, ResamplePlan(200, RngStream(22)), _mean)
        refl = reflected_bootstrap_cd(rep)
        for x in np.linspace(rep.theta.min(), rep.theta.max(), 17):
            expect = np.mean(rep.theta >= 2.0 * rep.theta_hat - x)
            assert cd_eval(refl, x) == pytest.approx(expect, abs=1e-15)

    def test_meta_records_variant_and_counts(self, skewed_data):
        rep = resample(skewed_data, ResamplePlan(150, RngStream(9)), _mean)
        cd = raw_bootstrap_cd(rep)
        assert cd.meta["variant"] == "raw"
        assert cd.meta["n_resamples"] == rep.kept
        assert cd.meta["excluded"] == 0
        assert cd.meta["theta_hat"] == rep.theta_hat

    def test_coverage_sanity(self):
        # 90% central intervals from the percentile CD should cover a normal
        # mean at roughly the nominal rate
        rng = np.random.default_rng(31)
        hits = 0
        for i in range(60):
            data = DataSample(rng.normal(2.0, 1.0, size=40))
            rep = resample(data, ResamplePlan(200, RngStream(1000 + i)), _mean)
            lo, hi = central_interval(raw_bootstrap_cd(rep), 0.90)
            hits += lo <= 2.0 <= hi
        assert 0.72 <= hits / 60 <= 0.99


class TestStudentized:
    @staticmethod
    def _toy():
        return ReplicateSet(
            n=4, theta_hat=2.5, se_hat=0.5,
            theta=np.array([2.0, 2.5, 3.0]),
            se=np.array([0.5, 0.5, 1.0]),
            excluded=0,
        )

    def test_requires_se(self, skewed_data):
        rep = resample(skewed_data, ResamplePlan(120, RngStream(2)), _mean)
        with pytest.raises(ParameterDomainError):
            bootstrap_t_cd(rep)

    def test_toy_cdf_is_right_continuous_step(self):
        # z = (-1, 0, 0.5) so the atoms theta_hat - se_hat * z are
        # (3.0, 2.5, 2.25); H counts atoms at or below x
        cd = bootstrap_t_cd(self._toy())
        assert cd.kind == "sample"
        assert cd_eval(cd, 2.2) == 0.0
        assert cd_eval(cd, 2.25) == 1.0 / 3.0
        assert cd_eval(cd, 2.4) == 1.0 / 3.0
        assert cd_eval(cd, 2.5) == 2.0 / 3.0
        assert cd_eval(cd, 2.6) == 2.0 / 3.0
        assert cd_eval(cd, 3.1) == 1.0

    def test_toy_quantiles_hit_atoms(self):
        cd = bootstrap_t_cd(self._toy())
        assert cd_quantile(cd, 1.0 / 3.0) == pytest.approx(2.25)
        assert cd_quantile(cd, 0.34) == pytest.approx(2.5)
        assert cd_quantile(cd, 0.5) == pytest.approx(2.5)
        assert cd_quantile(cd, 2.0 / 3.0) == pytest.approx(2.5)
        assert cd_quantile(cd, 0.9) == pytest.approx(3.0)

    def test_full_pipeline_brackets_classical_interval(self, skewed_data):
        rep = resample(skewed_data, ResamplePlan(2000, RngStream(77)), _mean, _se)
        cd = bootstrap_t_cd(rep)
        lo, hi = central_interval(cd, 0.90)
        scale = _se(skewed_data.values)
        assert hi - lo == pytest.approx(2.0 * 1.699 * scale, rel=0.35)
        assert lo < skewed_data.mean < hi


class TestSkewCorrected:
    def test_needs_twenty_points(self):
        data = DataSample(np.arange(10.0))
        with pytest.raises(InsufficientDataError):
            hall_bootstrap_cd(data, ResamplePlan(200, RngStream(1)))

    def test_matches_row_by_row_oracle(self, skewed_data):
        plan = ResamplePlan(300, RngStream(55))
        cd = hall_bootstrap_cd(skewed_data, plan)
        # recompute every resample pivot through the scalar path
        block = RngStream(55).generator().integers(0, skewed_data.n,
                                                   size=(300, skewed_data.n))
        pivots = []
        for row in skewed_data.values[block]:
            try:
                pivots.append(hall_pivot(DataSample(row), skewed_data.mean))
            except Exception:
                pass
        pivots = np.sort(pivots)
        assert pivots.size == cd.meta["n_resamples"]
        xs = np.linspace(skewed_data.mean - 1.0, skewed_data.mean + 1.0, 23)
        for x in xs:
            g = hall_pivot(skewed_data, x)
            expect = 1.0 - np.searchsorted(pivots, g, side="right") / pivots.size
            assert cd_eval(cd, x) == pytest.approx(expect, abs=1e-15)
        m = int(math.floor(0.25 * pivots.size))
        expect_q = hall_pivot_inverse(skewed_data, pivots[m])
        assert cd_quantile(cd, 0.75) == pytest.approx(expect_q, abs=1e-12)

    def test_pivots_equal_the_numpy_std_formula_bit_for_bit(self, skewed_data, monkeypatch):
        captured = []

        def capture(data, plan, block_statistic):
            captured.append(block_statistic)
            return resample_block(data, plan, block_statistic)

        monkeypatch.setattr(bootstrap_module, "resample_block", capture)
        hall_bootstrap_cd(skewed_data, ResamplePlan(200, RngStream(59)))
        (pivots,) = captured
        n, center = skewed_data.n, skewed_data.mean
        rn = math.sqrt(n)
        rows = np.vstack([np.random.default_rng(5).gamma(2.0, 1.5, size=(60, n)),
                          np.full((1, n), center), np.zeros((1, n))])
        with np.errstate(divide="ignore", invalid="ignore"):
            means = rows.mean(axis=1)
            sds = rows.std(axis=1, ddof=1)
            d = rows - means[:, None]
            lam = (d * d * d).mean(axis=1) / sds ** 3
            t = rn * (means - center) / sds
            want = t + lam / (6.0 * rn) * (2.0 * t * t + 1.0) + lam * lam / (27.0 * n) * t ** 3
        got, se = pivots(rows)
        assert se is None
        assert _same_bits(got, want)

    def test_quantile_cdf_round_trip_within_step(self, skewed_data):
        cd = hall_bootstrap_cd(skewed_data, ResamplePlan(400, RngStream(56)))
        b = cd.meta["n_resamples"]
        for s in [0.05, 0.25, 0.5, 0.75, 0.95]:
            q = cd_quantile(cd, s)
            eps = 1e-9 * max(1.0, abs(q))
            assert cd_eval(cd, q + eps) >= s - 1.5 / b
            assert cd_eval(cd, q - eps) <= s + 1.5 / b
        qs = cd_quantile(cd, np.linspace(0.01, 0.99, 99))
        assert np.all(np.diff(qs) >= 0.0)

    def test_centered_near_sample_mean(self, skewed_data):
        cd = hall_bootstrap_cd(skewed_data, ResamplePlan(500, RngStream(57)))
        se = skewed_data.sd / math.sqrt(skewed_data.n)
        assert abs(cd_quantile(cd, 0.5) - skewed_data.mean) < 3.0 * se

    def test_degenerate_rows_are_excluded(self):
        data = DataSample([0.0] * 19 + [1.0])
        cd = hall_bootstrap_cd(data, ResamplePlan(300, RngStream(58)))
        assert cd.meta["excluded"] > 0
        assert cd.meta["n_resamples"] == 300 - cd.meta["excluded"]


# ---------------------------------------------------------------------------
# bootstrap-t and Hall against the step closures they replaced

def _old_bootstrap_t(rep):
    """The left-continuous H and ceil(B s)-th atom Q bootstrap_t_cd once returned."""
    z = (rep.theta - rep.theta_hat) / rep.se
    asc = np.sort(rep.theta_hat - rep.se_hat * z)
    b = asc.size

    def quantile(s):
        return asc[np.clip(np.ceil(s * b - 1e-12).astype(int), 1, b) - 1]

    return (lambda x: np.searchsorted(asc, x, side="left") / b), quantile


def _old_hall(data, pivots):
    """The H and Q hall_bootstrap_cd once returned, on the resample pivots."""
    piv = np.sort(pivots)
    b = piv.size

    def quantile(s):
        m = np.clip(np.floor((1.0 - s) * b + 1e-12).astype(int), 0, b - 1)
        return hall_pivot_inverse(data, piv[m])

    return (lambda x: 1.0 - np.searchsorted(piv, hall_pivot(data, x), side="right") / b), quantile


# calibrate's probabilities: every interval's ends, then the median
_PROBS = np.array([p for lv in (0.5, 0.9, 0.95, 0.99) for p in _interval_probs(lv)] + [0.5])


def _datasets():
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            values = rng.normal(0.0, 1.0, 100) if seed % 2 else rng.gamma(2.0, 1.5, 100)
            plan = ResamplePlan(200, RngStream(seed, rng.integers(2 ** 31)))
            yield DataSample(values), plan, rng.normal(values.mean(), 0.2, 9)


class TestStepClosuresBecameSampleCds:
    def test_bootstrap_t_matches_the_old_closures_bit_for_bit(self):
        for data, plan, xs in _datasets():
            rep = resample_block(data, plan, mean_se_block)
            cd = bootstrap_t_cd(rep)
            cdf, quantile = _old_bootstrap_t(rep)
            assert cd.kind == "sample"
            assert _same_bits(cd_quantile(cd, _PROBS), quantile(_PROBS))
            assert _same_bits(cd_eval(cd, xs), cdf(xs))

    def test_hall_matches_the_old_closures(self, monkeypatch):
        reps = []

        def keep(data, plan, block_statistic):
            reps.append(resample_block(data, plan, block_statistic))
            return reps[-1]

        monkeypatch.setattr(bootstrap_module, "resample_block", keep)
        for data, plan, xs in _datasets():
            cd = hall_bootstrap_cd(data, plan)
            cdf, quantile = _old_hall(data, reps[-1].theta)
            assert cd.kind == "sample"
            assert _same_bits(cd_quantile(cd, _PROBS), quantile(_PROBS))
            # the old H was 1 - j/B, the new (B - j)/B: they agree to an ulp of 1
            assert np.all(np.abs(cd_eval(cd, xs) - cdf(xs)) <= np.finfo(float).eps)

    def test_bootstrap_t_and_hall_reload_as_the_same_sample_cd(self, skewed_data, tmp_path):
        plan = ResamplePlan(300, RngStream(60))
        for cd in (bootstrap_t_cd(resample_block(skewed_data, plan, mean_se_block)),
                   hall_bootstrap_cd(skewed_data, plan)):
            save_cd_csv(cd, tmp_path / "cd.csv")
            back = load_cd_csv(tmp_path / "cd.csv")
            assert back.kind == cd.kind == "sample"
            for field in ("atoms", "weights", "values"):
                assert _same_bits(getattr(back, field), getattr(cd, field))
            xs = np.linspace(cd.support[0] - 0.1, cd.support[1] + 0.1, 41)
            assert _same_bits(cd_eval(back, xs), cd_eval(cd, xs))
            assert _same_bits(cd_quantile(back, _PROBS), cd_quantile(cd, _PROBS))
