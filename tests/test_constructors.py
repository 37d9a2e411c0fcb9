"""Constructor checks: closed forms, pivot substitution, skew correction."""

import math

import numpy as np
import pytest
from scipy import special

from cdkit.cd_core import cd_density, cd_eval, cd_log_lower, cd_log_upper, cd_quantile
from cdkit.constructors import (
    DataSample,
    PairedSample,
    PivotSpec,
    exponential_rate_cd,
    fisher_z_corr_cd,
    fisher_z_rows,
    from_pivot,
    hall_pivot,
    hall_pivot_inverse,
    normal_mean_cd,
    normal_variance_cd,
    normal_variance_rows,
)
from cdkit.errors import (
    DegenerateSampleError,
    InsufficientDataError,
    MonotonicityError,
    ParameterDomainError,
)
from cdkit.inference import cd_mode
from cdkit.probkernel import ChiSquare, Normal, StudentT, Uniform01

RNG = np.random.default_rng(314)
SAMPLE = DataSample(RNG.normal(1.4, 2.0, size=24))


# ---------------------------------------------------------------------------
# data containers

def test_data_sample_summaries_frozen():
    d = DataSample([1.0, 2.0, 3.0, 4.0])
    assert d.n == 4
    assert d.mean == 2.5
    assert abs(d.sd - math.sqrt(5.0 / 3.0)) < 1e-15
    assert abs(d.skewness) < 1e-15
    d2 = DataSample([0.0, 0.0, 3.0])
    # m3 = 2 (divisor n), sd = sqrt(3) -> skew = 2 / 3^(3/2)
    assert abs(d2.skewness - 2.0 / 3.0 ** 1.5) < 1e-14


def test_data_sample_validation():
    with pytest.raises(InsufficientDataError):
        DataSample([1.0])
    with pytest.raises(ParameterDomainError):
        DataSample([1.0, np.inf])
    with pytest.raises(DegenerateSampleError):
        DataSample([2.0, 2.0, 2.0]).skewness


def test_paired_sample_validation():
    with pytest.raises(InsufficientDataError):
        PairedSample([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    with pytest.raises(DegenerateSampleError):
        PairedSample([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])


# ---------------------------------------------------------------------------
# normal mean

def test_normal_mean_known_sigma_closed_form():
    cd = normal_mean_cd(SAMPLE, sigma=2.0)
    se = 2.0 / math.sqrt(SAMPLE.n)
    # H(xbar + 1.96 se) = Phi(1.96), frozen from the quadrature oracle
    assert abs(cd_eval(cd, SAMPLE.mean + 1.96 * se) - 0.9750021048517795) < 1e-12
    assert abs(cd_eval(cd, SAMPLE.mean) - 0.5) < 1e-12
    assert abs(cd_quantile(cd, 0.9750021048517795) - (SAMPLE.mean + 1.96 * se)) < 1e-9


def test_normal_mean_unknown_sigma_t_pivot():
    d = DataSample([2.1, -0.3, 1.4, 0.8, 3.0])  # n = 5, df = 4
    cd = normal_mean_cd(d)
    se = d.sd / math.sqrt(5.0)
    # t_{4, 0.975} = 2.7764451051977987, frozen from the mpmath bisection oracle
    assert abs(cd_eval(cd, d.mean + 2.7764451051977987 * se) - 0.975) < 1e-12
    assert abs(cd_quantile(cd, 0.025) - (d.mean - 2.7764451051977987 * se)) < 1e-10


def test_normal_mean_density_integrates_to_cdf():
    cd = normal_mean_cd(SAMPLE, sigma=2.0)
    xs = np.linspace(SAMPLE.mean - 2.0, SAMPLE.mean + 2.0, 4001)
    mass = np.trapezoid(cd_density(cd, xs), xs)
    want = cd_eval(cd, xs[-1]) - cd_eval(cd, xs[0])
    assert abs(mass - want) < 1e-6


def test_normal_mean_rejects_bad_sigma_and_constant_sample():
    with pytest.raises(ParameterDomainError):
        normal_mean_cd(SAMPLE, sigma=-1.0)
    with pytest.raises(DegenerateSampleError):
        normal_mean_cd(DataSample([5.0, 5.0, 5.0]))


# ---------------------------------------------------------------------------
# normal variance

def test_variance_cd_closed_form_and_median():
    d = DataSample([2.1, -0.3, 1.4, 0.8, 3.0])  # n = 5
    cd = normal_variance_cd(d)
    c = 4.0 * d.sd ** 2
    # median: c / median(chi2_4); chi2_4 median frozen = 3.3566939800333224
    want_median = c / 3.3566939800333224
    assert abs(cd_quantile(cd, 0.5) - want_median) < 1e-10
    assert abs(cd_eval(cd, want_median) - 0.5) < 1e-12
    assert cd_eval(cd, 0.0) == 0.0
    assert cd_eval(cd, -3.0) == 0.0


def test_variance_cd_quantile_eval_roundtrip():
    cd = normal_variance_cd(SAMPLE)
    for s in (0.01, 0.2, 0.5, 0.8, 0.99):
        assert abs(cd_eval(cd, cd_quantile(cd, s)) - s) < 1e-10


def test_variance_cd_log_tails_match_plain():
    cd = normal_variance_cd(SAMPLE)
    x = cd_quantile(cd, 0.31)
    assert abs(math.exp(cd_log_lower(cd, x)) - 0.31) < 1e-12
    assert abs(math.exp(cd_log_upper(cd, x)) - 0.69) < 1e-12


# ---------------------------------------------------------------------------
# correlation

def _zero_corr_pairs(n_blocks=7):
    # replicating this 4-point pattern keeps r = 0 exactly
    block = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return PairedSample(np.tile(block, (n_blocks, 1)))


def test_fisher_z_zero_correlation_case():
    pairs = _zero_corr_pairs()  # n = 28, sqrt(n-3) = 5
    assert pairs.correlation == 0.0
    cd = fisher_z_corr_cd(pairs)
    x = math.tanh(1.96 / 5.0)
    assert abs(cd_eval(cd, x) - 0.9750021048517795) < 1e-12
    assert abs(cd_eval(cd, 0.0) - 0.5) < 1e-12
    assert cd_eval(cd, -1.0) == 0.0 and cd_eval(cd, 1.0) == 1.0


def test_fisher_z_quantile_roundtrip_and_support():
    rng = np.random.default_rng(99)
    x = rng.normal(size=30)
    y = 0.6 * x + 0.8 * rng.normal(size=30)
    cd = fisher_z_corr_cd(PairedSample(np.column_stack([x, y])))
    for s in (0.05, 0.5, 0.95):
        q = cd_quantile(cd, s)
        assert -1.0 < q < 1.0
        assert abs(cd_eval(cd, q) - s) < 1e-10


def test_fisher_z_rejects_degenerate_correlation():
    x = np.arange(8.0)
    with pytest.raises(DegenerateSampleError):
        fisher_z_corr_cd(PairedSample(np.column_stack([x, 2.0 * x])))


# ---------------------------------------------------------------------------
# exponential rate

def test_exponential_rate_cd_exact_pivot():
    d = DataSample([0.8, 0.1, 2.2, 0.9, 1.3, 0.4])
    cd = exponential_rate_cd(d)
    # H(x) = P(chi2_{2n} <= 2 x sum); check a quantile roundtrip and support
    for s in (0.1, 0.5, 0.9):
        assert abs(cd_eval(cd, cd_quantile(cd, s)) - s) < 1e-10
    assert cd_eval(cd, 0.0) == 0.0
    with pytest.raises(ParameterDomainError):
        exponential_rate_cd(DataSample([1.0, -2.0]))


# ---------------------------------------------------------------------------
# parameter functions: one formula for one sample and for a block of them

# doubles whose x * x (numpy's x ** 2) and pow(x, 2) (Python's float **) round
# apart on glibc, found among 2,000,000 uniform draws at seed 911; the
# variance's scale_ssq takes pow, as df * sd ** 2 on Python floats always did
_POW_TRAP = (0.8799151548708274, 0.7301910123482118, 0.6068268071778031,
             2.785220021404853, 1.9082075402765541)


def test_variance_scale_is_pythons_pow_of_the_sd():
    assert np.float_power(np.array(_POW_TRAP), 2.0).tolist() == [v ** 2 for v in _POW_TRAP]
    values = np.random.default_rng(911).normal(0.0, 1.7, size=(20_000, 9))
    name, params, ok = normal_variance_rows(values)
    assert name == "inverse-chi2-scale" and params["df"] == 8.0 and ok.all()
    want = [8.0 * float(np.std(row, ddof=1)) ** 2 for row in values]
    assert params["scale_ssq"].tolist() == want


@pytest.mark.parametrize("n", [4, 17, 65, 1000])
def test_block_correlation_is_corrcoefs(n):
    # a batched matmul of the centred (block, 2, n) rows gives np.corrcoef's
    # bytes, 2048 rows in all
    rng = np.random.default_rng(n)
    pairs = rng.normal(size=(512, n, 2)) * rng.uniform(0.1, 10.0, size=(512, 1, 2))
    pairs[..., 1] += rng.uniform(-2.0, 2.0, size=(512, 1)) * pairs[..., 0]
    _, params, ok = fisher_z_rows(pairs)
    want = np.array([np.corrcoef(row[:, 0], row[:, 1])[0, 1] for row in pairs])
    assert ok.all() and params["n"] == n
    assert params["r"].tobytes() == want.tobytes()
    assert [PairedSample(row).correlation for row in pairs[:8]] == want[:8].tolist()


# ---------------------------------------------------------------------------
# generic pivot substitution

def test_identity_pivot_gives_uniform_cd():
    spec = PivotSpec(psi=lambda data, th: th, law=Uniform01(), direction="increasing")
    cd = from_pivot(spec, None, support=(0.0, 1.0))
    for x in (0.2, 0.5, 0.77):
        assert abs(cd_eval(cd, x) - x) < 1e-12
        assert abs(cd_quantile(cd, x) - x) < 1e-9


def test_pivot_substitution_matches_closed_form_both_directions():
    target = normal_mean_cd(SAMPLE, sigma=2.0)
    se = 2.0 / math.sqrt(SAMPLE.n)
    inc = PivotSpec(psi=lambda d, th: (th - d.mean) / se, law=Normal(), direction="increasing")
    dec = PivotSpec(psi=lambda d, th: (d.mean - th) / se, law=Normal(), direction="decreasing")
    cd_inc = from_pivot(inc, SAMPLE)
    cd_dec = from_pivot(dec, SAMPLE)
    for x in (0.2, 1.4, 2.9):
        assert abs(cd_eval(cd_inc, x) - cd_eval(target, x)) < 1e-12
        assert abs(cd_eval(cd_dec, x) - cd_eval(target, x)) < 1e-12
    for s in (0.1, 0.5, 0.93):
        assert abs(cd_quantile(cd_inc, s) - cd_quantile(target, s)) < 1e-8
        assert abs(cd_quantile(cd_dec, s) - cd_quantile(target, s)) < 1e-8


def test_pivot_direction_is_verified():
    bad = PivotSpec(psi=lambda d, th: math.sin(3.0 * th), law=Uniform01(), direction="increasing")
    with pytest.raises(MonotonicityError):
        from_pivot(bad, None, support=(0.0, 1.0))
    for psi, direction in [
            (lambda d, th: math.tanh(th), "increasing"),  # no root beyond |psi| = 1
            (lambda d, th: th, "decreasing"),  # an increasing pivot: Q would fall in s
            (lambda d, th: -th, "increasing"),
            (lambda d, th: th if th < 2.0 else math.nan, "increasing")]:  # nan above Q(0.977)
        with pytest.raises(MonotonicityError):
            from_pivot(PivotSpec(psi=psi, law=Normal(), direction=direction), None)


def test_a_pivot_whose_range_misses_part_of_its_law_is_rejected():
    # exp(theta) - 3 > -3, so H > Phi(-3) = 0.00135 everywhere: Q(0.001) would
    # be the lowest double
    with pytest.raises(MonotonicityError):
        from_pivot(PivotSpec(psi=lambda d, th: math.exp(th) - 3.0, law=Normal(),
                             direction="increasing"), None)


def test_decreasing_pivot_keeps_the_deep_tails():
    # H(-9) = P(Z > 9), which 1 - Phi(9) rounds to 0; Q(1e-18) inverts psi at
    # the law's upper quantile of 1e-18, as 1 - 1e-18 = 1 has no lower one
    cd = from_pivot(PivotSpec(psi=lambda d, th: -th, law=Normal(), direction="decreasing"), None)
    assert cd_eval(cd, -9.0) == special.ndtr(-9.0)
    q = cd_quantile(cd, 1e-18)
    assert q == pytest.approx(special.ndtri(1e-18), rel=1e-9)
    assert cd_eval(cd, q) >= 1e-18 > cd_eval(cd, np.nextafter(q, -np.inf))


def test_a_pivot_that_overflows_far_out_still_inverts():
    # math.exp raises past theta = 709.8, where the search of H probes too:
    # a pivot that fails there blows up toward that support edge
    cd = from_pivot(PivotSpec(psi=lambda d, th: math.exp(th), law=ChiSquare(3.0),
                              direction="increasing"), None)
    s = np.array([1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6])
    np.testing.assert_allclose(cd_quantile(cd, s), np.log(2.0 * special.gammaincinv(1.5, s)),
                               rtol=1e-10)
    assert np.all(cd_eval(cd, cd_quantile(cd, s)) >= s)


def test_a_pivot_that_fails_near_a_half_line_edge_still_inverts():
    # exp(1 / theta) overflows for theta < 0.0014 on the support (0, inf): the
    # search of H counts it as blowing up toward the edge at 0
    cd = from_pivot(PivotSpec(psi=lambda d, th: math.exp(1.0 / th) - 1.0, law=ChiSquare(3.0),
                              direction="decreasing"), None, support=(0.0, math.inf))
    s = np.array([1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6])
    np.testing.assert_allclose(cd_quantile(cd, s),
                               1.0 / np.log1p(2.0 * special.gammainccinv(1.5, s)), rtol=1e-10)
    assert np.all(cd_eval(cd, cd_quantile(cd, s)) >= s)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_pivot_without_a_density_reads_a_difference_quotient(seed):
    # the t pivot by substitution has no density: cd_density differences H,
    # and cd_mode maximizes that, so both match the t family CD's exact density
    data = DataSample(np.random.default_rng(seed).normal(1.0, 2.0, size=15))
    spec = PivotSpec(psi=lambda d, th: math.sqrt(d.n) * (d.mean - np.asarray(th, float)) / d.sd,
                     law=StudentT(data.n - 1), direction="decreasing")
    cd, exact = from_pivot(spec, data), normal_mean_cd(data)
    assert cd.density_fn is None
    xs = cd_quantile(exact, np.linspace(0.01, 0.99, 41))
    want = cd_density(exact, xs)
    assert np.all(np.abs(cd_density(cd, xs) - want) <= 1e-7 * want)
    # the mode search on a difference quotient resolves about the square root
    # of its noise: measured within 4.1e-6 standard errors
    se = data.sd / math.sqrt(data.n)
    assert abs(cd_mode(cd) - cd_mode(exact)) <= 1e-5 * se


def test_pivot_log_tails_follow_law():
    spec = PivotSpec(psi=lambda d, th: (th - d.mean) / (2.0 / math.sqrt(d.n)),
                     law=Normal(), direction="increasing")
    cd = from_pivot(spec, SAMPLE)
    deep = SAMPLE.mean - 50.0 * (2.0 / math.sqrt(SAMPLE.n))
    got = cd_log_lower(cd, deep)
    assert math.isfinite(got)
    assert abs(got - (-0.5 * 2500.0 - math.log(50.0) - 0.5 * math.log(2 * math.pi))) < 0.01


# ---------------------------------------------------------------------------
# skew-corrected pivot

HALL_DATA = DataSample([0.8, 1.9, 2.4, 3.1, 3.3, 4.7, 5.2, 6.0])


def test_hall_pivot_frozen_value():
    # independent re-derivation frozen: xbar = 3.425, s = 1.7645315039894949,
    # lam = 0.04530514782673392 -> psi(2.0) = 2.314820996175569
    assert abs(HALL_DATA.mean - 3.425) < 1e-15
    assert abs(HALL_DATA.sd - 1.7645315039894949) < 1e-14
    assert abs(HALL_DATA.skewness - 0.04530514782673392) < 1e-14
    assert abs(hall_pivot(HALL_DATA, 2.0) - 2.314820996175569) < 1e-12


def test_hall_pivot_reduces_to_t_when_symmetric():
    d = DataSample([-2.0, -1.0, 1.0, 2.0])  # lam = 0
    assert d.skewness == 0.0
    t = math.sqrt(4) * (d.mean - 0.5) / d.sd
    assert abs(hall_pivot(d, 0.5) - t) < 1e-14


def test_hall_pivot_inverse_at_zero_skewness_is_the_t_inverse():
    # lam = 0 skips the cube root: the pivot is t and its inverse solves t exactly
    d = DataSample([-1.0, 0.0, 1.0, 2.0, 3.0])
    assert d.skewness == 0.0
    mus = np.linspace(d.mean - 3.0, d.mean + 3.0, 41)
    t = math.sqrt(d.n) * (d.mean - mus) / d.sd
    assert np.array_equal(hall_pivot(d, mus), t)
    assert np.array_equal(hall_pivot_inverse(d, t), d.mean - d.sd * t / math.sqrt(d.n))
    assert np.max(np.abs(hall_pivot_inverse(d, t) - mus)) <= 4.0 * np.spacing(4.0)
    assert hall_pivot_inverse(d, 0.0) == d.mean


def test_hall_pivot_monotone_decreasing_in_mu():
    # strict decrease over +-6 standard errors whenever |lam| <= 1, n >= 20
    rng = np.random.default_rng(25)
    tested = 0
    for _ in range(40):
        d = DataSample(rng.gamma(2.0, 1.5, size=25))
        if abs(d.skewness) > 1.0:
            continue
        tested += 1
        se = d.sd / math.sqrt(d.n)
        mus = np.linspace(d.mean - 6.0 * se, d.mean + 6.0 * se, 101)
        psi = hall_pivot(d, mus)
        assert np.all(np.diff(psi) < 0.0)
    assert tested >= 10


def test_hall_pivot_inverse_roundtrip():
    mus = np.linspace(HALL_DATA.mean - 3.0, HALL_DATA.mean + 3.0, 41)
    back = hall_pivot_inverse(HALL_DATA, hall_pivot(HALL_DATA, mus))
    assert np.max(np.abs(back - mus)) < 1e-10
