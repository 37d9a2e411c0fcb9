"""Distribution kernel checks against independent oracles.

The oracles here deliberately avoid the code paths under test: plain
trapezoid/series arithmetic, Mills-ratio asymptotics, and mpmath
high-precision evaluation.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

from cdkit.errors import ParameterDomainError
from cdkit.probkernel import (
    ChiSquare,
    Normal,
    RngStream,
    StudentT,
    Uniform01,
    cdf,
    density,
    log_tail,
    maximize,
    pcg64_generator,
    quantile,
    stream_words,
)


# ---------------------------------------------------------------------------
# oracles

def phi_quadrature(z, npts=200001):
    # composite Simpson over the standard normal density, independent of erf/ndtr
    x = np.linspace(-40.0, z, npts)
    f = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    h = (x[-1] - x[0]) / (npts - 1)
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


def chi2_cdf_series(df, x, terms=400):
    # regularized lower incomplete gamma via its ascending series
    a, z = df / 2.0, x / 2.0
    total, term = 1.0, 1.0
    for m in range(1, terms):
        term *= z / (a + m)
        total += term
    log_p = a * math.log(z) - z - math.lgamma(a + 1.0) + math.log(total)
    return math.exp(log_p)


def mills_log_phi(z):
    # asymptotic expansion of log Phi(-|z|), valid for large |z|
    a = abs(z)
    series = 1.0 - 1.0 / a**2 + 3.0 / a**4 - 15.0 / a**6
    return -0.5 * a * a - math.log(a) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def t_cdf_mp(df, x):
    z = df / (df + x * x)
    half_tail = mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, z, regularized=True) / 2
    return half_tail if x < 0 else 1 - half_tail


# ---------------------------------------------------------------------------
# cdf

def test_normal_cdf_vs_quadrature_oracle():
    # oracle output frozen: phi_quadrature(1.96) = 0.9750021048517796
    assert abs(phi_quadrature(1.96) - 0.9750021048517796) < 1e-13
    assert abs(cdf(Normal(), 1.96) - 0.9750021048517795) < 1e-12
    assert abs(cdf(Normal(2.0, 3.0), 2.0 + 1.96 * 3.0) - 0.9750021048517795) < 1e-12


def test_chi2_cdf_vs_series_oracle():
    # oracle output frozen: chi2_cdf_series(4, 3.3566939800333224) = 0.4999999999999999
    x = 3.3566939800333224
    assert abs(chi2_cdf_series(4.0, x) - 0.5) < 1e-12
    assert abs(cdf(ChiSquare(4.0), x) - 0.5) < 1e-12
    assert cdf(ChiSquare(4.0), -1.0) == 0.0
    assert cdf(ChiSquare(4.0), 0.0) == 0.0


def test_t_cdf_matches_mp():
    mp.mp.dps = 40
    for df in (1.0, 4.0, 9.0, 250.0):
        for x in (-3.0, -0.7, 0.0, 1.5):
            assert abs(cdf(StudentT(df), x) - float(t_cdf_mp(df, x))) < 1e-13


def test_uniform_cdf():
    assert cdf(Uniform01(), -0.5) == 0.0
    assert cdf(Uniform01(), 0.25) == 0.25
    assert cdf(Uniform01(), 2.0) == 1.0


def test_cdf_handles_infinities_and_arrays():
    for d in (Normal(), StudentT(7.0), ChiSquare(3.0)):
        out = cdf(d, np.array([-np.inf, 0.5, np.inf]))
        assert out[0] == 0.0 and out[2] == 1.0
        assert 0.0 < out[1] < 1.0


# ---------------------------------------------------------------------------
# quantile

def test_t_quantile_vs_mp_bisection_oracle():
    # oracle: bisect mpmath's t CDF at 0.975; frozen value below
    mp.mp.dps = 40
    lo, hi = 0.0, 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if t_cdf_mp(4.0, mid) < 0.975:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert abs(oracle - 2.7764451051977987) < 1e-12
    assert abs(quantile(StudentT(4.0), 0.975) - 2.7764451051977987) < 1e-10


@pytest.mark.parametrize("d", [Normal(), Normal(-3.0, 0.5), StudentT(4.0),
                               StudentT(29.0), ChiSquare(1.0), ChiSquare(19.0),
                               Uniform01()])
def test_quantile_cdf_roundtrip(d):
    # central 0.998 mass, relative tolerance 1e-10
    ps = np.linspace(0.001, 0.999, 41)
    xs = quantile(d, ps)
    back = cdf(d, xs)
    assert np.all(np.abs(back - ps) < 1e-10)
    qs = quantile(d, back)
    assert np.all(np.abs(qs - xs) <= 1e-10 * np.maximum(np.abs(xs), 1.0))


@pytest.mark.parametrize("df", [2.0, 7.5, 58.0, 400.0])
@pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-17, 1e-10, 1e-3, 0.5, 1.0 - 1e-10])
def test_chi2_quantile_vs_mp_in_the_lower_tail(df, p):
    # oracle: one Newton step on mpmath's regularized lower incomplete gamma
    # (dps=60) measures the distance from x to the exact quantile; 1 - p
    # rounds to 1 for tiny p, so an upper-tail inverse cannot meet this
    x = quantile(ChiSquare(df), p)
    assert x > 0.0
    mp.mp.dps = 60
    a, xm = mp.mpf(df) / 2, mp.mpf(x)
    mass = mp.gammainc(a, 0, xm / 2, regularized=True)
    density = mp.exp((a - 1) * mp.log(xm / 2) - xm / 2 - mp.loggamma(a)) / 2
    assert abs((mass - p) / density) <= 1e-13 * xm


_UPPER_DFS = [*range(1, 60), 99, 199, 399, 2.5, 7.3, 1e4, 0.3]


@pytest.mark.parametrize("df", _UPPER_DFS)
def test_chi2_upper_tail_is_scipys(df):
    # the inverse-chi2-scale family reads these: H = chdtrc, Q = chdtri, bit for bit
    rng = np.random.default_rng(int(df * 10))
    p = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 500), rng.uniform(0.0, 1.0, 500),
                        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 500),
                        [1e-300, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0 - 1e-16]])
    p = p[(p > 0.0) & (p < 1.0)]
    q = quantile(ChiSquare(df), p, "upper")
    assert np.array_equal(q, special.chdtri(df, p))
    assert np.array_equal(cdf(ChiSquare(df), q, "upper"), special.chdtrc(df, q))
    assert quantile(ChiSquare(df), float(p[0]), "upper") == special.chdtri(df, p[0])


@pytest.mark.parametrize("read", [cdf, quantile])
@pytest.mark.parametrize("d,side", [(ChiSquare(3.0), "middle"), (ChiSquare(3.0), None),
                                    (Normal(), "upper"), (StudentT(4.0), "upper"),
                                    (Uniform01(), "upper"), (Normal(), "Lower")])
def test_cdf_and_quantile_side_validation(read, d, side):
    # every law reads "upper" as the exact reflection of "lower"; any other side raises
    if side != "upper":
        with pytest.raises(ParameterDomainError):
            read(d, 0.5, side)
        return
    if read is cdf:
        x = np.array([-40.0, -3.0, 0.0, 0.25, 0.5, 9.0, 1e300])
        want = 1.0 - cdf(d, x) if isinstance(d, Uniform01) else cdf(d, -x)
        assert np.array_equal(cdf(d, x, "upper"), want)
        assert cdf(d, 9.0, "upper") == want[-2]
    else:
        # 1 - p rounds to 1 for the deep-tail p, so they have no lower quantile
        p = np.array([1e-300, 1e-18, 0.3, 0.5, 0.9])
        want = 1.0 - p if isinstance(d, Uniform01) else -quantile(d, p)
        assert np.array_equal(quantile(d, p, "upper"), want)
        assert quantile(d, 1e-18, "upper") == want[1]


@pytest.mark.parametrize("d,ref", [
    (Normal(), stats.norm()), (Normal(-1.5, 0.25), stats.norm(-1.5, 0.25)),
    (Normal(3.0, 40.0), stats.norm(3.0, 40.0)), (StudentT(0.7), stats.t(0.7)),
    (StudentT(4.0), stats.t(4.0)), (StudentT(60.0), stats.t(60.0)),
    (ChiSquare(1.0), stats.chi2(1.0)), (ChiSquare(2.0), stats.chi2(2.0)),
    (ChiSquare(9.5), stats.chi2(9.5)),
])
def test_density_is_scipy_stats_pdf(d, ref):
    # no point at 0, where a chi-square density's limit from above may be inf
    x = np.concatenate([np.linspace(-30.0, 30.0, 240), [1e-6, 0.5, 77.0]])
    got = density(d, x)
    want = ref.pdf(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 1e-13 * want + 1e-300)
    assert density(d, 0.5) == got[-2] and isinstance(density(d, 0.5), float)


@pytest.mark.parametrize("d", [Uniform01(), "normal"])
def test_density_of_another_kind_raises(d):
    with pytest.raises(ParameterDomainError):
        density(d, 0.5)


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ParameterDomainError):
            quantile(Normal(), bad)


# ---------------------------------------------------------------------------
# log-space tails

def test_normal_log_tail_vs_mills_oracle():
    # frozen oracle output: mills_log_phi(100) = -5005.524208694205
    assert abs(mills_log_phi(100.0) + 5005.524208694205) < 1e-9
    assert abs(log_tail(Normal(), -100.0, "lower") + 5005.524208694205) < 0.01
    assert abs(log_tail(Normal(), 100.0, "upper") + 5005.524208694205) < 0.01
    # relative agreement 1e-6 for |z| >= 10
    for z in (10.0, 14.0, 31.0, 300.0):
        got = log_tail(Normal(), -z, "lower")
        assert abs(got - mills_log_phi(z)) < 1e-6 * abs(got)


@pytest.mark.parametrize("df,a,want", [
    # frozen via mpmath (dps=60): log P(T_df <= -a)
    (9999.0, 100.0, -3470.816958043598),
    (999.0, 31.6, -350.14388397386926),
    (99.0, 10.0, -37.444690176046834),
    (3.0, 1e120, -828.8329100388119),
    (1.0, 1e3, -8.052485498164726),
    (2.5, 50.0, -10.11045082776566),
    # past a = 1.3e154, where a * a overflows
    (0.5, 1e160, -185.3440535702952),
    (1.0, 1e160, -369.55834476489673),
    (5.0, 1e200, -2300.334836758232),
    # out to the largest double, for heavy and light tails
    (1.0, 1e290, -668.8944068541226),
    (0.8, 1e286, -528.0002496671409),
    (0.3, 1e300, -208.2839080170067),
    (30.0, 1e307, -21158.418614766437),
    # large df, where x = df / (df + a^2) is close to 1
    (1e5, 45.0, -1007.1008380733635),
    (1e6, 45.0, -1016.2013086271892),
])
def test_t_log_tail_deep(df, a, want):
    got = log_tail(StudentT(df), -a, "lower")
    assert abs(got - want) < 1e-12 * abs(want)
    assert log_tail(StudentT(df), a, "upper") == got


@pytest.mark.parametrize("df,x,want_lower,want_upper", [
    # frozen via mpmath (dps=60): log P / log Q for the chi-square
    (4.0, 1e-80, -370.49305642072716, 0.0),
    (1.0, 1e-200, -230.48430065204930, 0.0),
    (19.0, 5000.0, 0.0, -2445.1815379035768),
    (3.5, 900.0, 0.0, -445.33199883441790),
])
def test_chi2_log_tail_deep(df, x, want_lower, want_upper):
    if want_lower != 0.0:
        got = log_tail(ChiSquare(df), x, "lower")
        assert abs(got - want_lower) < 1e-6 * abs(want_lower)
    if want_upper != 0.0:
        got = log_tail(ChiSquare(df), x, "upper")
        assert abs(got - want_upper) < 1e-6 * abs(want_upper)


@pytest.mark.parametrize("df", [3.0, 4.5, 10.0, 33.0, 75.0, 200.0])
def test_chi2_log_lower_tail_below_the_direct_floor_is_mpmaths(df):
    # below a mass of 1e-280 the lower tail is the incomplete gamma's series;
    # oracle: log of mpmath's regularized lower incomplete gamma (dps=50)
    mp.mp.dps = 50
    xs = [x for x in (1e-300, 1e-200, 1e-120, 1e-60, 1e-20, 1e-8, 1e-3, 0.05)
          if cdf(ChiSquare(df), x) < 1e-280]
    assert len(xs) >= 2
    for x in xs:
        want = float(mp.log(mp.gammainc(mp.mpf(df) / 2, 0, mp.mpf(x) / 2, regularized=True)))
        assert abs(log_tail(ChiSquare(df), x, "lower") - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("d", [Normal(), StudentT(6.0), ChiSquare(5.0), Uniform01()])
def test_log_tail_consistent_with_cdf(d):
    # exp(log_tail) must agree with cdf-derived tails wherever those are >= 1e-280
    for x in (-8.0, -1.0, 0.3, 2.0, 7.5):
        p = cdf(d, x)
        if p >= 1e-280:
            assert abs(math.exp(log_tail(d, x, "lower")) - p) < 1e-12
        if 1.0 - p >= 1e-280:
            assert abs(math.exp(log_tail(d, x, "upper")) - (1.0 - p)) < 1e-12


@pytest.mark.parametrize("d", [Normal(), StudentT(3.0), ChiSquare(4.0), Uniform01()])
@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("x", [-math.inf, math.inf])
def test_log_tail_at_infinity_is_exact(d, side, x):
    # all the mass or none: 0 or -inf, with no nan and no warning from the numerics
    assert log_tail(d, x, side) == (0.0 if (x > 0.0) == (side == "lower") else -math.inf)


def test_log_tail_side_validation():
    with pytest.raises(ParameterDomainError):
        log_tail(Normal(), 0.0, "middle")


# ---------------------------------------------------------------------------
# draws

def _dkw(n, alpha=1e-3):
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


# numpy samplers for each kind: an oracle independent of cdf
_SAMPLERS = {
    Normal: lambda rng, d, n: rng.normal(d.mean, d.sd, size=n),
    StudentT: lambda rng, d, n: rng.standard_t(d.df, size=n),
    ChiSquare: lambda rng, d, n: rng.chisquare(d.df, size=n),
    Uniform01: lambda rng, d, n: rng.random(n),
}


@pytest.mark.parametrize("d", [Normal(1.0, 2.0), StudentT(5.0), ChiSquare(3.0),
                               Uniform01()])
def test_draw_matches_cdf_within_dkw(d):
    n = 100_000
    x = np.sort(_SAMPLERS[type(d)](RngStream(1729, 5).generator(), d, n))
    grid = np.arange(1, n + 1) / n
    theo = cdf(d, x)
    sup = max(np.max(np.abs(grid - theo)), np.max(np.abs(grid - 1.0 / n - theo)))
    assert sup < _dkw(n)


def _normals(stream):
    return stream.generator().normal(size=16)


def test_stream_determinism_and_independence():
    s = RngStream(42, 3)
    a = _normals(s)
    b = _normals(RngStream(42, 3))
    assert np.array_equal(a, b)
    c = _normals(RngStream(42, 4))
    assert not np.array_equal(a, c)
    d1 = _normals(s.child(0))
    d2 = _normals(s.child(1))
    assert not np.array_equal(d1, d2)
    assert np.array_equal(d1, _normals(RngStream(42, 3).child(0)))


def test_stream_validation():
    with pytest.raises(ParameterDomainError):
        RngStream(-1, 0)
    with pytest.raises(ParameterDomainError):
        RngStream(1, -2)
    with pytest.raises(ParameterDomainError):
        stream_words(1, [3, -1])


def _numpy_generator(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# stream_words restates numpy's SeedSequence; if numpy's seeding ever changes,
# these fail rather than every stream quietly moving
@given(seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 128 - 1),
                      st.integers(2 ** 128, 2 ** 200)),
       start=st.one_of(st.integers(0, 2 ** 20), st.integers(2 ** 32 - 300, 2 ** 32 + 300),
                       st.integers(2 ** 32, 2 ** 80)),
       lineage=st.sampled_from([(), (0,), (1,), (3, 2 ** 33)]),
       size=st.sampled_from([1, 255, 256, 257]))
def test_stream_words_are_numpys_seed_sequence_state(seed, start, lineage, size):
    indices = range(start, start + size)
    words = stream_words(seed, indices, lineage)
    assert len(words) == size
    for i, w in zip(indices, words):
        want = np.random.SeedSequence(seed, spawn_key=(i, *lineage)).generate_state(4, np.uint64)
        assert w == tuple(int(v) for v in want)
    for k in (0, size - 1):  # the first draws, through both generators
        want = _numpy_generator(seed, (start + k, *lineage)).normal(size=8)
        assert pcg64_generator(words[k]).normal(size=8).tobytes() == want.tobytes()
        stream = RngStream(seed, start + k, lineage).generator()
        assert stream.normal(size=8).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# parameter validation and helpers

def test_parameter_domains():
    with pytest.raises(ParameterDomainError):
        Normal(0.0, 0.0)
    with pytest.raises(ParameterDomainError):
        StudentT(-1.0)
    with pytest.raises(ParameterDomainError):
        ChiSquare(0.0)


def test_maximize_returns_the_argmax_and_the_value_there():
    x, fx = maximize(lambda t: -(t - 0.3) ** 2, -1.0, 2.0)
    assert x == pytest.approx(0.3, abs=1e-7) and fx == -(x - 0.3) ** 2
