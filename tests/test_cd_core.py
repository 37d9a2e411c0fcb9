"""Core CD behavior: shapes, inverses, transforms, serialization."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from cdkit.cd_core import (
    _FAMILIES,
    CdRandomVariable,
    FamilySpec,
    analytic_cd,
    cd_density,
    cd_eval,
    cd_log_lower,
    cd_log_upper,
    cd_quantile,
    central_interval,
    family_cd,
    grid_cd,
    load_cd_csv,
    location_scale_cd,
    materialize,
    sample_cd,
    transform_cd,
)
from cdkit.errors import (
    MonotonicityError,
    ParameterDomainError,
    UnsupportedRepresentationError,
)
from cdkit.probkernel import Normal, RngStream, StudentT


def _normal_cd(loc=0.3, scale=0.5):
    return location_scale_cd(Normal(), loc, scale)


def _t_cd():
    return location_scale_cd(StudentT(6.0), -1.0, 2.0)


def _grid_from_normal():
    return materialize(_normal_cd(), n_grid=513)


def _sample_from_normal():
    rng = np.random.default_rng(7)
    return sample_cd(rng.normal(0.3, 0.5, size=400))


def _all_kinds():
    return [_normal_cd(), _t_cd(), _grid_from_normal(), _sample_from_normal()]


def _max_jump(cd):
    if cd.kind == "sample":
        return float(np.max(cd.weights))
    if cd.kind == "grid":
        return float(np.max(np.diff(cd.values)))
    return 0.0


# ---------------------------------------------------------------------------
# CDF shape and inverse consistency

@pytest.mark.parametrize("cd", _all_kinds())
def test_cdf_monotone_and_bounded(cd):
    xs = np.linspace(-6.0, 6.0, 301)
    h = cd_eval(cd, xs)
    assert np.all(h >= 0.0) and np.all(h <= 1.0)
    assert np.all(np.diff(h) >= -1e-12)
    if cd.kind == "grid":
        # a grid CD holds its end masses on its end knots: H is 0 below the
        # first knot, its value there at it, and 1 from the last knot on
        th, va = cd.theta, cd.values
        assert cd_eval(cd, -1e3) == 0.0 and cd_eval(cd, th[0]) == va[0] and 0.0 < va[0] < 1e-3
        assert cd_eval(cd, np.nextafter(th[-1], -np.inf)) <= va[-1] < 1.0
        assert cd_eval(cd, th[-1]) == 1.0 and cd_eval(cd, 1e3) == 1.0 and va[-1] > 1.0 - 1e-3
    else:
        assert cd_eval(cd, -1e3) < 1e-9
        assert cd_eval(cd, 1e3) > 1.0 - 1e-9


@pytest.mark.parametrize("cd", _all_kinds())
def test_quantile_cdf_consistency(cd):
    jump = _max_jump(cd)
    for s in np.linspace(0.01, 0.99, 33):
        q = cd_quantile(cd, s)
        h = cd_eval(cd, q)
        assert h >= s - jump - 1e-6
        assert h <= s + jump + 1e-6


def test_quantile_fallback_matches_closed_form():
    cd = _normal_cd()
    bare = analytic_cd(lambda x: cd_eval(cd, x), cd.support)  # no quantile: Q searches H
    for s in (0.025, 0.5, 0.975):
        assert abs(cd_quantile(bare, s) - cd_quantile(cd, s)) < 1e-9


def test_quantile_domain_checked():
    cd = _normal_cd()
    for bad in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(ParameterDomainError):
            cd_quantile(cd, bad)


# ---------------------------------------------------------------------------
# grid and sample specifics

def test_grid_eval_interpolates_and_extrapolates_flat():
    cd = grid_cd([0.0, 1.0, 3.0], [0.0, 0.5, 1.0])
    assert cd_eval(cd, -5.0) == 0.0
    assert cd_eval(cd, 0.0) == 0.0
    assert cd_eval(cd, 0.5) == 0.25
    assert cd_eval(cd, 2.0) == 0.75
    assert cd_eval(cd, 99.0) == 1.0


def test_grid_quantile_takes_leftmost_on_plateau():
    cd = grid_cd([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 1.0])
    assert cd_quantile(cd, 0.5) == 1.0
    assert abs(cd_quantile(cd, 0.25) - 0.5) < 1e-12
    assert abs(cd_quantile(cd, 0.75) - 2.5) < 1e-12


def test_sample_step_cdf_small_case():
    cd = sample_cd([2.0, 1.0], [0.7, 0.3])  # sorts to atoms 1, 2
    assert cd_eval(cd, 0.9) == 0.0
    assert abs(cd_eval(cd, 1.0) - 0.3) < 1e-15
    assert abs(cd_eval(cd, 1.7) - 0.3) < 1e-15
    assert cd_eval(cd, 2.0) == 1.0
    assert cd_quantile(cd, 0.3) == 1.0
    assert cd_quantile(cd, 0.31) == 2.0
    assert cd_quantile(cd, 0.999) == 2.0


def test_sample_weight_validation():
    with pytest.raises(ParameterDomainError):
        sample_cd([1.0, 2.0], [0.6, 0.6])
    with pytest.raises(ParameterDomainError):
        sample_cd([1.0, 2.0], [-0.2, 1.2])


def test_sample_h_at_atoms_is_k_over_n_and_ends_at_one():
    atoms = np.random.default_rng(3).normal(size=301)
    want = np.arange(1, 302) / 301
    for cd in (sample_cd(atoms), sample_cd(atoms, np.full(301, 1.0 / 301))):
        assert np.array_equal(cd.values, want)
        assert np.array_equal(cd_eval(cd, cd.atoms), want)
    w = np.random.default_rng(4).uniform(size=301)
    cd = sample_cd(atoms, w / w.sum())
    assert cd.values[-1] == 1.0 and np.all(np.diff(cd.values) >= 0.0)
    assert np.array_equal(cd_eval(cd, cd.atoms), cd.values)


@pytest.mark.parametrize("b", [100, 200, 1000])
@pytest.mark.parametrize("level", ["0.5", "0.9", "0.95", "0.99"])
def test_sample_interval_ends_are_the_nominal_atoms(b, level):
    # the ceil(B a/2)-th and ceil(B (1 - a/2))-th smallest atoms in exact
    # arithmetic: 1 - 0.95 rounds above 0.05, which must not move an end
    atoms = np.random.default_rng(b).normal(size=b)
    half = (1 - Fraction(level)) / 2
    lo, hi = central_interval(sample_cd(atoms), float(level))
    asc = np.sort(atoms)
    assert lo == asc[math.ceil(b * half) - 1]
    assert hi == asc[math.ceil(b * (1 - half)) - 1]


def test_grid_end_masses_sit_on_the_end_knots():
    # mass 0.1 on the last knot: H(1) is 1, so Q(0.95) = 1 meets H(Q(s)) >= s
    top = grid_cd([0.0, 1.0], [0.0, 0.9])
    assert cd_quantile(top, 0.95) == 1.0 and cd_eval(top, 1.0) == 1.0
    assert cd_eval(top, np.nextafter(1.0, 0.0)) < 0.9 + 1e-12
    # mass 0.2 on the first knot: H is 0 below it, so no Q(H(x)) exceeds x
    bottom = grid_cd([0.0, 1.0], [0.2, 1.0])
    assert cd_eval(bottom, -1.0) == 0.0 and cd_eval(bottom, 0.0) == 0.2
    assert cd_quantile(bottom, cd_eval(bottom, 0.0)) == 0.0


def test_grid_validation():
    with pytest.raises(ParameterDomainError):
        grid_cd([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])
    with pytest.raises(MonotonicityError):
        grid_cd([0.0, 1.0, 2.0], [0.0, 0.8, 0.2])
    with pytest.raises(ParameterDomainError):
        grid_cd([0.0, 1.0], [0.0, 1.4])


# ---------------------------------------------------------------------------
# densities

def test_density_grid_is_segment_slope():
    cd = grid_cd([0.0, 1.0, 3.0], [0.0, 0.5, 1.0])
    assert abs(cd_density(cd, 0.5) - 0.5) < 1e-12
    assert abs(cd_density(cd, 2.0) - 0.25) < 1e-12
    assert cd_density(cd, -1.0) == 0.0


def test_density_finite_difference_matches_gaussian():
    cd = _normal_cd()
    x = 0.45
    exact = math.exp(-0.5 * ((x - 0.3) / 0.5) ** 2) / (0.5 * math.sqrt(2 * math.pi))
    assert abs(cd_density(cd, x) - exact) < 1e-5


def test_density_refuses_sample_repr():
    with pytest.raises(UnsupportedRepresentationError):
        cd_density(_sample_from_normal(), 0.0)


# ---------------------------------------------------------------------------
# CD random variables

def test_cd_sample_reproducible_and_dkw():
    cd = _normal_cd()
    rv = CdRandomVariable(cd, RngStream(11, 0))
    x = rv.sample(100_000)
    x2 = CdRandomVariable(cd, RngStream(11, 0)).sample(100_000)
    assert np.array_equal(x, x2)
    xs = np.sort(x)
    n = xs.size
    theo = cd_eval(cd, xs)
    grid = np.arange(1, n + 1) / n
    sup = max(np.max(np.abs(grid - theo)), np.max(np.abs(grid - 1.0 / n - theo)))
    assert sup < 0.0062  # DKW bound at alpha = 1e-3 for n = 1e5


def test_cd_sample_advances_stream():
    rv = CdRandomVariable(_normal_cd(), RngStream(11, 1))
    a = rv.sample(8)
    b = rv.sample(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# transforms

@pytest.mark.parametrize("cd", _all_kinds())
def test_transform_quantile_commutes_increasing(cd):
    out = transform_cd(cd, math.exp, "increasing", g_inverse=math.log)
    for s in (0.05, 0.3, 0.71, 0.95):
        assert abs(cd_quantile(out, s) - math.exp(cd_quantile(cd, s))) < 1e-8


@pytest.mark.parametrize("cd", _all_kinds())
def test_transform_quantile_commutes_decreasing(cd):
    out = transform_cd(cd, lambda t: -t, "decreasing", g_inverse=lambda y: -y)
    # off-lattice s: at exact atom-weight multiples (0.71 is 284/400) the
    # two generalized inverses close their steps on opposite sides
    for s in (0.0521, 0.3113, 0.7113, 0.9468):
        want = -cd_quantile(cd, 1.0 - s)
        assert abs(cd_quantile(out, s) - want) < 1e-8


def test_decreasing_transform_keeps_the_deep_tails():
    # H(-9) = P(Z > 9), which 1 - Phi(9) rounds to 0; Q(1e-18) reads the upper
    # quantile of N(0, 1), where the lower quantile of 1 - 1e-18 = 1 has none
    out = transform_cd(location_scale_cd(Normal(), 0.0, 1.0), lambda t: -t, "decreasing")
    assert cd_eval(out, -9.0) == pytest.approx(special.ndtr(-9.0), rel=1e-9)
    assert special.ndtr(-9.0) == pytest.approx(1.1285884059538e-19, rel=1e-12)
    q = cd_quantile(out, 1e-18)
    assert q == pytest.approx(special.ndtri(1e-18), rel=1e-9)
    assert cd_eval(out, q) >= 1e-18


@pytest.mark.parametrize("g,direction,y,want", [
    # g^{-1} by root finding: the search for it runs out to the largest double
    (lambda t: -t, "decreasing", 1e70, 1.0),
    (lambda t: -t, "decreasing", -1e70, 0.0),
    # the step that crosses the root is the bracket: the whole searched span
    # would overflow
    (lambda t: -t, "decreasing", 5e307, 1.0),
    (lambda t: -t, "decreasing", -5e307, 0.0),
    (lambda t: -t, "decreasing", 1e308, 1.0),
    (lambda t: -t, "decreasing", -1e308, 0.0),
    # exp overflows past t = 709.8, which is past the root, not a failure
    (math.exp, "increasing", 1e250, 1.0),
    (math.exp, "increasing", 1e-250, 0.0),
])
def test_transform_without_inverse_reaches_far_out(g, direction, y, want):
    out = transform_cd(location_scale_cd(Normal(), 0.0, 1.0), g, direction)
    assert cd_eval(out, y) == want


def test_transform_without_inverse_is_exact_near_the_largest_double():
    # the smallest t with -t <= y is -y itself, so H is the exact inverse's to the bit
    cd = location_scale_cd(Normal(), 0.0, 1e307)
    found = transform_cd(cd, lambda t: -t, "decreasing")
    exact = transform_cd(cd, lambda t: -t, "decreasing", g_inverse=lambda y: -y)
    ys = np.array([-1e308, -5e307, -1e307, 1e307, 5e307, 1e308])
    np.testing.assert_array_equal(cd_eval(found, ys), cd_eval(exact, ys))
    assert 0.0 < cd_eval(found, -5e307) < 1e-6 and 1.0 - 1e-6 < cd_eval(found, 5e307) < 1.0


def test_transform_cdf_matches_lognormal():
    out = transform_cd(_normal_cd(), math.exp, "increasing", g_inverse=math.log)
    for x in (0.4, 1.0, 2.5):
        assert abs(cd_eval(out, x) - cd_eval(_normal_cd(), math.log(x))) < 1e-12


def test_transform_without_inverse_root_finds():
    out = transform_cd(_normal_cd(), lambda t: t ** 3 + t, "increasing")
    s = 0.8
    q = cd_quantile(_normal_cd(), s)
    assert abs(cd_quantile(out, s) - (q ** 3 + q)) < 1e-8
    assert abs(cd_eval(out, q ** 3 + q) - s) < 1e-8


def test_transform_without_inverse_inverts_a_map_that_blows_up_at_an_edge():
    # atanh fails at the fisher-z CD's support edges +-1: it blows up there
    cd = family_cd(FamilySpec("fisher-z", {"r": 0.4, "n": 30}))
    found = transform_cd(cd, math.atanh, "increasing")
    exact = transform_cd(cd, math.atanh, "increasing", g_inverse=math.tanh)
    ys = np.linspace(-0.5, 1.5, 201)
    np.testing.assert_allclose(cd_eval(found, ys), cd_eval(exact, ys), rtol=1e-13, atol=0)
    s = np.linspace(0.001, 0.999, 101)
    np.testing.assert_allclose(cd_quantile(found, s), cd_quantile(exact, s), rtol=1e-15, atol=0)


def test_transform_without_inverse_inverts_a_map_that_fails_near_a_half_line_edge():
    # exp(1 / t) overflows for t < 0.0014 on the chi2-rate CD's support (0, inf):
    # there it blows up toward the edge at 0, before the root
    cd = family_cd(FamilySpec("chi2-rate", {"n": 5, "total": 3.0}))
    g = lambda t: math.exp(1.0 / t)
    found = transform_cd(cd, g, "decreasing")
    exact = transform_cd(cd, g, "decreasing", g_inverse=lambda y: 1.0 / math.log(y))
    ys = np.exp(np.linspace(0.05, 6.0, 201))
    np.testing.assert_allclose(cd_eval(found, ys), cd_eval(exact, ys), rtol=1e-12, atol=0)


def test_transform_without_inverse_matches_the_exact_inverse():
    # g^-1(y) is the smallest t with exp(t) >= y, so H moves by ulps from log's
    cd = location_scale_cd(StudentT(9.0), 0.3, 0.8)
    found = transform_cd(cd, math.exp, "increasing")
    exact = transform_cd(cd, math.exp, "increasing", g_inverse=math.log)
    ys = np.exp(np.linspace(-4.0, 5.0, 201))
    np.testing.assert_allclose(cd_eval(found, ys), cd_eval(exact, ys), rtol=1e-14, atol=0)


def test_transform_without_inverse_searches_the_support_alone():
    # -cos(t / 7) rises on the grid's support [10, 20] but turns down past 7 pi
    knots = np.linspace(10.0, 20.0, 41)
    cd = grid_cd(knots, cd_eval(location_scale_cd(Normal(), 15.0, 1.0), knots))
    g = lambda t: -math.cos(t / 7.0)
    found = transform_cd(cd, g, "increasing")
    exact = transform_cd(cd, g, "increasing", g_inverse=lambda y: 7.0 * math.acos(-y))
    ys = np.array([g(t) for t in np.linspace(10.5, 19.5, 19)])
    np.testing.assert_allclose(cd_eval(found, ys), cd_eval(exact, ys), rtol=0, atol=1e-12)


def test_only_location_scale_cd_records_its_structure():
    # quantile readers share base quantiles only for CDs family_cd built
    cd = location_scale_cd(Normal(), 0.2, 0.5, meta={"source": "test"})
    assert cd.family == FamilySpec("location-scale", {"loc": 0.2, "scale": 0.5, "df": None})
    assert _FAMILIES["location-scale"].from_base(1.0, **cd.family.params) == 0.2 + 0.5 * 1.0
    out = transform_cd(cd, math.exp, "increasing", g_inverse=math.log)
    assert out.family is None
    copied = analytic_cd(lambda x: cd_eval(cd, x), quantile=lambda s: cd_quantile(cd, s),
                         meta=cd.meta)
    assert copied.family is None
    assert dataclasses.replace(cd, meta={}).family is None
    assert analytic_cd(lambda x: cd_eval(cd, x), meta={"base": Normal()}).family is None


def test_transform_rejects_nonmonotone():
    with pytest.raises(MonotonicityError):
        transform_cd(_normal_cd(), math.sin, "increasing")
    with pytest.raises(MonotonicityError):
        transform_cd(_normal_cd(), math.exp, "decreasing")
    with pytest.raises(MonotonicityError):  # nan below 0
        transform_cd(_normal_cd(), np.log, "increasing")
    with pytest.raises(MonotonicityError):  # flat
        transform_cd(_normal_cd(), lambda t: 1.0, "increasing")
    with pytest.raises(MonotonicityError):  # the central quantiles are positive, atom 0 is not
        transform_cd(sample_cd(np.linspace(0.0, 1.0, 2000)),
                     lambda t: math.log(t) if t > 0.0 else -math.inf, "increasing")


@pytest.mark.parametrize("g, direction, g_inverse, support", [
    (np.exp, "increasing", None, (0.0, math.inf)),
    (np.exp, "increasing", np.log, (0.0, math.inf)),
    (lambda t: -math.exp(t), "decreasing", None, (-math.inf, 0.0)),
    (lambda t: -math.exp(t), "decreasing", lambda y: math.log(-y), (-math.inf, 0.0)),
    (math.atan, "increasing", math.tan, (-math.pi / 2, math.pi / 2)),
    (lambda t: 1.0 - 2.0 * t, "decreasing", None, (-math.inf, math.inf)),
], ids=["exp", "exp-with-log", "minus-exp", "minus-exp-with-log", "atan-with-tan", "affine"])
def test_transform_keeps_the_tails_of_an_unbounded_cd(g, direction, g_inverse, support):
    # the new support is g of the old edges, so no tail mass is cut off
    out = transform_cd(location_scale_cd(Normal(), 0.0, 1.0), g, direction, g_inverse)
    assert out.support == support
    for s in (1e-6, 0.0005, 0.5, 0.9995, 1.0 - 1e-6):
        assert cd_eval(out, cd_quantile(out, s)) == pytest.approx(s, rel=1e-9)
    lo, hi = support
    assert cd_eval(out, np.array([lo - 1.0, lo, hi, hi + 1.0])).tolist() == [0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("g, direction", [(lambda t: 2.0 * t + 1.0, "increasing"),
                                          (lambda t: -t, "decreasing")])
def test_transform_of_a_grid_keeps_its_end_masses(g, direction):
    # a materialized grid holds 1e-4 on each end knot
    grid = materialize(location_scale_cd(Normal(), 0.0, 1.0))
    out = transform_cd(grid, g, direction)
    for s in (5e-5, 1.0 - 5e-5):  # each end knot's image, where H steps by 1e-4
        assert cd_eval(out, cd_quantile(out, s)) >= s
    lo = cd_quantile(out, 5e-5)
    assert cd_eval(out, lo) == pytest.approx(1e-4, rel=1e-9)
    assert cd_eval(out, lo - 1e-9) == 0.0


def test_transform_sample_maps_atoms_exactly():
    cd = sample_cd([1.0, 2.0], [0.3, 0.7])
    out = transform_cd(cd, lambda t: -t, "decreasing")
    assert np.array_equal(out.atoms, [-2.0, -1.0])
    assert np.allclose(out.weights, [0.7, 0.3])
    # complement convention: P(-xi <= -1.5) = P(xi >= 1.5) = 0.7
    assert abs(cd_eval(out, -1.5) - 0.7) < 1e-15


# ---------------------------------------------------------------------------
# intervals, logs, serialization

def test_central_interval_endpoints_and_nesting():
    cd = _t_cd()
    lo90, hi90 = central_interval(cd, 0.90)
    lo99, hi99 = central_interval(cd, 0.99)
    alpha = 1.0 - 0.90
    assert lo90 == cd_quantile(cd, alpha / 2.0) and hi90 == cd_quantile(cd, 1.0 - alpha / 2.0)
    assert lo99 < lo90 < hi90 < hi99
    with pytest.raises(ParameterDomainError):
        central_interval(cd, 1.0)


def test_log_hooks_match_plain_eval_in_body():
    cd = _normal_cd()
    for x in (-0.5, 0.3, 1.4):
        assert abs(math.exp(cd_log_lower(cd, x)) - cd_eval(cd, x)) < 1e-12
        assert abs(math.exp(cd_log_upper(cd, x)) - (1.0 - cd_eval(cd, x))) < 1e-12
    # deep tail stays finite in log space
    assert cd_log_lower(cd, -40.0) < -2000.0
    assert math.isfinite(cd_log_lower(cd, -40.0))


@pytest.mark.parametrize("df", [0.3, 0.5, 1.0, 3.0, 30.0, 1e3, 1e6])
def test_t_log_tails_are_finite_and_fall_out_to_the_largest_double(df):
    cd = location_scale_cd(StudentT(df), 0.0, 1.0)
    x = np.concatenate([np.linspace(0.0, 40.0, 81), np.logspace(1.7, 308.0, 200)])
    for tail, sign in ((cd_log_lower, -1.0), (cd_log_upper, 1.0)):
        logs = np.array([tail(cd, sign * xi) for xi in x])
        assert np.all(np.isfinite(logs))
        assert np.all(np.diff(logs) <= 0.0)


def test_log_fallback_for_grid_and_empty_tail():
    cd = grid_cd([0.0, 1.0], [0.0, 1.0])
    assert cd_log_lower(cd, -1.0) == -math.inf
    assert abs(cd_log_lower(cd, 0.5) - math.log(0.5)) < 1e-12


def test_csv_roundtrip_grid_and_sample(tmp_path):
    from cdkit.cd_core import save_cd_csv

    g = _grid_from_normal()
    p = tmp_path / "grid.csv"
    save_cd_csv(g, p)
    g2 = load_cd_csv(p)
    assert np.array_equal(g.theta, g2.theta)
    assert np.array_equal(g.values, g2.values)

    s = _sample_from_normal()
    p2 = tmp_path / "sample.csv"
    save_cd_csv(s, p2)
    s2 = load_cd_csv(p2)
    assert np.array_equal(s.atoms, s2.atoms)
    assert np.array_equal(s.weights, s2.weights)


def test_csv_analytic_dump_agrees_with_source(tmp_path):
    from cdkit.cd_core import save_cd_csv

    cd = _normal_cd()
    p = tmp_path / "cd.csv"
    save_cd_csv(cd, p)
    back = load_cd_csv(p)
    for x in (-0.4, 0.3, 1.1):
        assert abs(cd_eval(back, x) - cd_eval(cd, x)) < 1e-3


def test_csv_rejects_unknown_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ParameterDomainError):
        load_cd_csv(p)
