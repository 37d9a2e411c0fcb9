"""Family specs, the CD contract under property tests, and lossless CD files.

Every family spec, grid CD, sample CD and monotone transform of one must
satisfy the generalized-inverse identities H(Q(s)) >= s and Q(H(x)) <= x,
have a nondecreasing H, give strong support no larger than weak support, and
reload from its file as the same CD (a transformed analytic CD, which has no
spec, as its materialized grid).  Family CDs meet the inverse identities to
rounding (a relative 1e-9), and grid CDs to the rounding of theta.  A
transformed family or grid CD meets H(Q(s)) >= s exactly, as its Q is the
smallest double that reaches s, and Q(H(x)) <= x to the rounding of the CD
it transforms.  Sample CDs, every bootstrap CD among them, meet
Q(H(x)) <= x exactly and H(Q(s)) >= s - 1e-12: their quantile rule stops at
the first atom whose H reaches s - 1e-12, so that a probability one rounding
off a multiple of 1/n lands on its atom.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cdkit.probkernel as pk
from cdkit.cd_core import (
    _FAMILIES,
    FamilySpec,
    analytic_cd,
    cd_density,
    cd_eval,
    cd_log_lower,
    cd_log_upper,
    cd_quantile,
    family_cd,
    grid_cd,
    load_cd_csv,
    location_scale_cd,
    materialize,
    sample_cd,
    save_cd_csv,
    transform_cd,
)
from cdkit.errors import ParameterDomainError
from cdkit.inference import NullRegion, support_report

_ROUNDING = 1e-9


def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _spec(family, **params):
    return FamilySpec(family, params)


def _log_reals(lo, hi):
    """Reals spread evenly over the decades from lo to hi."""
    return _reals(np.log10(lo), np.log10(hi)).map(lambda e: float(10.0 ** e))


_LOC_SCALE = {"loc": _reals(-1e3, 1e3), "scale": _reals(1e-3, 1e3)}
_T_DF = _log_reals(0.3, 1e6)
_OTHER_ROWS = [
    st.builds(partial(_spec, "inverse-chi2-scale"), df=_reals(1.0, 500.0),
              scale_ssq=_reals(1e-3, 1e4)),
    st.builds(partial(_spec, "fisher-z"), r=_reals(-0.99, 0.99), n=st.integers(4, 5000)),
    st.builds(partial(_spec, "chi2-rate"), n=st.one_of(st.just(1), st.integers(1, 2000)),
              total=_log_reals(1e-3, 1e12)),
]
SPECS = st.one_of(st.builds(partial(_spec, "location-scale"), **_LOC_SCALE,
                            df=st.one_of(st.none(), _T_DF)), *_OTHER_ROWS)
# the same specs, one strategy per row of the family table and per
# location-scale base law (Normal, then Student-t)
ROW_SPECS = [st.builds(partial(_spec, "location-scale"), **_LOC_SCALE, df=df)
             for df in (st.none(), _T_DF)] + _OTHER_ROWS


@st.composite
def grid_cds(draw):
    """Grid CDs, flat stretches included, whose values may start above 0 and
    end below 1: the end masses sit on the end knots.

    Each step of H is 0 or at least 1e-6: on a segment that rises by a few
    ulps, H(x) can round onto the next knot's value, and Q of that is the knot.
    """
    gaps = draw(st.lists(_reals(1e-3, 10.0), min_size=1, max_size=30))
    theta = draw(_reals(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    step = st.one_of(st.just(0.0), _reals(1e-6, 1.0))
    steps = np.array(draw(st.lists(step, min_size=len(gaps), max_size=len(gaps))))
    steps[-1] += 0.01
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    end_mass = st.one_of(st.just(0.0), _reals(1e-6, 0.4))
    first, last = draw(end_mass), draw(end_mass)
    return grid_cd(theta, first + (1.0 - first - last) * (cum / cum[-1]))


@st.composite
def sample_cds(draw):
    atoms = draw(st.lists(_reals(-1e3, 1e3), min_size=1, max_size=40))
    if draw(st.booleans()):
        return sample_cd(atoms)
    w = np.array(draw(st.lists(_reals(1e-3, 1.0), min_size=len(atoms), max_size=len(atoms))))
    return sample_cd(atoms, w / w.sum())


# (g, direction, g^{-1}): the transforms keep the rounding of the base CD
MAPS = [(lambda t: 2.0 * t + 1.0, "increasing", lambda y: (y - 1.0) / 2.0),
        (lambda t: 3.0 - 0.5 * t, "decreasing", lambda y: 2.0 * (3.0 - y))]


@st.composite
def transformed_cds(draw):
    """Monotone transforms of family, grid and sample CDs, with and without
    g^{-1}.  The direction spot check needs g(Q(0.001)) < g(Q(0.999)) after
    rounding.  A transformed grid keeps its grid in ``meta``, for the
    tolerance of the inverse identities."""
    spread = sample_cds().filter(
        lambda cd: cd_quantile(cd, 0.999) - cd_quantile(cd, 0.001) > 1e-6)
    grids = grid_cds().map(lambda cd: grid_cd(cd.theta, cd.values, meta={"grid": cd}))
    base = draw(st.one_of(SPECS.map(family_cd), grids, spread))
    g, direction, g_inverse = draw(st.sampled_from(MAPS))
    return transform_cd(base, g, direction, g_inverse if draw(st.booleans()) else None)


CDS = st.one_of(SPECS.map(family_cd), grid_cds(), sample_cds(), transformed_cds())
# g(Q(1e-6)) = 1 + 3.2e-8 drops the low bits of Q(1e-6) = 1.6e-8: H there fell
# 1.6e-9 short of 1e-6 before Q moved on to the smallest double reaching s
_RATE_CD = family_cd(_spec("chi2-rate", n=1, total=63.0))
PINNED = [transform_cd(_RATE_CD, MAPS[0][0], "increasing", g_inverse)
          for g_inverse in (None, MAPS[0][2])]
# probabilities spread evenly over the decades from 1e-12 to 1/2, in either tail
_TAIL_PROB = st.tuples(_log_reals(1e-12, 0.5), st.booleans()).map(
    lambda pair: 1.0 - pair[0] if pair[1] else pair[0])
PROBS = st.lists(st.one_of(_reals(1e-6, 1.0 - 1e-6), _TAIL_PROB), min_size=1, max_size=20)


def _grid_under(cd):
    """The grid whose knots round cd's theta: cd itself or the grid it transforms."""
    return cd if cd.kind == "grid" else cd.meta.get("grid")


def _span(cd):
    lo, hi = cd_quantile(cd, np.array([1e-6, 1.0 - 1e-6]))
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# the CD contract

class TestContract:
    @given(CDS, PROBS)
    @example(PINNED[0], [1e-6])
    @example(PINNED[1], [1e-6])
    def test_h_of_q_is_at_least_s(self, cd, probs):
        s = np.array(probs)
        q = cd_quantile(cd, s)
        if cd.kind == "analytic" and cd.family is None:  # a transform
            assert np.all(cd_eval(cd, q) >= s)
        elif cd.kind == "grid":  # Q(s) is rounded to a float in theta
            assert np.all(cd_eval(cd, q + 1e-12 * (1.0 + np.abs(q))) >= s)
        elif cd.kind == "analytic":
            assert np.all(cd_eval(cd, q) >= s * (1.0 - _ROUNDING))
        else:
            assert np.all(cd_eval(cd, q) >= s - 1e-12)

    @given(CDS, st.lists(_reals(-0.2, 1.2), min_size=1, max_size=20))
    def test_q_of_h_is_at_most_x(self, cd, fractions):
        lo, hi = _span(cd)
        fractions = np.array(fractions)
        if cd.kind == "analytic":
            # inside the central 1 - 2e-6 of mass, where H keeps its relative
            # precision: a tail mass rounded to 1e-16 has no exact quantile
            fractions = np.clip(fractions, 0.0, 1.0)
        x = lo + fractions * (hi - lo)
        h = cd_eval(cd, x)
        inside = (h > 0.0) & (h < 1.0)
        grid = _grid_under(cd)
        if grid is not None:
            # H is exact to an ulp of 1, which the flattest rising segment
            # turns into ulp / slope in theta; every map in MAPS has |g'| <= 2
            rise = np.diff(grid.values) / np.diff(grid.theta)
            slack = ((1.0 if grid is cd else 2.0) * 4.0 * np.finfo(float).eps
                     / rise[rise > 0.0].min() + 1e-12 * (1.0 + np.abs(x)))
        elif cd.kind == "analytic":
            slack = _ROUNDING * (hi - lo)
        else:
            slack = 0.0
        assert np.all(cd_quantile(cd, h[inside]) <= (x + slack)[inside])

    @given(CDS, st.lists(_reals(-0.5, 1.5), min_size=2, max_size=60))
    def test_h_is_monotone(self, cd, fractions):
        lo, hi = _span(cd)
        x = np.sort(lo + np.array(fractions) * (hi - lo))
        assert np.all(np.diff(cd_eval(cd, x)) >= 0.0)

    @given(CDS, st.lists(_reals(1e-4, 1.0 - 1e-4), min_size=2, max_size=4, unique=True),
           st.booleans())
    def test_strong_support_is_at_most_weak(self, cd, probs, open_ends):
        cuts = sorted(float(c) for c in cd_quantile(cd, np.array(sorted(probs))))
        pairs = list(zip(cuts[::2], cuts[1::2]))
        if open_ends:
            pairs = [(-np.inf, pairs[0][1]), *pairs[1:]]
        pairs = [p for i, p in enumerate(pairs) if i == 0 or p[0] > pairs[i - 1][1]]
        report = support_report(cd, NullRegion.from_intervals(pairs))
        assert report.p_s <= report.p_w + 1e-12
        assert report.p_s_star <= report.p_s + 1e-12

    @given(CDS, PROBS)
    def test_save_then_reload_is_the_same_cd(self, tmp_path_factory, cd, probs):
        path = tmp_path_factory.mktemp("cd") / "cd.csv"
        save_cd_csv(cd, path)
        back = load_cd_csv(path)
        if cd.family is not None:  # the file is the spec line alone
            body = path.read_bytes()
            assert body.endswith(b"\r\n") and body.count(b"\n") == 1
        if cd.kind == "analytic" and cd.family is None:
            cd = materialize(cd)
        assert back.kind == cd.kind and back.family == cd.family
        s = np.array(probs)
        lo, hi = _span(cd)
        x = lo + s * (hi - lo)
        assert np.array_equal(cd_quantile(back, s), cd_quantile(cd, s))
        assert np.array_equal(cd_eval(back, x), cd_eval(cd, x))
        if cd.kind == "grid":
            assert np.array_equal(back.theta, cd.theta) and np.array_equal(back.values, cd.values)
        if cd.kind == "sample":
            assert np.array_equal(back.atoms, cd.atoms)
            assert np.array_equal(back.weights, cd.weights)


# ---------------------------------------------------------------------------
# family specs

class TestFamilySpecs:
    @given(SPECS)
    def test_family_cd_keeps_its_spec_and_copies_drop_it(self, spec):
        cd = family_cd(spec)
        assert cd.kind == "analytic" and cd.family == spec
        copy = analytic_cd(partial(cd_eval, cd), cd.support, quantile=partial(cd_quantile, cd))
        assert copy.family is None

    @given(SPECS, PROBS)
    def test_mapped_rows_take_quantiles_from_the_base_law(self, spec, probs):
        s, row, p = np.array(probs), _FAMILIES[spec.name], spec.params
        want = row.from_base(pk.quantile(row.base(**p), s, row.side), **p)
        assert np.array_equal(cd_quantile(family_cd(spec), s), want)

    # a strategy: each row gets its own examples, and each spec that random
    # examples found gets one: df 0.3, whose Q(0.97) lies far out, and a
    # Cauchy CD, whose H scipy gives to 1e-11 at the centre
    @pytest.mark.parametrize("spec", ROW_SPECS + [
        st.just(_spec("location-scale", loc=0.0, scale=1.0, df=0.30232130250207156)),
        st.just(_spec("location-scale", loc=513.0, scale=0.015625, df=1.0))])
    @given(data=st.data())
    def test_callables_agree_with_the_cdf(self, spec, data):
        cd = family_cd(data.draw(spec))
        x = np.asarray(cd_quantile(cd, np.array([0.05, 0.3, 0.5, 0.8, 0.97])))
        h = cd_eval(cd, x)
        lo, hi = cd.support
        # at and beyond the support's edges H is 0 or 1 and its log tails exact
        below, above = [lo, lo - 1.0, -np.inf], [hi, hi + 1.0, np.inf]
        for xi in below:
            assert (cd_log_lower(cd, xi), cd_log_upper(cd, xi)) == (-np.inf, 0.0)
        for xi in above:
            assert (cd_log_lower(cd, xi), cd_log_upper(cd, xi)) == (0.0, -np.inf)
        for xi, hx in zip([*x, *below, *above], [*h, *cd_eval(cd, below), *cd_eval(cd, above)]):
            assert abs(np.exp(cd_log_lower(cd, xi)) - hx) < 1e-12
            assert abs(np.exp(cd_log_upper(cd, xi)) - (1.0 - hx)) < 1e-12
        # a step on the scale of the body, Q(0.8) - Q(0.3): a heavy tail puts
        # Q(0.97) so far out that a step on that scale misreads the center
        step = 1e-5 * (x[3] - x[1])
        left, right = x - step, x + step  # the step as rounded, far from 0
        slope = (cd_eval(cd, right) - cd_eval(cd, left)) / (right - left)
        assert np.allclose(cd_density(cd, x), slope, rtol=1e-5)

    @pytest.mark.parametrize("make", [
        lambda: location_scale_cd(pk.Normal(0.0, 2.0), 0.0, 1.0),
        lambda: location_scale_cd(pk.ChiSquare(3.0), 0.0, 1.0),
        lambda: _spec("location-scale", loc=0.0, scale=0.0, df=None),
        lambda: _spec("location-scale", loc=float("nan"), scale=1.0, df=None),
        lambda: _spec("location-scale", loc=0.0, scale=1.0, df=0.0),
        lambda: _spec("location-scale", loc=0.0, scale=1.0),
        lambda: _spec("inverse-chi2-scale", df=0.0, scale_ssq=1.0),
        lambda: _spec("inverse-chi2-scale", df=None, scale_ssq=1.0),
        lambda: _spec("fisher-z", r=1.0, n=10),
        lambda: _spec("fisher-z", r=0.5, n=3),
        lambda: _spec("chi2-rate", n=5, total=-1.0),
        lambda: _spec("chi2-rate", n=True, total=1.0),
        lambda: _spec("chi2-rate", n=5, total=1.0, r=0.5),
        lambda: _spec("normal-mean", loc=0.0)])
    def test_out_of_domain_specs_raise(self, make):
        with pytest.raises(ParameterDomainError):
            make()


# ---------------------------------------------------------------------------
# CD files

def _family_file(tmp_path, spec):
    path = tmp_path / "cd.csv"
    save_cd_csv(family_cd(spec), path)
    return path


class TestFamilyFiles:
    def test_spec_line_over_grid_rows_loads_as_the_family_cd(self, tmp_path):
        # older files held the materialized grid's rows after the spec line
        cd = location_scale_cd(pk.StudentT(9), 1.5, 0.25)
        path = _family_file(tmp_path, cd.family)
        save_cd_csv(materialize(cd), tmp_path / "grid.csv")
        (tmp_path / "old.csv").write_bytes(path.read_bytes() + (tmp_path / "grid.csv").read_bytes())
        back = load_cd_csv(tmp_path / "old.csv")
        assert back.family == cd.family == _spec("location-scale", loc=1.5, scale=0.25, df=9)
        s = np.linspace(1e-6, 1.0 - 1e-6, 201)
        x = cd_quantile(cd, s)
        assert np.array_equal(cd_quantile(back, s), x)
        assert np.array_equal(cd_eval(back, x), cd_eval(cd, x))

    def test_headerless_file_loads_as_the_grid(self, tmp_path):
        cd = family_cd(_spec("inverse-chi2-scale", df=14.0, scale_ssq=20.0))
        save_cd_csv(materialize(cd), tmp_path / "old.csv")
        back = load_cd_csv(tmp_path / "old.csv")
        grid = materialize(cd)
        assert back.kind == "grid" and back.family is None
        assert np.array_equal(back.theta, grid.theta)
        assert np.array_equal(back.values, grid.values)

    def test_non_family_cds_write_no_header(self, tmp_path):
        cd = location_scale_cd(pk.Normal(), 0.0, 1.0)
        copy = analytic_cd(partial(cd_eval, cd), quantile=partial(cd_quantile, cd))
        save_cd_csv(copy, tmp_path / "copy.csv")
        assert (tmp_path / "copy.csv").read_text().startswith("theta,H")

    @pytest.mark.parametrize("header", [
        '{"family": "poisson-mean", "mean": 1.0}',
        '{"family": "chi2-rate", "n": 5.0}',
        '{"family": "chi2-rate", "n": 5.0, "total": 2.0, "extra": 1.0}',
        '{"family": "chi2-rate", "n": NaN, "total": 2.0}',
        '{"family": "chi2-rate", "n": 5.0, "total": Infinity}',
        '{"family": "chi2-rate", "n": "5", "total": 2.0}',
        '{"family": "location-scale", "loc": 0.0, "scale": 0.0, "df": null}',
        '{"family": "location-scale", "loc": 0.0, "scale": -1.0, "df": null}',
        '{"family": "location-scale", "loc": 0.0, "scale": 1.0, "df": 0.0}',
        '{"family": "location-scale", "loc": 0.0, "scale": 1.0, "df": "t"}',
        '{"family": "location-scale", "loc": 0.0, "scale": 1.0}',
        '{"family": "inverse-chi2-scale", "df": -3.0, "scale_ssq": 1.0}',
        '{"family": "fisher-z", "r": 1.0, "n": 10.0}',
        '{"family": "fisher-z", "r": -1.5, "n": 10.0}',
        '["fisher-z"]',
        '{"family": "fisher-z", ',
    ])
    def test_malformed_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "bad-header.csv"
        path.write_text(f"# cdkit-family {header}\r\ntheta,H\r\n0,0\r\n1,1\r\n")
        with pytest.raises(ParameterDomainError, match="bad-header.csv"):
            load_cd_csv(path)
