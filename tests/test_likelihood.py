"""Profile curves, their normalized CDs, and the Wald companion."""

import csv
import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

import cdkit.likelihood as likelihood
import cdkit.simlab as simlab
from cdkit.cd_core import cd_density, cd_eval, cd_log_lower, cd_log_upper, cd_quantile, grid_cd
from cdkit.errors import (
    OptimizationFailureError,
    ParameterDomainError,
    WindowTooNarrowError,
)
from cdkit.likelihood import (
    ProfileCurve,
    dump_profile,
    likelihood_acd,
    normalize_to_acd,
    profile_curve,
    scalar_maximizer,
    wald_acd,
)
from cdkit.simlab import CdGenerator


def _normal_loglik(xbar, sigma, n):
    # constants dropped: they cancel in ell_star
    return lambda theta, _eta: -n * (theta - xbar) ** 2 / (2.0 * sigma ** 2)


def _exponential_loglik(total, n):
    return lambda theta, _eta: n * math.log(theta) - theta * total


class TestProfileCurve:
    def test_normal_curve_is_exact(self):
        xbar, sigma, n = 0.4, 2.0, 25
        curve = profile_curve(_normal_loglik(xbar, sigma, n), (xbar - 4.0, xbar + 4.0),
                              256, n=n)
        assert curve.theta_hat == pytest.approx(xbar, abs=1e-10)
        expected = -n * (curve.grid - xbar) ** 2 / (2.0 * sigma ** 2)
        assert np.max(np.abs(curve.ell_star - expected)) < 1e-9
        # -d2/n = 1/sigma^2, so i_n = sigma^2
        assert curve.i_n == pytest.approx(sigma ** 2, rel=1e-6)

    def test_exponential_curve_matches_algebra(self):
        n, m = 100, 1.25
        curve = profile_curve(_exponential_loglik(n * m, n), (0.05, 3.0), 512, n=n)
        theta_hat = 1.0 / m
        assert curve.theta_hat == pytest.approx(theta_hat, abs=1e-4)
        expected = n * (np.log(curve.grid * m) - curve.grid * m + 1.0)
        assert np.max(np.abs(curve.ell_star - expected)) < 1e-5
        # -ell'' at the peak is n / theta_hat^2
        assert curve.i_n == pytest.approx(theta_hat ** 2, rel=1e-3)

    def test_profiled_nuisance_recovers_sample_mean(self):
        rng = np.random.default_rng(6)
        x = rng.normal(1.7, 0.9, size=60)
        n, xbar = x.size, x.mean()

        def loglik(mu, sigma):
            return -n * math.log(sigma) - np.sum((x - mu) ** 2) / (2.0 * sigma ** 2)

        curve = profile_curve(loglik, (xbar - 1.0, xbar + 1.0), 128,
                              scalar_maximizer(0.05, 10.0), n=n)
        assert curve.theta_hat == pytest.approx(xbar, abs=1e-5)

    @pytest.mark.parametrize("model", ["normal-mean-known-sigma", "exponential-rate"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_python_float_grid_equals_numpy_scalar_grid(self, monkeypatch, model, seed):
        # the grid is profiled in one call on the ndarray: the built-in logliks
        # must give the bytes they give on each Python float and on each numpy
        # scalar, and so must the curve
        captured = []

        def capture(loglik, window, grid_size, **kwargs):
            captured.append((loglik, window, grid_size, kwargs["n"]))
            return likelihood_acd(loglik, window, grid_size, **kwargs)

        monkeypatch.setattr(simlab, "likelihood_acd", capture)
        CdGenerator(model, "likelihood", 30, 1.5, seed).replicate(0)
        loglik, window, grid_size, n = captured[0]
        seen = []

        def recording(theta, eta):
            seen.append(theta)
            return loglik(theta, eta)

        curve = profile_curve(recording, window, grid_size, n=n)
        grid = np.linspace(window[0], window[1], grid_size)
        assert isinstance(seen[0], np.ndarray) and seen[0].tobytes() == grid.tobytes()
        assert [np.shape(th) for th in seen[1:]] in ([(3,)], [(), (3,)])
        on_array = np.asarray(loglik(grid, None)).tobytes()
        assert on_array == np.array([float(loglik(th, None)) for th in grid.tolist()]).tobytes()
        assert on_array == np.array([float(loglik(th, None)) for th in grid]).tobytes()
        # on a dense array, the lab's logliks give the bytes of their numpy
        # expressions applied to one Python float at a time
        data = CdGenerator(model, "likelihood", 30, 1.5, seed).draw_data(0)
        total, xbar = float(np.sum(data)), float(np.mean(data))
        formula = ((lambda th: n * np.log(th) - th * total) if model == "exponential-rate"
                   else lambda th: -n * np.square(th - xbar) / (2.0 * 1.0 ** 2))
        dense = np.linspace(window[0], window[1], 20001)
        assert np.asarray(loglik(dense, None)).tobytes() == np.array(
            [formula(th) for th in dense.tolist()]).tobytes()

        def one_at_a_time(cast):
            def call(theta, eta):
                if np.ndim(theta):
                    raise TypeError("one theta per call")
                return loglik(cast(theta), eta)
            return call

        for cast in (float, np.float64):
            alone = profile_curve(one_at_a_time(cast), window, grid_size, n=n)
            assert curve.grid.tobytes() == alone.grid.tobytes()
            assert curve.ell_star.tobytes() == alone.ell_star.tobytes()
            assert (curve.theta_hat, curve.i_n, curve.c_n) == (
                alone.theta_hat, alone.i_n, alone.c_n)

    @pytest.mark.parametrize("centre", [0.0, 0.3 / 128])
    def test_theta_hat_joins_the_grid_once(self, centre):
        # the knots -1 + k / 128 are exact, so a parabola at 0 refines exactly
        # onto the knot 0 and one at 0.3 / 128 between the knots 0 and 1 / 128
        loglik = lambda t, _eta: -50.0 * np.square(t - centre)
        curve = profile_curve(loglik, (-1.0, 1.0), 257, n=50)
        grid = np.linspace(-1.0, 1.0, 257)
        on_knot = bool(np.any(grid == curve.theta_hat))
        assert on_knot == (centre == 0.0) and curve.theta_hat == pytest.approx(centre)
        assert np.all(np.diff(curve.grid) > 0.0)
        assert curve.ell_star[curve.grid == curve.theta_hat].tolist() == [0.0]
        # the same bytes as the two-branch rule: zero theta_hat's knot, or
        # insert theta_hat into the grid and 0 into ell_star
        ell, ell_hat = loglik(grid, None), float(loglik(curve.theta_hat, None))
        if on_knot:
            want_grid, want_ell = grid, ell - ell_hat
            want_ell[grid == curve.theta_hat] = 0.0
        else:
            pos = int(np.searchsorted(grid, curve.theta_hat))
            want_grid = np.insert(grid, pos, curve.theta_hat)
            want_ell = np.insert(ell - ell_hat, pos, 0.0)
        assert curve.grid.tobytes() == want_grid.tobytes()
        assert curve.ell_star.tobytes() == np.minimum(want_ell, 0.0).tobytes()

    def test_peak_on_edge_raises(self):
        with pytest.raises(WindowTooNarrowError):
            profile_curve(_normal_loglik(5.0, 1.0, 20), (0.0, 1.0), 64, n=20)

    def test_small_grid_rejected(self):
        with pytest.raises(ParameterDomainError):
            profile_curve(_normal_loglik(0.0, 1.0, 20), (-1.0, 1.0), 63, n=20)

    def test_failing_evaluator_carries_theta(self):
        def bad(theta, _eta):
            if theta > 0.5:
                raise ValueError("no")
            return -theta ** 2

        with pytest.raises(OptimizationFailureError) as info:
            profile_curve(bad, (-1.0, 1.0), 64, n=10)
        assert info.value.theta is not None and info.value.theta > 0.5

    def test_curve_invariants_enforced(self):
        grid = np.linspace(-1.0, 1.0, 65)
        with pytest.raises(ParameterDomainError):
            ProfileCurve(grid=grid, ell_star=np.full(65, -1.0), theta_hat=0.0, i_n=1.0, n=10)

    @pytest.mark.parametrize("grid, ell_star, theta_hat", [
        ([-1.0, 0.0, np.inf], [-0.5, 0.0, -3.125], 0.0),              # a knot is not finite
        ([-1.0, 0.0, 0.0, 2.5], [-0.5, 0.0, -0.1, -3.125], 0.0),      # the grid does not rise
        ([], [], 0.0),                                                # no knot at all
        ([-1.0, 0.0, 2.5], [np.nan, 0.0, -3.125], 0.0),               # NaN off the peak
        ([-1.0, 0.0, 2.5], [-0.5, np.nan, -3.125], 0.0),              # NaN at theta_hat
        ([-1.0, 0.0, 2.5], [-0.5, 0.0, -3.125], 0.5),                 # peak off theta_hat
    ])
    def test_hand_built_curve_rejected(self, grid, ell_star, theta_hat):
        # the curve's checks are the only ones its normalized CD runs
        with pytest.raises(ParameterDomainError):
            ProfileCurve(grid=np.array(grid), ell_star=np.array(ell_star),
                         theta_hat=theta_hat, i_n=1.0, n=10)

    def test_dump_csv(self, tmp_path):
        curve = profile_curve(_normal_loglik(0.0, 1.0, 30), (-2.0, 2.0), 64, n=30)
        path = tmp_path / "curve.csv"
        dump_profile(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "ell_star"]
        assert len(rows) == curve.grid.size + 1


class TestNormalizeToAcd:
    def test_matches_gaussian_integral(self):
        xbar, sigma, n = 0.4, 2.0, 25
        sd = sigma / math.sqrt(n)
        curve = profile_curve(_normal_loglik(xbar, sigma, n),
                              (xbar - 10.0 * sd, xbar + 10.0 * sd), 512, n=n)
        cd = normalize_to_acd(curve)
        exact = ndtr((curve.grid - xbar) / sd)
        got = cd_eval(cd, curve.grid)
        assert np.max(np.abs(got - exact)) < 1e-4
        assert cd.values[-1] >= 1.0 - 1e-9

    def test_narrow_window_rejected(self):
        xbar, sigma, n = 0.0, 1.0, 25
        sd = sigma / math.sqrt(n)
        curve = profile_curve(_normal_loglik(xbar, sigma, n),
                              (xbar - 2.0 * sd, xbar + 2.0 * sd), 64, n=n)
        with pytest.raises(WindowTooNarrowError):
            normalize_to_acd(curve)

    def test_quantile_spread_scales_like_root_n(self):
        spreads = {}
        for n in (100, 1000, 10000):
            sd = 1.0 / math.sqrt(n)
            curve = profile_curve(_normal_loglik(0.3, 1.0, n),
                                  (0.3 - 10.0 * sd, 0.3 + 10.0 * sd), 512, n=n)
            cd = normalize_to_acd(curve)
            spreads[n] = cd_quantile(cd, 0.95) - cd_quantile(cd, 0.05)
        root10 = math.sqrt(10.0)
        assert spreads[100] / spreads[1000] == pytest.approx(root10, rel=0.10)
        assert spreads[1000] / spreads[10000] == pytest.approx(root10, rel=0.10)

    @pytest.mark.parametrize("shift", [-4.0, 0.0, 4.0])
    @pytest.mark.parametrize("grid_size", [64, 256, 257, 512])
    @pytest.mark.parametrize("model", ["normal-mean-known-sigma", "exponential-rate"])
    def test_bytes_of_the_checked_grid_cd(self, model, grid_size, shift):
        # the curve's own c_n and steps give the bytes of the checked path:
        # the trapezoid sum, then grid_cd on the clipped running integral.
        # The log-likelihoods are the lab's; the windows sit shift sd off the estimate
        n = 100 if model == "exponential-rate" else 30
        data = CdGenerator(model, "likelihood", n, 1.3, 17, {"sigma": 1.3}).draw_data(0)
        if model == "exponential-rate":
            total = float(np.sum(data))
            est = n / total
            loglik = lambda th, _eta: n * np.log(th) - th * total
            sd = est / math.sqrt(n)
        else:
            est, sd = float(np.mean(data)), 1.3 / math.sqrt(n)
            loglik = lambda th, _eta: -n * np.square(th - est) / (2.0 * 1.3 ** 2)
        window = (est + (shift - 16.0) * sd, est + (shift + 16.0) * sd)
        if model == "exponential-rate":
            window = (max(window[0], 0.01 * est), window[1])
        curve = profile_curve(loglik, window, grid_size, n=n)
        dens = np.exp(curve.ell_star)
        steps = 0.5 * (dens[:-1] + dens[1:]) * np.diff(curve.grid)
        c_n = float(np.sum(steps))
        want = grid_cd(curve.grid, np.clip(np.concatenate([[0.0], np.cumsum(steps)]) / c_n,
                                           0.0, 1.0))
        got = normalize_to_acd(curve)
        assert curve.c_n == c_n and got.meta["c_n"] == c_n
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.support == want.support

    def test_normalizer_matches_laplace_approximation(self):
        n, m = 400, 1.25
        curve = profile_curve(_exponential_loglik(n * m, n),
                              (0.8 / m * 0.5, 1.6 / m), 512, n=n)
        assert curve.c_n == pytest.approx(math.sqrt(2.0 * math.pi * curve.i_n / n),
                                          rel=0.05)


class TestWaldAcd:
    def test_center_and_spread(self):
        cd = wald_acd(2.0, 4.0, 100)
        sd = math.sqrt(4.0 / 100)
        assert cd_eval(cd, 2.0) == pytest.approx(0.5, abs=1e-12)
        assert cd_eval(cd, 2.0 + 1.96 * sd) == pytest.approx(0.9750021048517795, abs=1e-6)
        assert cd_quantile(cd, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_truncation_left_edge(self):
        cd = wald_acd(2.0, 4.0, 100, window=(2.0, math.inf))
        assert cd_eval(cd, 2.0) == 0.0
        # all mass now sits above theta_hat
        assert cd_quantile(cd, 0.5) > 2.0
        # 0.5 + s * 0.5 rounds to 1 here: the normal quantile has no guess to give
        s = 1.0 - 2.0 ** -53
        assert 2.0 < cd_quantile(cd, s) < math.inf and cd_eval(cd, cd_quantile(cd, s)) >= s

    def test_truncated_quantile_round_trip(self):
        cd = wald_acd(0.0, 1.0, 50, window=(-0.1, 0.4))
        for s in (0.1, 0.5, 0.9):
            assert cd_eval(cd, cd_quantile(cd, s)) == pytest.approx(s, abs=1e-12)

    def test_untruncated_is_the_normal_family_cd(self):
        # a family CD reads the normal's log tail: exact 40 sd out, where H underflows
        cd = wald_acd(2.0, 4.0, 100)
        assert cd.family is not None and cd.meta["source"] == "wald"
        assert cd_log_lower(cd, 2.0 - 40.0 * 0.2) == pytest.approx(-804.6084420137538, rel=1e-12)
        assert cd_log_upper(cd, 2.0 + 40.0 * 0.2) == cd_log_lower(cd, 2.0 - 40.0 * 0.2)

    def test_truncated_density_is_the_slope_of_its_cdf(self):
        cd = wald_acd(0.0, 1.0, 50, window=(-0.1, 0.4))
        x, h = np.linspace(-0.09, 0.39, 25), 1e-6
        slope = (cd_eval(cd, x + h) - cd_eval(cd, x - h)) / (2.0 * h)
        assert np.all(np.abs(cd_density(cd, x) - slope) <= 1e-8 * slope)
        assert cd_density(cd, 0.5) == 0.0

    def test_window_must_contain_estimate(self):
        with pytest.raises(ParameterDomainError):
            wald_acd(2.0, 4.0, 100, window=(3.0, 5.0))


class TestAutoWiden:
    def test_recovers_from_narrow_start(self):
        xbar, sigma, n = 0.4, 2.0, 25
        sd = sigma / math.sqrt(n)
        cd = likelihood_acd(_normal_loglik(xbar, sigma, n),
                            (xbar - 1.5 * sd, xbar + 1.5 * sd), 256, n=n)
        assert cd_quantile(cd, 0.5) == pytest.approx(xbar, abs=1e-6)

    def test_recovers_from_miscentered_start(self):
        # peak far outside the initial window: first pass hits the edge
        cd = likelihood_acd(_normal_loglik(6.0, 1.0, 40), (0.0, 1.0), 128, n=40,
                            support=(-math.inf, math.inf))
        # the recovered window is wide, so grid resolution bounds the accuracy
        assert cd_quantile(cd, 0.5) == pytest.approx(6.0, abs=1e-3)

    @staticmethod
    def _windows(monkeypatch):
        """Record each window likelihood_acd profiles, and each curve it gets."""
        windows, curves = [], []

        def spy(loglik, window, *args, **kwargs):
            windows.append(tuple(window))
            curves.append(profile_curve(loglik, window, *args, **kwargs))
            return curves[-1]

        monkeypatch.setattr(likelihood, "profile_curve", spy)
        return windows, curves

    def test_windows_tried_on_both_paths(self, monkeypatch):
        # the peak at 1.5 sits on the edge of (0, 1): the window recentres
        # there with the old width as half-width; the mass of (0, 2) has not
        # decayed at 2, so the third window is theta_hat +- 10 sqrt(i_n / n),
        # doubled once as it is the second attempt's
        windows, curves = self._windows(monkeypatch)
        likelihood_acd(_normal_loglik(1.5, 1.0, 40), (0.0, 1.0), 128, n=40)
        second = curves[0]  # the edge peak on (0, 1) gave no curve
        half = 10.0 * math.sqrt(second.i_n / 40) * 2.0
        assert windows == [(0.0, 1.0), (0.0, 2.0),
                           (second.theta_hat - half, second.theta_hat + half)]

    def test_reraises_after_the_fourth_window(self, monkeypatch):
        # the edge path: a peak at 6 beyond a support that ends at 3
        windows, _ = self._windows(monkeypatch)
        with pytest.raises(WindowTooNarrowError, match="window edge at 3"):
            likelihood_acd(_normal_loglik(6.0, 1.0, 40), (0.0, 1.0), 128, n=40,
                           support=(-math.inf, 3.0))
        assert windows == [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 3.0)]
        # the decay path: heavy tails that 10, 20 and 40 sqrt(i_n / n) do not reach
        windows, curves = self._windows(monkeypatch)
        with pytest.raises(WindowTooNarrowError, match="not decayed"):
            likelihood_acd(lambda t, _eta: -2.0 * np.log1p(np.square(t)), (-1.0, 1.5), 128, n=2)
        halves = [10.0 * math.sqrt(c.i_n / 2) * 2.0 ** k for k, c in enumerate(curves[:3])]
        assert windows == [(-1.0, 1.5)] + [(c.theta_hat - h, c.theta_hat + h)
                                           for c, h in zip(curves, halves)]

    def test_support_clamp_keeps_rate_positive(self):
        n, m = 50, 0.8
        cd = likelihood_acd(_exponential_loglik(n * m, n), (0.5 / m, 2.0 / m),
                            256, n=n, support=(1e-9, math.inf))
        assert cd.support[0] >= 0.0
        assert cd_quantile(cd, 0.5) == pytest.approx(1.0 / m, rel=0.05)


class TestAsymptoticAgreement:
    def test_profile_cd_approaches_wald_cd(self):
        # mean sup-distance between the two CDs shrinks with n
        rng = np.random.default_rng(404)
        sups = {}
        for n in (25, 100, 400):
            total = 0.0
            for _ in range(200):
                x = rng.exponential(1.0, size=n)
                theta0 = 1.0 / x.mean()
                window = (max(theta0 * (1.0 - 14.0 / math.sqrt(n)), theta0 * 0.02),
                          theta0 * (1.0 + 14.0 / math.sqrt(n)))
                curve = profile_curve(_exponential_loglik(x.sum(), n), window, 256, n=n)
                cd = normalize_to_acd(curve)
                wald = wald_acd(curve.theta_hat, curve.i_n, n, window)
                diff = cd_eval(cd, curve.grid) - cd_eval(wald, curve.grid)
                total += float(np.max(np.abs(diff)))
            sups[n] = total / 200.0
        assert sups[25] > sups[100] > sups[400]
        assert sups[400] < 0.03

    def test_u_values_are_uniform(self):
        # the u-value law is off uniform by ~1/sqrt(2 pi n) at finite n, which
        # sits near the KS critical value here, so the margin is seed-dependent
        rng = np.random.default_rng(21)
        n, theta0, reps = 200, 1.0, 2000
        u = np.empty(reps)
        for i in range(reps):
            x = rng.exponential(1.0 / theta0, size=n)
            est = 1.0 / x.mean()
            window = (max(est * 0.01, est * (1.0 - 14.0 / math.sqrt(n))),
                      est * (1.0 + 14.0 / math.sqrt(n)))
            curve = profile_curve(_exponential_loglik(x.sum(), n), window, 128, n=n)
            u[i] = cd_eval(normalize_to_acd(curve), theta0)
        assert kstest(u, "uniform").pvalue > 0.001
