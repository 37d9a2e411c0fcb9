"""Profile likelihoods normalized into asymptotic CDs.

A log-likelihood is profiled over one optional nuisance dimension on a grid,
the peak is refined by a local quadratic fit, and the curvature there gives
the unit information i_n with 1/i_n = -(1/n) * d2/dtheta2 at the peak.  The
normalized curve exp(ell_star)/c_n integrates to one over the window and its
running integral is a proper CD; the companion Wald CD is the matching
normal, truncated to a window when one is given.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import probkernel as pk
from .cd_core import ConfidenceDistribution, _grid_cd, analytic_cd, location_scale_cd, write_table
from .errors import (
    OptimizationFailureError,
    ParameterDomainError,
    WindowTooNarrowError,
)

__all__ = [
    "ProfileCurve",
    "scalar_maximizer",
    "profile_curve",
    "normalize_to_acd",
    "wald_acd",
    "likelihood_acd",
    "dump_profile",
]

# exp(ell_star) must fall below 1e-12 at the window edges
_EDGE_LOG = math.log(1e-12)
_MIN_GRID = 64


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Profiled log-likelihood on a window, shifted so the peak is zero."""

    grid: np.ndarray
    ell_star: np.ndarray
    theta_hat: float
    i_n: float
    n: int
    c_n: float = field(init=False)  # the sum of the trapezoid steps of exp(ell_star)
    _steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = np.diff(self.grid)  # positive and finite only on a finite, rising grid
        if not (self.grid.ndim == 1 and self.ell_star.shape == self.grid.shape
                and h.size > 0 and np.all((h > 0.0) & (h < math.inf))):
            raise ParameterDomainError("profile grid must be finite and strictly increasing")
        peak = int(np.argmax(self.ell_star))
        if abs(self.ell_star[peak]) > 1e-9 or abs(self.grid[peak] - self.theta_hat) > 1e-9:
            raise ParameterDomainError("ell_star must peak at zero at theta_hat")
        if not (self.i_n > 0.0 and math.isfinite(self.i_n)):
            raise ParameterDomainError("unit information must be positive and finite")
        dens = np.exp(self.ell_star)
        steps = 0.5 * (dens[:-1] + dens[1:]) * h
        c_n = float(np.sum(steps))
        if not (c_n > 0.0 and math.isfinite(c_n)):
            raise ParameterDomainError("normalizer must be positive and finite")
        object.__setattr__(self, "c_n", c_n)
        object.__setattr__(self, "_steps", steps)
        for arr in (self.grid, self.ell_star, steps):
            arr.setflags(write=False)


def scalar_maximizer(lo: float, hi: float):
    """Bounded derivative-free maximizer factory for the nuisance dimension."""
    if not lo < hi:
        raise ParameterDomainError("maximizer bounds must satisfy lo < hi")
    return lambda f: pk.maximize(f, lo, hi)[0]


def profile_curve(loglik, theta_window, grid_size: int = 256,
                  nuisance_optimizer=None, *, n: int) -> ProfileCurve:
    """Profile loglik(theta, eta) over eta on a theta grid.

    The evaluator is called as loglik(theta, eta_hat(theta)), with eta_hat
    found by the supplied bounded maximizer, on Python floats.  With none, eta
    is None and theta is the whole grid, then the stencil, as one ndarray, or
    each Python float where that raises a TypeError, ValueError or (with a
    numpy warning) ArithmeticError, or gives another shape.  The peak must be
    interior to the window; it is refined by a quadratic fit through the best
    three grid points and the curvature comes from a central second
    difference with the grid spacing as step.
    """
    lo, hi = float(theta_window[0]), float(theta_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterDomainError("theta window must be a finite interval")
    if grid_size < _MIN_GRID:
        raise ParameterDomainError(f"grid_size must be at least {_MIN_GRID}")
    if n < 1:
        raise ParameterDomainError("n must be a positive sample size")

    def one(theta):
        try:
            eta = (None if nuisance_optimizer is None
                   else nuisance_optimizer(lambda e: float(loglik(theta, e))))
            return float(loglik(theta, eta))
        except OptimizationFailureError as exc:
            raise OptimizationFailureError(str(exc), theta=theta) from exc
        except (ValueError, ArithmeticError) as exc:
            raise OptimizationFailureError(f"log-likelihood failed: {exc}", theta=theta) from exc

    def profiled(thetas):
        if nuisance_optimizer is None:
            with suppress(TypeError, ValueError, ArithmeticError), \
                    np.errstate(all="raise", under="ignore"):
                ell = np.asarray(loglik(thetas, None), dtype=float)
                if ell.shape == thetas.shape:
                    return ell
        return np.array([one(th) for th in thetas.tolist()])

    grid = np.linspace(lo, hi, grid_size)
    ell = profiled(grid)
    if not np.all(np.isfinite(ell)):
        bad = float(grid[int(np.argmax(~np.isfinite(ell)))])
        raise ParameterDomainError(f"log-likelihood is not finite at theta = {bad}")

    k = int(np.argmax(ell))
    if k == 0 or k == grid_size - 1:
        raise WindowTooNarrowError(f"profile peak sits on the window edge at {grid[k]}",
                                   edge_theta=float(grid[k]))
    h = grid[1] - grid[0]
    denom = ell[k - 1] - 2.0 * ell[k] + ell[k + 1]
    theta_hat = float(grid[k])
    ell_hat = float(ell[k])
    if denom < 0.0:
        refined = float(grid[k] + 0.5 * h * (ell[k - 1] - ell[k + 1]) / denom)
        value = one(refined)
        if value >= ell_hat:
            theta_hat, ell_hat = refined, value

    # curvature stencil clamped inside the window
    center = min(max(theta_hat, lo + h), hi - h)
    stencil = profiled(np.array([center - h, center, center + h]))
    d2 = (stencil[0] - 2.0 * stencil[1] + stencil[2]) / (h * h)
    if not (d2 < 0.0 and math.isfinite(d2)):
        raise OptimizationFailureError(
            f"profile curvature at the peak is not negative ({d2})", theta=theta_hat)
    i_n = -n / d2

    # theta_hat, at 0, takes the place of a knot it falls on, or goes between two
    a, b = (int(np.searchsorted(grid, theta_hat, side)) for side in ("left", "right"))
    grid = np.concatenate([grid[:a], [theta_hat], grid[b:]])
    ell_star = np.minimum(np.concatenate([ell[:a] - ell_hat, [0.0], ell[b:] - ell_hat]), 0.0)
    return ProfileCurve(grid=grid, ell_star=ell_star, theta_hat=theta_hat, i_n=i_n, n=n)


def normalize_to_acd(curve: ProfileCurve) -> ConfidenceDistribution:
    """Grid CD with values cumulative-trapezoid(exp(ell_star)) / c_n."""
    if curve.ell_star[0] > _EDGE_LOG or curve.ell_star[-1] > _EDGE_LOG:
        raise WindowTooNarrowError(
            "profile mass has not decayed below 1e-12 at the window edges; widen the window")
    values = np.concatenate([[0.0], np.cumsum(curve._steps)]) / curve.c_n
    meta = {"theta_hat": curve.theta_hat, "i_n": curve.i_n, "c_n": curve.c_n,
            "n": curve.n, "source": "profile"}
    return _grid_cd(curve.grid, values, meta)


def wald_acd(theta_hat: float, i_n: float, n: int, window=None) -> ConfidenceDistribution:
    """Normal(theta_hat, i_n / n): the location-scale family CD, or with a
    window, that normal restricted and renormalized to the window."""
    if not (i_n > 0.0 and math.isfinite(i_n) and n >= 1):
        raise ParameterDomainError("need positive unit information and n >= 1")
    sd = math.sqrt(i_n / n)
    meta = {"theta_hat": theta_hat, "i_n": i_n, "n": n, "source": "wald"}
    if window is None:
        return location_scale_cd(pk.Normal(), theta_hat, sd, meta=meta)
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi and lo <= theta_hat <= hi):
        raise ParameterDomainError("window must be nonempty and contain theta_hat")
    std = pk.Normal()
    to_std = lambda x: (np.asarray(x, float) - theta_hat) / sd
    p_lo = pk.cdf(std, to_std(lo))
    mass = pk.cdf(std, to_std(hi)) - p_lo
    if mass <= 0.0:
        raise ParameterDomainError("window carries no normal mass")

    def cdf(x):
        return np.clip((pk.cdf(std, to_std(x)) - p_lo) / mass, 0.0, 1.0)

    def quantile(s):
        # cd_quantile refines this guess; a probability rounded onto 0 or 1 has none
        p = np.clip(p_lo + np.asarray(s, float) * mass, 5e-324, 1.0 - 2.0 ** -53)
        return theta_hat + sd * pk.quantile(std, p)

    def density(x):
        return pk.density(std, to_std(x)) / (sd * mass)

    return analytic_cd(cdf, (lo, hi), quantile=quantile, density=density, meta=meta)


def likelihood_acd(loglik, theta_window, grid_size: int = 256,
                   nuisance_optimizer=None, *, n: int,
                   support=(-math.inf, math.inf)) -> ConfidenceDistribution:
    """Profile, then normalize, auto-widening the window up to three times.

    A peak on the window edge recentres the window there, half-width its old
    width; too little edge decay recentres it at the peak, half-width 10 *
    sqrt(i_n / n) doubled per attempt.  Windows are clamped to the support.
    """
    window = (float(theta_window[0]), float(theta_window[1]))
    for attempt in range(4):
        try:
            curve = profile_curve(loglik, window, grid_size, nuisance_optimizer, n=n)
            return normalize_to_acd(curve)
        except WindowTooNarrowError as exc:
            if attempt == 3:
                raise
            centre, half = ((exc.edge_theta, window[1] - window[0]) if exc.edge_theta is not None
                            else (curve.theta_hat, 10.0 * math.sqrt(curve.i_n / n) * 2.0 ** attempt))
            window = (max(centre - half, support[0]), min(centre + half, support[1]))


def dump_profile(curve: ProfileCurve, path) -> None:
    """Write the curve as CSV: theta, ell_star."""
    write_table(path, ["theta", "ell_star"], [curve.grid, curve.ell_star])
