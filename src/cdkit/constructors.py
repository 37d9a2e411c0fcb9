"""CD constructors from pivots.

The general recipe: if psi(data, theta) has a known law G free of theta and
is monotone in theta, substituting theta -> x gives the CD
H(x) = G(psi(data, x)) when psi increases in theta, and 1 - G(psi(data, x))
when it decreases.  The named constructors below are closed-form instances
with exact quantiles, densities, and log-space tails attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import special as _sp

from . import probkernel as pk
from .cd_core import (
    ConfidenceDistribution,
    _base_mapped_cd,
    analytic_cd,
    cd_quantile,
    location_scale_cd,
)
from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    MonotonicityError,
    ParameterDomainError,
    RootBracketError,
)

__all__ = [
    "DataSample",
    "PairedSample",
    "PivotSpec",
    "from_pivot",
    "normal_mean_cd",
    "normal_variance_cd",
    "fisher_z_corr_cd",
    "exponential_rate_cd",
    "hall_pivot",
    "hall_pivot_inverse",
]


@dataclass(frozen=True, eq=False)
class DataSample:
    """A univariate sample with the moment summaries the constructors need.

    ``sd`` uses divisor n-1; the third central moment uses divisor n, so the
    skewness estimate is m3 / sd^3.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size < 2:
            raise InsufficientDataError("DataSample needs at least 2 observations")
        if not np.all(np.isfinite(vals)):
            raise ParameterDomainError("DataSample values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    # values are read-only, so the moments are computed once
    @cached_property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @cached_property
    def sd(self) -> float:
        return float(np.std(self.values, ddof=1))

    @cached_property
    def skewness(self) -> float:
        s = self.sd
        if s <= 0.0:
            raise DegenerateSampleError("skewness undefined for a constant sample")
        m3 = float(np.mean((self.values - self.mean) ** 3))
        return m3 / s ** 3


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Bivariate observations; rows are (x, y) pairs."""

    pairs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ParameterDomainError("PairedSample needs an (n, 2) array")
        if arr.shape[0] < 4:
            raise InsufficientDataError("PairedSample needs at least 4 pairs")
        if not np.all(np.isfinite(arr)):
            raise ParameterDomainError("PairedSample values must be finite")
        if np.std(arr[:, 0]) == 0.0 or np.std(arr[:, 1]) == 0.0:
            raise DegenerateSampleError("both marginals must vary")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pairs", arr)

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    @property
    def correlation(self) -> float:
        return float(np.corrcoef(self.pairs[:, 0], self.pairs[:, 1])[0, 1])


@dataclass(frozen=True)
class PivotSpec:
    """psi(data, theta) with known law and declared direction in theta."""

    psi: Callable
    law: pk.DistKind
    direction: str

    def __post_init__(self):
        if self.direction not in ("increasing", "decreasing"):
            raise ParameterDomainError("direction must be 'increasing' or 'decreasing'")


def from_pivot(spec: PivotSpec, data, support=(-math.inf, math.inf)) -> ConfidenceDistribution:
    """CD by pivot substitution; the declared direction is spot-checked.

    The quantile falls back to bracketed root finding on psi, so closed-form
    pivots stay cheap while arbitrary callables remain supported.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ParameterDomainError("support must satisfy lo < hi")
    increasing = spec.direction == "increasing"

    def psi_arr(x):
        xa = np.asarray(x, dtype=float)
        if xa.ndim == 0:
            return float(spec.psi(data, float(xa)))
        return np.array([float(spec.psi(data, v)) for v in xa])

    def cdf_fn(x):
        g = pk.cdf(spec.law, psi_arr(x))
        return g if increasing else 1.0 - np.asarray(g, dtype=float)

    def quantile_fn(s):
        sa = np.asarray(s, dtype=float)
        target = pk.quantile(spec.law, sa if increasing else 1.0 - sa)
        flat = np.atleast_1d(target)
        roots = np.array([pk.bracket_root(lambda t, q=q: float(spec.psi(data, t)) - q, lo, hi)
                          for q in flat])
        return roots.reshape(sa.shape) if sa.ndim else float(roots[0])

    def log_cdf_fn(x):
        side = "lower" if increasing else "upper"
        return pk.log_tail(spec.law, float(spec.psi(data, float(x))), side)

    def log_sf_fn(x):
        side = "upper" if increasing else "lower"
        return pk.log_tail(spec.law, float(spec.psi(data, float(x))), side)

    cd = analytic_cd(cdf_fn, (lo, hi), quantile_fn=quantile_fn,
                     log_cdf_fn=log_cdf_fn, log_sf_fn=log_sf_fn)
    _direction_spot_check(psi_arr, cd, spec.direction)
    return cd


def _direction_spot_check(psi_arr, cd, direction):
    try:
        grid = cd_quantile(cd, np.linspace(0.001, 0.999, 101))
    except RootBracketError as exc:
        # a monotone pivot matching its declared law always brackets
        raise MonotonicityError(
            f"pivot could not be inverted across the law's central range; "
            f"it is likely not {direction} in theta ({exc})"
        ) from exc
    with np.errstate(all="ignore"):
        vals = psi_arr(grid)
    if not np.all(np.isfinite(vals)):
        raise MonotonicityError("pivot is not finite across the central quantile range")
    diffs = np.diff(vals)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    ok = (np.all(diffs >= -1e-12 * scale) if direction == "increasing"
          else np.all(diffs <= 1e-12 * scale))
    if not ok:
        raise MonotonicityError(f"pivot violates the declared {direction} direction")


# ---------------------------------------------------------------------------
# named constructors

def _normal_pdf(z):
    return np.exp(-0.5 * np.asarray(z, float) ** 2) / math.sqrt(2.0 * math.pi)


def _t_pdf(df, z):
    z = np.asarray(z, float)
    c = _sp.gammaln((df + 1.0) / 2.0) - _sp.gammaln(df / 2.0) - 0.5 * math.log(df * math.pi)
    return np.exp(c - 0.5 * (df + 1.0) * np.log1p(z * z / df))


def _chi2_pdf(df, x):
    x = np.asarray(x, float)
    a = df / 2.0
    with np.errstate(all="ignore"):
        out = np.exp((a - 1.0) * np.log(x) - x / 2.0 - a * math.log(2.0) - _sp.gammaln(a))
    return np.where(x > 0.0, out, 0.0)


def normal_mean_cd(data: DataSample, sigma: float | None = None) -> ConfidenceDistribution:
    """CD for a normal mean: exact normal pivot when sigma is known, exact
    t pivot on n-1 degrees of freedom when it is not."""
    if sigma is not None:
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ParameterDomainError("sigma must be a positive real (or None for unknown)")
        scale = sigma / math.sqrt(data.n)
        return location_scale_cd(
            pk.Normal(), data.mean, scale,
            density_fn=lambda x: _normal_pdf((np.asarray(x, float) - data.mean) / scale) / scale,
        )
    if data.sd <= 0.0:
        raise DegenerateSampleError("constant sample: the t pivot needs a positive sd")
    df = data.n - 1
    scale = data.sd / math.sqrt(data.n)
    return location_scale_cd(
        pk.StudentT(df), data.mean, scale,
        density_fn=lambda x: _t_pdf(df, (np.asarray(x, float) - data.mean) / scale) / scale,
    )


def normal_variance_cd(data: DataSample) -> ConfidenceDistribution:
    """CD for a normal variance: H(x) = P(chi2_{n-1} >= (n-1) s_n^2 / x)."""
    if data.sd <= 0.0:
        raise DegenerateSampleError("constant sample: the variance pivot degenerates")
    df = float(data.n - 1)
    c = df * data.sd ** 2
    chi2 = pk.ChiSquare(df)

    def cdf_fn(x):
        xa = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = _sp.chdtrc(df, c / np.maximum(xa, 1e-300))
        return np.where(xa > 0.0, out, 0.0)

    return analytic_cd(
        cdf_fn,
        (0.0, math.inf),
        quantile_fn=lambda s: c / _sp.chdtri(df, np.asarray(s, dtype=float)),
        density_fn=lambda x: _chi2_pdf(df, c / np.maximum(np.asarray(x, float), 1e-300))
        * c / np.maximum(np.asarray(x, float), 1e-300) ** 2,
        log_cdf_fn=lambda x: pk.log_tail(chi2, c / max(float(x), 1e-300), "upper"),
        log_sf_fn=lambda x: pk.log_tail(chi2, c / max(float(x), 1e-300), "lower"),
        meta={"df": df, "scale_ssq": c},
    )


def fisher_z_corr_cd(pairs: PairedSample) -> ConfidenceDistribution:
    """CD for a bivariate-normal correlation via the variance-stabilizing
    z transform: H(x) = Phi(sqrt(n-3) (atanh x - atanh r))."""
    r = pairs.correlation
    if abs(r) >= 1.0:
        raise DegenerateSampleError("|r| = 1: the z pivot degenerates")
    if pairs.n < 4:
        raise InsufficientDataError("need n >= 4 for the z pivot")
    k = math.sqrt(pairs.n - 3.0)
    zr = math.atanh(r)

    def z(x):
        return np.arctanh(np.clip(np.asarray(x, dtype=float), -1.0, 1.0))

    return analytic_cd(
        lambda x: _sp.ndtr(k * (z(x) - zr)),
        (-1.0, 1.0),
        quantile_fn=lambda s: np.tanh(zr + _sp.ndtri(np.asarray(s, dtype=float)) / k),
        density_fn=lambda x: _normal_pdf(k * (z(x) - zr)) * k
        / np.maximum(1.0 - np.asarray(x, float) ** 2, 1e-300),
        log_cdf_fn=lambda x: float(_sp.log_ndtr(k * (math.atanh(float(x)) - zr))),
        log_sf_fn=lambda x: float(_sp.log_ndtr(-k * (math.atanh(float(x)) - zr))),
        meta={"r": r, "n": pairs.n},
    )


def exponential_rate_cd(data: DataSample) -> ConfidenceDistribution:
    """CD for an exponential rate via the exact pivot 2 theta sum(x) ~ chi2_{2n}."""
    if np.any(data.values <= 0.0):
        raise ParameterDomainError("exponential observations must be positive")
    total = float(np.sum(data.values))
    df = 2.0 * data.n
    chi2 = pk.ChiSquare(df)
    return _base_mapped_cd(
        chi2,
        lambda q: q / (2.0 * total),
        lambda x: pk.cdf(chi2, 2.0 * total * np.maximum(np.asarray(x, float), 0.0)),
        (0.0, math.inf),
        density_fn=lambda x: _chi2_pdf(df, 2.0 * total * np.asarray(x, float)) * 2.0 * total,
        log_cdf_fn=lambda x: pk.log_tail(chi2, 2.0 * total * float(x), "lower"),
        log_sf_fn=lambda x: pk.log_tail(chi2, 2.0 * total * float(x), "upper"),
        meta={"sum": total, "n": data.n},
    )


# ---------------------------------------------------------------------------
# third-order pivot with skew correction

def hall_pivot(data: DataSample, mu) -> float | np.ndarray:
    """Skew-corrected studentized mean pivot, third-order normal:

        psi = t + lam/(6 sqrt(n)) (2 t^2 + 1) + lam^2/(27 n) t^3,
        t = sqrt(n) (xbar - mu) / s_n.

    Decreasing in mu, asymptotically N(0, 1).
    """
    if data.sd <= 0.0:
        raise DegenerateSampleError("constant sample: the studentized pivot degenerates")
    n = data.n
    lam = data.skewness
    mu_arr = np.asarray(mu, dtype=float)
    t = math.sqrt(n) * (data.mean - mu_arr) / data.sd
    out = t + lam / (6.0 * math.sqrt(n)) * (2.0 * t * t + 1.0) + lam * lam / (27.0 * n) * t ** 3
    return float(out) if mu_arr.ndim == 0 else out


def hall_pivot_inverse(data: DataSample, value) -> float | np.ndarray:
    """The mu solving hall_pivot(data, mu) = value, in closed form.

    With a = lam/(6 sqrt(n)) the pivot is ((1 + 2 a t)^3 - 1)/(6 a) + a, a
    strictly increasing cubic in t, so the inverse is a cube root.
    """
    if data.sd <= 0.0:
        raise DegenerateSampleError("constant sample: the studentized pivot degenerates")
    n = data.n
    a = data.skewness / (6.0 * math.sqrt(n))
    v = np.asarray(value, dtype=float)
    if a == 0.0:
        t = v
    else:
        t = (np.cbrt(1.0 + 6.0 * a * (v - a)) - 1.0) / (2.0 * a)
    mu = data.mean - data.sd * t / math.sqrt(n)
    return float(mu) if v.ndim == 0 else mu
