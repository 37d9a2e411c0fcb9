"""CD constructors from pivots.

The general recipe: if psi(data, theta) has a known law G free of theta and
is monotone in theta, substituting theta -> x gives the CD
H(x) = G(psi(data, x)) when psi increases in theta, and 1 - G(psi(data, x))
when it decreases.  That is an analytic CD as :mod:`cdkit.cd_core` holds
one, a pivot: the base law G, the tail of G that H reads, psi and its
inverse.  ``from_pivot`` builds it from any pivot, with no inverse, so its
quantile of s is the smallest double at which H reaches s, searched on H
itself.  The named constructors are closed-form
instances: each returns a family CD, a row of the family table that holds
psi^-1 as well, so its quantiles are maps of G's.  Either way the log-space
tails are G's own, exact far past double underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import probkernel as pk
from .cd_core import (
    ConfidenceDistribution,
    FamilySpec,
    _elementwise,
    _pivot_cd,
    _spot_check_monotone,
    _try_eval,
    family_cd,
    location_scale_cd,
)
from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    ParameterDomainError,
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
    """CD by pivot substitution: the pivot on ``spec.law`` whose map is
    psi(data, .), read on the law's upper tail when psi decreases in theta.
    With no psi^-1, Q searches H; where psi fails to evaluate, H is nan.  The
    declared direction is spot-checked on the quantiles.
    """
    psi = partial(spec.psi, data)
    side = "lower" if spec.direction == "increasing" else "upper"
    cd = _pivot_cd(spec.law, side, partial(_elementwise, partial(_try_eval, psi)), None, support)
    _spot_check_monotone(psi, cd, spec.direction, "pivot")
    return cd


# ---------------------------------------------------------------------------
# named constructors

def normal_mean_cd(data: DataSample, sigma: float | None = None) -> ConfidenceDistribution:
    """CD for a normal mean: exact normal pivot when sigma is known, exact
    t pivot on n-1 degrees of freedom when it is not."""
    if sigma is not None:
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ParameterDomainError("sigma must be a positive real (or None for unknown)")
        return location_scale_cd(pk.Normal(), data.mean, sigma / math.sqrt(data.n))
    if data.sd <= 0.0:
        raise DegenerateSampleError("constant sample: the t pivot needs a positive sd")
    return location_scale_cd(pk.StudentT(data.n - 1), data.mean, data.sd / math.sqrt(data.n))


def normal_variance_cd(data: DataSample) -> ConfidenceDistribution:
    """CD for a normal variance: H(x) = P(chi2_{n-1} >= (n-1) s_n^2 / x)."""
    if data.sd <= 0.0:
        raise DegenerateSampleError("constant sample: the variance pivot degenerates")
    df = float(data.n - 1)
    return family_cd(FamilySpec("inverse-chi2-scale", {"df": df, "scale_ssq": df * data.sd ** 2}))


def fisher_z_corr_cd(pairs: PairedSample) -> ConfidenceDistribution:
    """CD for a bivariate-normal correlation via the variance-stabilizing
    z transform: H(x) = Phi(sqrt(n-3) (atanh x - atanh r))."""
    r = pairs.correlation
    if abs(r) >= 1.0:
        raise DegenerateSampleError("|r| = 1: the z pivot degenerates")
    # PairedSample holds n >= 4 pairs
    return family_cd(FamilySpec("fisher-z", {"r": r, "n": pairs.n}))


def exponential_rate_cd(data: DataSample) -> ConfidenceDistribution:
    """CD for an exponential rate via the exact pivot 2 theta sum(x) ~ chi2_{2n}."""
    if np.any(data.values <= 0.0):
        raise ParameterDomainError("exponential observations must be positive")
    return family_cd(FamilySpec("chi2-rate", {"n": data.n, "total": float(np.sum(data.values))}))


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
    mu_arr = np.asarray(mu, dtype=float)
    out = _hall_cubic(math.sqrt(data.n) * (data.mean - mu_arr) / data.sd, data.skewness, data.n)
    return float(out) if mu_arr.ndim == 0 else out


def _hall_cubic(t, lam, n):
    """hall_pivot's cubic in the studentized mean t, for skewness lam."""
    return t + lam / (6.0 * math.sqrt(n)) * (2.0 * t * t + 1.0) + lam * lam / (27.0 * n) * t ** 3


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
