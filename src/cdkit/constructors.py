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
    "normal_mean_rows",
    "normal_variance_rows",
    "fisher_z_rows",
    "exponential_rate_rows",
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
        return float(_correlation(self.pairs))


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
#
# Each model's parameters come from one function of its data's last axis, so
# a (rows, n) block of samples (rows of pairs for the correlation) gives every
# row's parameters at once, each row's bytes as the row alone gives them.  It
# returns (family row name, parameters, mask of rows the one-row constructor
# takes); a parameter the rows share is a scalar.  The named constructors call
# it on one sample; the lab calls it on a block and binds the rows that pass
# with ``cd_core.family_block``, which applies the checks FamilySpec raises on.

def _samples(values):
    """The rows DataSample takes: at least 2 values, all finite."""
    return (values.shape[-1] >= 2) & np.all(np.isfinite(values), axis=-1)


def normal_mean_rows(values, sigma: float | None = None):
    """normal_mean_cd's location-scale parameters along values' last axis."""
    n = values.shape[-1]
    with np.errstate(all="ignore"):
        mean = np.mean(values, axis=-1)
        if sigma is not None:
            params = {"loc": mean, "scale": sigma / math.sqrt(n), "df": None}
            return "location-scale", params, _samples(values)
        sd = np.std(values, axis=-1, ddof=1)
        params = {"loc": mean, "scale": sd / math.sqrt(n), "df": float(n - 1)}
    return "location-scale", params, _samples(values) & ~(sd <= 0.0)


def normal_variance_rows(values):
    """normal_variance_cd's inverse-chi2-scale parameters along values' last axis.
    float_power is C's pow, as Python's float ** is; numpy's ** 2 is x * x and
    rounds differently."""
    df = float(values.shape[-1] - 1)
    with np.errstate(all="ignore"):
        sd = np.std(values, axis=-1, ddof=1)
        params = {"df": df, "scale_ssq": df * np.float_power(sd, 2.0)}
    return "inverse-chi2-scale", params, _samples(values) & ~(sd <= 0.0)


def _correlation(pairs):
    """np.corrcoef's r along the last two axes of pairs (..., n, 2), in its arithmetic:
    centred marginals, their Gram matrix over n - 1, then r = c01 / sd0 / sd1."""
    x = np.swapaxes(pairs, -1, -2).copy()  # (..., 2, n): each marginal contiguous
    x -= np.mean(x, axis=-1, keepdims=True)
    c = x @ np.swapaxes(x, -1, -2)
    c *= np.true_divide(1, pairs.shape[-2] - 1)
    sd = np.sqrt(np.diagonal(c, axis1=-2, axis2=-1))
    return np.clip(c[..., 0, 1] / sd[..., 0] / sd[..., 1], -1.0, 1.0)


def fisher_z_rows(pairs):
    """fisher_z_corr_cd's fisher-z parameters along the last two axes of pairs (..., n, 2)."""
    n = pairs.shape[-2]
    with np.errstate(all="ignore"):
        r = _correlation(pairs)
        # PairedSample's checks, then the pivot's
        varies = np.all(np.std(np.swapaxes(pairs, -1, -2), axis=-1) != 0.0, axis=-1)
        ok = (n >= 4) & np.all(np.isfinite(pairs), axis=(-2, -1)) & varies & ~(abs(r) >= 1.0)
    return "fisher-z", {"r": r, "n": n}, ok


def exponential_rate_rows(values):
    """exponential_rate_cd's chi2-rate parameters along values' last axis."""
    with np.errstate(all="ignore"):
        total = np.sum(values, axis=-1)
    return ("chi2-rate", {"n": values.shape[-1], "total": total},
            _samples(values) & ~np.any(values <= 0.0, axis=-1))


def _one_cd(rows, error):
    """The family CD of one sample's (name, parameters, ok), or error raised if not ok."""
    name, params, ok = rows
    if not ok:
        raise error
    return family_cd(FamilySpec(name, {k: v.item() if isinstance(v, np.generic) else v
                                       for k, v in params.items()}))


def normal_mean_cd(data: DataSample, sigma: float | None = None) -> ConfidenceDistribution:
    """CD for a normal mean: exact normal pivot when sigma is known, exact
    t pivot on n-1 degrees of freedom when it is not."""
    if sigma is not None and not (sigma > 0.0 and math.isfinite(sigma)):
        raise ParameterDomainError("sigma must be a positive real (or None for unknown)")
    return _one_cd(normal_mean_rows(data.values, sigma),
                   DegenerateSampleError("constant sample: the t pivot needs a positive sd"))


def normal_variance_cd(data: DataSample) -> ConfidenceDistribution:
    """CD for a normal variance: H(x) = P(chi2_{n-1} >= (n-1) s_n^2 / x)."""
    return _one_cd(normal_variance_rows(data.values),
                   DegenerateSampleError("constant sample: the variance pivot degenerates"))


def fisher_z_corr_cd(pairs: PairedSample) -> ConfidenceDistribution:
    """CD for a bivariate-normal correlation via the variance-stabilizing
    z transform: H(x) = Phi(sqrt(n-3) (atanh x - atanh r))."""
    return _one_cd(fisher_z_rows(pairs.pairs),
                   DegenerateSampleError("|r| = 1: the z pivot degenerates"))


def exponential_rate_cd(data: DataSample) -> ConfidenceDistribution:
    """CD for an exponential rate via the exact pivot 2 theta sum(x) ~ chi2_{2n}."""
    return _one_cd(exponential_rate_rows(data.values),
                   ParameterDomainError("exponential observations must be positive"))


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
