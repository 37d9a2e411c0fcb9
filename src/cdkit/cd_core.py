"""Confidence distribution objects and the operations every module shares.

A confidence distribution (CD) is a data-dependent CDF on the parameter
space.  Three representations cover the toolkit:

* ``analytic``: closed-form CDF callable, optionally with exact quantile,
  density, and log-tail companions;
* ``grid``: piecewise-linear CDF on strictly increasing knots;
* ``sample``: weighted atoms, evaluated as a right-continuous step CDF;
  every bootstrap CD is one.

All evaluators accept scalars or arrays.  Quantiles use the generalized
inverse inf{x : H(x) >= s} throughout; a sample CD's stops at the first atom
whose H reaches s - 1e-12, so a probability one rounding off a multiple of
1/n (1 - 0.95 is not 0.05) still lands on its atom.

The named exact CDs are family CDs.  A small frozen ``FamilySpec`` names a
row of one table (location-scale over Normal or Student-t, inverse
chi-square scale, Fisher z, chi-square rate) and holds its parameters;
``family_cd`` binds the row's cdf, quantile, density and log tails to them
and keeps the spec as ``cd.family``.  A family CD's file carries its spec,
so it reloads as the same CD.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np
from scipy import special as _sp

from . import probkernel as pk
from .errors import (
    MonotonicityError,
    ParameterDomainError,
    UnsupportedRepresentationError,
)

__all__ = [
    "ConfidenceDistribution",
    "CdRandomVariable",
    "analytic_cd",
    "FamilySpec",
    "family_cd",
    "location_scale_cd",
    "grid_cd",
    "sample_cd",
    "cd_eval",
    "cd_quantile",
    "cd_density",
    "cd_log_lower",
    "cd_log_upper",
    "transform_cd",
    "central_interval",
    "materialize",
    "save_cd_csv",
    "load_cd_csv",
]

_REAL_LINE = (-math.inf, math.inf)


@dataclass(frozen=True, eq=False)
class ConfidenceDistribution:
    """One CD in any of the three representations.  Build via the factories."""

    kind: str
    support: tuple[float, float]
    cdf_fn: Optional[Callable] = None
    quantile_fn: Optional[Callable] = None
    density_fn: Optional[Callable] = None
    log_cdf_fn: Optional[Callable] = None
    log_sf_fn: Optional[Callable] = None
    theta: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None  # H at the grid knots or at the sample atoms
    atoms: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)
    # the family spec, set only by family_cd; copies drop it
    family: Optional[FamilySpec] = field(default=None, init=False)

    def __repr__(self):  # the payload arrays/callables are noise in logs
        lo, hi = self.support
        return f"ConfidenceDistribution(kind={self.kind!r}, support=({lo:g}, {hi:g}))"


def _check_support(support) -> tuple[float, float]:
    lo, hi = float(support[0]), float(support[1])
    if math.isnan(lo) or math.isnan(hi) or not lo < hi:
        raise ParameterDomainError(f"support must satisfy lo < hi, got ({lo}, {hi})")
    return (lo, hi)


def analytic_cd(cdf_fn, support=_REAL_LINE, *, quantile_fn=None, density_fn=None,
                log_cdf_fn=None, log_sf_fn=None, meta=None) -> ConfidenceDistribution:
    """Wrap a vectorized CDF callable (and optional exact companions)."""
    return ConfidenceDistribution(
        kind="analytic",
        support=_check_support(support),
        cdf_fn=cdf_fn,
        quantile_fn=quantile_fn,
        density_fn=density_fn,
        log_cdf_fn=log_cdf_fn,
        log_sf_fn=log_sf_fn,
        meta=dict(meta or {}),
    )


# ---------------------------------------------------------------------------
# family specs: the named exact CDs as data

@dataclass(frozen=True)
class FamilySpec:
    """A family CD as data: ``name`` names its row of the family table and
    ``params`` holds that row's parameters, finite reals (a location-scale
    ``df`` of None is a Normal base).  A spec is checked when built."""

    name: str
    params: Mapping = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        row = _FAMILIES.get(self.name)
        if row is None:
            raise ParameterDomainError(f"unknown CD family {self.name!r}")
        for key, v in self.params.items():
            if not (v is None and (self.name, key) == ("location-scale", "df")
                    or isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v)):
                raise ParameterDomainError(f"{self.name} {key} must be a finite real, got {v!r}")
        try:
            valid = row.valid(**self.params)
        except TypeError as exc:  # a missing or an unknown parameter
            raise ParameterDomainError(f"{self.name} parameters: {exc}") from exc
        if not valid:
            raise ParameterDomainError(f"{self.name} needs {row.domain}, got {dict(self.params)}")


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


# base laws are rebuilt from the parameters on every call; these keep it cheap
@lru_cache(maxsize=64)
def _t_or_normal(df):
    return pk.Normal() if df is None else pk.StudentT(df)


@lru_cache(maxsize=64)
def _chi2(df):
    return pk.ChiSquare(df)


def _atanh(x):
    return np.arctanh(np.clip(np.asarray(x, dtype=float), -1.0, 1.0))


def _fisher_pivot(z, r, n):
    """sqrt(n - 3) (z - atanh r): standard normal at z = atanh(theta)."""
    return math.sqrt(n - 3.0) * (z - math.atanh(r))


class _Row(NamedTuple):
    """A family's domain, support and callables of (x or s, **params).  A
    base-mapped row's quantile is from_base(pk.quantile(base(**params), s))."""

    domain: str
    valid: Callable
    support: tuple
    cdf: Callable
    density: Callable
    log_tail: Callable
    quantile: Optional[Callable] = None
    base: Optional[Callable] = None
    from_base: Optional[Callable] = None


_FAMILIES = {
    "location-scale": _Row(
        "scale > 0, and df > 0 unless None",
        lambda loc, scale, df: scale > 0.0 and (df is None or df > 0.0), _REAL_LINE,
        cdf=lambda x, loc, scale, df: pk.cdf(_t_or_normal(df), (np.asarray(x, float) - loc) / scale),
        density=lambda x, loc, scale, df: (_normal_pdf if df is None else partial(_t_pdf, df))(
            (np.asarray(x, float) - loc) / scale) / scale,
        log_tail=lambda x, side, loc, scale, df: pk.log_tail(
            _t_or_normal(df), (float(x) - loc) / scale, side),
        base=lambda loc, scale, df: _t_or_normal(df),
        from_base=lambda q, loc, scale, df: loc + scale * q),
    "inverse-chi2-scale": _Row(
        "df > 0 and scale_ssq > 0",
        lambda df, scale_ssq: df > 0.0 and scale_ssq > 0.0, (0.0, math.inf),
        cdf=lambda x, df, scale_ssq: np.where(np.asarray(x, float) > 0.0, _sp.chdtrc(
            df, scale_ssq / np.maximum(np.asarray(x, float), 1e-300)), 0.0),
        density=lambda x, df, scale_ssq: _chi2_pdf(
            df, scale_ssq / np.maximum(np.asarray(x, float), 1e-300))
        * scale_ssq / np.maximum(np.asarray(x, float), 1e-300) ** 2,
        # H(x) = P(chi2_df >= scale_ssq / x): the tails swap sides
        log_tail=lambda x, side, df, scale_ssq: pk.log_tail(
            _chi2(df), scale_ssq / max(float(x), 1e-300),
            "upper" if side == "lower" else "lower"),
        quantile=lambda s, df, scale_ssq: scale_ssq / _sp.chdtri(df, np.asarray(s, dtype=float))),
    "fisher-z": _Row(
        "|r| < 1 and n > 3",
        lambda r, n: abs(r) < 1.0 and n > 3.0, (-1.0, 1.0),
        cdf=lambda x, r, n: _sp.ndtr(_fisher_pivot(_atanh(x), r, n)),
        density=lambda x, r, n: _normal_pdf(_fisher_pivot(_atanh(x), r, n)) * math.sqrt(n - 3.0)
        / np.maximum(1.0 - np.asarray(x, float) ** 2, 1e-300),
        log_tail=lambda x, side, r, n: float(_sp.log_ndtr(
            (1.0 if side == "lower" else -1.0) * _fisher_pivot(math.atanh(float(x)), r, n))),
        quantile=lambda s, r, n: np.tanh(math.atanh(r) + _sp.ndtri(np.asarray(s, dtype=float))
                                         / math.sqrt(n - 3.0))),
    "chi2-rate": _Row(
        "n > 0 and total > 0",
        lambda n, total: n > 0.0 and total > 0.0, (0.0, math.inf),
        cdf=lambda x, n, total: pk.cdf(_chi2(2.0 * n),
                                       2.0 * total * np.maximum(np.asarray(x, float), 0.0)),
        density=lambda x, n, total: _chi2_pdf(2.0 * n, 2.0 * total * np.asarray(x, float))
        * 2.0 * total,
        log_tail=lambda x, side, n, total: pk.log_tail(_chi2(2.0 * n),
                                                       2.0 * total * float(x), side),
        base=lambda n, total: _chi2(2.0 * n),
        from_base=lambda q, n, total: q / (2.0 * total)),
}


def family_cd(spec: FamilySpec, meta=None) -> ConfidenceDistribution:
    """The analytic CD of a family spec: its table row's callables bound to the
    spec's parameters.  ``cd.family`` keeps the spec; no other factory sets it."""
    row, p = _FAMILIES[spec.name], dict(spec.params)
    if row.from_base is None:
        quantile = lambda s: row.quantile(s, **p)
    else:
        base = row.base(**p)
        quantile = lambda s: row.from_base(pk.quantile(base, s), **p)
    cd = analytic_cd(lambda x: row.cdf(x, **p), row.support, quantile_fn=quantile,
                     density_fn=lambda x: row.density(x, **p),
                     log_cdf_fn=lambda x: row.log_tail(x, "lower", **p),
                     log_sf_fn=lambda x: row.log_tail(x, "upper", **p), meta=meta)
    object.__setattr__(cd, "family", spec)
    return cd


def location_scale_cd(base: pk.DistKind, loc: float, scale: float, *,
                      meta=None) -> ConfidenceDistribution:
    """CD of loc + scale * X for X ~ base, Normal() or StudentT(df), scale > 0."""
    if isinstance(base, pk.StudentT):
        df = float(base.df)
    elif base == pk.Normal():
        df = None
    else:
        raise ParameterDomainError(f"location_scale_cd needs Normal() or StudentT(df), got {base}")
    return family_cd(FamilySpec("location-scale",
                                {"loc": float(loc), "scale": float(scale), "df": df}), meta)


def grid_cd(theta, values, *, meta=None) -> ConfidenceDistribution:
    """Piecewise-linear CDF on strictly increasing knots; values in [0, 1]."""
    th = np.asarray(theta, dtype=float)
    va = np.asarray(values, dtype=float)
    if th.ndim != 1 or th.size < 2 or th.shape != va.shape:
        raise ParameterDomainError("grid CD needs matching 1-D knot and value arrays, length >= 2")
    if not np.all(np.isfinite(th)) or not np.all(np.isfinite(va)):
        raise ParameterDomainError("grid CD entries must be finite")
    if not np.all(np.diff(th) > 0.0):
        raise ParameterDomainError("grid knots must be strictly increasing")
    if np.any(va < -1e-9) or np.any(va > 1.0 + 1e-9):
        raise ParameterDomainError("grid CDF values must lie in [0, 1]")
    if np.any(np.diff(va) < -1e-9):
        raise MonotonicityError("grid CDF values must be nondecreasing")
    va = np.maximum.accumulate(np.clip(va, 0.0, 1.0))
    th = th.copy()
    th.setflags(write=False)
    va.setflags(write=False)
    return ConfidenceDistribution(kind="grid", support=(th[0], th[-1]),
                                  theta=th, values=va, meta=dict(meta or {}))


def sample_cd(atoms, weights=None, *, meta=None) -> ConfidenceDistribution:
    """Step CDF on weighted atoms (equal weights when omitted).

    ``values`` holds H at the sorted atoms: k/n exactly when the weights are
    equal, passed in or not, else the running sums scaled to end at 1.
    """
    at = np.asarray(atoms, dtype=float)
    if at.ndim != 1 or at.size < 1 or not np.all(np.isfinite(at)):
        raise ParameterDomainError("sample CD needs a 1-D array of finite atoms")
    if weights is None:
        wt = np.full(at.size, 1.0 / at.size)
    else:
        wt = np.asarray(weights, dtype=float)
        if wt.shape != at.shape or np.any(wt < 0.0) or not np.all(np.isfinite(wt)):
            raise ParameterDomainError("weights must be nonnegative, finite, same shape as atoms")
        total = wt.sum()
        if abs(total - 1.0) > 1e-12:
            raise ParameterDomainError(f"weights must sum to 1 within 1e-12, got {total!r}")
        if abs(total - 1.0) > 1e-15:  # keep normalization idempotent across round-trips
            wt = wt / total
    order = np.argsort(at, kind="stable")
    at = at[order]
    wt = wt[order]
    if weights is None or np.all(wt == wt[0]):
        cum = np.arange(1, at.size + 1, dtype=float) / at.size
    else:
        cum = np.cumsum(wt)
        cum /= cum[-1]
    for arr in (at, wt, cum):
        arr.setflags(write=False)
    return ConfidenceDistribution(kind="sample", support=(at[0], at[-1]), values=cum,
                                  atoms=at, weights=wt, meta=dict(meta or {}))


# ---------------------------------------------------------------------------
# evaluation

def _shape_in(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _shape_out(arr, scalar):
    arr = np.asarray(arr, dtype=float)
    return float(arr) if scalar else arr


def cd_eval(cd: ConfidenceDistribution, x):
    """H(x), clamped to [0, 1]; 0 below the support, 1 above it."""
    arr, scalar = _shape_in(x)
    lo, hi = cd.support
    if cd.kind == "analytic":
        inner = np.clip(arr, lo, hi)
        with np.errstate(all="ignore"):
            out = np.clip(np.asarray(cd.cdf_fn(inner), dtype=float), 0.0, 1.0)
        out = np.where(arr <= lo, 0.0, out) if math.isfinite(lo) else out
        out = np.where(arr >= hi, 1.0, out) if math.isfinite(hi) else out
    elif cd.kind == "grid":
        out = np.interp(arr, cd.theta, cd.values)
    elif cd.kind == "sample":
        idx = np.searchsorted(cd.atoms, arr, side="right")
        out = np.where(idx > 0, cd.values[idx - 1], 0.0)
    else:
        raise UnsupportedRepresentationError(f"unknown CD kind {cd.kind!r}")
    return _shape_out(out, scalar)


def _grid_quantile(cd, s):
    va, th = cd.values, cd.theta
    idx = np.searchsorted(va, s, side="left")
    idx = np.minimum(idx, va.size - 1)
    prev = np.maximum(idx - 1, 0)
    v0, v1 = va[prev], va[idx]
    t0, t1 = th[prev], th[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(v1 > v0, (s - v0) / np.where(v1 > v0, v1 - v0, 1.0), 1.0)
    out = t0 + np.clip(frac, 0.0, 1.0) * (t1 - t0)
    out = np.where(idx == 0, th[0], out)
    out = np.where(s > va[-1], th[-1], out)
    return out


def _sample_quantile(cd, s):
    # H ends at exactly 1 > s - 1e-12, so the index stays inside the atoms
    return cd.atoms[np.searchsorted(cd.values, s - 1e-12, side="left")]


def cd_quantile(cd: ConfidenceDistribution, s):
    """Generalized inverse inf{x : H(x) >= s} for s strictly inside (0, 1);
    a sample CD's is inf{x : H(x) >= s - 1e-12}."""
    arr, scalar = _shape_in(s)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ParameterDomainError("cd_quantile needs probabilities strictly in (0, 1)")
    if cd.kind == "analytic":
        if cd.quantile_fn is not None:
            out = np.asarray(cd.quantile_fn(arr), dtype=float)
        else:
            lo, hi = cd.support
            out = np.array([pk.bracket_root(lambda t, si=si: cd_eval(cd, t) - si, lo, hi)
                            for si in np.atleast_1d(arr)])
            out = out.reshape(arr.shape)
    elif cd.kind == "grid":
        out = _grid_quantile(cd, arr)
    elif cd.kind == "sample":
        out = _sample_quantile(cd, arr)
    else:
        raise UnsupportedRepresentationError(f"unknown CD kind {cd.kind!r}")
    return _shape_out(out, scalar)


def cd_density(cd: ConfidenceDistribution, x):
    """The CD density h(x): exact when available, else a difference quotient.

    Sample CDs have no density; asking for one raises.
    """
    arr, scalar = _shape_in(x)
    lo, hi = cd.support
    if cd.kind == "analytic":
        if cd.density_fn is not None:
            with np.errstate(all="ignore"):
                out = np.asarray(cd.density_fn(arr), dtype=float)
            out = np.where((arr < lo) | (arr > hi), 0.0, out)
        else:
            h = np.maximum(1e-6, 1e-6 * np.abs(arr))
            a = np.clip(arr - h, lo, hi)
            b = np.clip(arr + h, lo, hi)
            width = np.where(b > a, b - a, 1.0)
            out = (cd_eval(cd, b) - cd_eval(cd, a)) / width
            out = np.where(b > a, out, 0.0)
        out = np.maximum(out, 0.0)
    elif cd.kind == "grid":
        idx = np.clip(np.searchsorted(cd.theta, arr, side="right") - 1, 0, cd.theta.size - 2)
        slope = (cd.values[idx + 1] - cd.values[idx]) / (cd.theta[idx + 1] - cd.theta[idx])
        out = np.where((arr < lo) | (arr > hi), 0.0, np.maximum(slope, 0.0))
    else:
        raise UnsupportedRepresentationError("sample CDs carry atoms, not a density")
    return _shape_out(out, scalar)


def cd_log_lower(cd: ConfidenceDistribution, x: float) -> float:
    """log H(x), exact in deep tails when the CD carries a log-CDF hook."""
    if cd.kind == "analytic" and cd.log_cdf_fn is not None:
        return float(cd.log_cdf_fn(float(x)))
    p = cd_eval(cd, x)
    return math.log(p) if p > 0.0 else -math.inf


def cd_log_upper(cd: ConfidenceDistribution, x: float) -> float:
    """log(1 - H(x)), exact in deep tails when the CD carries a log-SF hook."""
    if cd.kind == "analytic" and cd.log_sf_fn is not None:
        return float(cd.log_sf_fn(float(x)))
    p = cd_eval(cd, x)
    return math.log1p(-p) if p < 1.0 else -math.inf


# ---------------------------------------------------------------------------
# CD random variables

class CdRandomVariable:
    """xi = H^{-1}(U): draws from the CD viewed as a distribution estimator.

    Single consumer: successive ``sample`` calls advance the stream state.
    """

    def __init__(self, cd: ConfidenceDistribution, stream: pk.RngStream):
        self.cd = cd
        self.stream = stream
        self._rng = None

    def sample(self, count: int) -> np.ndarray:
        if count < 0:
            raise ParameterDomainError("count must be nonnegative")
        if self._rng is None:
            self._rng = self.stream.generator()
        u = self._rng.random(count)
        u = np.maximum(u, 2.0 ** -53)  # quantile domain is open
        return np.asarray(cd_quantile(self.cd, u), dtype=float)


# ---------------------------------------------------------------------------
# transforms and intervals

def _spot_check_monotone(g, xs, direction):
    with np.errstate(all="ignore"):
        ys = np.array([float(g(x)) for x in xs])
    if not np.all(np.isfinite(ys)):
        raise MonotonicityError("transform produced non-finite values on the check grid")
    diffs = np.diff(ys)
    scale = max(float(np.max(np.abs(ys))), 1.0)
    if direction == "increasing":
        ok = np.all(diffs >= -1e-12 * scale) and ys[-1] > ys[0]
    else:
        ok = np.all(diffs <= 1e-12 * scale) and ys[-1] < ys[0]
    if not ok:
        raise MonotonicityError(f"transform failed the {direction} spot check")
    return ys


def transform_cd(cd: ConfidenceDistribution, g, direction: str,
                 g_inverse=None) -> ConfidenceDistribution:
    """CD of g(theta) for strictly monotone g with declared direction.

    The direction is spot-checked on a 101-point grid spanning the central
    0.998 quantile range.  Sample CDs map their atoms exactly; other kinds
    wrap the evaluators, so quantiles commute with g by construction.
    """
    if direction not in ("increasing", "decreasing"):
        raise ParameterDomainError("direction must be 'increasing' or 'decreasing'")
    qs = cd_quantile(cd, np.linspace(0.001, 0.999, 101))
    ys = _spot_check_monotone(g, qs, direction)

    if cd.kind == "sample":
        new_atoms = np.array([float(g(a)) for a in cd.atoms])
        if not np.all(np.isfinite(new_atoms)):
            raise MonotonicityError("transform produced non-finite atoms")
        return sample_cd(new_atoms, cd.weights, meta=cd.meta)

    lo, hi = cd.support
    edge_lo = pk._try_eval(g, lo) if math.isfinite(lo) else (ys[0] if direction == "increasing" else ys[-1])
    edge_hi = pk._try_eval(g, hi) if math.isfinite(hi) else (ys[-1] if direction == "increasing" else ys[0])
    increasing = direction == "increasing"
    new_lo = edge_lo if increasing else edge_hi
    new_hi = edge_hi if increasing else edge_lo
    new_lo = new_lo if math.isfinite(new_lo) else -math.inf
    new_hi = new_hi if math.isfinite(new_hi) else math.inf
    if not new_lo < new_hi:
        new_lo, new_hi = -math.inf, math.inf

    if g_inverse is None:
        def ginv(y):
            return pk.bracket_root(lambda t: float(g(t)) - float(y), lo, hi)
    else:
        ginv = g_inverse

    def _ginv_arr(y):
        ya = np.asarray(y, dtype=float)
        if ya.ndim == 0:
            return float(ginv(float(ya)))
        return np.array([float(ginv(v)) for v in ya])

    if increasing:
        new_cdf = lambda y: cd_eval(cd, _ginv_arr(y))
        new_quantile = lambda s: _apply_g(g, cd_quantile(cd, s))
        new_log_cdf = (lambda y: cd_log_lower(cd, float(ginv(float(y))))) if _has_logs(cd) else None
        new_log_sf = (lambda y: cd_log_upper(cd, float(ginv(float(y))))) if _has_logs(cd) else None
    else:
        new_cdf = lambda y: 1.0 - np.asarray(cd_eval(cd, _ginv_arr(y)), dtype=float)
        new_quantile = lambda s: _apply_g(g, cd_quantile(cd, 1.0 - np.asarray(s, dtype=float)))
        new_log_cdf = (lambda y: cd_log_upper(cd, float(ginv(float(y))))) if _has_logs(cd) else None
        new_log_sf = (lambda y: cd_log_lower(cd, float(ginv(float(y))))) if _has_logs(cd) else None

    return analytic_cd(new_cdf, (new_lo, new_hi), quantile_fn=new_quantile,
                       log_cdf_fn=new_log_cdf, log_sf_fn=new_log_sf, meta=cd.meta)


def _has_logs(cd):
    return cd.kind != "analytic" or cd.log_cdf_fn is not None or cd.log_sf_fn is not None


def _apply_g(g, x):
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 0:
        return float(g(float(xa)))
    return np.array([float(g(v)) for v in xa])


def _interval_probs(level: float) -> tuple[float, float]:
    """The probabilities (a/2, 1 - a/2) of the equal-tail interval at ``level``."""
    if not 0.0 < level < 1.0:
        raise ParameterDomainError("level must lie strictly in (0, 1)")
    alpha = 1.0 - level
    return alpha / 2.0, 1.0 - alpha / 2.0


def central_interval(cd: ConfidenceDistribution, level: float) -> tuple[float, float]:
    """Equal-tail interval [H^{-1}(a/2), H^{-1}(1-a/2)] at coverage ``level``."""
    lo, hi = cd_quantile(cd, np.array(_interval_probs(level)))
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# serialization

def materialize(cd: ConfidenceDistribution, n_grid: int = 1025) -> ConfidenceDistribution:
    """A file-ready representation: grids stay, samples stay, analytic CDs
    become grids on quantile-spaced knots covering the central 1 - 2e-4 mass."""
    if cd.kind in ("grid", "sample"):
        return cd
    ps = np.linspace(1e-4, 1.0 - 1e-4, n_grid)
    th = np.asarray(cd_quantile(cd, ps), dtype=float)
    th = np.unique(th)
    if th.size < 2:
        raise ParameterDomainError("CD is numerically degenerate; cannot materialize")
    return grid_cd(th, cd_eval(cd, th), meta=cd.meta)


_FAMILY_TAG = "# cdkit-family "


def save_cd_csv(cd: ConfidenceDistribution, path) -> None:
    """Write a grid CD as (theta, H) rows or a sample CD as (atom, weight) rows.

    A family CD first writes its spec as one ``# cdkit-family {json}`` line,
    then the rows of its materialized grid for readers that skip that line.
    """
    out = materialize(cd)
    header, first, second = ((["theta", "H"], out.theta, out.values) if out.kind == "grid"
                             else (["atom", "weight"], out.atoms, out.weights))
    with open(path, "w", newline="") as fh:
        if cd.family is not None:  # json writes floats as repr: they read back exactly
            body = json.dumps({"family": cd.family.name, **cd.family.params})
            fh.write(f"{_FAMILY_TAG}{body}\r\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{a:.17g}", f"{b:.17g}"] for a, b in zip(first, second))


def load_cd_csv(path) -> ConfidenceDistribution:
    """Reload a CD written by :func:`save_cd_csv`.

    A ``# cdkit-family`` first line rebuilds the family CD from its spec
    alone; otherwise the column header names the kind, grid or sample.
    """
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith(_FAMILY_TAG):
            try:
                body = json.loads(first[len(_FAMILY_TAG):])
                return family_cd(FamilySpec(body.pop("family"), body))
            except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
                raise ParameterDomainError(f"{path}: bad cdkit-family line: {exc!r}") from exc
        fh.seek(0)
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) != 2:
        raise ParameterDomainError(f"{path}: expected a two-column CD file")
    header = [c.strip().lower() for c in rows[0]]
    body = np.array([[float(a), float(b)] for a, b in rows[1:]], dtype=float)
    if body.size == 0:
        raise ParameterDomainError(f"{path}: no data rows")
    if header == ["theta", "h"]:
        return grid_cd(body[:, 0], body[:, 1])
    if header == ["atom", "weight"]:
        return sample_cd(body[:, 0], body[:, 1])
    raise ParameterDomainError(f"{path}: unrecognized header {rows[0]!r}")
