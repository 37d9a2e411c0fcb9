"""Confidence distribution objects and the operations every module shares.

A confidence distribution (CD) is a data-dependent CDF on the parameter
space.  Three representations cover the toolkit:

* ``analytic``: closed-form CDF callable, optionally with exact quantile,
  density, and log-tail companions;
* ``grid``: piecewise-linear CDF on strictly increasing knots;
* ``sample``: weighted atoms, evaluated as a right-continuous step CDF.

All evaluators accept scalars or arrays.  Quantiles use the generalized
inverse inf{x : H(x) >= s} throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
    "location_scale_cd",
    "grid_cd",
    "sample_cd",
    "cd_eval",
    "cd_quantile",
    "cd_density",
    "cd_log_lower",
    "cd_log_upper",
    "cd_sample",
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
    values: Optional[np.ndarray] = None
    atoms: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)
    # (base, to_cd), set only by _base_mapped_cd; copies drop it
    _base_map: Optional[tuple] = field(default=None, init=False)

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


def _base_mapped_cd(base: pk.DistKind, to_cd, cdf_fn, support,
                    **companions) -> ConfidenceDistribution:
    """Analytic CD whose quantile at s is exactly ``to_cd(pk.quantile(base, s))``.

    ``to_cd`` is an increasing map from the base law's scale to the
    parameter's.  The pair is recorded for :func:`_base_map_of`, so readers
    that need one quantile grid for many CDs on the same base compute the
    base quantiles once.  Only this function sets the record: a CD built any
    other way, even from this one's callables and ``meta``, has none.
    """
    cd = analytic_cd(cdf_fn, support, quantile_fn=lambda s: to_cd(pk.quantile(base, s)),
                     **companions)
    object.__setattr__(cd, "_base_map", (base, to_cd))
    return cd


def _base_map_of(cd: ConfidenceDistribution):
    """(base, to_cd) of a CD built by :func:`_base_mapped_cd`, else None."""
    return cd._base_map


def location_scale_cd(base: pk.DistKind, loc: float, scale: float,
                      support=_REAL_LINE, *, density_fn=None, meta=None) -> ConfidenceDistribution:
    """CD of loc + scale * X for a known base distribution (scale > 0).

    ``meta`` records loc, scale and base; its quantile is mapped off the base
    law's (see :func:`_base_mapped_cd`).
    """
    if not (scale > 0.0 and math.isfinite(scale) and math.isfinite(loc)):
        raise ParameterDomainError("location_scale_cd needs finite loc and positive scale")
    full_meta = {**(meta or {}), "loc": loc, "scale": scale, "base": base}
    return _base_mapped_cd(
        base,
        lambda q: loc + scale * q,
        lambda x: pk.cdf(base, (np.asarray(x, float) - loc) / scale),
        support,
        density_fn=density_fn,
        log_cdf_fn=lambda x: pk.log_tail(base, (float(x) - loc) / scale, "lower"),
        log_sf_fn=lambda x: pk.log_tail(base, (float(x) - loc) / scale, "upper"),
        meta=full_meta,
    )


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
    """Step CDF on weighted atoms (equal weights when omitted)."""
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
    at.setflags(write=False)
    wt.setflags(write=False)
    return ConfidenceDistribution(kind="sample", support=(at[0], at[-1]),
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
        cum = np.concatenate(([0.0], np.cumsum(cd.weights)))
        out = cum[np.searchsorted(cd.atoms, arr, side="right")]
        out = np.minimum(out, 1.0)
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
    cum = np.cumsum(cd.weights)
    idx = np.searchsorted(cum, s, side="left")
    return cd.atoms[np.minimum(idx, cd.atoms.size - 1)]


def cd_quantile(cd: ConfidenceDistribution, s):
    """Generalized inverse inf{x : H(x) >= s} for s strictly inside (0, 1)."""
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


def cd_sample(rv: CdRandomVariable, count: int) -> np.ndarray:
    return rv.sample(count)


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


def save_cd_csv(cd: ConfidenceDistribution, path) -> None:
    """Write a grid CD as (theta, H) rows or a sample CD as (atom, weight) rows."""
    out = materialize(cd)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if out.kind == "grid":
            w.writerow(["theta", "H"])
            for t, v in zip(out.theta, out.values):
                w.writerow([f"{t:.17g}", f"{v:.17g}"])
        else:
            w.writerow(["atom", "weight"])
            for a, wt in zip(out.atoms, out.weights):
                w.writerow([f"{a:.17g}", f"{wt:.17g}"])


def load_cd_csv(path) -> ConfidenceDistribution:
    """Reload a CD written by :func:`save_cd_csv`; the header names the kind."""
    with open(path, newline="") as fh:
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
