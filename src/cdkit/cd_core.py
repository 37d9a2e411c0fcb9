"""Confidence distribution objects and the operations every module shares.

A confidence distribution (CD) is a data-dependent CDF on the parameter
space.  Three representations cover the toolkit:

* ``analytic``: a pivot.  A base law G from :mod:`cdkit.probkernel`, the
  tail of G that H reads (``side``), a monotone map psi (``to_base``) and its
  inverse (``from_base``): H(x) is that tail of G at psi(x), and
  Q(s) = psi^-1(G's quantile of s on that side), or a search of H when
  psi^-1 is absent.  The log tails are G's at psi(x), exact far past double
  underflow.  A bare CDF callable is the pivot on Uniform01 whose psi is H;
* ``grid``: piecewise-linear CDF on strictly increasing knots, with any
  mass below the first knot value or above the last one on the end knots;
* ``sample``: weighted atoms, evaluated as a right-continuous step CDF;
  every bootstrap CD is one.

All evaluators accept scalars or arrays.  Quantiles use the generalized
inverse inf{x : H(x) >= s} throughout; a sample CD's stops at the first atom
whose H reaches s - 1e-12, so a probability one rounding off a multiple of
1/n (1 - 0.95 is not 0.05) still lands on its atom.  A family CD's is psi^-1
of the base quantile as it rounds; every other analytic CD's moves by ulps
from there to the smallest double x with H(x) >= s, or, with no psi^-1,
bisects the ordered doubles for it.  One search on the ordered doubles also
inverts a transform's g when no g^-1 is given.

The named exact CDs are family CDs.  A small frozen ``FamilySpec`` names a
row of one table (location-scale over Normal or Student-t, inverse
chi-square scale, Fisher z, chi-square rate) and holds its parameters.  A
row is a pivot with a density; ``family_cd`` binds it to the spec and keeps
the spec as ``cd.family``.  A family CD's file is its spec line alone, so it
reloads as the same CD.  A row is one numpy expression in its parameters,
so ``family_block`` binds it to parameter arrays: one CD that the lab reads
for a block of replicates at once, with each replicate's bytes.  A
monotone transform of a CD composes its pivot's maps with g, so its tails
stay as exact as the CD's.

Every other CSV file the toolkit writes or reads goes through ``write_table``
and ``read_table``: an optional header row over ``%.17g`` cells.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import probkernel as pk
from .probkernel import _shape_in, _shape_out
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
    "family_block",
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
    "write_table",
    "read_table",
]

_REAL_LINE = (-math.inf, math.inf)
_OTHER_SIDE = {"lower": "upper", "upper": "lower"}


@dataclass(frozen=True, eq=False)
class ConfidenceDistribution:
    """One CD in any of the three representations.  Build via the factories.

    An analytic CD is the pivot (base, side, to_base, from_base): H(x) is
    ``pk.cdf(base, to_base(x), side)`` and Q(s) is
    ``from_base(pk.quantile(base, s, side))``, or the smallest double at
    which H reaches s when from_base is None."""

    kind: str
    support: tuple[float, float]
    base: Optional[pk.DistKind] = None
    side: str = "lower"
    to_base: Optional[Callable] = None
    from_base: Optional[Callable] = None
    density_fn: Optional[Callable] = None
    theta: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None  # H at the grid knots or at the sample atoms
    atoms: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)
    # the family spec, set only by family_cd (family_block's is the row's name); copies drop it
    family: Optional[FamilySpec] = field(default=None, init=False)

    def __repr__(self):  # the payload arrays and callables are noise in a log line
        lo, hi = self.support
        return f"ConfidenceDistribution(kind={self.kind!r}, support=({lo:g}, {hi:g}))"


def _check_support(support) -> tuple[float, float]:
    lo, hi = float(support[0]), float(support[1])
    if math.isnan(lo) or math.isnan(hi) or not lo < hi:
        raise ParameterDomainError(f"support must satisfy lo < hi, got ({lo}, {hi})")
    return (lo, hi)


def _pivot_cd(base, side, to_base, from_base, support, *, density_fn=None,
              meta=None) -> ConfidenceDistribution:
    return ConfidenceDistribution(kind="analytic", support=_check_support(support), base=base,
                                  side=side, to_base=to_base, from_base=from_base,
                                  density_fn=density_fn, meta=dict(meta or {}))


def analytic_cd(cdf, support=_REAL_LINE, *, quantile=None, density=None,
                meta=None) -> ConfidenceDistribution:
    """An analytic CD from a vectorized CDF callable, with an optional exact
    quantile and density: the pivot on Uniform01 whose map is H itself and
    whose inverse is Q (a search of H when Q is omitted).  Its log tails
    are log H and log(1 - H); exact deep tails come from a base law, through
    :func:`cdkit.constructors.from_pivot`."""
    return _pivot_cd(pk.Uniform01(), "lower", cdf, quantile, support, density_fn=density,
                     meta=meta)


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


def _positive(x):
    return np.maximum(np.asarray(x, float), 1e-300)


class _Row(NamedTuple):
    """A family as a pivot with its density; each callable takes x or q, if
    any, then the parameters.  ``density`` takes the base law's density at
    psi(x) first and scales it by |psi'(x)|."""

    domain: str
    valid: Callable
    support: tuple
    base: Callable
    to_base: Callable
    from_base: Callable
    density: Callable
    side: str = "lower"


_FAMILIES = {
    "location-scale": _Row(
        "scale > 0, and df > 0 unless None",
        lambda loc, scale, df: (scale > 0.0) & (df is None or df > 0.0), _REAL_LINE,
        base=lambda loc, scale, df: pk.Normal() if df is None else pk.StudentT(df),
        to_base=lambda x, loc, scale, df: (np.asarray(x, float) - loc) / scale,
        from_base=lambda q, loc, scale, df: loc + scale * q,
        density=lambda f, x, loc, scale, df: f / scale),
    # H(x) = P(chi2_df > scale_ssq / x)
    "inverse-chi2-scale": _Row(
        "df > 0 and scale_ssq > 0",
        lambda df, scale_ssq: (df > 0.0) & (scale_ssq > 0.0), (0.0, math.inf),
        base=lambda df, scale_ssq: pk.ChiSquare(df),
        to_base=lambda x, df, scale_ssq: scale_ssq / _positive(x),
        from_base=lambda q, df, scale_ssq: scale_ssq / q,
        density=lambda f, x, df, scale_ssq: f * scale_ssq / _positive(x) ** 2,
        side="upper"),
    "fisher-z": _Row(
        "|r| < 1 and n > 3",
        lambda r, n: (abs(r) < 1.0) & (n > 3.0), (-1.0, 1.0),
        base=lambda r, n: pk.Normal(),
        # sqrt(n - 3) (atanh x - atanh r): standard normal at x = theta
        to_base=lambda x, r, n: np.sqrt(n - 3.0) * (
            np.arctanh(np.clip(np.asarray(x, float), -1.0, 1.0)) - np.arctanh(r)),
        from_base=lambda q, r, n: np.tanh(np.arctanh(r) + q / np.sqrt(n - 3.0)),
        density=lambda f, x, r, n: f * np.sqrt(n - 3.0)
        / np.maximum(1.0 - np.asarray(x, float) ** 2, 1e-300)),
    "chi2-rate": _Row(
        "n > 0 and total > 0",
        lambda n, total: (n > 0.0) & (total > 0.0), (0.0, math.inf),
        base=lambda n, total: pk.ChiSquare(2.0 * n),
        to_base=lambda x, n, total: 2.0 * total * np.maximum(np.asarray(x, float), 0.0),
        from_base=lambda q, n, total: q / (2.0 * total),
        density=lambda f, x, n, total: f * 2.0 * total),
}


def _bind(row: _Row, base, p, family, meta=None) -> ConfidenceDistribution:
    """The row's pivot and density on the base law, bound to its parameters p:
    a spec's floats, or arrays over a block of CDs.  ``cd.family`` is family."""
    to_base = partial(row.to_base, **p)
    cd = _pivot_cd(base, row.side, to_base, partial(row.from_base, **p), row.support,
                   density_fn=lambda x: row.density(pk.density(base, to_base(x)), x, **p),
                   meta=meta)
    object.__setattr__(cd, "family", family)
    return cd


def family_cd(spec: FamilySpec, meta=None) -> ConfidenceDistribution:
    """The analytic CD of a family spec: the row's pivot and density, bound to
    the spec's parameters.  ``cd.family`` keeps the spec; no other factory
    sets it."""
    row, p = _FAMILIES[spec.name], dict(spec.params)
    return _bind(row, row.base(**p), p, spec, meta)


def family_block(name: str, params: Mapping, ok=True) -> tuple[ConfidenceDistribution, np.ndarray]:
    """Many CDs of the family row ``name`` as one: (cd, kept).  Each parameter
    is an array with an element per CD, or a scalar they share.  The CDs kept
    are those where ok holds and the parameters pass the checks FamilySpec
    raises on; cd_eval at [x] and cd_quantile at a column give each kept CD's
    bytes, a column each.  ``cd.family`` is the row's name."""
    row = _FAMILIES[name]
    kept = ok & row.valid(**params)
    for v in params.values():
        if v is not None:
            kept = kept & np.isfinite(v)
    p = {key: v[kept] if np.ndim(v) else v for key, v in params.items()}
    return _bind(row, row.base(**p), p, name), kept


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
    """Piecewise-linear CDF on strictly increasing knots; values in [0, 1].

    H is 0 below the first knot and 1 from the last knot on, so masses
    values[0] and 1 - values[-1] sit on the end knots.
    """
    th = np.array(theta, dtype=float)
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
    return _grid_cd(th, va, meta)


def _grid_cd(th, va, meta) -> ConfidenceDistribution:  # grid_cd past its checks; th is kept
    va = np.maximum.accumulate(np.clip(va, 0.0, 1.0))
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

def cd_eval(cd: ConfidenceDistribution, x):
    """H(x), clamped to [0, 1]; 0 below the support, 1 above it."""
    arr, scalar = _shape_in(x)
    lo, hi = cd.support
    if cd.kind == "analytic":
        inner = np.clip(arr, lo, hi)
        with np.errstate(all="ignore"):
            out = pk.cdf(cd.base, cd.to_base(inner), cd.side)
        out = np.where(arr <= lo, 0.0, out) if math.isfinite(lo) else out
        out = np.where(arr >= hi, 1.0, out) if math.isfinite(hi) else out
    elif cd.kind == "grid":
        # 0 below the first knot and 1 from the last on: the end masses sit on the end knots
        out = np.where(arr >= cd.theta[-1], 1.0, np.interp(arr, cd.theta, cd.values, left=0.0))
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


_INF_KEY = np.int64(0x7FF0000000000000)  # the bits of inf; -_INF_KEY is the key of -inf
_MIN_INT = np.int64(np.iinfo(np.int64).min)


def _ordered(i):
    """Between the int64 views of doubles and keys in the doubles' order, both
    ways: the bits of a negative double count down from the sign bit."""
    return np.where(i < 0, _MIN_INT - i, i)


def _least_double(reaches, guess):
    """For each element of the 1-D array guess, the smallest double x at which
    the monotone predicate turns true, searched on the ordered bits of the
    doubles.  ``reaches(x, at)`` takes the probes x of the elements that the
    mask ``at`` selects; it counts as false at -inf and true at inf, so the
    bracket always closes.  From a finite guess the search gallops by 1, 2,
    4, ... ulps while the bracket has an infinite end, then bisects; a guess
    that is not finite bisects the whole line, in at most 64 probes."""
    finite = np.isfinite(guess)
    lo, hi = np.full(guess.shape, -_INF_KEY), np.full(guess.shape, _INF_KEY)
    probe = np.where(finite, _ordered(guess.view(np.int64)), 0)
    step = np.where(finite, 1, 2 ** 62)  # a step past half the line makes every probe a midpoint
    live = np.ones(guess.shape, bool)
    while live.any():
        p = probe[live]
        hit = reaches(_ordered(p).view(float), live)
        hi[live], lo[live] = np.where(hit, p, hi[live]), np.where(hit, lo[live], p)
        live = hi - 1 > lo
        a, b, k = lo[live], hi[live], step[live]
        mid = (a >> 1) + (b >> 1) + (a & b & 1)  # floor((a + b) / 2); a + b may overflow
        probe[live] = np.where(a == -_INF_KEY, b - np.minimum(k, b - mid),
                               np.where(b == _INF_KEY, a + np.minimum(k, mid - a), mid))
        step[live] = 2 * np.minimum(k, 2 ** 61)
    return _ordered(hi).view(float)


def _reaches(f, target, support, sign=1.0):
    """The predicate sign * f(x) >= sign * target for :func:`_least_double`,
    f rising with sign on the support.  Beyond the support, f counts as
    blowing up toward the nearer edge; where f is nan (it failed to
    evaluate), toward the edge on its side of an interior centre: the
    midpoint of a bounded support, one in from the finite edge of a
    half-line, 0 on the whole line.  So exp overflowing past 709.8 still
    lies past the root, and exp(1 / t) failing near t = 0 lies before it."""
    lo, hi = support
    centre = (0.5 * (lo + hi) if math.isfinite(lo + hi) else lo + 1.0 if math.isfinite(lo)
              else hi - 1.0 if math.isfinite(hi) else 0.0)

    def reaches(x, at):
        inside = (x > lo) & (x < hi)
        with np.errstate(all="ignore"):
            fx = sign * f(x)
        return np.where(inside & ~np.isnan(fx), fx >= sign * target[at],
                        np.where(inside, x > centre, x >= hi))
    return reaches


def cd_quantile(cd: ConfidenceDistribution, s):
    """Generalized inverse inf{x : H(x) >= s} for s strictly inside (0, 1).

    A sample CD's is inf{x : H(x) >= s - 1e-12}.  A family CD's is psi^-1 of
    the base quantile, the bytes that the cached base quantiles in
    :mod:`cdkit.inference` give.  Any other analytic CD's is the smallest
    double x with H(x) >= s, searched from psi^-1 of the base quantile, or
    on the whole line when psi^-1 is absent."""
    arr, scalar = _shape_in(s)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ParameterDomainError("cd_quantile needs probabilities strictly in (0, 1)")
    if cd.kind == "analytic":
        out = (np.full(arr.shape, math.nan) if cd.from_base is None
               else cd.from_base(pk.quantile(cd.base, arr, cd.side)))
        if cd.family is None:
            out = _least_double(_reaches(partial(cd_eval, cd), np.ravel(arr), cd.support),
                                np.ravel(np.asarray(out, dtype=float))).reshape(arr.shape)
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
    """log H(x): an analytic CD's is its base law's log tail at to_base(x),
    exact in deep tails.  -inf at and below the support, 0 at and above it,
    as H is 0 and 1 there."""
    if cd.kind == "analytic":
        lo, hi = cd.support
        return (-math.inf if x <= lo else 0.0 if x >= hi
                else pk.log_tail(cd.base, cd.to_base(float(x)), cd.side))
    p = cd_eval(cd, x)
    return math.log(p) if p > 0.0 else -math.inf


def cd_log_upper(cd: ConfidenceDistribution, x: float) -> float:
    """log(1 - H(x)), read as cd_log_lower reads log H(x); 0 at and below the
    support, -inf at and above it."""
    if cd.kind == "analytic":
        lo, hi = cd.support
        return (0.0 if x <= lo else -math.inf if x >= hi
                else pk.log_tail(cd.base, cd.to_base(float(x)), _OTHER_SIDE[cd.side]))
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

def _try_eval(f, x):
    """f(x), or nan where f fails to evaluate."""
    try:
        return f(x)
    except (ArithmeticError, ValueError):
        return math.nan


def _elementwise(f, x):
    """f on the whole array x, or on each element when f does not vectorize
    (math.sqrt, say); a scalar x gives a float."""
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 0:
        return float(f(float(xa)))
    try:
        vals = np.asarray(f(xa), dtype=float)
        if vals.shape == xa.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(v)) for v in xa.ravel()]).reshape(xa.shape)


def _spot_check_monotone(f, cd, direction, what):
    """Raise MonotonicityError unless the 101 quantiles of cd from 0.001 to
    0.999 lie inside the largest doubles and rise, and f at them is finite
    and moves in ``direction``, within 1e-12 of its scale.  A quantile at
    the largest double means H never fell below s, or never reached it, on
    the line: a pivot whose range misses part of its law's."""
    xs = cd_quantile(cd, np.linspace(0.001, 0.999, 101))
    with np.errstate(all="ignore"):
        ys = _elementwise(f, xs)
    if not (np.all(np.abs(xs) < np.finfo(float).max) and np.all(np.isfinite(ys))):
        raise MonotonicityError(f"the CD or the {what} is not finite across the central quantiles")
    sign = 1.0 if direction == "increasing" else -1.0
    scale = max(float(np.max(np.abs(ys))), 1.0)
    if not (np.all(np.diff(xs) >= 0.0) and np.all(sign * np.diff(ys) >= -1e-12 * scale)
            and sign * (ys[-1] - ys[0]) > 0.0):
        raise MonotonicityError(f"{what} failed the {direction} spot check")


def transform_cd(cd: ConfidenceDistribution, g, direction: str,
                 g_inverse=None) -> ConfidenceDistribution:
    """CD of g(theta) for strictly monotone g with declared direction.

    The direction is spot-checked on a 101-point grid spanning the central
    0.998 quantile range.  Sample CDs map their atoms exactly.  Any other CD
    gives a pivot on the same base law with maps psi(g^-1(y)) and
    g(psi^-1(b)), read on the other side of the law when g decreases; a grid
    CD, or an analytic CD without psi^-1, is its own pivot on Uniform01 (psi
    is H, psi^-1 is Q).  Without ``g_inverse``, g^-1(y) is the smallest t on
    the old support with g(t) >= y (g(t) <= y when g decreases).  The new
    support is g of the old edges; an edge where g gives no finite number is
    unbounded; a grid's starts an ulp below, to keep its end masses.
    """
    if direction not in ("increasing", "decreasing"):
        raise ParameterDomainError("direction must be 'increasing' or 'decreasing'")
    _spot_check_monotone(g, cd, direction, "transform")
    if cd.kind == "grid" and direction == "decreasing":
        # the CD of -theta is a grid with the end masses swapped; t -> g(-t) rises
        mirror = grid_cd(-cd.theta[::-1], 1.0 - cd.values[::-1], meta=cd.meta)
        return transform_cd(mirror, lambda t: g(-t), "increasing",
                            None if g_inverse is None else lambda y: -g_inverse(y))

    if cd.kind == "sample":
        new_atoms = _elementwise(g, cd.atoms)
        if not np.all(np.isfinite(new_atoms)):
            raise MonotonicityError("transform produced non-finite atoms")
        return sample_cd(new_atoms, cd.weights, meta=cd.meta)

    increasing = direction == "increasing"
    lo, hi = cd.support
    g_or_nan = partial(_elementwise, partial(_try_eval, g))
    with np.errstate(all="ignore"):
        edges = (float(g_or_nan(lo)), float(g_or_nan(hi)))
    new_lo, new_hi = edges if increasing else edges[::-1]
    new_lo = new_lo if math.isfinite(new_lo) else -math.inf
    new_hi = new_hi if math.isfinite(new_hi) else math.inf
    if not new_lo < new_hi:
        new_lo, new_hi = -math.inf, math.inf
    under_lo, under_hi = (lo, hi) if increasing else (hi, lo)
    sign = 1.0 if increasing else -1.0

    def ginv(y):
        # at and beyond the new edges g^{-1} is the old edge: g may have no inverse there
        y = np.asarray(y, dtype=float)
        t = np.where(y <= new_lo, under_lo, np.where(y >= new_hi, under_hi, math.nan))
        inside = (y > new_lo) & (y < new_hi)
        inner = y[inside]
        t[inside] = (np.clip(_elementwise(g_inverse, inner), lo, hi) if g_inverse is not None
                     else _least_double(_reaches(g_or_nan, inner, (lo, hi), sign),
                                        np.full(inner.size, math.nan)))
        return t

    if cd.kind == "analytic" and cd.from_base is not None:
        base, side, psi, psi_inv = cd.base, cd.side, cd.to_base, cd.from_base
    else:  # its own pivot on Uniform01
        base, side = pk.Uniform01(), "lower"
        psi, psi_inv = partial(cd_eval, cd), partial(cd_quantile, cd)
    # a grid's H is its lower edge's mass at new_lo, so its support starts an ulp
    # below; an analytic H is 0 there already and keeps g of its edge as support
    support = (math.nextafter(new_lo, -math.inf) if cd.kind == "grid" else new_lo, new_hi)
    return _pivot_cd(base, side if increasing else _OTHER_SIDE[side],
                     lambda y: psi(ginv(y)), lambda b: g_or_nan(psi_inv(b)), support,
                     meta=cd.meta)


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


def write_table(path, header, columns) -> None:
    """Write a text table: a header row, then one row per index of ``columns``
    with each value formatted ``%.17g`` (an integer prints as itself, a float
    reads back exactly).  Rows end in CRLF."""
    # a column at a time, on Python numbers: numpy scalars format slower
    cells = [[f"{v:.17g}" for v in np.asarray(col).tolist()] for col in columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*cells))


def read_table(path):
    """Read a text table as ``(header or None, float matrix)``: blank lines are
    skipped, and a first row that is not all numbers is the header.  Ragged
    rows, a cell that is not a number or no data rows raise
    ``ParameterDomainError`` naming the file."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = None
    if rows:
        try:
            list(map(float, rows[0]))
        except ValueError:
            header = rows.pop(0)
    if not rows:
        raise ParameterDomainError(f"{path}: no data rows")
    if len(set(map(len, rows)) | {len(header or rows[0])}) > 1:
        raise ParameterDomainError(f"{path}: rows must all have the same column count")
    try:
        cells = np.array(list(map(float, chain.from_iterable(rows))))
    except ValueError as exc:
        raise ParameterDomainError(f"{path}: {exc}") from exc
    return header, cells.reshape(len(rows), -1)


_FAMILY_TAG = "# cdkit-family "


def save_cd_csv(cd: ConfidenceDistribution, path) -> None:
    """Write a family CD as its spec, one ``# cdkit-family {json}`` line and
    nothing else; a grid CD as (theta, H) rows, a sample CD as (atom, weight)
    rows, and any other analytic CD as the rows of its materialized grid."""
    if cd.family is not None:
        # json writes floats as repr: they read back exactly
        spec = json.dumps({"family": cd.family.name, **cd.family.params})
        with open(path, "w", newline="") as fh:
            fh.write(_FAMILY_TAG + spec + "\r\n")
        return
    out = materialize(cd)
    header, columns = ((["theta", "H"], [out.theta, out.values]) if out.kind == "grid"
                       else (["atom", "weight"], [out.atoms, out.weights]))
    write_table(path, header, columns)


def load_cd_csv(path) -> ConfidenceDistribution:
    """Reload a CD written by :func:`save_cd_csv`.

    A ``# cdkit-family`` first line rebuilds the family CD from that line
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
    header, body = read_table(path)
    key = header and [c.strip().lower() for c in header]
    if key == ["theta", "h"]:
        return grid_cd(body[:, 0], body[:, 1])
    if key == ["atom", "weight"]:
        return sample_cd(body[:, 0], body[:, 1])
    raise ParameterDomainError(f"{path}: expected a theta,H or atom,weight header, got {header!r}")
