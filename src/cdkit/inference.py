"""Point estimation and hypothesis support from a CD.

The CD is treated as a distribution estimator: its median, mean, and mode
are point estimators, and the mass it assigns to a null region is the
support the data lend that hypothesis.  Strong support integrates H over the
region; weak support takes the peak of the tail-doubling curve
2 min(H, 1 - H); the union rule for unions of intervals takes the best
single-interval strong support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import probkernel as pk
from .cd_core import ConfidenceDistribution, cd_density, cd_eval, cd_quantile, read_table
from .errors import (
    NonintegrableCdError,
    ParameterDomainError,
    PartitionError,
    UnsupportedRepresentationError,
)

__all__ = [
    "NullRegion",
    "SupportReport",
    "cd_median",
    "cd_mean",
    "cd_mode",
    "strong_support",
    "weak_support",
    "iut_support",
    "support_report",
    "classify",
]


# ---------------------------------------------------------------------------
# null regions

@dataclass(frozen=True)
class NullRegion:
    """A null hypothesis: a finite union of disjoint closed intervals, or a
    finite set of points.  Interval endpoints may be +-inf."""

    kind: str
    intervals: tuple[tuple[float, float], ...] = ()
    points: tuple[float, ...] = ()

    @staticmethod
    def from_intervals(intervals) -> "NullRegion":
        cleaned = []
        for pair in intervals:
            lo, hi = float(pair[0]), float(pair[1])
            if math.isnan(lo) or math.isnan(hi) or not lo <= hi:
                raise ParameterDomainError(f"interval endpoints must satisfy lo <= hi, got {pair}")
            cleaned.append((lo, hi))
        if not cleaned:
            raise ParameterDomainError("need at least one interval")
        cleaned.sort()
        for (a, b), (c, d) in zip(cleaned, cleaned[1:]):
            if c <= b:
                raise ParameterDomainError("intervals must be pairwise disjoint")
        return NullRegion(kind="intervals", intervals=tuple(cleaned))

    @staticmethod
    def from_points(points) -> "NullRegion":
        pts = sorted(float(p) for p in points)
        if not pts:
            raise ParameterDomainError("need at least one point")
        if any(not math.isfinite(p) for p in pts):
            raise ParameterDomainError("points must be finite")
        return NullRegion(kind="points", points=tuple(pts))

    @staticmethod
    def from_json(text: str) -> "NullRegion":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ParameterDomainError("region JSON must be an object")
        if "intervals" in obj:
            pairs = [(-math.inf if lo is None else lo, math.inf if hi is None else hi)
                     for lo, hi in obj["intervals"]]
            return NullRegion.from_intervals(pairs)
        if "points" in obj:
            return NullRegion.from_points(obj["points"])
        raise ParameterDomainError("region JSON needs an 'intervals' or 'points' key")

    def to_json(self) -> str:
        if self.kind == "intervals":
            body = [[None if math.isinf(lo) else lo, None if math.isinf(hi) else hi]
                    for lo, hi in self.intervals]
            return json.dumps({"intervals": body})
        return json.dumps({"points": list(self.points)})


# ---------------------------------------------------------------------------
# point estimators

def cd_median(cd: ConfidenceDistribution) -> float:
    return float(cd_quantile(cd, 0.5))


_TAIL_EPS = 1e-6
# the probe quantiles every expectation, integral of f dH, reads first
_PROBES = np.array([_TAIL_EPS, 0.25, 0.75, 1.0 - _TAIL_EPS])


@lru_cache(maxsize=2)
def _gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of Gauss-Legendre on [-1, 1] at 256 or 2048 points:
    scipy.special.roots_legendre(npts), tabulated as its nodes x > 0 and their
    weights (the rule is symmetric).  Building the 2048 rule takes scipy
    0.15 s, which would slow every one-shot mean."""
    xp, wp = read_table(Path(__file__).with_name(f"gauss_legendre_{npts}.csv"))[1].T
    x, w = np.concatenate([-xp[::-1], xp]), np.concatenate([wp[::-1], wp])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=1)
def _rule():
    """Nodes s = 3v^2 - 2v^3 and weights of the 2048-point rule, and their sum:
    Gauss-Legendre on v in (0, 1), which the cubic map packs into the tails."""
    x, gw = _gauss_legendre(2048)
    v = 0.5 * (x + 1.0)
    s = 3.0 * v * v - 2.0 * v ** 3
    w = 0.5 * gw * 6.0 * v * (1.0 - v)
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w, np.sum(w)


def _grid_probs(grid: str) -> np.ndarray:
    """The probabilities of grid "probes" or "nodes" (the rule's)."""
    return _PROBES if grid == "probes" else _rule()[0]


@lru_cache(maxsize=64)
def _base_quantiles(base: pk.DistKind, side: str, grid: str) -> np.ndarray:
    # shared by every analytic CD on this base law and tail
    q = pk.quantile(base, _grid_probs(grid), side)
    q.setflags(write=False)
    return q


def _quantiles(cd: ConfidenceDistribution, grid: str) -> np.ndarray:
    """The quantiles at _grid_probs(grid): an analytic CD with psi^-1 maps cached
    base quantiles, cd_quantile's bytes for a family CD and within ulps of them
    for any other; every other CD reads cd_quantile."""
    if cd.kind != "analytic" or cd.from_base is None:
        return np.asarray(cd_quantile(cd, _grid_probs(grid)), dtype=float)
    return np.asarray(cd.from_base(_base_quantiles(cd.base, cd.side, grid)), dtype=float)


def _integrability_check(probes) -> None:
    # reject CDs whose extreme quantiles still carry non-negligible mass
    q_lo, q25, q75, q_hi = (float(q) for q in probes)
    tail = (abs(q_lo) + abs(q_hi)) * _TAIL_EPS
    scale = max(abs(q25), abs(q75), q75 - q25, 1e-9)
    if not (math.isfinite(q_lo) and math.isfinite(q_hi)) or tail > 0.01 * scale:
        raise NonintegrableCdError(
            f"CD mean does not converge: tail contribution {tail:.3g} vs scale {scale:.3g}"
        )


def _expect(cd: ConfidenceDistribution, f, probes) -> float:
    """Integral of f(x) dH(x) by the rule, f taking an array of quantiles.
    ``probes``, ``_quantiles(cd, "probes")``, reject a CD with mass far out
    in its tails before the node quantiles are read."""
    _integrability_check(probes)
    _, w, w_sum = _rule()
    return float(np.dot(f(_quantiles(cd, "nodes")), w) / w_sum)


def cd_mean(cd: ConfidenceDistribution) -> float:
    """The CD mean, integral of t dH(t).

    Sample and grid representations integrate exactly, a grid counting the
    masses on its end knots; analytic ones read the expectation rule at its
    2048 quantile-domain nodes, on cached base quantiles for a family CD.
    """
    if cd.kind == "sample":
        return float(np.dot(cd.atoms, cd.weights))
    if cd.kind == "grid":
        th, va = cd.theta, cd.values
        mids = 0.5 * (th[:-1] + th[1:])
        return float(va[0] * th[0] + np.dot(np.diff(va), mids) + (1.0 - va[-1]) * th[-1])
    return _expect(cd, lambda q: q, _quantiles(cd, "probes"))


def cd_mode(cd: ConfidenceDistribution) -> float:
    """Argmax of the CD density over the central 0.998 quantile range.

    Grid CDs report the midpoint of the steepest segment (first such segment
    on ties); analytic CDs refine a coarse scan with a bounded derivative-free
    maximizer to 1e-8.
    """
    if cd.kind == "sample":
        raise UnsupportedRepresentationError("sample CDs have atoms, not a density mode")
    if cd.kind == "grid":
        slopes = np.diff(cd.values) / np.diff(cd.theta)
        idx = int(np.argmax(slopes))
        return float(0.5 * (cd.theta[idx] + cd.theta[idx + 1]))
    lo = float(cd_quantile(cd, 0.001))
    hi = float(cd_quantile(cd, 0.999))
    xs = np.linspace(lo, hi, 513)
    dens = np.asarray(cd_density(cd, xs), dtype=float)
    idx = int(np.argmax(dens))
    a = xs[max(idx - 1, 0)]
    b = xs[min(idx + 1, xs.size - 1)]
    x, peak = pk.maximize(lambda t: float(cd_density(cd, t)), a, b)
    # the refined point can only improve on the scan
    return x if peak >= dens[idx] else float(xs[idx])


# ---------------------------------------------------------------------------
# supports

def _ccf(cd: ConfidenceDistribution, x: float) -> float:
    """Two-sided centrality of a scalar CD at x: 2 min(H(x), 1 - H(x))."""
    h = float(cd_eval(cd, float(x)))
    return 2.0 * min(h, 1.0 - h)


def _interval_supports(cd, region) -> list:
    """(strong, weak) support of each interval of the region, each finite end
    read once and an infinite end by its sign (H(-inf) = 0, H(inf) = 1)."""
    med = cd_median(cd)
    parts = []
    for lo, hi in region.intervals:
        bot, top = (cd_eval(cd, x) if math.isfinite(x) else float(x > 0.0) for x in (lo, hi))
        # the curve 2 min(H, 1-H) rises to the median then falls, so the
        # supremum over the interval sits at the endpoint nearest the median
        h = top if hi < med else bot
        w = 1.0 if lo <= med <= hi else 2.0 * min(h, 1.0 - h)
        parts.append((float(np.clip(top - bot, 0.0, 1.0)), w))
    return parts


def strong_support(cd: ConfidenceDistribution, region: NullRegion) -> float:
    """H-mass of the region; identically 0 for point nulls."""
    return support_report(cd, region).p_s


def weak_support(cd: ConfidenceDistribution, region: NullRegion) -> float:
    """sup over the region of 2 min(H, 1 - H)."""
    return support_report(cd, region).p_w


def iut_support(cd: ConfidenceDistribution, region: NullRegion) -> float:
    """Union rule for interval unions: the largest single-interval strong support."""
    if region.kind != "intervals":
        raise ParameterDomainError("the union rule applies to interval regions")
    return support_report(cd, region).p_s_star


@dataclass(frozen=True)
class SupportReport:
    """Support summary for one region against one CD."""

    p_s: float
    p_w: float
    p_s_star: float
    points_null: bool
    per_component: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "p_s": self.p_s,
            "p_w": self.p_w,
            "p_s_star": self.p_s_star,
            "points_null": self.points_null,
            "per_component": list(self.per_component),
        }


def support_report(cd: ConfidenceDistribution, region: NullRegion) -> SupportReport:
    """All three supports and the per-component values, each read once."""
    if region.kind == "points":
        comps = tuple({"point": p, "p_s": 0.0, "p_w": _ccf(cd, p)} for p in region.points)
        return SupportReport(0.0, max(c["p_w"] for c in comps), 0.0, True, comps)
    parts = _interval_supports(cd, region)
    comps = tuple(
        {"interval": [None if math.isinf(lo) else lo, None if math.isinf(hi) else hi],
         "p_s": m, "p_w": w}
        for (lo, hi), (m, w) in zip(region.intervals, parts)
    )
    masses = [m for m, _ in parts]
    return SupportReport(float(np.clip(sum(masses), 0.0, 1.0)), max(w for _, w in parts),
                         max(masses), False, comps)


# ---------------------------------------------------------------------------
# classification over a partition

def classify(cd: ConfidenceDistribution, partition: Sequence[NullRegion]) -> int:
    """Index of the partition cell with the largest strong support.

    The cells must be interval regions, globally disjoint, and together carry
    all the CD's mass (within 1e-9).  Ties resolve to the lowest index.
    """
    if not partition:
        raise PartitionError("empty partition")
    all_ivals = []
    for region in partition:
        if region.kind != "intervals":
            raise PartitionError("classification needs interval regions")
        all_ivals.extend(region.intervals)
    all_ivals.sort()
    for (a, b), (c, d) in zip(all_ivals, all_ivals[1:]):
        if c < b:
            raise PartitionError("partition cells overlap")
    supports = [strong_support(cd, region) for region in partition]
    total = sum(supports)
    if abs(total - 1.0) > 1e-9:
        raise PartitionError(f"partition misses mass: supports sum to {total!r}")
    return int(np.argmax(supports))
