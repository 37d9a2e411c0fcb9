"""Distribution primitives: CDFs, quantiles, log-space tails, seeded streams.

Everything downstream of this module treats probability evaluation as exact.
The log-space tail routines are the only nontrivial numerics here: they must
stay accurate where ordinary CDF evaluation underflows (tail masses far below
1e-308), which the slope diagnostics in :mod:`cdkit.compare` rely on.  Below
a tail mass of 1e-280 the chi-square lower tail is a series, and the
chi-square upper and Student-t tails are one continued fraction (the
incomplete gamma's and the incomplete beta's), read by one Lentz evaluator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import special as _sp
from scipy.optimize import brentq as _brentq

from .errors import ParameterDomainError, RootBracketError

__all__ = [
    "RngStream",
    "Normal",
    "StudentT",
    "ChiSquare",
    "Uniform01",
    "DistKind",
    "cdf",
    "quantile",
    "log_tail",
    "gauss_legendre",
    "bracket_root",
]

# Direct log(cdf) is used while the tail mass stays comfortably above the
# smallest normal double; below this the log-space routines take over.
_DIRECT_TAIL_FLOOR = 1e-280


# ---------------------------------------------------------------------------
# seeded streams

@dataclass(frozen=True)
class RngStream:
    """A replayable random stream addressed by (master_seed, stream_index).

    Streams with distinct indices (or distinct child lineages) are
    statistically independent; replaying the same address reproduces the same
    draws.  ``generator()`` returns a fresh generator positioned at the start
    of the stream, so a stream value can be shared freely across workers.
    """

    master_seed: int
    stream_index: int = 0
    lineage: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.master_seed, (int, np.integer)) or self.master_seed < 0:
            raise ParameterDomainError("master_seed must be a nonnegative integer")
        if not isinstance(self.stream_index, (int, np.integer)) or self.stream_index < 0:
            raise ParameterDomainError("stream_index must be a nonnegative integer")
        if any(int(k) < 0 for k in self.lineage):
            raise ParameterDomainError("lineage indices must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.master_seed),
            spawn_key=(int(self.stream_index), *map(int, self.lineage)),
        )
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RngStream":
        """Derive an independent sub-stream; children of distinct indices never collide."""
        return RngStream(self.master_seed, self.stream_index, (*self.lineage, int(index)))


# ---------------------------------------------------------------------------
# distribution kinds

@dataclass(frozen=True)
class Normal:
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ParameterDomainError("Normal mean must be finite")
        if not (self.sd > 0.0 and math.isfinite(self.sd)):
            raise ParameterDomainError("Normal sd must be a positive finite real")


@dataclass(frozen=True)
class StudentT:
    df: float

    def __post_init__(self):
        if not (self.df > 0.0 and math.isfinite(self.df)):
            raise ParameterDomainError("StudentT df must be a positive finite real")


@dataclass(frozen=True)
class ChiSquare:
    df: float

    def __post_init__(self):
        if not (self.df > 0.0 and math.isfinite(self.df)):
            raise ParameterDomainError("ChiSquare df must be a positive finite real")


@dataclass(frozen=True)
class Uniform01:
    pass


DistKind = Union[Normal, StudentT, ChiSquare, Uniform01]


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


# ---------------------------------------------------------------------------
# cdf / quantile

def _check_side(side: str) -> None:
    if side not in ("lower", "upper"):
        raise ParameterDomainError(f"side must be 'lower' or 'upper', got {side!r}")


def cdf(d: DistKind, x, side: str = "lower") -> float | np.ndarray:
    """P(X <= x), or P(X > x) for side='upper'.  Accepts scalars or arrays;
    +-inf map to 1/0 (0/1 upper)."""
    _check_side(side)
    arr, scalar = _as_float_array(x)
    lower = side == "lower"
    if isinstance(d, Normal):
        z = (arr - d.mean) / d.sd
        out = _sp.ndtr(z if lower else -z)
    elif isinstance(d, StudentT):
        out = _sp.stdtr(d.df, arr if lower else -arr)
    elif isinstance(d, ChiSquare):
        tail = _sp.chdtr if lower else _sp.chdtrc
        out = np.where(arr > 0.0, tail(d.df, np.maximum(arr, 0.0)), float(not lower))
    elif isinstance(d, Uniform01):
        out = np.clip(arr, 0.0, 1.0)
        out = out if lower else 1.0 - out
    else:
        raise ParameterDomainError(f"unknown distribution kind {type(d).__name__}")
    out = np.asarray(out, dtype=float)
    return float(out) if scalar else out


def quantile(d: DistKind, p, side: str = "lower") -> float | np.ndarray:
    """Inverse CDF for p strictly inside (0, 1): the x with P(X <= x) = p, or
    with P(X > x) = p for side='upper'.  Each side inverts its own tail, not
    1 - p, which rounds."""
    _check_side(side)
    arr, scalar = _as_float_array(p)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ParameterDomainError("quantile requires probabilities strictly in (0, 1)")
    lower = side == "lower"
    if isinstance(d, Normal):
        out = d.mean + d.sd * _sp.ndtri(arr) if lower else d.mean - d.sd * _sp.ndtri(arr)
    elif isinstance(d, StudentT):
        out = _sp.stdtrit(d.df, arr) if lower else -_sp.stdtrit(d.df, arr)
    elif isinstance(d, ChiSquare):
        out = 2.0 * (_sp.gammaincinv if lower else _sp.gammainccinv)(d.df / 2.0, arr)
    elif isinstance(d, Uniform01):
        out = arr.copy() if lower else 1.0 - arr
    else:
        raise ParameterDomainError(f"unknown distribution kind {type(d).__name__}")
    out = np.asarray(out, dtype=float)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# log-space tails

def _lentz(b0: float, term) -> float:
    """b0 + a1 / (b1 + a2 / (b2 + ...)) for b0 != 0, term(k) giving (a_k, b_k),
    by the modified Lentz method: stops at a step under an ulp or 10000 terms."""
    tiny = 1e-300
    f = c = b0
    d = 0.0
    for k in range(1, 10000):
        a_k, b_k = term(k)
        d = b_k + a_k * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b_k + a_k / c
        c = c if abs(c) >= tiny else tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return f


def _t_log_cdf(df: float, x: float) -> float:
    p = float(_sp.stdtr(df, x))
    if p >= _DIRECT_TAIL_FLOOR:
        return math.log(p)
    # P(T <= x) = I_y(h, 1/2) / 2 at y = df / (df + x^2) and h = df / 2, by the
    # incomplete beta continued fraction (Numerical Recipes' betacf)
    h = df / 2.0
    log_1my = -math.log1p(df / x / x)  # log(1 - y), with no x^2 to overflow
    log_y = math.log(df) - 2.0 * math.log(-x) + log_1my
    y = math.exp(log_y)

    def term(k):
        m = k // 2
        num = m * (0.5 - m) if k % 2 == 0 else -(h + m) * (h + 0.5 + m)
        return num * y / ((h + k - 1.0) * (h + k)), 1.0

    return (h * log_y + 0.5 * log_1my - math.log(df) - float(_sp.betaln(h, 0.5))
            - math.log(_lentz(1.0, term)))


def _gamma_log_lower(a: float, z: float) -> float:
    """log of the regularized lower incomplete gamma P(a, z), series form."""
    if z <= 0.0:
        return -np.inf
    term = 1.0
    total = 1.0
    for m in range(1, 10000):
        term *= z / (a + m)
        total += term
        if term < total * 1e-18:
            break
    return a * math.log(z) - z - float(_sp.gammaln(a + 1.0)) + math.log(total)


def _gamma_log_upper(a: float, z: float) -> float:
    """log of the regularized upper incomplete gamma Q(a, z), by its continued fraction."""
    cf = _lentz(z + 1.0 - a, lambda k: (-k * (k - a), z + 2.0 * k + 1.0 - a))
    return -z + a * math.log(z) - float(_sp.gammaln(a)) - math.log(cf)


def _chi2_log_cdf(df: float, x: float) -> float:
    if x <= 0.0:
        return -np.inf
    p = float(_sp.chdtr(df, x))
    if p >= _DIRECT_TAIL_FLOOR:
        return math.log(p)
    return _gamma_log_lower(df / 2.0, x / 2.0)


def _chi2_log_sf(df: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    q = float(_sp.chdtrc(df, x))
    if q >= _DIRECT_TAIL_FLOOR:
        return math.log(q)
    return _gamma_log_upper(df / 2.0, x / 2.0)


def log_tail(d: DistKind, x: float, side: str) -> float:
    """log P(X <= x) for side='lower', log P(X > x) for side='upper'.

    Stays accurate far past double underflow.
    """
    _check_side(side)
    x = float(x)
    if math.isinf(x):  # the whole mass or none, before any numerics
        return 0.0 if (x > 0.0) == (side == "lower") else -math.inf
    if isinstance(d, Normal):
        z = (x - d.mean) / d.sd
        return float(_sp.log_ndtr(z if side == "lower" else -z))
    if isinstance(d, StudentT):
        return _t_log_cdf(d.df, x) if side == "lower" else _t_log_cdf(d.df, -x)
    if isinstance(d, ChiSquare):
        return _chi2_log_cdf(d.df, x) if side == "lower" else _chi2_log_sf(d.df, x)
    if isinstance(d, Uniform01):
        if side == "lower":
            if x <= 0.0:
                return -np.inf
            return 0.0 if x >= 1.0 else math.log(x)
        if x >= 1.0:
            return -np.inf
        return 0.0 if x <= 0.0 else math.log1p(-x)
    raise ParameterDomainError(f"unknown distribution kind {type(d).__name__}")


# ---------------------------------------------------------------------------
# shared numerics

@lru_cache(maxsize=32)
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    # scipy solves the banded Golub-Welsch problem: 0.2 s for 2048 points,
    # against 2 s for numpy's dense companion-matrix leggauss
    nodes, weights = _sp.roots_legendre(npts)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _try_eval(f, x: float) -> float:
    try:
        v = float(f(x))
    except (ArithmeticError, ValueError):
        return math.nan
    return v


def _finite_anchor(f, bound: float, inward: float) -> tuple[float, float]:
    # back off a finite support edge until f evaluates finite there
    x = bound
    fx = _try_eval(f, x)
    gap = (inward - bound) * 1e-12
    for _ in range(60):
        if math.isfinite(fx):
            return x, fx
        x = bound + gap
        fx = _try_eval(f, x)
        gap *= 10.0
        if (inward - bound) * (inward - x) <= 0.0:
            break
    raise RootBracketError("function is not finite anywhere near a support edge")


def _step_out(f, x: float, fx: float, step: float) -> tuple[float, float, float]:
    # one outward probe at x + step (step signed), kept within the doubles: the
    # new end, f there and the next step; a probe where f overflows lies past
    # the root, so the end stays and the step halves
    t = min(max(x + step, -sys.float_info.max), sys.float_info.max)
    ft = _try_eval(f, t)
    return (t, ft, 2.0 * step) if math.isfinite(ft) else (x, fx, 0.5 * step)


def bracket_root(f, lo: float, hi: float, *, xtol: float = 1e-12) -> float:
    """Root of a monotone-ish f on (lo, hi); endpoints may be infinite.

    Finite edges are nudged inward if f blows up there; infinite sides are
    searched by doubling steps, out to the largest double, until a sign
    change appears.
    """
    inner = 0.0
    if math.isfinite(lo) and math.isfinite(hi):
        inner = 0.5 * (lo + hi)
    elif math.isfinite(lo):
        inner = lo + 1.0
    elif math.isfinite(hi):
        inner = hi - 1.0
    if math.isfinite(lo):
        a, fa = _finite_anchor(f, lo, inner)
    else:
        a, fa = inner - 1.0, f(inner - 1.0)
    if math.isfinite(hi):
        b, fb = _finite_anchor(f, hi, inner)
    else:
        b, fb = inner + 1.0, f(inner + 1.0)

    step_b = max(1.0, abs(b - a))
    step_a = -step_b
    for _ in range(4096):
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0.0:
            return float(_brentq(f, a, b, xtol=xtol))
        grew = False
        if not math.isfinite(lo) and a > -sys.float_info.max:
            a, fa, step_a = _step_out(f, a, fa, step_a)
            grew = True
        if not math.isfinite(hi) and b < sys.float_info.max:
            b, fb, step_b = _step_out(f, b, fb, step_b)
            grew = True
        if not grew:
            break
    raise RootBracketError(f"could not bracket a sign change on ({lo}, {hi})")
