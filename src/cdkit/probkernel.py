"""Distribution primitives: densities, CDFs, quantiles, log-space tails, seeded streams.

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
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special as _sp

from .errors import OptimizationFailureError, ParameterDomainError

__all__ = [
    "RngStream",
    "Normal",
    "StudentT",
    "ChiSquare",
    "Uniform01",
    "DistKind",
    "density",
    "cdf",
    "quantile",
    "log_tail",
    "maximize",
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


def _shape_in(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _shape_out(arr, scalar):
    arr = np.asarray(arr, dtype=float)
    return float(arr) if scalar else arr


# ---------------------------------------------------------------------------
# density / cdf / quantile

def density(d: DistKind, x) -> float | np.ndarray:
    """The density of a Normal, StudentT or ChiSquare d at x (0 at and below 0
    for ChiSquare).  Accepts scalars or arrays."""
    arr, scalar = _shape_in(x)
    if isinstance(d, Normal):
        z = (arr - d.mean) / d.sd
        out = np.exp(-0.5 * z ** 2) / math.sqrt(2.0 * math.pi) / d.sd
    elif isinstance(d, StudentT):
        df = d.df
        c = _sp.gammaln((df + 1.0) / 2.0) - _sp.gammaln(df / 2.0) - 0.5 * math.log(df * math.pi)
        out = np.exp(c - 0.5 * (df + 1.0) * np.log1p(arr * arr / df))
    elif isinstance(d, ChiSquare):
        a = d.df / 2.0
        with np.errstate(all="ignore"):
            out = np.exp((a - 1.0) * np.log(arr) - arr / 2.0 - a * math.log(2.0) - _sp.gammaln(a))
        out = np.where(arr > 0.0, out, 0.0)
    else:
        raise ParameterDomainError(f"no density for the distribution kind {type(d).__name__}")
    return _shape_out(out, scalar)


def _check_side(side: str) -> None:
    if side not in ("lower", "upper"):
        raise ParameterDomainError(f"side must be 'lower' or 'upper', got {side!r}")


def cdf(d: DistKind, x, side: str = "lower") -> float | np.ndarray:
    """P(X <= x), or P(X > x) for side='upper'.  Accepts scalars or arrays;
    +-inf map to 1/0 (0/1 upper)."""
    _check_side(side)
    arr, scalar = _shape_in(x)
    lower = side == "lower"
    if isinstance(d, Normal):
        z = (arr - d.mean) / d.sd
        out = _sp.ndtr(z if lower else -z)
    elif isinstance(d, StudentT):
        out = _sp.stdtr(d.df, arr if lower else -arr)
    elif isinstance(d, ChiSquare):
        tail = _sp.chdtr if lower else _sp.chdtrc
        out = np.where(arr <= 0.0, float(not lower), tail(d.df, np.maximum(arr, 0.0)))
    elif isinstance(d, Uniform01):
        out = np.clip(arr, 0.0, 1.0)
        out = out if lower else 1.0 - out
    else:
        raise ParameterDomainError(f"unknown distribution kind {type(d).__name__}")
    return _shape_out(out, scalar)


def quantile(d: DistKind, p, side: str = "lower") -> float | np.ndarray:
    """Inverse CDF for p strictly inside (0, 1): the x with P(X <= x) = p, or
    with P(X > x) = p for side='upper'.  Each side inverts its own tail, not
    1 - p, which rounds."""
    _check_side(side)
    arr, scalar = _shape_in(p)
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
    return _shape_out(out, scalar)


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
# bounded maximization

def maximize(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the maximum of f on [lo, hi], by a bounded search to 1e-8.
    scipy.optimize loads on the first call: most commands never maximize."""
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-8})
    if not res.success:
        raise OptimizationFailureError("bounded maximization did not converge", theta=float(res.x))
    return float(res.x), -float(res.fun)
