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
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import special as _sp

from .errors import OptimizationFailureError, ParameterDomainError

__all__ = [
    "RngStream",
    "stream_words",
    "pcg64_generator",
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
        words = stream_words(self.master_seed, (self.stream_index,), self.lineage)[0]
        return pcg64_generator(words)

    def child(self, index: int) -> "RngStream":
        """Derive an independent sub-stream; children of distinct indices never collide."""
        return RngStream(self.master_seed, self.stream_index, (*self.lineage, int(index)))


# numpy's SeedSequence, restated on Python ints (numpy/random/bit_generator.pyx):
# the seed's words fill a pool of four 32-bit words, the spawn key's words mix
# into it, and the pool hashes out the state words.  Each hash step multiplies
# its constant on, whatever the word, so the constants are fixed sequences.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the pool's hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the output's hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words32(n: int) -> list[int]:
    """A nonnegative int's 32-bit words, least significant first; [0] for 0."""
    if n < 0:
        raise ParameterDomainError("stream addresses must be nonnegative integers")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hash_steps(h: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(constant before, constant after) for count hash steps from constant h."""
    steps = []
    for _ in range(count):
        steps.append((h, h * mult & _M32))
        h = steps[-1][1]
    return steps


def _hashmix(value: int, step: tuple[int, int]) -> int:
    value = (value ^ step[0]) * step[1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


@lru_cache(maxsize=256)
def _seed_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """The pool once the seed's words are in, and the pool hash's next constant.
    With a spawn key, numpy pads the seed to four words."""
    entropy = _words32(master_seed)
    entropy += [0] * (4 - len(entropy))
    steps = _hash_steps(_INIT_A, _MULT_A, 4 * len(entropy))
    step = iter(steps)
    pool = [_hashmix(e, next(step)) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(step)))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(e, next(step)))
    return tuple(pool), steps[-1][1]


@lru_cache(maxsize=256)
def _key_steps(h: int, n_index: int, tail: tuple[int, ...]) -> tuple:
    """The pool hash's steps for n_index index words, four to a word, from constant
    h; and the hashes of the lineage words that follow them, times _MIX_R.  The
    lineage's hashes are the same for every index, so only its mixing is left."""
    steps = _hash_steps(h, _MULT_A, 4 * (n_index + len(tail)))
    index = tuple(tuple(steps[4 * k:4 * k + 4]) for k in range(n_index))
    mixes = tuple(tuple(_MIX_R * _hashmix(e, step) for step in steps[4 * k:4 * k + 4])
                  for k, e in enumerate(tail, start=n_index))
    return index, mixes


_OUT_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)


def stream_words(master_seed: int, indices, lineage=()) -> list[tuple[int, int, int, int]]:
    """The PCG64 seed words of the streams (master_seed, i, *lineage) for i in indices.

    Each is ``np.random.SeedSequence(master_seed, spawn_key=(i, *lineage))
    .generate_state(4, np.uint64)``, as Python ints, for seeds and indices of
    any size.  The seed's part of the pool is computed once per seed; the
    spawn key mixes in per index, on Python ints, which beat numpy's uint32
    arrays by far on one stream."""
    pool, h = _seed_pool(int(master_seed))
    tail = tuple(w for k in lineage for w in _words32(int(k)))
    out = []
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6), (a7, b7) = _OUT_STEPS
    for i in indices:
        i = int(i)
        key = (i,) if 0 <= i <= _M32 else _words32(i)
        index_steps, tail_mixes = _key_steps(h, len(key), tail)
        p0, p1, p2, p3 = pool
        # _mix(p, _hashmix(e, step)) into each pool word, written out: this loop is the cost
        for e, ((c0, d0), (c1, d1), (c2, d2), (c3, d3)) in zip(key, index_steps):
            v = (e ^ c0) * d0 & _M32
            r = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _M32
            p0 = r ^ r >> 16
            v = (e ^ c1) * d1 & _M32
            r = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _M32
            p1 = r ^ r >> 16
            v = (e ^ c2) * d2 & _M32
            r = (_MIX_L * p2 - _MIX_R * (v ^ v >> 16)) & _M32
            p2 = r ^ r >> 16
            v = (e ^ c3) * d3 & _M32
            r = (_MIX_L * p3 - _MIX_R * (v ^ v >> 16)) & _M32
            p3 = r ^ r >> 16
        for m0, m1, m2, m3 in tail_mixes:
            r = (_MIX_L * p0 - m0) & _M32
            p0 = r ^ r >> 16
            r = (_MIX_L * p1 - m1) & _M32
            p1 = r ^ r >> 16
            r = (_MIX_L * p2 - m2) & _M32
            p2 = r ^ r >> 16
            r = (_MIX_L * p3 - m3) & _M32
            p3 = r ^ r >> 16
        # the state words cycle through the pool twice; pairs of them make each uint64
        w0, w1 = (p0 ^ a0) * b0 & _M32, (p1 ^ a1) * b1 & _M32
        w2, w3 = (p2 ^ a2) * b2 & _M32, (p3 ^ a3) * b3 & _M32
        w4, w5 = (p0 ^ a4) * b4 & _M32, (p1 ^ a5) * b5 & _M32
        w6, w7 = (p2 ^ a6) * b6 & _M32, (p3 ^ a7) * b7 & _M32
        out.append((w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32, w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32,
                    w4 ^ w4 >> 16 | (w5 ^ w5 >> 16) << 32, w6 ^ w6 >> 16 | (w7 ^ w7 >> 16) << 32))
    return out


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Seed words that PCG64 takes as its seed sequence's state."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=np.uint64)


def pcg64_generator(words) -> np.random.Generator:
    """A fresh Generator on the PCG64 stream that ``stream_words`` gave words for."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


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
