"""Seeded Monte Carlo experiments: calibration, coverage, and consistency.

A CdGenerator names a data-generating process with a true parameter and a CD
construction recipe.  Replicate i draws data from the sub-stream
(master_seed, i, 0) and hands resampling randomness the sub-stream
(master_seed, i, 1), so every replicate is a pure function of the config and
its index: reports are bit-for-bit reproducible at any worker count.
``run_replicates`` is the one loop over replicates, for calibrate and compare;
it hands out blocks of replicate indices.  calibrate draws a block of a pivot
or normal-approximation recipe as one (block, n) array and binds its CDs as
one family CD over parameter arrays; every other recipe builds a CD per
replicate.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import kolmogorov

from . import probkernel as pk
from .bootstrap import (
    _MIN_RESAMPLES,
    ResamplePlan,
    bootstrap_t_cd,
    hall_bootstrap_cd,
    mean_block,
    mean_se_block,
    raw_bootstrap_cd,
    reflected_bootstrap_cd,
    resample_block,
)
from .cd_core import (
    ConfidenceDistribution,
    _interval_probs,
    cd_eval,
    cd_quantile,
    family_block,
    location_scale_cd,
    sample_cd,
    write_table,
)
from .constructors import (
    DataSample,
    PairedSample,
    exponential_rate_cd,
    exponential_rate_rows,
    fisher_z_corr_cd,
    fisher_z_rows,
    normal_mean_cd,
    normal_mean_rows,
    normal_variance_cd,
    normal_variance_rows,
)
from .errors import CdkitError, ConfigError, InsufficientDataError, ParameterDomainError
from .likelihood import _MIN_GRID, likelihood_acd

__all__ = [
    "CdGenerator",
    "CalibrationReport",
    "run_replicates",
    "ks_uniform",
    "calibrate",
    "coverage",
    "generator_from_config",
    "generator_to_config",
    "report_to_json",
    "dump_u_values",
]

_DEFAULT_LEVELS = (0.5, 0.9, 0.95, 0.99)
_REPLICATE_BLOCK = 256  # run_replicates hands out this many replicate indices at a time

# which construction recipes make sense for which data model
_SUPPORTED = {
    "normal-mean-known-sigma": (
        "pivot", "raw-bootstrap", "reflected-bootstrap", "bootstrap-t",
        "hall-bootstrap", "likelihood", "asymptotic-mean", "asymptotic-median",
        "mis-scaled-pivot", "point-mass",
    ),
    "normal-mean-unknown-sigma": (
        "pivot", "raw-bootstrap", "reflected-bootstrap", "bootstrap-t",
        "hall-bootstrap", "point-mass",
    ),
    "normal-variance": ("pivot", "point-mass"),
    "bivariate-normal-correlation": ("pivot", "point-mass"),
    "exponential-rate": ("pivot", "likelihood", "point-mass"),
}

# params keys, in the order config errors list them, with the value each takes when absent
_PARAM_DEFAULTS = {"sigma": 1.0, "mean": 0.0, "B": 1000, "grid_size": 256}

_BOOTSTRAP = {"raw-bootstrap", "reflected-bootstrap", "bootstrap-t", "hall-bootstrap"}

# model -> its exact CD, from the data array and the known sigma (None when unknown);
# each row looks its constructor up when called, so a patched global sees each build
_EXACT_CDS = {
    "normal-mean-known-sigma": lambda data, sigma: normal_mean_cd(DataSample(data), sigma),
    "normal-mean-unknown-sigma": lambda data, _sigma: normal_mean_cd(DataSample(data)),
    "normal-variance": lambda data, _sigma: normal_variance_cd(DataSample(data)),
    "bivariate-normal-correlation": lambda data, _sigma: fisher_z_corr_cd(PairedSample(data)),
    "exponential-rate": lambda data, _sigma: exponential_rate_cd(DataSample(data)),
}
# model -> its exact CD's (family row, parameters, rows kept) along the data's last axis
_EXACT_ROWS = {
    "normal-mean-known-sigma": normal_mean_rows,
    "normal-mean-unknown-sigma": lambda data, _sigma: normal_mean_rows(data),
    "normal-variance": lambda data, _sigma: normal_variance_rows(data),
    "bivariate-normal-correlation": lambda data, _sigma: fisher_z_rows(data),
    "exponential-rate": lambda data, _sigma: exponential_rate_rows(data),
}
# known-sigma normal approximations: (centre of the data, factor on sigma / sqrt(n))
_ASYMPTOTIC = {
    "asymptotic-mean": (np.mean, 1.0),
    "asymptotic-median": (np.median, math.sqrt(math.pi / 2.0)),
    "mis-scaled-pivot": (np.mean, 0.5),
}


def run_replicates(block_fn, indices) -> list:
    """[block_fn(block) for each block of ``_REPLICATE_BLOCK`` indices], in index order.

    CDKIT_THREADS > 1 maps block_fn over the blocks on one thread pool of at
    most os.cpu_count() workers, and never more workers than blocks.
    block_fn(block) must be a pure function of its indices, so the result is
    identical either way.  It handles its own failures: an exception it lets
    out ends the run, the lowest block's first.
    """
    blocks = [indices[start:start + _REPLICATE_BLOCK]
              for start in range(0, len(indices), _REPLICATE_BLOCK)]
    try:
        workers = min(int(os.environ.get("CDKIT_THREADS", "1")), os.cpu_count() or 1,
                      len(blocks))
    except ValueError:
        workers = 1
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        return list((map if pool is None else pool.map)(block_fn, blocks))


@dataclass(frozen=True)
class CdGenerator:
    """A data model with true theta0 plus a CD construction recipe."""

    model: str
    constructor: str
    n: int
    theta0: float
    master_seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in _SUPPORTED:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.constructor not in _SUPPORTED[self.model]:
            raise ConfigError(
                f"constructor {self.constructor!r} is not supported for {self.model!r}")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if not math.isfinite(self.theta0):
            raise ConfigError(f"theta0 must be finite, got {self.theta0!r}")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.master_seed!r}")
        if self.model == "normal-variance" and not self.theta0 > 0.0:
            raise ConfigError("variance theta0 must be positive")
        if self.model == "exponential-rate" and not self.theta0 > 0.0:
            raise ConfigError("rate theta0 must be positive")
        if self.model == "bivariate-normal-correlation":
            if not -1.0 < self.theta0 < 1.0:
                raise ConfigError("correlation theta0 must lie in (-1, 1)")
            if self.n < 4:
                raise ConfigError("correlation model needs n >= 4")
        self._check_params()

    def _check_params(self):
        # bad params fail here, as config errors, not inside every replicate
        unknown = [key for key in self.params if key not in _PARAM_DEFAULTS]
        if unknown:
            raise ConfigError(f"unknown params key {unknown[0]!r}; known keys are "
                              f"{', '.join(_PARAM_DEFAULTS)}")
        sigma = self._param("sigma")
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ConfigError(f"params.sigma must be positive and finite, got {sigma!r}")
        mean = self._param("mean")
        if not math.isfinite(mean):
            raise ConfigError(f"params.mean must be finite, got {mean!r}")
        for key, floor in (("B", _MIN_RESAMPLES), ("grid_size", _MIN_GRID)):
            size = self._param(key)
            if size < floor:
                raise ConfigError(f"params.{key} must be at least {floor}, got {size}")

    def _param(self, key):
        """params[key], or its default when absent, cast to the default's type."""
        default = _PARAM_DEFAULTS[key]
        try:
            return type(default)(self.params.get(key, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"params.{key} must be a number") from exc

    @property
    def data_shape(self) -> str:
        return "paired" if self.model == "bivariate-normal-correlation" else "flat"

    def stream(self, index: int) -> pk.RngStream:
        return pk.RngStream(self.master_seed, index)

    @property
    def draw_key(self) -> tuple:
        """Everything draw_block reads: generators with equal keys draw equal data.

        The two normal-mean models draw alike, so they share a family.
        """
        if self.model in ("normal-mean-known-sigma", "normal-mean-unknown-sigma"):
            return ("normal-mean", self.n, self.theta0, self.master_seed, self._param("sigma"))
        if self.model == "normal-variance":
            return (self.model, self.n, self.theta0, self.master_seed, self._param("mean"))
        return (self.model, self.n, self.theta0, self.master_seed)

    def draw_block(self, indices) -> np.ndarray:
        """The data of replicates indices, a row each: (len(indices), n), or
        (len(indices), n, 2) for paired data.  Row i is drawn from the stream
        (master_seed, i, 0)."""
        family, n, theta0, seed, *extra = self.draw_key
        rngs = map(pk.pcg64_generator, pk.stream_words(seed, indices, (0,)))
        if family == "normal-mean":
            return np.array([rng.normal(theta0, extra[0], size=n) for rng in rngs])
        if family == "normal-variance":
            return np.array([rng.normal(extra[0], math.sqrt(theta0), size=n) for rng in rngs])
        if family == "exponential-rate":
            return np.array([rng.exponential(1.0 / theta0, size=n) for rng in rngs])
        rho = theta0
        z = np.array([rng.normal(0.0, 1.0, size=(n, 2)) for rng in rngs])
        return np.stack([z[..., 0], rho * z[..., 0] + math.sqrt(1.0 - rho * rho) * z[..., 1]],
                        axis=-1)

    def draw_data(self, index: int) -> np.ndarray:
        return self.draw_block((index,))[0]

    @property
    def block_born(self) -> bool:
        """Whether calibrate builds this recipe's CDs a block at a time, by family_rows."""
        return self.constructor == "pivot" or self.constructor in _ASYMPTOTIC

    def family_rows(self, data: np.ndarray) -> tuple:
        """(family row, parameters, rows kept) of a block_born recipe's CDs, one per
        row of data, as ``cd_core.family_block`` takes them."""
        if self.constructor == "pivot":
            return _EXACT_ROWS[self.model](data, self._param("sigma"))
        loc, scale = self._normal_approx(data)
        return "location-scale", {"loc": loc, "scale": scale, "df": None}, True

    def _normal_approx(self, data):
        """A known-sigma normal approximation's (loc, scale) along data's last axis."""
        centre, factor = _ASYMPTOTIC[self.constructor]
        with np.errstate(all="ignore"):  # a centre that overflows fails as a spec, not a warning
            loc = centre(data, axis=-1)
        return loc, self._param("sigma") / math.sqrt(self.n) * factor

    def build_cd(self, data: np.ndarray, index: int) -> ConfidenceDistribution:
        if self.constructor == "point-mass":
            return sample_cd([self.theta0])
        if self.constructor in _BOOTSTRAP:
            return self._bootstrap_cd(data, index)
        if self.constructor == "likelihood":
            return self._likelihood_cd(data)
        if self.constructor == "pivot":
            return _EXACT_CDS[self.model](data, self._param("sigma"))
        loc, scale = self._normal_approx(data)
        return location_scale_cd(pk.Normal(0.0, 1.0), float(loc), scale)

    def _bootstrap_cd(self, data, index):
        sample = DataSample(data)
        plan = ResamplePlan(self._param("B"), self.stream(index).child(1))
        if self.constructor == "hall-bootstrap":
            return hall_bootstrap_cd(sample, plan)
        if self.constructor == "bootstrap-t":
            return bootstrap_t_cd(resample_block(sample, plan, mean_se_block))
        rep = resample_block(sample, plan, mean_block)
        if self.constructor == "raw-bootstrap":
            return raw_bootstrap_cd(rep)
        return reflected_bootstrap_cd(rep)

    def _likelihood_cd(self, data):
        grid_size = self._param("grid_size")
        n = self.n
        if self.model == "exponential-rate":
            total = float(np.sum(data))
            est = n / total
            loglik = lambda theta, _eta: n * np.log(theta) - theta * total
            half = 14.0 / math.sqrt(n)
            window = (max(est * (1.0 - half), est * 0.01), est * (1.0 + half))
            return likelihood_acd(loglik, window, grid_size, n=n, support=(1e-300, math.inf))
        xbar = float(np.mean(data))
        sigma = self._param("sigma")
        loglik = lambda t, _eta: -n * np.square(t - xbar) / (2.0 * sigma ** 2)
        half = 14.0 * sigma / math.sqrt(n)
        return likelihood_acd(loglik, (xbar - half, xbar + half), grid_size, n=n)

    def replicate(self, index: int) -> ConfidenceDistribution:
        return self.build_cd(self.draw_data(index), index)


# ---------------------------------------------------------------------------
# uniformity test

def ks_uniform(u_values) -> tuple[float, float]:
    """Two-sided KS statistic against U(0,1) with the asymptotic p-value."""
    u = np.sort(np.asarray(u_values, dtype=float))
    if u.size < 10:
        raise InsufficientDataError("uniformity test needs at least 10 values")
    if u[0] < 0.0 or u[-1] > 1.0 or not np.all(np.isfinite(u)):
        raise ParameterDomainError("u-values must lie in [0, 1]")
    n = u.size
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - u))
    d_minus = float(np.max(u - (steps - 1.0 / n)))
    d = max(d_plus, d_minus)
    return d, float(kolmogorov(math.sqrt(n) * d))


# ---------------------------------------------------------------------------
# experiments

@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """Everything one calibration run produces."""

    u_values: np.ndarray
    ks_statistic: float
    ks_p_value: float
    coverage: tuple[tuple[float, float, float], ...]  # (level, frequency, se)
    median_unbiased_fraction: float
    failures: int
    reps: int
    config: dict


def _replicate_summary(gen: CdGenerator, index: int):
    """Replicate index's CD, or None if its build raises (perfbench traces this signature)."""
    try:
        return gen.replicate(index)
    except CdkitError:
        return None


def _read_block(gen: CdGenerator, levels, block):
    """(u-values, (k, m) interval hits, medians at or below theta0) of the m
    replicates of block whose CDs build.

    A block_born recipe's block is one family CD over the rows that pass its
    checks, read by one cd_eval and one cd_quantile; any other recipe's CDs
    are built and read one replicate at a time, and one whose build raises a
    CdkitError is dropped."""
    if gen.block_born:
        cds = [family_block(*gen.family_rows(gen.draw_block(block)))[0]]
    else:
        cds = [cd for cd in map(partial(_replicate_summary, gen), block) if cd is not None]
    k = len(levels)  # read at the k lower interval ends, the k upper ends, then 0.5
    probs = np.array([_interval_probs(lv)[i] for i in (0, 1) for lv in levels] + [0.5])
    theta0 = gen.theta0
    u = np.concatenate([np.empty(0)] + [cd_eval(cd, np.array([theta0])) for cd in cds])
    q = np.concatenate([np.empty((2 * k + 1, 0))] + [cd_quantile(cd, probs[:, None])
                                                     for cd in cds], axis=1)
    return u, (q[:k] <= theta0) & (theta0 <= q[k:2 * k]), q[-1] <= theta0


def calibrate(gen: CdGenerator, reps: int, levels=_DEFAULT_LEVELS) -> CalibrationReport:
    """reps seeded (data, CD) draws, u-values, KS, coverage, median check.

    Each CD is a pure function of its index.  ``_read_block`` reads a block of
    them; a replicate whose CD does not build is dropped and counted."""
    if reps < 100:
        raise ConfigError("calibration needs reps >= 100")
    if not all(0.0 < lv < 1.0 for lv in levels):
        raise ConfigError(f"levels must lie in (0, 1), got {list(levels)}")
    reads = run_replicates(partial(_read_block, gen, levels), range(reps))
    u_arr, hits, below = (np.concatenate(parts, axis=-1) for parts in zip(*reads))
    m = u_arr.size
    if m < 10:
        raise InsufficientDataError(f"only {m} usable replicates of {reps}")
    stat, p = ks_uniform(np.clip(u_arr, 0.0, 1.0))
    cov = tuple((float(level), freq, math.sqrt(max(freq * (1.0 - freq), 1e-12) / m))
                for level, freq in zip(levels, (hits.sum(axis=1) / m).tolist()))
    med = int(np.sum(below)) / m
    return CalibrationReport(
        u_values=u_arr, ks_statistic=stat, ks_p_value=p, coverage=cov,
        median_unbiased_fraction=med, failures=reps - m, reps=reps,
        config=generator_to_config(gen),
    )


def coverage(gen: CdGenerator, levels, reps: int):
    """Empirical central-interval coverage per level, with binomial se."""
    return calibrate(gen, reps, tuple(levels)).coverage


# ---------------------------------------------------------------------------
# config and report plumbing

def generator_to_config(gen: CdGenerator) -> dict:
    return {"model": gen.model, "constructor": gen.constructor, "n": gen.n,
            "theta0": gen.theta0, "seed": gen.master_seed, "params": dict(gen.params)}


def generator_from_config(obj: dict) -> CdGenerator:
    try:
        fields = dict(model=obj["model"], constructor=obj["constructor"], n=int(obj["n"]),
                      theta0=float(obj["theta0"]), master_seed=int(obj["seed"]),
                      params=dict(obj.get("params", {})))
    except KeyError as exc:
        raise ConfigError(f"experiment config is missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"experiment config: {exc}") from exc
    return CdGenerator(**fields)


def report_to_json(report: CalibrationReport) -> str:
    body = {
        "config": report.config,
        "reps": report.reps,
        "failures": report.failures,
        "ks_statistic": report.ks_statistic,
        "ks_p_value": report.ks_p_value,
        "coverage": [{"level": lv, "frequency": fr, "se": se}
                     for lv, fr, se in report.coverage],
        "median_unbiased_fraction": report.median_unbiased_fraction,
        "u_values": [float(v) for v in report.u_values],
    }
    return json.dumps(body, sort_keys=True)


def dump_u_values(report: CalibrationReport, path) -> None:
    write_table(path, ["replicate", "u"], [range(len(report.u_values)), report.u_values])
