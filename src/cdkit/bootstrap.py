"""Bootstrap CDs: raw percentile, reflected, studentized, and skew-corrected.

All variants share one resampling engine, :func:`resample_block`.  The full
(B, n) index block is drawn in a single vectorized call, so replicate r is a
fixed function of the stream and the dimensions, independent of evaluation
order or thread count.

Block statistics.  The engine hands the gathered resamples to a block
statistic: a function mapping an (m, n) array, one resample per row, to a
pair (theta, se) of length-m float arrays, where se is None when the variant
needs no standard error.  Row r of the output must depend on row r of the
input alone.  Rows with a non-finite theta, or a non-finite or non-positive
se, are excluded and counted; fewer than 100 survivors is an error.  The
original sample is evaluated as a one-row block and must give a finite theta
and, when present, a finite positive se.

Conventions.  Every variant returns a sample CD: a right-continuous step
CDF on B equal-weight atoms, whose s-quantile is the ceil(B s)-th smallest
atom (``cd_core`` states the rule once).  The raw CD's atoms are the
resampled statistics; the reflected CD pivots each through the original
estimate (atom 2*theta_hat - theta_r), which makes H(x) the resampling
probability of {theta_r >= 2*theta_hat - x} exactly.  The studentized CD's
atoms are theta_hat - se_hat * z_r for studentized residuals z_r, and the
skew-corrected CD's are the original-sample cubic mean pivot inverted at
each resample's pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import probkernel as pk
from .cd_core import ConfidenceDistribution, sample_cd, write_table
from .constructors import DataSample, _hall_cubic, hall_pivot_inverse
from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    InsufficientReplicatesError,
    ParameterDomainError,
)

__all__ = [
    "ResamplePlan",
    "ReplicateSet",
    "resample_block",
    "resample",
    "mean_block",
    "mean_se_block",
    "raw_bootstrap_cd",
    "reflected_bootstrap_cd",
    "bootstrap_t_cd",
    "hall_bootstrap_cd",
    "dump_replicates",
]

_MIN_RESAMPLES = 100


@dataclass(frozen=True)
class ResamplePlan:
    """How to resample: how many replicates, from which stream."""

    n_resamples: int
    stream: pk.RngStream

    def __post_init__(self):
        if self.n_resamples < _MIN_RESAMPLES:
            raise InsufficientReplicatesError(
                f"need at least {_MIN_RESAMPLES} resamples, got {self.n_resamples}"
            )


@dataclass(frozen=True, eq=False)
class ReplicateSet:
    """Resampled statistics, with degenerate rows dropped and counted."""

    n: int
    theta_hat: float
    se_hat: float | None
    theta: np.ndarray
    se: np.ndarray | None
    excluded: int

    @property
    def kept(self) -> int:
        return int(self.theta.size)


def _index_block(stream: pk.RngStream, n_resamples: int, n: int) -> np.ndarray:
    return stream.generator().integers(0, n, size=(n_resamples, n))


def resample_block(data: DataSample, plan: ResamplePlan, block_statistic) -> ReplicateSet:
    """Apply a block statistic to every resample, then to the original sample.

    The module docstring states the block-statistic contract and which rows
    are excluded.
    """
    rows = data.values[_index_block(plan.stream, plan.n_resamples, data.n)]
    theta, se = block_statistic(rows)
    keep = np.isfinite(theta)
    if se is not None:
        keep &= np.isfinite(se) & (se > 0.0)
    excluded = int(np.sum(~keep))
    theta = theta[keep]
    if se is not None:
        se = se[keep]
        se.setflags(write=False)
    theta.setflags(write=False)
    if theta.size < _MIN_RESAMPLES:
        raise InsufficientReplicatesError(
            f"only {theta.size} usable resamples after excluding {excluded}"
        )
    theta0, se0 = block_statistic(data.values[None, :])
    theta_hat = float(theta0[0])
    se_hat = float(se0[0]) if se0 is not None else None
    if not math.isfinite(theta_hat):
        raise DegenerateSampleError("statistic is not finite on the original sample")
    if se_hat is not None and not (math.isfinite(se_hat) and se_hat > 0.0):
        raise DegenerateSampleError("se statistic must be finite and positive on the original sample")
    return ReplicateSet(n=data.n, theta_hat=theta_hat, se_hat=se_hat,
                        theta=theta, se=se, excluded=excluded)


def resample(data: DataSample, plan: ResamplePlan, statistic,
             se_statistic=None) -> ReplicateSet:
    """resample_block with per-row statistics: statistic(row) -> float."""

    def block_statistic(rows):
        theta = np.array([float(statistic(row)) for row in rows])
        if se_statistic is None:
            return theta, None
        return theta, np.array([float(se_statistic(row)) for row in rows])

    return resample_block(data, plan, block_statistic)


def mean_block(rows: np.ndarray):
    """Block statistic: the resample means, without standard errors."""
    return rows.mean(axis=1), None


def _centered(rows: np.ndarray):
    """Row means, deviations from them, and sds with divisor n - 1.

    The sds are np.std(rows, axis=1, ddof=1) bit for bit, from the one
    centering pass the caller also reuses.
    """
    means = rows.mean(axis=1)
    d = rows - means[:, None]
    sds = np.sqrt(np.sum(d * d, axis=1) / (rows.shape[1] - 1))
    return means, d, sds


def mean_se_block(rows: np.ndarray):
    """Block statistic: the resample means and their standard errors s / sqrt(n)."""
    means, _, sds = _centered(rows)
    return means, sds / math.sqrt(rows.shape[1])


def _meta(rep: ReplicateSet, variant: str, **extra) -> dict:
    out = {"variant": variant, "n_resamples": rep.kept, "excluded": rep.excluded,
           "theta_hat": rep.theta_hat}
    if rep.se_hat is not None:
        out["se_hat"] = rep.se_hat
    out.update(extra)
    return out


def raw_bootstrap_cd(rep: ReplicateSet) -> ConfidenceDistribution:
    """Percentile CD: the ECDF of the resampled statistics."""
    return sample_cd(rep.theta, meta=_meta(rep, "raw"))


def reflected_bootstrap_cd(rep: ReplicateSet) -> ConfidenceDistribution:
    """Percentile CD reflected through the original estimate."""
    return sample_cd(2.0 * rep.theta_hat - rep.theta, meta=_meta(rep, "reflected"))


def bootstrap_t_cd(rep: ReplicateSet) -> ConfidenceDistribution:
    """Studentized bootstrap CD.

    With z_r = (theta_r - theta_hat) / se_r, the CD is the sample CD of the
    atoms theta_hat - se_hat * z_r, so its s-quantile is the ceil(B s)-th
    smallest atom: the studentized pivot's resampling law, inverted.
    """
    if rep.se is None or rep.se_hat is None:
        raise ParameterDomainError("studentized bootstrap needs per-resample standard errors")
    z = (rep.theta - rep.theta_hat) / rep.se
    return sample_cd(rep.theta_hat - rep.se_hat * z, meta=_meta(rep, "bootstrap-t"))


def hall_bootstrap_cd(data: DataSample, plan: ResamplePlan) -> ConfidenceDistribution:
    """Mean CD from the cubic skew-corrected pivot, calibrated by resampling.

    Each resample contributes the pivot evaluated with its own mean, sd, and
    skewness but centered at the original mean.  The CD is the sample CD of
    the x at which the original-sample pivot psi(data, x) equals each of
    those pivots, found by the cubic's closed-form inverse; psi decreases in
    x, so H(x) is the fraction of resample pivots at least psi(data, x).
    """
    if data.n < 20:
        raise InsufficientDataError("skew-corrected bootstrap needs n >= 20")
    n = data.n
    rn = math.sqrt(n)
    center = data.mean

    def pivots(rows):
        means, d, sds = _centered(rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = (d * d * d).mean(axis=1) / sds ** 3
            t = rn * (means - center) / sds
            piv = _hall_cubic(t, lam, n)
        return piv, None

    rep = resample_block(data, plan, pivots)
    return sample_cd(hall_pivot_inverse(data, rep.theta),
                     meta=_meta(rep, "hall", theta_hat=center, skewness=data.skewness))


def dump_replicates(rep: ReplicateSet, path) -> None:
    """Write replicates as CSV: replicate index, theta, and se when present."""
    index = range(rep.theta.size)
    if rep.se is None:
        write_table(path, ["replicate", "theta"], [index, rep.theta])
    else:
        write_table(path, ["replicate", "theta", "se"], [index, rep.theta, rep.se])
