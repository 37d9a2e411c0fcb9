"""Bootstrap CDs: raw percentile, reflected, studentized, and skew-corrected.

All variants share one resampling engine, :func:`resample_rows`, batched
over rows of data: row j of an (m, n) array draws its full (B, n) index
block from its own stream in a single vectorized call, so resample r of
row j is a fixed function of that stream and the dimensions, independent of
evaluation order, the other rows or the thread count.  ``resample_block``
is the engine's one-row call, behind the one-row constructors;
``atom_rows`` gives the lab a block of CDs as rows of atoms.

Block statistics.  The engine hands each row's gathered resamples to a
block statistic: a function mapping an (m, n) array, one resample per row,
to a pair (theta, se) of length-m float arrays, where se is None when the
variant needs no standard error.  Row r of the output must depend on row r
of the input alone.  Resamples with a non-finite theta, or a non-finite or
non-positive se, are excluded and counted; fewer than 100 survivors is an
error.  The original rows are evaluated as one more block, and each must
give a finite theta and, when present, a finite positive se.

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
from functools import partial
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import probkernel as pk
from .cd_core import ConfidenceDistribution, sample_cd, write_table
from .constructors import DataSample, _hall_cubic, _hall_inverse, hall_pivot_inverse
from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    InsufficientReplicatesError,
    ParameterDomainError,
)

__all__ = [
    "ResamplePlan",
    "ReplicateSet",
    "ReplicateRows",
    "resample_rows",
    "resample_block",
    "resample",
    "mean_block",
    "mean_se_block",
    "raw_bootstrap_cd",
    "reflected_bootstrap_cd",
    "bootstrap_t_cd",
    "hall_bootstrap_cd",
    "atom_rows",
    "dump_replicates",
]

_MIN_RESAMPLES = 100
_HALL_MIN_N = 20


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


class ReplicateRows(NamedTuple):
    """The engine's output for m data rows and B resamples each."""

    theta: np.ndarray             # (m, B) resampled statistics
    se: np.ndarray | None         # (m, B) their standard errors, or None
    keep: np.ndarray              # (m, B) the resamples a ReplicateSet keeps
    theta_hat: np.ndarray         # (m, 1) the statistic on each original row
    se_hat: np.ndarray | None     # (m, 1) its standard error, or None


def resample_rows(values: np.ndarray, rngs, n_resamples: int, block_statistic,
                  *row_args) -> ReplicateRows:
    """The engine: row j of the (m, n) values draws its (B, n) index block from
    rngs[j], gathers it and applies block_statistic(rows, *(a[j] for a in
    row_args)); the original rows are one call, block_statistic(values,
    *row_args).  The module docstring states which resamples are kept."""
    m, n = values.shape
    theta = np.empty((m, n_resamples))
    se = None
    for j, rng in enumerate(rngs):
        th, s = block_statistic(values[j][rng.integers(0, n, size=(n_resamples, n))],
                                *(arg[j] for arg in row_args))
        theta[j] = th
        if s is not None:
            se = np.empty_like(theta) if se is None else se
            se[j] = s
    keep = np.isfinite(theta)
    if se is not None:
        keep &= np.isfinite(se) & (se > 0.0)
    theta0, se0 = block_statistic(values, *row_args)
    return ReplicateRows(theta, se, keep, theta0[:, None],
                         None if se0 is None else se0[:, None])


def resample_block(data: DataSample, plan: ResamplePlan, block_statistic) -> ReplicateSet:
    """The engine on one row: the data's resamples from the plan's stream,
    with excluded resamples dropped and counted."""
    rows = resample_rows(data.values[None, :], [plan.stream.generator()], plan.n_resamples,
                         block_statistic)
    keep = rows.keep[0]
    excluded = int(np.sum(~keep))
    theta = rows.theta[0][keep]
    se = None if rows.se is None else rows.se[0][keep]
    for arr in (theta, se):
        if arr is not None:
            arr.setflags(write=False)
    if theta.size < _MIN_RESAMPLES:
        raise InsufficientReplicatesError(
            f"only {theta.size} usable resamples after excluding {excluded}"
        )
    theta_hat = float(rows.theta_hat[0, 0])
    se_hat = None if rows.se_hat is None else float(rows.se_hat[0, 0])
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
    """Row means, deviations d from them, d * d, and sds with divisor n - 1.

    The sds are np.std(rows, axis=1, ddof=1) bit for bit, from the one
    centering pass the caller also reuses.
    """
    means = rows.mean(axis=1)
    d = rows - means[:, None]
    dd = d * d
    sds = np.sqrt(np.sum(dd, axis=1) / (rows.shape[1] - 1))
    return means, d, dd, sds


def mean_se_block(rows: np.ndarray):
    """Block statistic: the resample means and their standard errors s / sqrt(n)."""
    means, _, _, sds = _centered(rows)
    return means, sds / math.sqrt(rows.shape[1])


def _hall_pivots(rows: np.ndarray, center):
    """Block statistic: each resample's cubic pivot, with its own mean, sd and
    skewness, studentized about center (the original sample's mean)."""
    n = rows.shape[1]
    means, d, dd, sds = _centered(rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (dd * d).mean(axis=1) / sds ** 3
        t = math.sqrt(n) * (means - center) / sds
        return _hall_cubic(t, lam, n), None


# the atoms of each variant's sample CD, from a ReplicateSet (floats and kept
# resamples) or from ReplicateRows (a column per original row, all resamples)

def _reflected_atoms(rep):
    return 2.0 * rep.theta_hat - rep.theta


def _studentized_atoms(rep):
    z = (rep.theta - rep.theta_hat) / rep.se
    return rep.theta_hat - rep.se_hat * z


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
    return sample_cd(_reflected_atoms(rep), meta=_meta(rep, "reflected"))


def bootstrap_t_cd(rep: ReplicateSet) -> ConfidenceDistribution:
    """Studentized bootstrap CD.

    With z_r = (theta_r - theta_hat) / se_r, the CD is the sample CD of the
    atoms theta_hat - se_hat * z_r, so its s-quantile is the ceil(B s)-th
    smallest atom: the studentized pivot's resampling law, inverted.
    """
    if rep.se is None or rep.se_hat is None:
        raise ParameterDomainError("studentized bootstrap needs per-resample standard errors")
    return sample_cd(_studentized_atoms(rep), meta=_meta(rep, "bootstrap-t"))


def hall_bootstrap_cd(data: DataSample, plan: ResamplePlan) -> ConfidenceDistribution:
    """Mean CD from the cubic skew-corrected pivot, calibrated by resampling.

    Each resample contributes the pivot evaluated with its own mean, sd, and
    skewness but centered at the original mean.  The CD is the sample CD of
    the x at which the original-sample pivot psi(data, x) equals each of
    those pivots, found by the cubic's closed-form inverse; psi decreases in
    x, so H(x) is the fraction of resample pivots at least psi(data, x).
    """
    if data.n < _HALL_MIN_N:
        raise InsufficientDataError(f"skew-corrected bootstrap needs n >= {_HALL_MIN_N}")
    center = data.mean
    rep = resample_block(data, plan, partial(_hall_pivots, center=center))
    return sample_cd(hall_pivot_inverse(data, rep.theta),
                     meta=_meta(rep, "hall", theta_hat=center, skewness=data.skewness))


# variant -> (block statistic, atoms); Hall's atoms need the original moments
_ROW_VARIANTS = {
    "raw": (mean_block, lambda rows: rows.theta),
    "reflected": (mean_block, _reflected_atoms),
    "bootstrap-t": (mean_se_block, _studentized_atoms),
}


def atom_rows(variant: str, values: np.ndarray, rngs, n_resamples: int):
    """The bootstrap CDs of variant on the rows of values, row j resampled from
    rngs[j], as (atoms, kept, ok): ok marks the rows that pass the one-row
    constructor's checks (finite data and atoms, a finite original statistic,
    at least 100 kept resamples; for Hall, n >= 20 and a sample that is not
    constant), and atoms holds their CDs' atoms, a row each, an excluded
    resample's at +inf after the kept ones.  Nothing here warns."""
    ok = np.all(np.isfinite(values), axis=1)
    if variant == "hall":
        ok &= values.shape[1] >= _HALL_MIN_N
    finite, rngs = values[ok], compress(rngs, ok)
    with np.errstate(all="ignore"):
        if variant == "hall":
            means, d, _, sds = _centered(finite)
            # DataSample.skewness per row: m3 / s ** 3, with its scalar power,
            # which raises where the cube overflows or underflows
            cubes = np.array([s ** 3 for s in sds])
            lam = (d ** 3).mean(axis=1) / cubes
            rows = resample_rows(finite, rngs, n_resamples, _hall_pivots, means)
            atoms = _hall_inverse(means[:, None], sds[:, None], lam[:, None],
                                  values.shape[1], rows.theta)
            good = np.isfinite(cubes) & (cubes > 0.0)
        else:
            statistic, formula = _ROW_VARIANTS[variant]
            rows = resample_rows(finite, rngs, n_resamples, statistic)
            atoms = formula(rows)
            good = np.ones(finite.shape[0], bool)
    atoms[~rows.keep] = np.inf
    kept = np.sum(rows.keep, axis=1)
    good &= (kept >= _MIN_RESAMPLES) & np.isfinite(rows.theta_hat[:, 0])
    if rows.se_hat is not None:
        good &= np.isfinite(rows.se_hat[:, 0]) & (rows.se_hat[:, 0] > 0.0)
    good &= np.sum(np.isfinite(atoms), axis=1) == kept
    ok[ok] = good
    return (atoms, kept, ok) if good.all() else (atoms[good], kept[good], ok)


def dump_replicates(rep: ReplicateSet, path) -> None:
    """Write replicates as CSV: replicate index, theta, and se when present."""
    index = range(rep.theta.size)
    if rep.se is None:
        write_table(path, ["replicate", "theta"], [index, rep.theta])
    else:
        write_table(path, ["replicate", "theta", "se"], [index, rep.theta, rep.se])
