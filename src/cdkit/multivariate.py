"""Joint confidence distributions in R^k, represented as draw clouds.

A multivariate CD is carried entirely by a cloud of draws of its random
vector: projection, smooth reparametrization, data depth, and centrality are
all closed over samples, so no k-dimensional CDF object is ever needed.
Linear-sense CDs come from pivots theta_hat - A_n^{-1} eta; circular-sense
confidence regions come from depth-ranked centrality over the cloud.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .cd_core import ConfidenceDistribution, read_table, sample_cd, write_table
from .errors import (
    InsufficientDataError,
    MapDomainError,
    ParameterDomainError,
    SingularMatrixError,
)

_MIN_CLOUD = 1000
_MIN_DIRECTIONS = 180
_DIRECTION_BLOCK = 16  # directions ranked at once by a Tukey depth table


# ---------------------------------------------------------------------------
# cloud container

@dataclass(frozen=True, eq=False)
class MultiCD:
    """A joint CD for a k-vector parameter, k >= 2, as m >= 1000 draws."""

    cloud: np.ndarray
    theta_hat: np.ndarray = None
    a_matrix: np.ndarray = None
    a_condition: float = None

    def __post_init__(self):
        cloud = np.asarray(self.cloud, dtype=float)
        if cloud.ndim != 2:
            raise ParameterDomainError("cloud must be an (m, k) array")
        if cloud.shape[1] < 2:
            raise ParameterDomainError("joint CDs need dimension k >= 2")
        if cloud.shape[0] < _MIN_CLOUD:
            raise InsufficientDataError(
                f"cloud needs at least {_MIN_CLOUD} draws, got {cloud.shape[0]}")
        if not np.all(np.isfinite(cloud)):
            raise ParameterDomainError("cloud values must be finite")
        object.__setattr__(self, "cloud", cloud)

    @property
    def m(self) -> int:
        return self.cloud.shape[0]

    @property
    def k(self) -> int:
        return self.cloud.shape[1]


def lcd_from_pivot(theta_hat, a_matrix, eta_sampler, m: int) -> MultiCD:
    """Cloud of theta_hat - A^{-1} eta over m seeded draws of eta.

    `eta_sampler(count)` must return a (count, k) array and own its seeding,
    so the construction is reproducible from the caller's stream.
    """
    th = np.asarray(theta_hat, dtype=float).ravel()
    a = np.asarray(a_matrix, dtype=float)
    if a.shape != (th.size, th.size):
        raise ParameterDomainError(
            f"pivot matrix must be {th.size} x {th.size}, got {a.shape}")
    cond = float(np.linalg.cond(a))
    if not math.isfinite(cond):
        raise SingularMatrixError("pivot matrix is singular")
    eta = np.asarray(eta_sampler(int(m)), dtype=float)
    if eta.shape != (int(m), th.size):
        raise ParameterDomainError(
            f"eta sampler must return ({m}, {th.size}) draws, got {eta.shape}")
    try:
        shift = np.linalg.solve(a, eta.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("pivot matrix is singular") from exc
    return MultiCD(th[None, :] - shift, theta_hat=th, a_matrix=a, a_condition=cond)


def project(mcd: MultiCD, lam) -> ConfidenceDistribution:
    """The 1-D CD of lam' theta: the projected cloud as an equal-weight sample."""
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape != (mcd.k,) or not np.all(np.isfinite(lam)):
        raise ParameterDomainError(f"projection vector must be a finite {mcd.k}-vector")
    if not np.any(lam != 0.0):
        raise ParameterDomainError("projection vector must be nonzero")
    return sample_cd(mcd.cloud @ lam, meta={"source": "projection"})


def transform_mcd(mcd: MultiCD, g) -> MultiCD:
    """Pointwise image cloud g(xi); g maps a k-vector to an l-vector, l >= 2.

    Scalar summaries go through `project` instead, so the image keeps the
    joint-CD invariants.
    """
    rows = [np.atleast_1d(np.asarray(g(row), dtype=float)) for row in mcd.cloud]
    image = np.stack(rows)
    if image.ndim != 2:
        raise ParameterDomainError("map must return a fixed-length vector per point")
    if image.shape[1] < 2:
        raise ParameterDomainError(
            "map image is one-dimensional; use project for scalar functionals")
    if not np.all(np.isfinite(image)):
        raise MapDomainError("map produced non-finite values on the cloud")
    return MultiCD(image)


# ---------------------------------------------------------------------------
# data depth

@dataclass(frozen=True)
class DepthSpec:
    """Depth flavor: Mahalanobis for any k, halfspace counts for k <= 2."""

    kind: str
    directions: int = 360

    def __post_init__(self):
        if self.kind not in ("mahalanobis", "tukey"):
            raise ParameterDomainError(f"unknown depth kind {self.kind!r}")
        if self.kind == "tukey" and self.directions < _MIN_DIRECTIONS:
            raise ParameterDomainError(
                f"tukey depth needs at least {_MIN_DIRECTIONS} directions")


def _as_cloud(cloud) -> np.ndarray:
    arr = np.asarray(cloud, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ParameterDomainError("depth needs an (m, k) cloud with m >= 2")
    if not np.all(np.isfinite(arr)):
        raise ParameterDomainError("cloud values must be finite")
    return arr


def _as_point(x, k: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (k,) or not np.all(np.isfinite(pt)):
        raise ParameterDomainError(f"query point must be a finite {k}-vector")
    return pt


def _scatter_factor(cloud: np.ndarray):
    center = cloud.mean(axis=0)
    scatter = np.atleast_2d(np.cov(cloud, rowvar=False))
    try:
        factor = cho_factor(scatter)
    except LinAlgError as exc:
        raise SingularMatrixError("cloud scatter matrix is singular") from exc
    return center, factor


def _mahalanobis_depth(dev: np.ndarray, factor) -> np.ndarray:
    d2 = np.einsum("ij,ij->i", dev, cho_solve(factor, dev.T).T)
    return 1.0 / (1.0 + np.maximum(d2, 0.0))


def _direction_matrix(count: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _depth_reader(spec: DepthSpec, arr: np.ndarray):
    """(depth_of, cloud_depths): a query point's depth, and a thunk for every
    cloud point's, both off the cloud parts computed once here.

    A Tukey depth counts, in each direction, the points that project at or
    past a point's own projection.  `cloud_depths` reads those counts off
    ranks, `_DIRECTION_BLOCK` directions at a time: copy the block's
    projections to one row per direction, argsort each row, find each sorted
    value's first equal position (the running maximum of the positions where
    the sorted value changes), scatter `m - first` back to the points, and
    fold the block's per-point minimum into one length-m array.  Tied points
    share their first position, so each counts the others, as the >= in
    `depth_of` does.
    """
    if spec.kind == "mahalanobis":
        center, factor = _scatter_factor(arr)
        return (lambda pt: float(_mahalanobis_depth((pt - center)[None, :], factor)[0]),
                lambda: _mahalanobis_depth(arr - center, factor))
    if arr.shape[1] > 2:
        raise ParameterDomainError("tukey depth is implemented for k <= 2 only")
    # the half-spaces' normals: +1 and -1 on a line, equally spaced angles in the plane
    u = _direction_matrix(spec.directions) if arr.shape[1] == 2 else np.array([[1.0], [-1.0]])
    proj = arr @ u.T  # one column per direction
    m = arr.shape[0]

    def cloud_depths():
        least = np.full(m, m, dtype=np.intp)
        later = np.arange(1, m)  # every position but the first
        for start in range(0, proj.shape[1], _DIRECTION_BLOCK):
            block = np.ascontiguousarray(proj[:, start:start + _DIRECTION_BLOCK].T)
            order = np.argsort(block, axis=1)
            order += m * np.arange(len(block))[:, None]  # flat indices into the block
            ranked = np.take(block, order)
            first = np.zeros(block.shape, dtype=np.intp)
            np.multiply(ranked[:, 1:] != ranked[:, :-1], later, out=first[:, 1:])
            np.maximum.accumulate(first, axis=1, out=first)
            counts = np.empty(block.shape, dtype=np.intp)
            counts.ravel()[order.ravel()] = (m - first).ravel()  # points projecting >= each
            np.minimum(least, counts.min(axis=0), out=least)
        return least / m
    return lambda pt: int(np.sum(proj >= u @ pt, axis=0).min()) / m, cloud_depths


def depth(spec: DepthSpec, cloud, x) -> float:
    """Depth of one point relative to a cloud.

    Mahalanobis: 1 / (1 + squared scatter distance from the cloud center).
    Tukey: the smallest cloud fraction among the closed half-spaces through
    x whose normals are +1 and -1 for k=1, and run over `spec.directions`
    equally spaced angles for k=2.
    """
    arr = _as_cloud(cloud)
    pt = _as_point(x, arr.shape[1])
    return _depth_reader(spec, arr)[0](pt)


# ---------------------------------------------------------------------------
# centrality

@dataclass(frozen=True, eq=False)
class CentralityFn:
    """Depth-ranked centrality over a reference cloud.

    `depth_table` holds the sorted depths of every cloud point, so each query
    costs one depth evaluation plus one binary search.  Ties count as less
    central (the <= convention).  A Tukey table is built from ranks, a block
    of directions at a time (see `_depth_reader`), so besides the projections
    it holds only one block's arrays at once.
    """

    spec: DepthSpec
    cloud: np.ndarray
    depth_table: np.ndarray
    depth_of: object


def centrality_fn(spec: DepthSpec, cloud) -> CentralityFn:
    arr = _as_cloud(cloud)
    depth_of, cloud_depths = _depth_reader(spec, arr)
    return CentralityFn(spec=spec, cloud=arr, depth_table=np.sort(cloud_depths()),
                        depth_of=depth_of)


def centrality(cf: CentralityFn, x) -> float:
    """Fraction of the reference cloud at most as deep as x."""
    pt = _as_point(x, cf.cloud.shape[1])
    dx = cf.depth_of(pt)
    return float(np.searchsorted(cf.depth_table, dx, side="right")
                 / cf.depth_table.size)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ParameterDomainError("level must lie strictly between 0 and 1")


def central_region_test(cf: CentralityFn, level: float, x) -> bool:
    """Whether x belongs to the 100*level percent central confidence region."""
    _check_level(level)
    return centrality(cf, x) >= 1.0 - level


# ---------------------------------------------------------------------------
# cloud files

def save_cloud_csv(mcd: MultiCD, path) -> None:
    write_table(path, [f"x{j + 1}" for j in range(mcd.k)], mcd.cloud.T)


def load_cloud_csv(path) -> MultiCD:
    """A cloud file, with or without its x1,x2,... header."""
    return MultiCD(read_table(path)[1])
