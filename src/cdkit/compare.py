"""Precision orderings between competing confidence distributions.

Two recipes applied to the same data can yield CDs that concentrate around
the truth at different rates.  This module quantifies that three ways:
expected loss of the CD around a target point (dispersion), integrated risk
against a weight measure, and log-tail decay slopes.  A paired Monte Carlo
dominance check compares two generators replicate by replicate, feeding both
the same dataset so the verdict reflects the construction, not the noise.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .cd_core import (
    ConfidenceDistribution,
    cd_eval,
    cd_log_lower,
    cd_log_upper,
    cd_quantile,
)
from .errors import ConfigError, PairingError, ParameterDomainError
from .inference import _integrability_check
from .probkernel import gauss_legendre
from .simlab import CdGenerator, map_indexed

_DISPERSION_POINTS = 2048
_RISK_POINTS = 256
_MIN_REPS = 100


# ---------------------------------------------------------------------------
# loss and risk specifications

@dataclass(frozen=True)
class LossSpec:
    """A valley-shaped penalty phi(x, theta): zero slope sign change at theta."""

    name: str
    phi: object

    def spot_check(self, theta0: float, span: float) -> None:
        # cheap guard: the valley floor must sit at theta0 itself
        base = float(self.phi(theta0, theta0))
        if not base >= 0.0:
            raise ParameterDomainError(f"loss {self.name!r} is negative at its center")
        for off in (-2.0, -1.0, -0.3, 0.3, 1.0, 2.0):
            val = float(self.phi(theta0 + off * span, theta0))
            if not val >= 0.0 or val < base - 1e-12 * (1.0 + abs(base)):
                raise ParameterDomainError(
                    f"loss {self.name!r} is not valley-shaped around {theta0:g}")


SquaredError = LossSpec("squared-error", lambda x, theta: (x - theta) ** 2)
Absolute = LossSpec("absolute", lambda x, theta: abs(x - theta))


def identity_psi(u):
    return u


def square_psi(u):
    return u * u


@dataclass(frozen=True)
class RiskSpec:
    """Monotone score psi on [0,1] plus a weight measure (density, window).

    A degenerate window (lo == hi) means a point mass there; the integrand
    collapses to psi of the two-sided CD deviation at that point.
    """

    psi: object
    weight_density: object
    window: tuple
    name: str = "custom"

    def __post_init__(self):
        lo, hi = (float(self.window[0]), float(self.window[1]))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ParameterDomainError("risk window must be finite with lo <= hi")
        object.__setattr__(self, "window", (lo, hi))
        for a, b in ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)):
            pa, pb = float(self.psi(a)), float(self.psi(b))
            if not 0.0 <= pa <= pb + 1e-12:
                raise ParameterDomainError("psi must be nonnegative and nondecreasing")


def gaussian_risk(center: float, sd: float = 1.0, psi=identity_psi) -> RiskSpec:
    if not sd > 0.0:
        raise ParameterDomainError("weight sd must be positive")
    dens = lambda x: np.exp(-0.5 * ((x - center) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    return RiskSpec(psi, dens, (center - 8.0 * sd, center + 8.0 * sd), "gaussian")


def uniform_risk(lo: float, hi: float, psi=identity_psi) -> RiskSpec:
    if not hi > lo:
        raise ParameterDomainError("uniform weight window must have hi > lo")
    dens = lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / (hi - lo))
    return RiskSpec(psi, dens, (lo, hi), "uniform")


def point_risk(at: float, psi=identity_psi) -> RiskSpec:
    return RiskSpec(psi, None, (at, at), "point")


def default_risk(theta0: float, scale: float, psi=identity_psi) -> RiskSpec:
    """Uniform weight over theta0 +- 3 scale, the stock choice."""
    if not scale > 0.0:
        raise ParameterDomainError("weight scale must be positive")
    return uniform_risk(theta0 - 3.0 * scale, theta0 + 3.0 * scale, psi)


# ---------------------------------------------------------------------------
# dispersion

def _gauss_nodes(count: int):
    # Legendre nodes mapped to (0,1)
    x, w = gauss_legendre(count)
    return 0.5 * (x + 1.0), 0.5 * w


def _loss_values(loss: LossSpec, x: np.ndarray, theta0: float) -> np.ndarray:
    vals = np.asarray(loss.phi(x, theta0), dtype=float)
    if vals.shape != x.shape:
        vals = np.array([float(loss.phi(v, theta0)) for v in x])
    return vals


def sample_dispersion(cd: ConfidenceDistribution, loss: LossSpec, theta0: float) -> float:
    """Integral of phi(x, theta0) dH(x) for one realized CD.

    Sample representations sum exactly; analytic and grid ones integrate in
    the quantile domain with 2048 Gauss points under the cubic endpoint map
    s = 3v^2 - 2v^3, which tames the tail quantile growth.
    """
    theta0 = float(theta0)
    q25 = float(cd_quantile(cd, 0.25))
    q75 = float(cd_quantile(cd, 0.75))
    loss.spot_check(theta0, max(q75 - q25, 1e-6 * (1.0 + abs(theta0))))
    if cd.kind == "sample":
        return float(np.dot(_loss_values(loss, cd.atoms, theta0), cd.weights))
    _integrability_check(cd)
    v, gw = _gauss_nodes(_DISPERSION_POINTS)
    s = 3.0 * v * v - 2.0 * v ** 3
    w = gw * 6.0 * v * (1.0 - v)
    q = np.asarray(cd_quantile(cd, s), dtype=float)
    return float(np.dot(_loss_values(loss, q, theta0), w) / np.sum(w))


@dataclass(frozen=True, eq=False)
class McEstimate:
    """A Monte Carlo mean with its standard error and per-replicate values."""

    mean: float
    se: float
    reps: int
    values: np.ndarray


def _mc_aggregate(values) -> McEstimate:
    arr = np.asarray(values, dtype=float)
    return McEstimate(
        mean=float(np.mean(arr)),
        se=float(np.std(arr, ddof=1) / math.sqrt(arr.size)),
        reps=int(arr.size),
        values=arr,
    )


def mc_dispersion(gen: CdGenerator, loss: LossSpec, reps: int) -> McEstimate:
    """Mean dispersion over seeded replications of a generator."""
    if reps < _MIN_REPS:
        raise ConfigError(f"need at least {_MIN_REPS} replications, got {reps}")
    vals = map_indexed(lambda i: sample_dispersion(gen.replicate(i), loss, gen.theta0),
                       reps)
    return _mc_aggregate(vals)


# ---------------------------------------------------------------------------
# integrated risk

def risk(gen: CdGenerator, spec: RiskSpec, reps: int) -> McEstimate:
    """MC mean of psi(|H(x) - 1[x >= theta0]|) integrated against the weight."""
    if reps < _MIN_REPS:
        raise ConfigError(f"need at least {_MIN_REPS} replications, got {reps}")
    theta0 = gen.theta0
    lo, hi = spec.window
    if hi > lo:
        v, gw = _gauss_nodes(_RISK_POINTS)
        xs = lo + (hi - lo) * v
        dens = np.asarray(spec.weight_density(xs), dtype=float)
        if dens.shape != xs.shape:
            dens = np.array([float(spec.weight_density(x)) for x in xs])
        if not np.all(np.isfinite(dens)) or np.any(dens < 0.0):
            raise ParameterDomainError("weight density must be finite and nonnegative")
        wts = (hi - lo) * gw * dens
        upper = xs >= theta0

        def one(i):
            h = np.asarray(cd_eval(gen.replicate(i), xs), dtype=float)
            dev = np.where(upper, 1.0 - h, h)
            vals = np.asarray(spec.psi(dev), dtype=float)
            if vals.shape != dev.shape:
                vals = np.array([float(spec.psi(d)) for d in dev])
            return float(np.dot(wts, vals))
    else:
        def one(i):
            h = float(cd_eval(gen.replicate(i), lo))
            return float(spec.psi(max(h, 1.0 - h)))

    return _mc_aggregate(map_indexed(one, reps))


# ---------------------------------------------------------------------------
# large-deviation slopes

def bahadur_slopes(cd: ConfidenceDistribution, theta0: float, eps: float,
                   n: int) -> tuple[float, float]:
    """(1/n) log of the CD mass beyond theta0 -+ eps, a nonpositive pair.

    Sample CDs with an empty tail report -inf, the nothing-out-there sentinel.
    """
    if not eps > 0.0:
        raise ParameterDomainError("eps must be positive")
    if n < 1:
        raise ParameterDomainError("n must be a positive integer")
    left = cd_log_lower(cd, float(theta0) - eps) / n
    right = cd_log_upper(cd, float(theta0) + eps) / n
    return (left, right)


def dump_slopes(path, rows) -> None:
    """CSV of (n, eps, left_slope, right_slope) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "eps", "left_slope", "right_slope"])
        for n, eps, left, right in rows:
            writer.writerow([int(n), f"{eps:.17g}", f"{left:.17g}", f"{right:.17g}"])


# ---------------------------------------------------------------------------
# stochastic dominance

def dkw_epsilon(reps: int, alpha: float = 0.05) -> float:
    """Half-width of the DKW confidence band for an ECDF from `reps` draws."""
    if reps < 1:
        raise ParameterDomainError("reps must be positive")
    if not 0.0 < alpha < 1.0:
        raise ParameterDomainError("alpha must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * reps))


@dataclass(frozen=True, eq=False)
class EpsCurves:
    """ECDFs over replicates of the four tail-mass statistics at one eps."""

    eps: float
    left_1: np.ndarray
    left_2: np.ndarray
    right_1: np.ndarray
    right_2: np.ndarray


@dataclass(frozen=True, eq=False)
class DominanceReport:
    theta0: float
    reps: int
    tolerance: float
    probe_grid: np.ndarray
    curves: tuple
    covers: tuple
    verdict: str


def _ecdf_on(values: np.ndarray, probes: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.sort(values), probes, side="right") / values.size


def _covers(a: EpsCurves, tol: float) -> tuple[bool, bool]:
    one = bool(np.all(a.left_1 >= a.left_2 - tol) and np.all(a.right_1 >= a.right_2 - tol))
    two = bool(np.all(a.left_2 >= a.left_1 - tol) and np.all(a.right_2 >= a.right_1 - tol))
    return one, two


def dominance_mc(gen1: CdGenerator, gen2: CdGenerator, theta0: float,
                 eps_grid, reps: int) -> DominanceReport:
    """Paired comparison of tail masses H(theta0 - eps) and 1 - H(theta0 + eps).

    Both constructions see the same dataset each replicate.  Generator 1
    dominates when its tail-mass ECDFs sit above generator 2's on the whole
    probe grid (within twice the DKW band) for every eps, and not vice versa.
    """
    if reps < _MIN_REPS:
        raise ConfigError(f"need at least {_MIN_REPS} replications, got {reps}")
    if gen1.data_shape != gen2.data_shape or gen1.n != gen2.n:
        raise PairingError("generators disagree on dataset shape; cannot pair them")
    eps_arr = np.asarray([float(e) for e in eps_grid], dtype=float)
    if eps_arr.size == 0 or np.any(eps_arr <= 0.0):
        raise ParameterDomainError("eps grid must be nonempty and positive")
    theta0 = float(theta0)
    lows = theta0 - eps_arr
    highs = theta0 + eps_arr

    def one(i):
        data = gen1.draw_data(i)
        cd1 = gen1.build_cd(data, i)
        cd2 = gen2.build_cd(data, i)
        return np.stack([
            np.asarray(cd_eval(cd1, lows), dtype=float),
            np.asarray(cd_eval(cd2, lows), dtype=float),
            1.0 - np.asarray(cd_eval(cd1, highs), dtype=float),
            1.0 - np.asarray(cd_eval(cd2, highs), dtype=float),
        ])

    stats = np.stack(map_indexed(one, reps))  # (reps, 4, n_eps)
    probes = np.arange(1, 100) / 100.0
    tol = 2.0 * dkw_epsilon(reps)
    curves = tuple(
        EpsCurves(
            eps=float(eps_arr[j]),
            left_1=_ecdf_on(stats[:, 0, j], probes),
            left_2=_ecdf_on(stats[:, 1, j], probes),
            right_1=_ecdf_on(stats[:, 2, j], probes),
            right_2=_ecdf_on(stats[:, 3, j], probes),
        )
        for j in range(eps_arr.size)
    )
    covers = tuple(_covers(c, tol) for c in curves)
    one_all = all(pair[0] for pair in covers)
    two_all = all(pair[1] for pair in covers)
    if one_all and not two_all:
        verdict = "1 dominates"
    elif two_all and not one_all:
        verdict = "2 dominates"
    else:
        verdict = "inconclusive"
    return DominanceReport(theta0=theta0, reps=reps, tolerance=tol,
                           probe_grid=probes, curves=curves, covers=covers,
                           verdict=verdict)


def dominance_to_json(report: DominanceReport) -> str:
    body = {
        "theta0": report.theta0,
        "reps": report.reps,
        "tolerance": report.tolerance,
        "probe_grid": [float(t) for t in report.probe_grid],
        "verdict": report.verdict,
        "comparisons": [
            {
                "eps": c.eps,
                "left_ecdf_1": [float(v) for v in c.left_1],
                "left_ecdf_2": [float(v) for v in c.left_2],
                "right_ecdf_1": [float(v) for v in c.right_1],
                "right_ecdf_2": [float(v) for v in c.right_2],
                "one_covers_two": cov[0],
                "two_covers_one": cov[1],
            }
            for c, cov in zip(report.curves, report.covers)
        ],
    }
    return json.dumps(body, sort_keys=True)
