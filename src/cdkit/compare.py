"""Precision orderings between competing confidence distributions.

Two recipes applied to the same data can yield CDs that concentrate around
the truth at different rates.  This module quantifies that three ways:
expected loss of the CD around a target point (dispersion), integrated risk
against a weight measure, and log-tail decay slopes.  A paired Monte Carlo
dominance check compares two generators replicate by replicate, feeding both
the same dataset so the verdict reflects the construction, not the noise.

Each statistic has one per-CD reader: ``sample_dispersion``, a risk
functional built once per weight, and the tail-mass stack.  The risk and tail
readers reduce H values, so a caller can read both off one ``cd_eval``.
``mc_dispersion``, ``risk``, ``dominance_mc`` and ``paired_compare`` read
each replicate of a block that simlab's ``run_replicates``, the one replicate
loop, hands them.
The paired passes share ``_paired_draw``: each generator's CD on generator
1's data, plus, for ``paired_compare`` when the draw keys differ, generator
2's CD on its own draws, as dispersion and risk describe a generator on its
own draws.  ``paired_compare``, which ``cdkit compare`` runs, evaluates each
CD once and reads all three statistics off it; with one loop and one draw it
equals the separate passes bit for bit.

Dispersion is an expectation under the CD: it reads four probe quantiles,
then the 2048 node quantiles of ``inference``'s one rule, which ``cd_mean``
reads too.  Location-scale and exponential-rate CDs map base quantiles cached
once per base; other CDs evaluate their own.
"""

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import probkernel as pk
from .cd_core import (
    ConfidenceDistribution,
    _elementwise,
    cd_eval,
    cd_log_lower,
    cd_log_upper,
    cd_quantile,
    write_table,
)
from .errors import ConfigError, PairingError, ParameterDomainError
from .inference import _expect, _gauss_legendre, _quantiles
from .simlab import CdGenerator, run_replicates

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
    # pk.Normal checks the centre and sd
    return RiskSpec(psi, partial(pk.density, pk.Normal(center, sd)),
                    (center - 8.0 * sd, center + 8.0 * sd), "gaussian")


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

def sample_dispersion(cd: ConfidenceDistribution, loss: LossSpec, theta0: float) -> float:
    """Integral of phi(x, theta0) dH(x) for one realized CD.

    Sample representations sum exactly; analytic and grid ones read the
    expectation rule ``cd_mean`` reads.  Four probe quantiles come first:
    they scale the loss check, and the rule rejects CDs without a mean
    before its node quantiles are computed.
    """
    theta0 = float(theta0)
    phi = lambda x: _elementwise(lambda v: loss.phi(v, theta0), x)
    probes = _quantiles(cd, "probes")
    q25, q75 = float(probes[1]), float(probes[2])
    loss.spot_check(theta0, max(q75 - q25, 1e-6 * (1.0 + abs(theta0))))
    if cd.kind == "sample":
        return float(np.dot(phi(cd.atoms), cd.weights))
    return _expect(cd, phi, probes)


@dataclass(frozen=True, eq=False)
class McEstimate:
    """A Monte Carlo mean with its standard error and per-replicate values."""

    mean: float
    se: float
    reps: int
    values: np.ndarray


def _mc_aggregate(arr: np.ndarray) -> McEstimate:
    se = float(np.std(arr, ddof=1) / math.sqrt(arr.size))
    return McEstimate(mean=float(np.mean(arr)), se=se, reps=arr.size, values=arr)


def _check_reps(reps: int) -> None:
    if reps < _MIN_REPS:
        raise ConfigError(f"need at least {_MIN_REPS} replications, got {reps}")


def _each_replicate(one, reps: int) -> np.ndarray:
    """one(i) for i in range(reps) as one array, replicates along its first axis."""
    return np.concatenate(run_replicates(lambda block: np.array([one(i) for i in block]),
                                         range(reps)))


def mc_dispersion(gen: CdGenerator, loss: LossSpec, reps: int) -> McEstimate:
    """Mean dispersion over seeded replications of a generator."""
    _check_reps(reps)
    return _mc_aggregate(_each_replicate(
        lambda i: sample_dispersion(gen.replicate(i), loss, gen.theta0), reps))


# ---------------------------------------------------------------------------
# integrated risk

def _risk_reader(spec: RiskSpec, theta0: float):
    """(nodes, reduce): a CD's risk is reduce(cd_eval(cd, nodes)).

    reduce maps H at the nodes to the integral of psi(|H(x) - 1[x >= theta0]|)
    against the weight.  The weight density is checked and the 256 nodes
    fixed once, here, so the reader can be applied to many CDs.  A point-mass
    window is a single node.
    """
    lo, hi = spec.window
    if not hi > lo:
        def reduce_point(h):
            h0 = float(h[0])
            return float(spec.psi(max(h0, 1.0 - h0)))
        return np.array([lo]), reduce_point
    x, gw = _gauss_legendre(_RISK_POINTS)
    xs = lo + (hi - lo) * (0.5 * (x + 1.0))
    dens = _elementwise(spec.weight_density, xs)
    if not np.all(np.isfinite(dens)) or np.any(dens < 0.0):
        raise ParameterDomainError("weight density must be finite and nonnegative")
    wts = (hi - lo) * (0.5 * gw) * dens
    upper = xs >= theta0

    def reduce(h):
        return float(np.dot(wts, _elementwise(spec.psi, np.where(upper, 1.0 - h, h))))
    return xs, reduce


def risk(gen: CdGenerator, spec: RiskSpec, reps: int) -> McEstimate:
    """MC mean of psi(|H(x) - 1[x >= theta0]|) integrated against the weight."""
    _check_reps(reps)
    nodes, reduce = _risk_reader(spec, gen.theta0)
    return _mc_aggregate(_each_replicate(lambda i: reduce(cd_eval(gen.replicate(i), nodes)),
                                         reps))


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
    write_table(path, ["n", "eps", "left_slope", "right_slope"],
                zip(*((int(n), eps, left, right) for n, eps, left, right in rows)))


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


def _paired_eps(gen1: CdGenerator, gen2: CdGenerator, eps_grid, reps: int) -> np.ndarray:
    """Check a paired comparison's config; the eps grid as an array."""
    _check_reps(reps)
    if gen1.data_shape != gen2.data_shape or gen1.n != gen2.n:
        raise PairingError("generators disagree on dataset shape; cannot pair them")
    eps_arr = np.asarray([float(e) for e in eps_grid], dtype=float)
    if eps_arr.size == 0 or np.any(eps_arr <= 0.0):
        raise ParameterDomainError("eps grid must be nonempty and positive")
    return eps_arr


def _tail_points(theta0: float, eps_arr: np.ndarray) -> np.ndarray:
    """concat(theta0 - eps, theta0 + eps): where the tail masses read H."""
    return np.concatenate([theta0 - eps_arr, theta0 + eps_arr])


def _paired_draw(gen1: CdGenerator, gen2: CdGenerator, own: bool, index: int) -> tuple:
    """(gen1's CD, gen2's CD) on gen1's data, and gen2's CD on its own draws (cd2 unless own)."""
    data = gen1.draw_data(index)
    cd1, cd2 = gen1.build_cd(data, index), gen2.build_cd(data, index)
    return cd1, cd2, (gen2.replicate(index) if own else cd2)


def _tail_stack(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """(4, n_eps): H1(lows), H2(lows), 1 - H1(highs), 1 - H2(highs).

    h1 and h2 hold each CD's H at the tail points, concat(lows, highs).
    """
    k = h1.size // 2
    return np.stack([h1[:k], h2[:k], 1.0 - h1[k:], 1.0 - h2[k:]])


def _dominance_report(theta0: float, eps_arr: np.ndarray, stats: np.ndarray,
                      reps: int) -> DominanceReport:
    """The verdict from the (reps, 4, n_eps) tail-mass stacks."""
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


def dominance_mc(gen1: CdGenerator, gen2: CdGenerator, theta0: float,
                 eps_grid, reps: int) -> DominanceReport:
    """Paired comparison of tail masses H(theta0 - eps) and 1 - H(theta0 + eps).

    Both constructions see the same dataset each replicate.  Generator 1
    dominates when its tail-mass ECDFs sit above generator 2's on the whole
    probe grid (within twice the DKW band) for every eps, and not vice versa.
    """
    eps_arr = _paired_eps(gen1, gen2, eps_grid, reps)
    theta0 = float(theta0)
    tails = _tail_points(theta0, eps_arr)

    def one(i):
        cd1, cd2, _ = _paired_draw(gen1, gen2, False, i)
        return _tail_stack(cd_eval(cd1, tails), cd_eval(cd2, tails))

    return _dominance_report(theta0, eps_arr, _each_replicate(one, reps), reps)


@dataclass(frozen=True, eq=False)
class PairedComparison:
    """Dominance, plus each generator's dispersion and risk, from one pass.

    ``first_cds`` holds each generator's replicate-0 CD on its own draws, the
    CDs ``gen.replicate(0)`` returns.
    """

    dominance: DominanceReport
    dispersion: tuple  # (McEstimate, McEstimate)
    risk: tuple        # (McEstimate, McEstimate)
    first_cds: tuple   # (ConfidenceDistribution, ConfidenceDistribution)


def paired_compare(gen1: CdGenerator, gen2: CdGenerator, theta0: float, eps_grid,
                   reps: int) -> PairedComparison:
    """dominance_mc, mc_dispersion and risk of both generators in one pass.

    Replicate i is dominance_mc's paired draw; each CD is evaluated once, at
    the tail points and the risk nodes together, and the tail masses, both
    dispersions and both risks are read off it.  Dispersion and risk describe
    each generator on its own draws, as mc_dispersion and risk do: when the
    draw keys differ (another seed, theta0 or sigma), the draw adds gen2's
    own CD for those reads.  One loop and one draw, so the result equals the
    three separate calls bit for bit.

    Dispersion is under squared error; risk weighs uniformly over theta0 +- 3
    IQR of gen1's replicate-0 CD, so replicate 0 is built first and read like
    the others.  Every config check runs before any replicate is built.
    """
    eps_arr = _paired_eps(gen1, gen2, eps_grid, reps)
    theta0 = float(theta0)
    tails = _tail_points(theta0, eps_arr)
    shared = gen1.draw_key == gen2.draw_key
    draw = partial(_paired_draw, gen1, gen2, not shared)
    first = draw(0)
    q25, q75 = cd_quantile(first[0], np.array([0.25, 0.75]))
    spec = default_risk(theta0, max(float(q75 - q25), 1e-6))
    nodes, risk1 = _risk_reader(spec, gen1.theta0)
    _, risk2 = _risk_reader(spec, gen2.theta0)
    points = np.concatenate([tails, nodes])
    n_tail = tails.size

    def one(i):
        cd1, cd2, own2 = first if i == 0 else draw(i)
        h1 = cd_eval(cd1, points)
        if shared:
            h2 = cd_eval(cd2, points)
            h_own2 = h2[n_tail:]
        else:
            h2 = cd_eval(cd2, tails)
            h_own2 = cd_eval(own2, nodes)
        return (_tail_stack(h1[:n_tail], h2[:n_tail]),
                sample_dispersion(cd1, SquaredError, gen1.theta0),
                sample_dispersion(own2, SquaredError, gen2.theta0),
                risk1(h1[n_tail:]), risk2(h_own2))

    blocks = run_replicates(lambda block: [np.array(c) for c in zip(*map(one, block))],
                            range(reps))
    stacks, disp1, disp2, risks1, risks2 = (np.concatenate(parts) for parts in zip(*blocks))
    return PairedComparison(
        dominance=_dominance_report(theta0, eps_arr, stacks, reps),
        dispersion=(_mc_aggregate(disp1), _mc_aggregate(disp2)),
        risk=(_mc_aggregate(risks1), _mc_aggregate(risks2)),
        first_cds=(first[0], first[2]),
    )


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
