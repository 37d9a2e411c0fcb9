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
``mc_dispersion``, ``risk``, ``dominance_mc`` and ``paired_compare`` hand
one block function, ``_read_block``, to simlab's ``run_replicates``, the one
replicate loop.  It draws generator 1's block of data, plus, when the draw
keys differ, generator 2's own block, as dispersion and risk describe a
generator on its own draws.  A block-born recipe's CDs are one family block:
one ``cd_eval`` reads the block's tail points and risk nodes, and dispersion
maps cached base quantiles through the block's from_base.  Any other
recipe's CDs are built and read one replicate at a time.  Either way a
replicate's reads are the bytes its one-replicate CD gives.
``paired_compare``, which ``cdkit compare`` runs, reads each CD once for all
three statistics; with one block function and one draw it equals the
separate passes bit for bit.

Dispersion is an expectation under the CD: it reads four probe quantiles,
then the 2048 node quantiles of ``inference``'s one rule, which ``cd_mean``
reads too.  Location-scale and exponential-rate CDs map base quantiles cached
once per base; other CDs evaluate their own.
"""

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import probkernel as pk
from .cd_core import (
    ConfidenceDistribution,
    _elementwise,
    cd_eval,
    cd_log_lower,
    cd_log_upper,
    cd_quantile,
    family_block,
    write_table,
)
from .errors import ConfigError, PairingError, ParameterDomainError
from .inference import _base_quantiles, _expect, _gauss_legendre, _quantiles
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
    return _dispersion(cd, loss, float(theta0), _quantiles(cd, "probes"),
                       partial(_quantiles, cd, "nodes"))


def _dispersion(cd: ConfidenceDistribution, loss: LossSpec, theta0: float, probes,
                nodes) -> float:
    """sample_dispersion of cd from its probe quantiles and ``nodes()``, its
    node quantiles."""
    phi = lambda x: _elementwise(lambda v: loss.phi(v, theta0), x)
    q25, q75 = float(probes[1]), float(probes[2])
    loss.spot_check(theta0, max(q75 - q25, 1e-6 * (1.0 + abs(theta0))))
    if cd.kind == "sample":
        return float(np.dot(phi(cd.atoms), cd.weights))
    return _expect(phi, probes, nodes)


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


# ---------------------------------------------------------------------------
# replicate blocks: every pass reads its replicates through _read_block

_NODE_ROWS = 32  # a family block maps its dispersion node quantiles this many rows at a time


class _Read(NamedTuple):
    """What a pass reads off gen's CD of each replicate, built on the data
    that draws draws: H at points, the first n_tail of them tail points, and
    its dispersion under loss unless loss is None."""

    gen: CdGenerator
    draws: CdGenerator
    points: np.ndarray
    n_tail: int = 0
    loss: LossSpec | None = None


class _BlockCds:
    """A read's CDs on the rows of a block's data, built and read row by row.

    A block_born recipe's rows are one ``family_block``: H at the points is
    one ``cd_eval``, and dispersion maps the cached base quantiles through
    the block's from_base, each parameter a column, in chunks of
    ``_NODE_ROWS`` rows.  Any other recipe builds a row's CD with
    ``build_cd`` when the row is reached; replicate 0's is given when it was
    built alone.
    """

    def __init__(self, read: _Read, data: np.ndarray, block, first):
        self.read, self.data, self.block, self.first = read, data, block, first
        self.tail_rows, self.chunk_at = [], None
        if not read.gen.block_born:
            self.family = None
            return
        name, params, ok = read.gen.family_rows(data)
        self.family, kept = family_block(name, params, ok)
        refused = np.flatnonzero(~kept)
        # the rows before the first refused one are all kept: row j is column j
        self.stop = int(refused[0]) if refused.size else len(block)
        self.cols = {key: v[kept, None] for key, v in params.items() if np.ndim(v)}
        self.h = cd_eval(self.family, read.points[:, None]) if read.points.size else None
        self.probes = self._quantiles("probes", slice(None)) if read.loss is not None else None

    def _quantiles(self, grid: str, rows: slice) -> np.ndarray:
        """The quantiles at _grid_probs(grid) of the block's CDs rows, a row each."""
        base_q = _base_quantiles(self.family.base, self.family.side, grid)
        cols = {key: v[rows] for key, v in self.cols.items()}
        return np.asarray(self.family.from_base(base_q, **cols), dtype=float)

    def build(self, j: int) -> None:
        """Build row j's CD, or raise the error its one-row build raises."""
        gen, index = self.read.gen, self.block[j]
        if self.family is None:
            self.cd = (self.first if index == 0 and self.first is not None
                       else gen.build_cd(self.data[j], index))
            if self.read.points.size:
                self.h_row = cd_eval(self.cd, self.read.points)
                self.tail_rows.append(self.h_row[:self.read.n_tail])
        elif j == self.stop:
            gen.build_cd(self.data[j], index)
            raise RuntimeError(f"replicate {index} builds alone but not in its block")

    def nodes(self, j: int) -> np.ndarray:
        """H of row j's CD at the points past the tail points."""
        if self.family is None:
            return self.h_row[self.read.n_tail:]
        return self.h[self.read.n_tail:, j]

    def dispersion(self, j: int) -> float:
        loss, theta0 = self.read.loss, self.read.gen.theta0
        if self.family is None:
            return sample_dispersion(self.cd, loss, theta0)
        start = j - j % _NODE_ROWS
        if self.chunk_at != start:
            self.chunk = self._quantiles("nodes", slice(start, start + _NODE_ROWS))
            self.chunk_at = start
        nodes = lambda: self.chunk[j - start]
        return _dispersion(self.family, loss, theta0, self.probes[j], nodes)

    def tails(self) -> np.ndarray:
        """H at the tail points, a row per replicate of the block."""
        if self.family is None:
            return np.array(self.tail_rows).reshape(len(self.block), self.read.n_tail)
        return np.array(self.h[:self.read.n_tail].T)


def _read_block(reads, row, first, block) -> tuple:
    """(H at the tail points of each read that has some, the columns of
    row(j, *cds) over rows j) for the replicates block, cds holding each
    read's CDs.

    Each generator whose draws a read takes draws the block once.  Rows are
    built and read in index order, a row's CDs in the order of reads, so a
    block ends on its lowest failing replicate: a CD that does not build
    raises the error its one-row build raises.  first holds each read's
    replicate-0 CD, or is empty.
    """
    data = {}
    for read in reads:
        if read.draws.draw_key not in data:
            data[read.draws.draw_key] = read.draws.draw_block(block)
    known = first if first and block[0] == 0 else (None,) * len(reads)
    cds = [_BlockCds(read, data[read.draws.draw_key], block, cd0)
           for read, cd0 in zip(reads, known)]
    values = []
    for j in range(len(block)):
        for cd in cds:
            cd.build(j)
        values.append(row(j, *cds))
    return ([cd.tails() for cd in cds if cd.read.n_tail],
            [np.array(col) for col in zip(*values)])


def _read_replicates(reads, row, reps: int, first=()) -> tuple:
    """_read_block over replicates 0 to reps - 1, each array joined across blocks."""
    tails, columns = zip(*run_replicates(partial(_read_block, reads, row, first), range(reps)))
    return ([np.concatenate(parts) for parts in zip(*tails)],
            [np.concatenate(parts) for parts in zip(*columns)])


def mc_dispersion(gen: CdGenerator, loss: LossSpec, reps: int) -> McEstimate:
    """Mean dispersion over seeded replications of a generator."""
    _check_reps(reps)
    read = _Read(gen, gen, np.empty(0), loss=loss)
    _, (values,) = _read_replicates((read,), lambda j, cd: (cd.dispersion(j),), reps)
    return _mc_aggregate(values)


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
    _, (values,) = _read_replicates((_Read(gen, gen, nodes),),
                                    lambda j, cd: (reduce(cd.nodes(j)),), reps)
    return _mc_aggregate(values)


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


def _tail_stack(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """(reps, 4, n_eps): H1(lows), H2(lows), 1 - H1(highs), 1 - H2(highs).

    h1 and h2 hold each CD's H at the tail points, concat(lows, highs), a
    row per replicate.
    """
    k = h1.shape[1] // 2
    return np.stack([h1[:, :k], h2[:, :k], 1.0 - h1[:, k:], 1.0 - h2[:, k:]], axis=1)


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
    reads = (_Read(gen1, gen1, tails, tails.size), _Read(gen2, gen1, tails, tails.size))
    (h1, h2), _ = _read_replicates(reads, lambda j, *cds: (), reps)
    return _dominance_report(theta0, eps_arr, _tail_stack(h1, h2), reps)


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

    Replicate i is dominance_mc's paired draw; each CD is evaluated once, in
    its block, at the tail points and the risk nodes together, and the tail masses, both
    dispersions and both risks are read off it.  Dispersion and risk describe
    each generator on its own draws, as mc_dispersion and risk do: when the
    draw keys differ (another seed, theta0 or sigma), each block adds gen2's
    own draws and CDs for those reads.  One block function and one draw, so
    the result equals the three separate calls bit for bit.

    Dispersion is under squared error; risk weighs uniformly over theta0 +- 3
    IQR of gen1's replicate-0 CD, so replicate 0's CDs are built alone first;
    its reads come from its block, as every other replicate's do.  Every
    config check runs before any replicate is built.
    """
    eps_arr = _paired_eps(gen1, gen2, eps_grid, reps)
    theta0 = float(theta0)
    tails = _tail_points(theta0, eps_arr)
    shared = gen1.draw_key == gen2.draw_key
    data = gen1.draw_data(0)
    first = (gen1.build_cd(data, 0), gen2.build_cd(data, 0))
    first += () if shared else (gen2.replicate(0),)
    q25, q75 = cd_quantile(first[0], np.array([0.25, 0.75]))
    spec = default_risk(theta0, max(float(q75 - q25), 1e-6))
    nodes, risk1 = _risk_reader(spec, gen1.theta0)
    _, risk2 = _risk_reader(spec, gen2.theta0)
    points = np.concatenate([tails, nodes])
    # on shared draws gen2's dispersion and risk read its CD on gen1's data
    reads = (_Read(gen1, gen1, points, tails.size, SquaredError),
             _Read(gen2, gen1, points, tails.size, SquaredError) if shared
             else _Read(gen2, gen1, tails, tails.size))
    reads += () if shared else (_Read(gen2, gen2, nodes, loss=SquaredError),)

    def row(j, cd1, *rest):
        own2 = rest[-1]
        return (cd1.dispersion(j), own2.dispersion(j), risk1(cd1.nodes(j)), risk2(own2.nodes(j)))

    (h1, h2), (disp1, disp2, risks1, risks2) = _read_replicates(reads, row, reps, first)
    return PairedComparison(
        dominance=_dominance_report(theta0, eps_arr, _tail_stack(h1, h2), reps),
        dispersion=(_mc_aggregate(disp1), _mc_aggregate(disp2)),
        risk=(_mc_aggregate(risks1), _mc_aggregate(risks2)),
        first_cds=(first[0], first[-1]),
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
