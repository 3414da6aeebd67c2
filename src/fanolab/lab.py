"""Verification lab: exact small-instance oracles and seeded Monte
Carlo estimator simulations.

Everything here exists to audit the bounds one-sidedly: a lower bound on
the minimax risk must sit below the empirical risk of every concrete
estimator we run (up to Monte Carlo confidence). The minimax infimum
itself is not computable, so passing this audit certifies soundness, not
sharpness.

Each replicate's loss is the squared error ||theta_hat - theta||^2, and
every tail is the weak event P(||theta_hat - theta|| >= t). The exact
discrete tail P(rho(Vhat, V) > t) of a chain is discrete.chain_tail; no
simulation here estimates it.

Reproducibility contract: the replicates of an experiment are split into
blocks of REPLICATE_BLOCK, and block b draws all of its replicates, as
arrays, from the stream keyed by (seed, REPLICATE_STREAM + b). A
full block's draws depend on the seed and b only, so growing reps leaves
the replicates of the shared full blocks bit-identical. Loss sums
accumulate per fixed chunk of _SUM_CHUNK replicates with a fixed-order
pairwise reduction, so identical configs produce bit-identical reports.

The prop1 and decoder oracle suites draw their random instances in keyed
blocks of ORACLE_BLOCK. Block b of a suite draws everything for its
instances from the one stream (seed, base + b), with base
VERIFY_STREAM for prop1 and VERIFY_STREAM + 2^20 for the decoder suite:
first the arrays of |V|, of |X| and of the radii t, then, for each shape
(|V|, |X|) in sorted order, the stacked priors and stochastic decoders
(prop1 only; the decoder suite keeps V uniform), the channels and the
upper-triangle distances. A full block's instances depend on the seed and
b only, so growing the instance count leaves the shared full blocks
unchanged. The batched kernels compute nothing of their own but the
decoder minimum, in closed form as the per-x Bayes decoder's tail: the
joint law, the miss event and P_t, the neighborhood extremes, I and H come
from the array cores of info and discrete, and the Fano formulas from
discrete's scalar cores, all shared with the public single-instance
functions, so both give the same bits. The brute-force references, the
decoder enumeration among them, live in the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import (_check_symmetric, _fano_conditional, _fano_lhs, _fano_tail, _miss,
                       _miss_tail, _neighborhood_extremes)
from .info import (DomainError, _budget, _conditional_entropy, _joint_law, _mutual_information,
                   _require, _shown, _validate_rows, _xlogx)
from .minimax import _design
from .results import MinimaxBound
from .stats import clopper_pearson, mean_ci, pairwise_sum
from .streams import REPLICATE_STREAM, VERIFY_STREAM, stream

__all__ = [
    "PROBLEMS",
    "ESTIMATOR_OF",
    "ExperimentConfig",
    "TailEstimate",
    "MatchedBound",
    "RiskReport",
    "BoundAudit",
    "OracleGroup",
    "prop1_groups",
    "decoder_groups",
    "fano_sides_batch",
    "decoder_bounds_batch",
    "hard_threshold",
    "simulate_risk",
    "check_bounds",
    "audit_config",
    "AUDIT_PROBLEM_OF",
    "REPLICATE_BLOCK",
    "ORACLE_BLOCK",
]

# The estimator of each problem's experiment: hard thresholding at
# sigma sqrt(2 ln d / n), the sample mean, and OLS on the design.
ESTIMATOR_OF = {"sparse-location": "hard-threshold", "normal-mean": "mean",
                "regression": "ols"}
PROBLEMS = tuple(ESTIMATOR_OF)
# The one table of which problem's experiment audits each pipeline's bound.
AUDIT_PROBLEM_OF = {"normal-mean-simple": "normal-mean", "normal-mean-integrated": "normal-mean",
                    "sparse-location": "sparse-location",
                    "linear-regression": "regression", "compressed-sensing": "regression"}
# Replicates drawn from one keyed stream. Fixed by the library, so that
# draws never depend on how the sums are chunked; a block of the widest
# problem (d = 32) stays near 1 MB per array.
REPLICATE_BLOCK = 4096
_SUM_CHUNK = 1024  # replicates per partial loss sum, reduced pairwise in order
# Oracle-suite instances drawn from one keyed stream; it also bounds the
# stacked arrays of one shape group, the largest of shape (k, nv, nx) or
# (k, nv, nv): at most 4096 x 5 x 5 entries, in the prop1 suite.
ORACLE_BLOCK = 4096

_CONFIDENCE = 0.99


@dataclass(frozen=True)
class OracleGroup:
    """The instances of one oracle block that share a shape, stacked along
    the first axis: chains V -> X -> Vhat with |V| = |Vhat| = nv and
    |X| = nx, on matrix-backed spaces over V, each with its radius t.

    Construction checks every instance with the probability-row rule of
    ProbVector and MarkovChainSpec and the distance rule of DiscreteSpace
    (no NaN, symmetric), plus a zero diagonal. Radii must be finite and
    >= 0, which on a zero diagonal is neighborhood_sizes' rule that no
    neighborhood be empty, and block an index. decoder is None when the
    instances need no stochastic decoder.
    """

    block: int
    index: np.ndarray            # (k,) positions of the instances in their block
    t: np.ndarray                # (k,)
    prior: np.ndarray            # (k, nv)
    channel: np.ndarray          # (k, nv, nx)
    decoder: np.ndarray | None   # (k, nx, nv)
    dist: np.ndarray             # (k, nv, nv)

    def __post_init__(self):
        if np.ndim(self.channel) != 3 or np.shape(self.channel)[1] < 2:
            raise DomainError("channel must stack (nv, nx) matrices with nv >= 2")
        k, nv, nx = np.shape(self.channel)
        shapes = {"index": (k,), "t": (k,), "prior": (k, nv), "dist": (k, nv, nv),
                  "decoder": None if self.decoder is None else (k, nx, nv)}
        for name, want in shapes.items():
            if want is not None and np.shape(getattr(self, name)) != want:
                raise DomainError(f"{name} has shape {np.shape(getattr(self, name))}, "
                                  f"expected {want}")
        _validate_rows(self.prior, "prior")
        _validate_rows(np.reshape(self.channel, (-1, nx)), "channel")
        if self.decoder is not None:
            _validate_rows(np.reshape(self.decoder, (-1, nv)), "decoder")
        _check_symmetric(self.dist)
        if np.any(np.diagonal(self.dist, axis1=1, axis2=2) != 0):
            raise DomainError("distance matrices must have a zero diagonal")
        _require("an integer in [0, 2**63)", block=self.block)
        _require("finite and >= 0", t=self.t)

    @property
    def nv(self) -> int:
        return int(self.prior.shape[1])

    @property
    def nx(self) -> int:
        return int(self.channel.shape[2])


def _oracle_groups(seed: int, instances: int, base: int, n_hi: int, t_hi: float,
                   chain: bool):
    """Yields the shape groups of each block in turn, as the module
    docstring lays out; nv and nx are drawn from [2, n_hi), t from
    U[0, t_hi), and chain=False keeps V uniform and draws no decoders."""
    _require("an integer in [1, 2**63)", instances=instances)
    _budget("oracle instances", instances, "instances")
    for block, lo in enumerate(range(0, instances, ORACLE_BLOCK)):
        m = min(ORACLE_BLOCK, instances - lo)
        g = stream(seed, base + block)
        nvs = g.integers(2, n_hi, size=m)
        nxs = g.integers(2, n_hi, size=m)
        ts = g.uniform(0.0, t_hi, size=m)
        for nv, nx in sorted(set(zip(nvs.tolist(), nxs.tolist()))):
            index = np.flatnonzero((nvs == nv) & (nxs == nx))
            k = index.size
            prior = g.dirichlet(np.ones(nv), size=k) if chain else np.full((k, nv), 1.0 / nv)
            channel = g.dirichlet(np.ones(nx), size=(k, nv))
            decoder = g.dirichlet(np.ones(nv), size=(k, nx)) if chain else None
            iu = np.triu_indices(nv, 1)
            dist = np.zeros((k, nv, nv))
            dist[:, iu[0], iu[1]] = g.random((k, iu[0].size)) * 2.0
            dist = dist + dist.transpose(0, 2, 1)
            yield OracleGroup(block, index, ts[index], prior, channel, decoder, dist)


def prop1_groups(seed: int, instances: int):
    """The prop1 suite's instances, one OracleGroup at a time: a random
    prior, channel and stochastic decoder with |V|, |X| in {2..5}, on a
    space with distances U[0, 2), at a radius t ~ U[0, 2.2)."""
    return _oracle_groups(seed, instances, VERIFY_STREAM, 6, 2.2, chain=True)


def decoder_groups(seed: int, instances: int):
    """The decoder suite's instances, one OracleGroup at a time: V uniform,
    a random channel with |V|, |X| in {2..4}, on a space with distances
    U[0, 2), at a radius t ~ U[0, 2)."""
    return _oracle_groups(seed, instances, VERIFY_STREAM + (1 << 20), 5, 2.0, chain=False)


def fano_sides_batch(group: OracleGroup) -> tuple[np.ndarray, np.ndarray]:
    """fano_inequality_sides for every instance of the group, as (lhs, rhs)
    arrays, from the same cores and so with the same bits."""
    if group.decoder is None:
        raise DomainError("the Fano sides need the group's stochastic decoders")
    joint = _joint_law(group.prior, group.channel, group.decoder)
    p_t = _miss_tail(joint, group.dist, group.t)
    n_max, n_min = _neighborhood_extremes(group.dist, group.t)
    nv = group.nv
    lhs = np.array([_fano_lhs(p, nv, hi, lo)
                    for p, hi, lo in zip(p_t.tolist(), n_max.tolist(), n_min.tolist())])
    return lhs, _conditional_entropy(joint)


def decoder_bounds_batch(group: OracleGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per instance of the group: the minimum of P(rho(g(X), V) > t) over
    all nv^nx deterministic decoders g: X -> V, and the values of
    fano_tail_lower_bound and fano_conditional_form at card = nv with
    I(V; X) and H(V | X) = H(V) - I(V; X), each clamped at 0, from the
    same cores as the public functions. The tail form assumes V uniform.

    The minimum separates over x: it is the sum over x of
    min_vhat P(X=x, rho(vhat, V) > t), the per-x Bayes decoder's tail.
    The per-x minima are added in x order, and rounded addition is
    monotone, so the sum has the bits of the minimum over the decoders'
    in-order sums, which the tests check against the enumeration.
    """
    nv = group.nv
    weight = group.prior[:, :, None] * group.channel  # P(V=v, X=x)
    miss = _miss(group.dist, group.t).astype(np.float64)
    cost = np.matmul(miss, weight)                    # cost[k, vhat, x] = P(X=x, miss)
    min_tail = np.cumsum(cost.min(axis=1), axis=1)[:, -1]  # accumulates in x order

    mi = _mutual_information(group.prior, group.channel)
    hvx = np.maximum(0.0, -_xlogx(group.prior).sum(axis=1) - mi)
    n_max, n_min = _neighborhood_extremes(group.dist, group.t)
    bounds = [(_fano_tail(i, math.log(nv / hi)), _fano_conditional(h, nv, hi, lo)[0])
              for i, h, hi, lo in zip(mi.tolist(), hvx.tolist(), n_max.tolist(),
                                      n_min.tolist())]
    tail, cond = np.array(bounds).reshape(-1, 2).T
    return min_tail, tail, cond


def hard_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """Keep coordinates with |x_j| > tau, zero the rest."""
    _require("finite", tau=tau)
    return np.where(np.abs(x) > tau, x, 0.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Seeded estimator-vs-bound experiment description; the problem picks
    the estimator, as ESTIMATOR_OF lists.

    Only sparse-location draws a latent parameter, uniformly per replicate
    from the eps-scaled sparse sign set: the errors of the sample mean and
    of OLS do not depend on the parameter. For regression, d is the
    design's column count. t_list are tail radii on the parameter error:
    each tail is P(||theta_hat - theta|| >= t).
    """

    problem: str
    reps: int
    seed: int
    d: int = 1
    s: int = 0
    n: int = 1
    sigma2: float = 1.0
    eps: float = 0.0
    t_list: tuple[float, ...] = ()
    design: np.ndarray | None = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise DomainError(f"unknown problem {self.problem!r}; expected one of {PROBLEMS}")
        _require("an integer", reps=self.reps, d=self.d, s=self.s, n=self.n)
        _require("an integer in [0, 2**64)", seed=self.seed)
        _require("a whole number >= 1", reps=self.reps)
        _budget("replicates", self.reps, "reps")
        _require("finite and > 0", sigma2=self.sigma2)
        _require("finite and >= 0", eps=self.eps, t_list=self.t_list)
        if self.problem != "regression":
            _require("a whole number >= 1", d=self.d, n=self.n)
        if self.problem == "sparse-location" and not 1 <= self.s <= self.d:
            raise DomainError("sparse-location needs 1 <= s <= d")
        if self.problem == "regression":
            X, _ = _design(self.design, full_rank=True)
            if self.d != X.shape[1]:
                raise DomainError(
                    f"d={_shown(self.d)} must equal the design's {X.shape[1]} columns")
            object.__setattr__(self, "design", X)


@dataclass(frozen=True)
class TailEstimate:
    t: float
    count: int
    reps: int
    p_hat: float
    ci: tuple[float, float]


@dataclass(frozen=True)
class MatchedBound:
    """A lower bound matched to an empirical quantity: the mean risk
    (target='risk') or the tail at radius t (target='tail')."""

    label: str
    target: str
    value: float
    t: float | None = None

    def __post_init__(self):
        if self.target not in ("risk", "tail"):
            raise DomainError("target must be 'risk' or 'tail'")
        if self.target == "tail" and self.t is None:
            raise DomainError("tail-matched bounds need t")
        _require("finite", value=self.value)
        if self.t is not None:
            _require("finite", t=self.t)


@dataclass(frozen=True)
class RiskReport:
    problem: str
    estimator: str
    reps: int
    seed: int
    risk_mean: float
    risk_ci: tuple[float, float]
    tails: tuple[TailEstimate, ...]
    bounds: tuple[MatchedBound, ...] = ()

    def to_text(self) -> str:
        """Canonical text form; byte-identical for identical configs."""
        lines = [
            f"problem={self.problem} estimator={self.estimator} reps={self.reps} seed={self.seed}",
            f"risk_mean={self.risk_mean!r} ci=({self.risk_ci[0]!r},{self.risk_ci[1]!r})",
        ]
        for te in self.tails:
            lines.append(f"tail t={te.t!r} count={te.count} "
                         f"p_hat={te.p_hat!r} ci=({te.ci[0]!r},{te.ci[1]!r})")
        for mb in self.bounds:
            lines.append(f"bound label={mb.label} target={mb.target} t={mb.t!r} "
                         f"value={mb.value!r}")
        return "\n".join(lines) + "\n"


def _sparse_theta(g: np.random.Generator, m: int, d: int, s: int, eps: float) -> np.ndarray:
    """m points drawn uniformly from the eps-scaled s-sparse sign set, one per row."""
    support = np.argsort(g.random((m, d)), axis=1)[:, :s]
    theta = np.zeros((m, d))
    signs = 2.0 * g.integers(0, 2, size=(m, s)) - 1.0
    np.put_along_axis(theta, support, eps * signs, axis=1)
    return theta


def _error_sampler(cfg: ExperimentConfig):
    """Returns g, m -> (m, d) parameter errors of m replicates.

    Every estimator sees the data only through its sufficient statistic:
    the sample mean xbar ~ N(theta, sigma2/n I), or the OLS error
    (X^T X)^{-1} X^T noise ~ N(0, sigma2 (X^T X)^{-1}).
    """
    sigma = math.sqrt(cfg.sigma2)
    d = cfg.d
    if cfg.problem == "regression":
        # X = QR gives L = R^{-1} with L L^T = (X^T X)^{-1}. A Cholesky of
        # the explicit inverse fails on designs the rank check admits.
        factor_t = sigma * np.linalg.inv(np.linalg.qr(cfg.design, mode="r")).T
        return lambda g, m: g.standard_normal((m, d)) @ factor_t
    se = sigma / math.sqrt(cfg.n)
    if cfg.problem == "normal-mean":
        return lambda g, m: se * g.standard_normal((m, d))
    tau = sigma * math.sqrt(2.0 * math.log(d) / cfg.n)

    def errors(g, m):
        theta = _sparse_theta(g, m, d, cfg.s, cfg.eps)
        return hard_threshold(theta + se * g.standard_normal((m, d)), tau) - theta

    return errors


def _replicate_losses(cfg: ExperimentConfig) -> np.ndarray:
    """Per-replicate squared-error losses, drawn block by block from the
    streams keyed by (seed, REPLICATE_STREAM + block)."""
    errors = _error_sampler(cfg)
    losses = np.empty(cfg.reps)
    for block, lo in enumerate(range(0, cfg.reps, REPLICATE_BLOCK)):
        hi = min(lo + REPLICATE_BLOCK, cfg.reps)
        err = errors(stream(cfg.seed, REPLICATE_STREAM + block), hi - lo)
        losses[lo:hi] = np.einsum("ij,ij->i", err, err)
        del err  # free this block's errors before the next block draws its own
    return losses


def simulate_risk(config: ExperimentConfig,
                  bounds: tuple[MatchedBound, ...] = ()) -> RiskReport:
    """Run the seeded experiment and report empirical risk and tails.

    Matched bounds, when supplied, are carried in the report for
    check_bounds to audit.
    """
    losses = _replicate_losses(config)
    reps = config.reps
    chunk_sums = [float(losses[lo:lo + _SUM_CHUNK].sum())
                  for lo in range(0, reps, _SUM_CHUNK)]
    # Mean via the fixed-order pairwise reduction; the CI half-width still
    # comes from the per-replicate sample variance.
    risk_mean = pairwise_sum(chunk_sums) / reps
    # a non-finite loss makes risk_mean non-finite, which mean_ci would refuse
    # under its own name; the CI of finite losses can still overflow
    overflow = (f"overflows float64: sigma2={config.sigma2!r}, eps or the "
                "design is too large")
    if not math.isfinite(risk_mean):
        raise DomainError(f"risk {risk_mean!r} {overflow}")
    _, ci = mean_ci(losses, _CONFIDENCE)
    if reps >= 2:
        half = (ci[1] - ci[0]) / 2.0
        ci = (risk_mean - half, risk_mean + half)
        if not all(map(math.isfinite, ci)):
            raise DomainError(f"risk CI {ci!r} {overflow}")
    dists = np.sqrt(losses)  # ||theta_hat - theta||, against the weak event >= t
    tails = []
    for t in config.t_list:
        k = int(np.count_nonzero(dists >= t))
        tails.append(TailEstimate(t=float(t), count=k, reps=reps, p_hat=k / reps,
                                  ci=clopper_pearson(k, reps, _CONFIDENCE)))
    return RiskReport(problem=config.problem, estimator=ESTIMATOR_OF[config.problem],
                      reps=reps, seed=config.seed, risk_mean=risk_mean,
                      risk_ci=ci, tails=tuple(tails), bounds=tuple(bounds))


@dataclass(frozen=True)
class BoundAudit:
    passed: bool
    margins: tuple[tuple[str, float], ...]
    worst_label: str
    worst_margin: float


def check_bounds(report: RiskReport) -> BoundAudit:
    """Fail iff any matched lower bound exceeds the 99% CI upper endpoint.

    Margin = CI-upper - bound; negative means the bound claims more than
    the estimator achieved, which a sound lower bound can never do.
    """
    margins = []
    for mb in report.bounds:
        if mb.target == "risk":
            margins.append((mb.label, report.risk_ci[1] - mb.value))
        else:
            match = [te for te in report.tails if te.t == mb.t]
            if not match:
                raise DomainError(f"bound {mb.label!r} matched to t={mb.t!r}, "
                                  "which is not in the report's t_list")
            margins.append((mb.label, match[0].ci[1] - mb.value))
    if not margins:
        raise DomainError("report carries no matched bounds to audit")
    # a NaN margin fails the audit, so it must also be the one reported
    worst = min(margins, key=lambda lm: -math.inf if math.isnan(lm[1]) else lm[1])
    return BoundAudit(passed=all(m >= 0 for _, m in margins),
                      margins=tuple(margins),
                      worst_label=worst[0], worst_margin=worst[1])


def audit_config(bound: MinimaxBound, reps: int, seed: int,
                 design: np.ndarray | None = None) -> ExperimentConfig:
    """The experiment that AUDIT_PROBLEM_OF names for the bound's pipeline, with
    d, s, n and sigma2 from the bound's extras, the bound's eps and `design`;
    ExperimentConfig refuses a regression audit without its design."""
    if bound.pipeline not in AUDIT_PROBLEM_OF:
        raise DomainError(f"no estimator audits pipeline {bound.pipeline!r}")
    keys = {k: bound.extras[k] for k in ("d", "s", "n", "sigma2") if k in bound.extras}
    return ExperimentConfig(problem=AUDIT_PROBLEM_OF[bound.pipeline], reps=reps, seed=seed,
                            eps=bound.eps or 0.0, design=design, **keys)
