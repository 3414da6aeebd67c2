"""Brute-force references for the tests: random chains and spaces, the
exhaustive decoder minimum that the Fano tail bounds are audited against,
QUADPACK quadrature of the normal-mean tail integral, the KL and
pairwise-KL information helpers, and the generic
estimation-to-testing reduction over a materialized parameter family,
which the sparse pipelines are checked against.

No library path calls these. Each random instance is drawn from its own
stream (streams.stream, SFC64 seeded by SeedSequence), keyed by (seed,
CHAIN_STREAM or SPACE_STREAM + stream_id), namespaces that the library's
own stream ids leave free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from fanolab.discrete import DiscreteSpace, NeighborhoodProfile, fano_tail_lower_bound
from fanolab.info import (
    LN2,
    DomainError,
    MarkovChainSpec,
    ProbVector,
    _budget,
    _require,
    _validate_rows,
    conditional_entropy,
    entropy,
)
from fanolab.results import MinimaxBound
from fanolab.streams import stream

CHAIN_STREAM = 5 << 40
SPACE_STREAM = 6 << 40


def random_chain(seed: int, sizes: tuple[int, int, int], *, stream_id: int = 0,
                 uniform_prior: bool = False) -> MarkovChainSpec:
    """Random chain with symmetric-Dirichlet(1) rows; deterministic in (seed, stream_id)."""
    nv, nx, nvhat = sizes
    _require("an integer in [1, 2**63)", nv=nv, nx=nx, nvhat=nvhat)
    g = stream(seed, CHAIN_STREAM + stream_id)
    prior = ProbVector(np.full(nv, 1.0 / nv)) if uniform_prior \
        else ProbVector(g.dirichlet(np.ones(nv)))
    channel = g.dirichlet(np.ones(nx), size=nv)
    decoder = g.dirichlet(np.ones(nvhat), size=nx)
    return MarkovChainSpec(prior=prior, channel=channel, decoder=decoder)


def random_symmetric_space(seed: int, k: int, *, stream_id: int = 0) -> DiscreteSpace:
    """Random symmetric distances U[0, 2) off the diagonal, zeros on it."""
    _require("an integer in [2, 2**63)", k=k)
    g = stream(seed, SPACE_STREAM + stream_id)
    m = np.zeros((k, k))
    iu = np.triu_indices(k, 1)
    m[iu] = g.random(len(iu[0])) * 2.0
    m += m.T
    return DiscreteSpace.from_matrix(m)


def enumerate_decoders_min_tail(prior: ProbVector, channel, space: DiscreteSpace,
                                t: float) -> float:
    """Exact min over all deterministic decoders g: X -> V of P(rho(g(X), V) > t).

    Brute-force enumeration over all |V|^|X| decoder functions, so no
    shortcut replaces the loop: it is the reference for the library's
    closed-form minimum. Guarded by the "decoders" budget of
    info._BUDGETS, the one caller of that row. t must be finite.
    """
    _require("finite", t=t)
    c = np.asarray(channel, dtype=np.float64)
    nv, nx = c.shape
    if nv != len(prior) or nv != space.n_points:
        raise DomainError("prior, channel and space must agree on |V|")
    _budget("decoders", space.n_points**nx,
            f"space and channel with |V|^|X| = {space.n_points}^{nx}")
    dmat = space.distance_matrix()
    weight = prior.p[:, None] * c           # (v, x)
    miss = (dmat.T > t).astype(np.float64)  # miss[vhat, v] = 1{rho(vhat, v) > t}
    cost = (miss @ weight).T                # cost[x, vhat] = P(X=x, rho(vhat, V) > t)
    xs = np.arange(nx)
    best = math.inf
    for g in itertools.product(range(space.n_points), repeat=nx):
        val = float(cost[xs, g].sum())
        if val < best:
            best = val
    return best


def quadpack_tail_integral(d: int, n: int) -> float:
    """integral_0^inf max(0, (d-1)/d - n*ln(1+t)/(2 d ln2)) dt by
    scipy.integrate.quad (epsrel 1e-12) on 120 log-spaced panels that end
    at the kink, which is found by bisection."""
    c = (d - 1) / d

    def f(t):
        return c - n * math.log1p(t) / (2 * d * LN2)

    hi = 1.0
    while f(hi) > 0:
        hi *= 2
    lo = hi / 2 if hi > 1 else 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    root = (lo + hi) / 2
    edges = np.concatenate([[0.0], np.logspace(-6, math.log10(max(root, 1e-6)), 120)])
    edges = np.append(edges[edges <= root], root)
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]) if b > a)


# -- information helpers ----------------------------------------------------------
# KL divergences, the pairwise-KL bound on I(V; X) and I(V; Vhat): no
# pipeline calls them (the sparse pipelines inline their mutual information
# coefficients), so they serve here as the references those coefficients are
# held against.


def mutual_information_v_vhat(chain: MarkovChainSpec) -> float:
    """I(V; Vhat) for the end-to-end chain, via H(V) - H(V | Vhat)."""
    return max(0.0, entropy(chain.prior) - conditional_entropy(chain))


def kl_discrete(p: ProbVector, q: ProbVector) -> float:
    """KL(p || q) in nats; +inf when p puts mass where q has none."""
    if len(p) != len(q):
        raise DomainError("distributions must share an index set")
    pp, qq = p.p, q.p
    if np.any((pp > 0) & (qq == 0)):
        return math.inf
    mask = pp > 0
    return max(0.0, float((pp[mask] * (np.log(pp[mask]) - np.log(qq[mask]))).sum()))


def kl_gaussian_shared_cov(mu1, mu2, sigma2: float) -> float:
    """KL( N(mu1, sigma2*I) || N(mu2, sigma2*I) ) = ||mu1 - mu2||^2 / (2 sigma2).
    Non-finite arguments, and a KL that overflows float64, are refused."""
    _require("finite", mu1=mu1, mu2=mu2)
    _require("finite and > 0", sigma2=sigma2)
    a = np.asarray(mu1, dtype=np.float64)
    b = np.asarray(mu2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError(f"mean vectors must be 1-d with equal length; got {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        kl = float((a - b) @ (a - b)) / (2.0 * sigma2)
    if not math.isfinite(kl):
        raise DomainError("the KL overflows float64: mu1 and mu2 are too far apart for "
                          f"sigma2={sigma2!r}")
    return kl


def mi_pairwise_kl_bound(means, sigma2: float, n_samples: int) -> float:
    """Convexity upper bound on I(V; X_1^n) for V uniform on a Gaussian mean family.

    For V, W independent and uniform on the list of means,

        I(V; X_1^n) <= n * (1/M^2) * sum_{v,w} KL(N(mu_v, s I) || N(mu_w, s I))
                     = n * (E||V||^2 - ||E V||^2) / sigma2,

    where the second form is the algebraic collapse of the double sum; it
    is what gets evaluated, so million-point families cost O(M d).
    Non-finite means, a non-finite sigma2, an n_samples that is not a whole
    number, and a bound that overflows float64 are refused.
    """
    _require("finite", means=means)
    _require("finite and > 0", sigma2=sigma2)
    _require("a whole number >= 1", n_samples=n_samples)
    _require("finite", n_samples=n_samples)
    a = np.asarray(means, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] == 0:
        raise DomainError("means must be a nonempty list of vectors")
    with np.errstate(over="ignore"):
        mean_sq = float((a * a).sum(axis=1).mean())
        centroid = a.mean(axis=0)
        bound = n_samples * (mean_sq - float(centroid @ centroid)) / sigma2
    # inf - inf is NaN, which the clamp below would turn into a silent 0
    if not math.isfinite(bound):
        raise DomainError("the bound overflows float64: the means are too large, or "
                          f"sigma2={sigma2!r} too small, for n_samples={n_samples!r}")
    return max(0.0, bound)


def mi_pairwise_kl_bound_discrete(rows, n_samples: int = 1) -> float:
    """Same convexity bound for a finite channel: n * (1/M^2) sum_{v,w} KL(row_v || row_w),
    evaluated in O(M K) as n * [(1/M) sum_{v,k} p_vk ln p_vk - sum_k pbar_k (1/M) sum_w ln p_wk]
    with pbar the mean row. It is +inf exactly when a column with pbar_k > 0 has a zero
    entry; all-zero columns drop out. An n_samples that is not a whole number, or that
    makes a finite value overflow, is refused."""
    _require("a whole number >= 1", n_samples=n_samples)
    _require("finite", n_samples=n_samples)
    m = _validate_rows(rows, "rows")
    cols = m[:, m.any(axis=0)]
    if not cols.all():
        return math.inf
    logs = np.log(cols)
    val = float((cols * logs).sum()) / m.shape[0] - float(cols.mean(axis=0) @ logs.mean(axis=0))
    if n_samples * val == math.inf:
        raise DomainError(f"n_samples={n_samples!r} times the mean KL {val!r} overflows "
                          "float64")
    return max(0.0, n_samples * val)


# -- the generic reduction -----------------------------------------------------


def square_loss(x: float) -> float:
    """Default loss Phi(x) = x^2 of a finite x; +inf once x^2 overflows float64."""
    _require("finite", x=x)
    return x * x


@dataclass(frozen=True)
class ParamFamily:
    """Indexed parameter family: theta_map sends an index-space point index
    to a parameter vector; param_metric measures distances between
    parameters; loss is a nondecreasing Phi with Phi(0) >= 0 (spot-checked
    on a small grid at construction).
    """

    index_space: DiscreteSpace
    theta_map: Callable[[int], np.ndarray]
    param_metric: Callable[[np.ndarray, np.ndarray], float]
    loss: Callable[[float], float] = square_loss

    def __post_init__(self):
        probe = [0.0, 1e-6, 0.5, 1.0, 2.0, 5.0, 10.0]
        vals = [self.loss(x) for x in probe]
        if vals[0] < 0:
            raise DomainError("loss must satisfy Phi(0) >= 0")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("loss must be nondecreasing (failed a grid spot-check)")

    def thetas(self) -> list[np.ndarray]:
        return [np.asarray(self.theta_map(i), dtype=np.float64)
                for i in range(self.index_space.n_points)]


def separation_delta(family: ParamFamily, t: float) -> float:
    """Largest delta with rho(theta_v, theta_w) >= delta whenever the index
    distance exceeds t; equivalently the min parameter distance over index
    pairs with rho_index(v, w) > t (strict), +inf when no pair qualifies.
    A non-finite t is refused.
    """
    _require("finite", t=t)
    far_i, far_j = np.nonzero(np.triu(family.index_space.distance_matrix() > t, 1))
    thetas = family.thetas()
    return min((float(family.param_metric(thetas[i], thetas[j]))
                for i, j in zip(far_i.tolist(), far_j.tolist())), default=math.inf)


def generalized_fano_minimax(family: ParamFamily, t: float, mi: float, card: int,
                             profile: NeighborhoodProfile) -> MinimaxBound:
    """Risk bound Phi(delta(t)/2) * max(0, 1 - (I + ln 2) / ln(card / N_max)).

    With t = 0 and the 0-1 index metric this is the classical Fano minimax
    bound with packing number card. Validity (the tail bound's side
    condition) propagates; an invalid or zero tail yields value 0 without
    evaluating Phi at a possibly infinite separation.
    """
    tail = fano_tail_lower_bound(card, profile, mi)
    delta = separation_delta(family, t)
    if tail.value > 0:
        if delta == math.inf:
            raise DomainError(f"no index pair is farther apart than t={t!r}, yet the "
                              "tail bound is positive")
        value = family.loss(delta / 2.0) * tail.value
    else:
        value = 0.0
    return MinimaxBound(value=value, pipeline="generalized-fano", t=t, eps=None,
                        mi_bound=mi, log_ratio=tail.extras["log_ratio"],
                        valid=tail.valid,
                        extras={"delta": delta, "tail_bound": tail.value,
                                "card": card, "n_max": profile.n_max,
                                "n_min": profile.n_min})


@dataclass(frozen=True)
class ReductionCheck:
    """Outcome of decoding an estimate back to the index set.

    decoded is argmin_v rho(theta_v, theta_hat) with lowest-index
    tie-breaking. When the premise rho(theta_hat, theta_true) < delta(t)/2
    holds (strictly), the decoder is guaranteed to land within index
    distance t of the truth; `holds` records that conclusion, and is None
    when the premise fails (nothing is asserted at or beyond the boundary).
    delta is separation_delta(family, t), +inf when no pair is farther than t.
    """

    decoded: int
    premise: bool
    conclusion: bool
    delta: float

    @property
    def holds(self) -> bool | None:
        return self.conclusion if self.premise else None


def reduce_estimator_to_test(family: ParamFamily, t: float, theta_hat,
                             true_index: int) -> ReductionCheck:
    """Decode theta_hat to its nearest family member and check the
    estimation-to-testing implication at radius t."""
    family.index_space._require_points(true_index=true_index)
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    thetas = family.thetas()
    dists = np.array([family.param_metric(th, theta_hat) for th in thetas])
    decoded = int(np.argmin(dists))  # argmin takes the lowest index on ties
    delta = separation_delta(family, t)
    premise = float(family.param_metric(thetas[true_index], theta_hat)) < delta / 2.0
    conclusion = family.index_space.rho_index(decoded, true_index) <= t
    return ReductionCheck(decoded=decoded, premise=premise, conclusion=conclusion,
                          delta=delta)
