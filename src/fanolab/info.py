"""Exact information-theoretic quantities on finite alphabets, in nats.

Every entropy, divergence and mutual information here uses natural
logarithms (the additive constants in the Fano bounds are ln 2, so nats
keep the formulas literal). The 0*log(0) = 0 convention is enforced by
branching, not by epsilon-perturbation, so small instances can be checked
against enumeration oracles exactly.

All functions are pure and all container types are immutable, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "EnumerationLimitError",
    "ProbVector",
    "MarkovChainSpec",
    "binary_entropy",
    "entropy",
    "conditional_entropy",
    "mutual_information_exact",
    "mutual_information_v_vhat",
    "kl_discrete",
    "kl_gaussian_shared_cov",
    "mi_pairwise_kl_bound",
    "mi_pairwise_kl_bound_discrete",
    "PROB_SUM_TOL",
    "JOINT_ENUM_CUTOFF",
]

PROB_SUM_TOL = 1e-12
# Exact joint enumeration only; larger requests are an error, not an estimate.
JOINT_ENUM_CUTOFF = 10**7

LN2 = math.log(2.0)


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class EnumerationLimitError(RuntimeError):
    """Exact enumeration would exceed the configured cutoff."""


def _xlogx_sum(p: np.ndarray) -> float:
    """sum p*log(p) over nonzero entries."""
    nz = p[p > 0]
    return float((nz * np.log(nz)).sum())


def _require_finite(**values) -> None:
    """Refuses, naming it, the first value that is not finite as a float64:
    a NaN or an infinity anywhere in it, or an integer too large to convert."""
    for name, value in values.items():
        try:
            ok = bool(np.isfinite(np.asarray(value, dtype=np.float64)).all())
        except OverflowError:
            raise DomainError(f"{name} is too large for float64") from None
        if not ok:
            got = f", got {name}={value!r}" if isinstance(value, float) else ""
            raise DomainError(f"{name} must be finite{got}")


def _require_integer(**values) -> None:
    """Refuses, naming it, the first value that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {name}={value!r}")


def _validate_rows(mat, name: str) -> np.ndarray:
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise DomainError(f"{name} must be a nonempty 2-d array")
    if np.any(m < 0) or np.any(m > 1):
        raise DomainError(f"{name} entries must lie in [0, 1]")
    err = float(np.max(np.abs(m.sum(axis=1) - 1.0)))
    if err > PROB_SUM_TOL:
        raise DomainError(
            f"{name} rows must sum to 1 within {PROB_SUM_TOL}; worst deviation {err:.3e} "
            "(inputs are rejected, not renormalized)")
    m = m.copy()
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class ProbVector:
    """Probability distribution on a finite, nonempty index set.

    Construction validates; it never renormalizes. Weights outside [0, 1]
    or a total further than 1e-12 from 1 are rejected so that generator
    bugs in test harnesses surface immediately.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise DomainError("probability vector must be 1-d and nonempty")
        if np.any(p < 0) or np.any(p > 1):
            raise DomainError("weights must lie in [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"weights sum to {total!r}, not 1 within {PROB_SUM_TOL} "
                "(inputs are rejected, not renormalized)")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @staticmethod
    def uniform(k: int) -> "ProbVector":
        if k < 1:
            raise DomainError("uniform distribution needs k >= 1")
        return ProbVector(np.full(k, 1.0 / k))

    def __len__(self) -> int:
        return int(self.p.size)


@dataclass(frozen=True)
class MarkovChainSpec:
    """Exact finite description of a chain V -> X -> V-hat.

    prior is the law of V, channel is the row-stochastic matrix P(X|V),
    decoder is the row-stochastic matrix P(V-hat|X). The V alphabet must
    have at least two symbols.
    """

    prior: ProbVector
    channel: np.ndarray
    decoder: np.ndarray

    def __post_init__(self):
        channel = _validate_rows(self.channel, "channel")
        decoder = _validate_rows(self.decoder, "decoder")
        if len(self.prior) < 2:
            raise DomainError("V alphabet must have at least 2 symbols")
        if channel.shape[0] != len(self.prior):
            raise DomainError("channel row count must match prior length")
        if decoder.shape[0] != channel.shape[1]:
            raise DomainError("decoder row count must match channel column count")
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "decoder", decoder)

    @property
    def n_v(self) -> int:
        return len(self.prior)

    @property
    def n_x(self) -> int:
        return int(self.channel.shape[1])

    @property
    def n_vhat(self) -> int:
        return int(self.decoder.shape[1])

    def _check_enum(self):
        if self.n_v * self.n_x * self.n_vhat > JOINT_ENUM_CUTOFF:
            raise EnumerationLimitError(
                f"|V|*|X|*|Vhat| = {self.n_v * self.n_x * self.n_vhat} exceeds "
                f"the exact-enumeration cutoff {JOINT_ENUM_CUTOFF}")

    def joint_v_vhat(self) -> np.ndarray:
        """Exact joint P(V=v, Vhat=vhat), marginalizing X."""
        self._check_enum()
        return (self.prior.p[:, None] * self.channel) @ self.decoder


def binary_entropy(p: float) -> float:
    """h2(p) = -p ln p - (1-p) ln(1-p), with h2(0) = h2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary entropy needs p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def entropy(dist: ProbVector) -> float:
    """Shannon entropy H(p) in nats."""
    return -_xlogx_sum(dist.p)


def conditional_entropy(chain: MarkovChainSpec) -> float:
    """H(V | Vhat) computed from the exact (V, Vhat) joint."""
    joint = chain.joint_v_vhat()
    h_joint = -_xlogx_sum(joint.reshape(-1))
    h_vhat = -_xlogx_sum(joint.sum(axis=0))
    return max(0.0, h_joint - h_vhat)


def mutual_information_exact(prior: ProbVector, channel) -> float:
    """I(V; X) by exact enumeration of the joint P(v, x)."""
    c = _validate_rows(channel, "channel")
    if c.shape[0] != len(prior):
        raise DomainError("channel row count must match prior length")
    if len(prior) * c.shape[1] > JOINT_ENUM_CUTOFF:
        raise EnumerationLimitError("joint table exceeds the exact-enumeration cutoff")
    joint = prior.p[:, None] * c
    marginal_x = joint.sum(axis=0)
    prod = prior.p[:, None] * marginal_x[None, :]
    mask = joint > 0
    val = float((joint[mask] * (np.log(joint[mask]) - np.log(prod[mask]))).sum())
    return max(0.0, val)


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
    Non-finite means and a non-finite sigma2 are refused."""
    a = np.asarray(mu1, dtype=np.float64)
    b = np.asarray(mu2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError(f"mean vectors must be 1-d with equal length; got {a.shape} vs {b.shape}")
    _require_finite(mu1=a, mu2=b)
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise DomainError(f"sigma2 must be finite and positive, got sigma2={sigma2!r}")
    diff = a - b
    return float(diff @ diff) / (2.0 * sigma2)


def mi_pairwise_kl_bound(means, sigma2: float, n_samples: int) -> float:
    """Convexity upper bound on I(V; X_1^n) for V uniform on a Gaussian mean family.

    For V, W independent and uniform on the list of means,

        I(V; X_1^n) <= n * (1/M^2) * sum_{v,w} KL(N(mu_v, s I) || N(mu_w, s I))
                     = n * (E||V||^2 - ||E V||^2) / sigma2,

    where the second form is the algebraic collapse of the double sum; it
    is what gets evaluated, so million-point families cost O(M d).
    Non-finite means, means whose squared norms overflow float64, and a
    non-finite sigma2 are refused.
    """
    a = np.asarray(means, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] == 0:
        raise DomainError("means must be a nonempty list of vectors")
    _require_finite(means=a)
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise DomainError(f"sigma2 must be finite and positive, got sigma2={sigma2!r}")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    with np.errstate(over="ignore"):
        mean_sq = float((a * a).sum(axis=1).mean())
        centroid = a.mean(axis=0)
        spread = mean_sq - float(centroid @ centroid)
    # inf - inf is NaN, which the clamp below would turn into a silent 0
    if not math.isfinite(spread):
        raise DomainError("means are too large: their squared norms overflow float64")
    return max(0.0, n_samples * spread / sigma2)


def mi_pairwise_kl_bound_discrete(rows, n_samples: int = 1) -> float:
    """Same convexity bound for a finite channel: n * (1/M^2) sum_{v,w} KL(row_v || row_w),
    evaluated in O(M K) as n * [(1/M) sum_{v,k} p_vk ln p_vk - sum_k pbar_k (1/M) sum_w ln p_wk]
    with pbar the mean row. It is +inf exactly when a column with pbar_k > 0 has a zero
    entry; all-zero columns drop out."""
    m = _validate_rows(rows, "rows")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    cols = m[:, m.any(axis=0)]
    if not cols.all():
        return math.inf
    logs = np.log(cols)
    val = float((cols * logs).sum()) / m.shape[0] - float(cols.mean(axis=0) @ logs.mean(axis=0))
    return max(0.0, n_samples * val)
