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


def _reals(test):
    """Reals, tested elementwise in float64: an int beyond it raises OverflowError."""
    return lambda value: test(np.asarray(value, dtype=np.float64))


def _at_least(lo):
    """Numbers in [lo, inf), compared exactly: ints of any size; NaN is out."""
    return lambda value: isinstance(value, numbers.Real) and lo <= value < math.inf


def _integers(lo=-math.inf, hi=math.inf):
    """Integers in [lo, hi), tested on the value itself."""
    return lambda value: isinstance(value, numbers.Integral) and lo <= value < hi


# Every domain of a scalar argument, named by what a refusal says it must be,
# for the library and the CLI's parameter table: reals that enter float64
# arithmetic, counts compared exactly (a cardinality may pass float64), and
# integers, bounded where they size an allocation, index or seed a stream.
_DOMAINS = {
    "any": lambda value: True,
    "finite": _reals(np.isfinite),
    "finite and > 0": _reals(lambda x: np.isfinite(x) & (x > 0)),
    "finite and >= 0": _reals(lambda x: np.isfinite(x) & (x >= 0)),
    "finite and >= 1": _reals(lambda x: np.isfinite(x) & (x >= 1)),
    "finite and >= 2": _reals(lambda x: np.isfinite(x) & (x >= 2)),
    "in [0, 1]": _reals(lambda x: (x >= 0) & (x <= 1)),
    "in (0, 1)": _reals(lambda x: (x > 0) & (x < 1)),
    ">= 1": _at_least(1),
    ">= 2": _at_least(2),
    ">= 6": _at_least(6),
    "an integer": _integers(),
    "an integer in [0, 2**63)": _integers(0, 2**63),
    "an integer in [1, 2**63)": _integers(1, 2**63),
    "an integer in [2, 2**63)": _integers(2, 2**63),
    "an integer in [0, 2**64)": _integers(0, 2**64),
}


def _require(domain: str, refusal: str | None = None, /, **values) -> None:
    """Refuses, naming it, the first value (or array entry) outside the named
    domain of _DOMAINS; refusal, if given, is the message, formatted with value."""
    test = _DOMAINS[domain]
    for name, value in values.items():
        try:
            ok = test(value)
        except OverflowError:
            raise DomainError(f"{name} is too large for float64") from None
        except (TypeError, ValueError):  # not a number at all
            ok = False
        if ok is True or (ok is not False and ok.all()):
            continue
        if refusal is not None:
            raise DomainError(refusal.format(value=value))
        got = f"{name}={value!r}"
        if np.ndim(ok):
            at = np.argwhere(~ok)[0]
            entry = np.asarray(value, dtype=np.float64)[tuple(at)].item()
            got = f"{name}={entry!r} at index {', '.join(map(str, at))}"
        raise DomainError(f"{name} must be {domain}, got {got}")


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
        _require("an integer in [1, 2**63)", k=k)
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
    _require("in [0, 1]", p=p)
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
    Non-finite means, a non-finite sigma2 or n_samples, and a bound that
    overflows float64 are refused.
    """
    _require("finite", means=means)
    _require("finite and > 0", sigma2=sigma2)
    _require("finite and >= 1", n_samples=n_samples)
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
    entry; all-zero columns drop out."""
    _require("finite and >= 1", n_samples=n_samples)
    m = _validate_rows(rows, "rows")
    cols = m[:, m.any(axis=0)]
    if not cols.all():
        return math.inf
    logs = np.log(cols)
    val = float((cols * logs).sum()) / m.shape[0] - float(cols.mean(axis=0) @ logs.mean(axis=0))
    return max(0.0, n_samples * val)
