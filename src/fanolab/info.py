"""Exact information-theoretic quantities on finite alphabets, in nats.

Every entropy, divergence and mutual information here uses natural
logarithms (the additive constants in the Fano bounds are ln 2, so nats
keep the formulas literal). The 0*log(0) = 0 convention is enforced by
masking, not by epsilon-perturbation. The joint law P(V, Vhat), H(V | Vhat)
and I(V; X) are each written once, as a private core over leading batch
axes that the public functions and lab's batched oracle kernels both call,
so a chain gives the same bits either way. Each input rule is one check:
_require for scalar domains, _budget for work limits and _validate_rows
for probability rows; refusals print values through _shown. _require tests
a Python int or float with plain comparisons, so the scalar paths load no
numpy; the array functions import it when they are called.

All functions are pure and all container types are immutable, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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
    "PROB_SUM_TOL",
]

PROB_SUM_TOL = 1e-12

LN2 = math.log(2.0)


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class EnumerationLimitError(DomainError):
    """An input asks for more work than its row of the work budgets allows:
    an exact enumeration, a table, a sample or a replicate count. Raised
    before anything is allocated, naming the argument, the amount of work
    and the budget; an input past its budget is out of domain."""


def _xlogx(a: np.ndarray) -> np.ndarray:
    """a * ln(a) elementwise, with 0 * ln(0) = 0."""
    import numpy as np

    pos = a > 0
    return np.where(pos, a * np.log(np.where(pos, a, 1.0)), 0.0)


# The types whose values _reals tests as one Python float, with no numpy.
_SCALARS = (int, float)


def _reals(test):
    """Reals, tested in float64: a value of _SCALARS as one float, anything else
    elementwise as a float64 array. test holds only comparisons, which mean the
    same on both; an int beyond float64 raises OverflowError either way."""
    def check(value):
        if isinstance(value, _SCALARS):
            return test(float(value))
        import numpy as np

        return test(np.asarray(value, dtype=np.float64))
    return check


def _whole_at_least(lo):
    """Whole numbers in [lo, inf), compared exactly: ints of any size, integral floats."""
    return lambda value: (isinstance(value, numbers.Real) and lo <= value < math.inf
                          and value == math.floor(value))


def _integers(lo=-math.inf, hi=math.inf):
    """Integers in [lo, hi), tested on the value itself."""
    return lambda value: isinstance(value, numbers.Integral) and lo <= value < hi


# Every domain of a scalar argument, named by what a refusal says it must be,
# for the library and the CLI's parameter table: reals that enter float64
# arithmetic, whole-number counts compared exactly (a card may pass float64), and
# integers, bounded where they size an allocation, index or seed a stream.
_DOMAINS = {
    "any": lambda value: True,
    "finite": _reals(lambda x: abs(x) < math.inf),
    "finite and > 0": _reals(lambda x: (x > 0) & (x < math.inf)),
    "finite and >= 0": _reals(lambda x: (x >= 0) & (x < math.inf)),
    "finite and >= 1": _reals(lambda x: (x >= 1) & (x < math.inf)),
    "finite and >= 2": _reals(lambda x: (x >= 2) & (x < math.inf)),
    "in [0, 1]": _reals(lambda x: (x >= 0) & (x <= 1)),
    "in (0, 1)": _reals(lambda x: (x > 0) & (x < 1)),
    "a whole number >= 0": _whole_at_least(0),
    "a whole number >= 1": _whole_at_least(1),
    "a whole number >= 2": _whole_at_least(2),
    "a whole number >= 6": _whole_at_least(6),
    "an integer": _integers(),
    "an integer in [0, 2**63)": _integers(0, 2**63),
    "an integer in [1, 2**63)": _integers(1, 2**63),
    "an integer in [2, 2**63)": _integers(2, 2**63),
    "an integer in [0, 2**64)": _integers(0, 2**64),
}


def _shown(value, text=str) -> str:
    """text(value) for a refusal, but an int past Python's digit limit as about 10**N."""
    try:
        return text(value)
    except ValueError:
        return f"about {'-' if value < 0 else ''}10**{math.floor(math.log10(abs(value)))}"


def _require(domain: str, refusal: str | None = None, /, **values) -> None:
    """Refuses, naming it, the first value (or array entry) outside the named
    domain of _DOMAINS; refusal, if given, is the message, formatted with the value
    as _shown(value, repr) prints it."""
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
            raise DomainError(refusal.format(value=_shown(value, repr)))
        got = f"{name}={_shown(value, repr)}"
        if getattr(ok, "ndim", 0):
            import numpy as np

            at = np.argwhere(~ok)[0]
            entry = np.asarray(value, dtype=np.float64)[tuple(at)].item()
            got = f"{name}={entry!r} at index {', '.join(map(str, at))}"
        raise DomainError(f"{name} must be {domain}, got {got}")


# Every work limit, by the kind of work it counts: the most that one call may
# ask for, and what to use instead where there is something to advise.
_BUDGETS = {
    "distance-matrix entries": (10**7, "use DiscreteSpace.hamming or a structured formula "
                                "(e.g. sparse_sign_neighborhood_exact) instead"),
    "pairwise evaluations": (10**9, "use a structured formula "
                             "(e.g. sparse_sign_neighborhood_exact) instead"),
    "sparse sign points": (2 * 10**6, "use the counting forms instead of materializing"),
    "joint-table entries": (10**7, None),
    "decoders": (10**6, None),
    "grid cells": (1 << 22, "lower the level"),
    "replicates": (10**8, None),
    "sampled points": (10**10, None),
    "oracle instances": (10**8, None),
}


def _budget(work: str, amount, what: str) -> None:
    """Refuses an amount of work past its row of _BUDGETS, before anything is
    allocated. amount is an int of any size or a float, inf or NaN included;
    what names the arguments that ask for the work."""
    limit, advice = _BUDGETS[work]
    if not amount <= limit:
        raise EnumerationLimitError(f"{what}: {_shown(amount)} {work} exceed the budget of {limit}"
                                    + (f"; {advice}" if advice else ""))


def _validate_rows(mat, name: str, ndim: int = 2) -> np.ndarray:
    """A read-only float64 copy of a nonempty ndim-d array of probability rows:
    every entry in [0, 1] (NaN is not), every row sum within PROB_SUM_TOL of 1."""
    import numpy as np

    m = np.array(mat, dtype=np.float64)
    if m.ndim != ndim or m.size == 0:
        raise DomainError(f"{name} must be a nonempty {ndim}-d array")
    _require("in [0, 1]", f"{name} entries must lie in [0, 1]", **{name: m})
    err = float(np.max(np.abs(m.sum(axis=-1) - 1.0)))
    if not err <= PROB_SUM_TOL:
        raise DomainError(
            f"{name}{' rows' if ndim > 1 else ''} must sum to 1 within {PROB_SUM_TOL}; worst "
            f"deviation {err:.3e} (inputs are rejected, not renormalized)")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class ProbVector:
    """Probability distribution on a finite, nonempty index set.

    Construction validates with the row rule of _validate_rows; it never
    renormalizes, so that generator bugs in test harnesses surface immediately.
    """

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _validate_rows(self.p, "p", ndim=1))

    @staticmethod
    def uniform(k: int) -> "ProbVector":
        import numpy as np

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

    def joint_v_vhat(self) -> np.ndarray:
        """Exact joint P(V=v, Vhat=vhat), marginalizing X."""
        _budget("joint-table entries", self.n_v * self.n_x * self.n_vhat,
                f"chain with |V| * |X| * |Vhat| = {self.n_v} * {self.n_x} * {self.n_vhat}")
        return _joint_law(self.prior.p, self.channel, self.decoder)


def binary_entropy(p: float) -> float:
    """h2(p) = -p ln p - (1-p) ln(1-p), with h2(0) = h2(1) = 0."""
    _require("in [0, 1]", p=p)
    return _h2(p)


def _h2(p: float) -> float:
    """binary_entropy without the domain check, for p already in [0, 1]."""
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def entropy(dist: ProbVector) -> float:
    """Shannon entropy H(p) in nats."""
    return -float(_xlogx(dist.p).sum())


def conditional_entropy(chain: MarkovChainSpec) -> float:
    """H(V | Vhat) computed from the exact (V, Vhat) joint."""
    return float(_conditional_entropy(chain.joint_v_vhat()))


def mutual_information_exact(prior: ProbVector, channel) -> float:
    """I(V; X) by exact enumeration of the joint P(v, x)."""
    c = _validate_rows(channel, "channel")
    if c.shape[0] != len(prior):
        raise DomainError("channel row count must match prior length")
    _budget("joint-table entries", len(prior) * c.shape[1],
            f"prior and channel with |V| * |X| = {len(prior)} * {c.shape[1]}")
    return float(_mutual_information(prior.p, c))


# Each information formula once, over leading batch axes, for the public
# functions above and lab's batched kernels alike. Unchecked.
def _joint_law(prior: np.ndarray, channel: np.ndarray, decoder: np.ndarray) -> np.ndarray:
    """P(V=v, Vhat=w) = sum_x P(v) P(x | v) P(w | x) of chains V -> X -> Vhat."""
    import numpy as np

    return np.einsum("...v,...vx,...xw->...vw", prior, channel, decoder)


def _conditional_entropy(joint: np.ndarray) -> np.ndarray:
    """H(V | Vhat) = H(V, Vhat) - H(Vhat) of joint laws P(V, Vhat), clamped at 0."""
    import numpy as np

    return np.maximum(0.0, _xlogx(joint.sum(axis=-2)).sum(axis=-1)
                      - _xlogx(joint).sum(axis=(-2, -1)))


def _mutual_information(prior: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """I(V; X), the sum over P(v, x) > 0 of P(v, x) ln(P(v, x) / (P(v) P(x))), clamped at 0."""
    import numpy as np

    joint = prior[..., :, None] * channel
    prod = prior[..., :, None] * joint.sum(axis=-2)[..., None, :]
    pos = joint > 0
    log_odds = np.log(np.where(pos, joint, 1.0)) - np.log(np.where(pos, prod, 1.0))
    return np.maximum(0.0, np.where(pos, joint * log_odds, 0.0).sum(axis=(-2, -1)))
