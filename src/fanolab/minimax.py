"""Minimax risk lower bounds assembled from the Fano machinery.

The route from a tail bound to a risk bound is always: pick an indexed
family of parameters, compute the separation delta(t) (the guaranteed
parameter distance across index pairs further than t apart), bound the
mutual information between index and data, and pay Phi(delta(t)/2) times
the tail probability. Four concrete pipelines are packaged:

* sparse_location_bound     -- s-sparse Gaussian means, i.i.d. samples
* compressed_sensing_bound  -- s-sparse signal through a fixed design
* normal_mean_bound         -- dense Gaussian mean, volume-ratio route
* linear_regression_bound   -- fixed-design regression, volume-ratio route

Every tail value computed here, in generalized_fano_minimax and in the
shared body of the two sparse pipelines, goes through the one formula
max(0, 1 - (I + ln 2) / L) of discrete._fano_tail; the normal-mean and
regression pipelines use closed forms of its integral over radii.

Scale parameters that are usually only pinned up to proportionality
(eps^2 of order log(d/s)/n) are set to the exact maximizer of the bound
objective, which is concave in eps^2; every returned bound records that
eps and all ingredients, and no unspecified "universal constant" is ever
hard-coded: the implied constant is reported alongside the bound instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import (
    DiscreteSpace,
    NeighborhoodProfile,
    _fano_tail,
    fano_tail_lower_bound,
    sparse_sign_cardinality,
    sparse_sign_neighborhood_exact,
)
from .info import LN2, DomainError, _require, _shown
from .results import MinimaxBound

__all__ = [
    "ParamFamily",
    "ReductionCheck",
    "square_loss",
    "separation_delta",
    "generalized_fano_minimax",
    "reduce_estimator_to_test",
    "sparse_location_bound",
    "compressed_sensing_bound",
    "normal_mean_tail_integral",
    "normal_mean_tail_integral_floor",
    "normal_mean_bound",
    "hinge_integral",
    "linear_regression_bound",
]


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
                        mi_bound=mi, log_ratio=tail.ingredients["log_ratio"],
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


def _sparse_log_ratio(d: int, s: int, t: int) -> tuple[float, dict]:
    """ln(|V| / N_t^max) for the s-sparse sign family at radius t.

    The family is homogeneous, so the exact neighborhood count is the
    closed-form sum around one center (sparse_sign_neighborhood_exact) at
    every dimension, with no space materialized; the tests hold it against
    full enumeration. The conservative counting relaxation
    ln( t! (d-t)! / (s! (d-s)! ) ) is recorded alongside for reference;
    it never exceeds the exact value.
    """
    card = sparse_sign_cardinality(d, s)
    counting = (math.lgamma(t + 1) + math.lgamma(d - t + 1)
                - math.lgamma(s + 1) - math.lgamma(d - s + 1))
    n_max = sparse_sign_neighborhood_exact(d, s, t)
    log_ratio = math.log(card) - math.log(n_max)
    return log_ratio, {"log_ratio_route": "exact-neighborhood", "card": card,
                       "n_max": n_max, "log_ratio_counting": counting}


def _best_eps(t: int, log_ratio: float, mi_coeff: float) -> tuple[float, float]:
    """(eps, value) maximizing ((t v 1)/4) * u * (1 - (mi_coeff*u + ln 2)/L)
    over u = eps^2 >= 0. The objective is concave in u, with its maximum
    at u* = (L - ln 2) / (2 mi_coeff); for L <= ln 2 it is u = 0, value 0.
    A mi_coeff so small or large that u* or I = mi_coeff * u* is not a
    positive double is refused."""
    if log_ratio <= LN2:
        return 0.0, 0.0
    u = (log_ratio - LN2) / (2.0 * mi_coeff) if mi_coeff > 0 else math.inf
    mi = mi_coeff * u
    if not 0.0 < mi < math.inf:
        raise DomainError(f"bound value is not finite: eps^2 = (L - ln 2) / (2 * {mi_coeff!r}) "
                          "is out of range; rescale sigma2 or the design")
    value = float(max(t, 1)) / 4.0 * u * _fano_tail(mi, log_ratio)
    return math.sqrt(u), value


def _sparse_bound(pipeline: str, d: int, s: int, sigma2: float, mi_coeff: float,
                  rate: float, valid: bool, extras: dict) -> MinimaxBound:
    """The pipeline both sparse bounds share: the s-sparse sign family at
    t = floor(s/4), mutual information mi_coeff * eps^2, and eps from
    _best_eps. The implied constant is value / (sigma2 * rate)."""
    t = s // 4
    log_ratio, route = _sparse_log_ratio(d, s, t)
    eps, value = _best_eps(t, log_ratio, mi_coeff)
    return MinimaxBound(value=value, pipeline=pipeline, t=t, eps=eps,
                        mi_bound=mi_coeff * eps * eps, log_ratio=log_ratio, valid=valid,
                        extras={**route, "implied_c": value / (sigma2 * rate), **extras})


def sparse_location_bound(d: int, s: int, sigma2: float, n: int) -> MinimaxBound:
    """Minimax squared-error bound for s-sparse Gaussian means from n samples.

    The index family is the s-sparse sign set with theta_v = eps*v; index
    pairs further than t = floor(s/4) apart in Hamming distance are at
    parameter distance above max(sqrt(t), 1)*eps, the mutual information
    is at most n*s*eps^2/sigma2, and eps^2 is the exact maximizer
    (L - ln 2) * sigma2 / (2 n s) of the bound, L = ln(|V| / N_t).
    The implied universal constant bound/(sigma2*s*log(d/s)/n) is reported
    in the extras, never baked in.
    """
    _require("an integer", d=d, s=s)
    if not (1 <= s and 2 * s <= d):
        raise DomainError(
            f"need 1 <= s <= d/2 so that log(d/s) > 0; got s={_shown(s)}, d={_shown(d)}")
    _require("finite", d=d)  # log(d/s) is taken in float64
    _require("finite and > 0", sigma2=sigma2)
    _require("a whole number >= 1", n=n)
    _require("finite", n=n)
    if n * s > sys.float_info.max:  # the mutual information coefficient n s / sigma2
        raise DomainError(f"n * s overflows float64 at n={n!r}, s={s}")
    return _sparse_bound("sparse-location", d, s, sigma2, mi_coeff=n * s / sigma2,
                         rate=s * math.log(d / s) / n, valid=True,
                         extras={"d": d, "s": s, "n": n, "sigma2": sigma2})


def _design(X, full_rank: bool = False) -> tuple[np.ndarray, float]:
    """(X as a float64 matrix, ||X||_F^2) of a design: nonempty, with finite entries,
    a finite nonzero norm (0 once subnormal entries underflow) and, if full_rank, full
    column rank. The one design rule of the bound pipelines and the OLS experiment."""
    try:
        X = np.asarray(X)
        # a complex design is not real: the cast would drop its imaginary part
        X = np.empty(0) if X.dtype.kind == "c" else X.astype(np.float64)
    except (TypeError, ValueError):  # not real numbers, or ragged rows
        X = np.empty(0)
    except OverflowError:  # an integer entry past float64
        raise DomainError("design X needs entries that fit a float64") from None
    if X.ndim != 2 or X.size == 0:
        raise DomainError("design matrix X must be a nonempty 2-d array of real numbers")
    with np.errstate(over="ignore"):  # an overflowing norm is refused just below
        fro2 = float((X * X).sum())
    if not (math.isfinite(fro2) and fro2 > 0):
        raise DomainError(f"design X needs finite entries and norm > 0, got ||X||_F^2={fro2!r}")
    if full_rank and np.linalg.matrix_rank(X) < X.shape[1]:
        raise DomainError("design X must be a full-column-rank matrix")
    return X, fro2


def compressed_sensing_bound(X, s: int, sigma2: float) -> MinimaxBound:
    """Minimax squared-error bound for an s-sparse signal observed through a
    fixed design matrix X with Gaussian noise.

    Identical pipeline to sparse_location_bound except the mutual
    information ingredient: the index variable has covariance (s/d)*I, so
    I <= s * eps^2 * ||X||_F^2 / (d * sigma2). A design with an all-zero
    column leaves some coordinate unobserved (the minimax risk is then
    infinite and the eps choice meaningless): the result is flagged
    degenerate and marked invalid, with the formula value still reported.
    """
    _require("an integer", s=s)
    X, fro2 = _design(X)
    d = X.shape[1]
    if not (1 <= s and 2 * s <= d):
        raise DomainError(f"need 1 <= s <= d/2; got s={_shown(s)}, d={d}")
    _require("finite and > 0", sigma2=sigma2)
    degenerate = bool(np.any(np.all(X == 0.0, axis=0)))
    return _sparse_bound("compressed-sensing", d, s, sigma2,
                         mi_coeff=s * fro2 / (d * sigma2),
                         rate=s * d * math.log(d / s) / fro2, valid=not degenerate,
                         extras={"degenerate_design": degenerate, "fro2": fro2,
                                 "d": d, "s": s, "sigma2": sigma2})


def normal_mean_tail_integral(d: int, n: int) -> float:
    """Closed form of integral_0^inf max(0, (d-1)/d - n*ln(1+t)/(2 d ln2)) dt.

    Equals (n / (2 d ln2)) * (exp(2(d-1)ln2/n) - 1 - 2(d-1)ln2/n),
    and is never below (d-1)^2 * ln2 / (d n).
    """
    _require("a whole number >= 2", d=d)
    _require("a whole number >= 1", n=n)
    _require("finite", d=d, n=n)
    try:
        a = 2.0 * (d - 1) * LN2 / n
        # expm1 keeps the small-a cancellation at the ulp level
        value = n / (2.0 * d * LN2) * (math.expm1(a) - a)
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError("the tail integral overflows float64: d and n must fit a "
                          "float64 and keep 2 (d - 1) ln2 / n below about 709.78")
    return value


def normal_mean_tail_integral_floor(d: int, n: int) -> float:
    """Taylor floor (d-1)^2 * ln2 / (d n) of normal_mean_tail_integral."""
    _require("a whole number >= 2", d=d)
    _require("a whole number >= 1", n=n)
    _require("finite", d=d, n=n)
    try:
        return (d - 1) ** 2 * LN2 / (d * n)
    except OverflowError:
        raise DomainError("the tail integral floor overflows float64: d or n is too "
                          "large") from None


def normal_mean_bound(d: int, sigma2: float, n: int,
                      mode: str = "integrated") -> MinimaxBound:
    """Minimax squared-error bound for a d-dimensional Gaussian mean, d >= 2.

    mode="simple": the single-radius statement. At t^2 = d sigma2 ln2/(4n)
    the error exceeds t with probability at least 1/4, so the risk is at
    least t^2/4; the bound value is that floor and the extras carry t^2
    and the probability floor.

    mode="integrated": integrating the tail bound over radii gives
    ((d-1)^2 ln2 / (4 d^2)) * (sigma2 d / n), the sharper constant. The
    extras carry the exact tail integral and its Taylor floor so the two
    routes can be cross-checked.
    """
    _require("a whole number >= 1", d=d)
    _require("finite and >= 2", "need d >= 2", d=d)
    _require("finite and > 0", sigma2=sigma2)
    _require("a whole number >= 1", n=n)
    _require("finite", n=n)
    log_ratio = d * LN2  # radius ratio r/t = 2
    if mode == "simple":
        t_sq = d * sigma2 * LN2 / (4.0 * n)
        value = t_sq / 4.0
        return MinimaxBound(value=value, pipeline="normal-mean-simple",
                            t=math.sqrt(t_sq), eps=None,
                            mi_bound=d * LN2 / 2.0, log_ratio=log_ratio, valid=True,
                            extras={"t_squared": t_sq, "prob_floor": 0.25,
                                    "mi_log_form": n / 2.0 * math.log1p(4.0 * t_sq / sigma2),
                                    "d": d, "n": n, "sigma2": sigma2})
    if mode == "integrated":
        try:
            value = ((d - 1) ** 2 * LN2 / (4.0 * d * d)) * (sigma2 * d / n)
        except OverflowError:
            raise DomainError("d is too large: (d - 1)^2 overflows float64") from None
        integral = normal_mean_tail_integral(d, n)
        return MinimaxBound(value=value, pipeline="normal-mean-integrated",
                            t=None, eps=None, mi_bound=None, log_ratio=log_ratio,
                            valid=True,
                            extras={"tail_integral": integral,
                                    "integral_route_value": sigma2 / 4.0 * integral,
                                    "taylor_floor": normal_mean_tail_integral_floor(d, n),
                                    "d": d, "n": n, "sigma2": sigma2})
    raise DomainError(f"mode must be 'simple' or 'integrated', got {mode!r}")


def hinge_integral(c1: float, c2: float) -> float:
    """integral_0^inf max(c1 - c2*t, 0) dt = c1^2 / (2 c2) for c1 > 0, else 0.
    Refuses a non-finite c1 or c2, and an integral that overflows float64."""
    _require("finite", c1=c1)
    _require("finite and > 0", c2=c2)
    if c1 <= 0:
        return 0.0
    value = c1 * c1 / (2.0 * c2)
    if not math.isfinite(value):
        raise DomainError(f"c1^2 / (2 c2) overflows float64 at c1={c1!r}, c2={c2!r}")
    return value


def linear_regression_bound(X, sigma2: float) -> MinimaxBound:
    """Minimax squared-error bound for fixed-design linear regression.

    X must have full column rank. For an index uniform on a radius-r ball,
    Cov(V) = r^2/(d+2) * I, so the pairwise-KL route gives
    I <= ||X||_F^2 * r^2 / ((d+2) sigma2); the hinge integral then turns
    the tail bound into the exact expression
    ((d-1)^2/d^2) * d (d+2) sigma2 ln2 / (8 ||X||_F^2). Relaxing
    ||X/sqrt(n)||_F^2 <= d * gamma_max^2(X/sqrt(n)) gives the simplified
    (1/12) * (1/gamma_max^2) * d sigma2 / n, whose constant needs d >= 9:
    below that the exact expression is returned and flagged.
    """
    _require("finite and > 0", sigma2=sigma2)
    X, fro2 = _design(X, full_rank=True)
    n_rows, d = X.shape
    if d < 2:
        raise DomainError("need d >= 2")
    exact = ((d - 1) ** 2 / (d * d)) * (d * (d + 2) * sigma2 * LN2) / (8.0 * fro2)
    gamma_max = float(np.linalg.norm(X / math.sqrt(n_rows), 2))
    simplified = (1.0 / 12.0) * (1.0 / (gamma_max * gamma_max)) * (d * sigma2 / n_rows)
    if simplified == 0.0:
        raise DomainError(f"sigma2={sigma2!r} is too small: the simplified bound underflows")
    simplified_ok = d >= 9
    value = simplified if simplified_ok else exact
    return MinimaxBound(value=value, pipeline="linear-regression", t=None, eps=None,
                        mi_bound=None, log_ratio=d * LN2, valid=True,
                        extras={"exact_value": exact, "simplified_value": simplified,
                                "simplified_valid": simplified_ok,
                                "exact_over_simplified": exact / simplified,
                                "gamma_max": gamma_max, "fro2": fro2,
                                "mi_r2_coeff": fro2 / ((d + 2) * sigma2),
                                "d": d, "n": n_rows, "sigma2": sigma2})
