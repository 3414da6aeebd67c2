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

The two sparse pipelines share one body, whose tail is the one formula
max(0, 1 - (I + ln 2) / L) of discrete._fano_tail. The normal-mean and
regression pipelines bound I by the KL to the centre of a radius-2t ball,
so their tail is linear in t^2 and integrates in closed form
(hinge_integral). The generic reduction over a materialized family, with
delta(t) found by enumerating index pairs, lives in the tests
(tests/oracles.py) as the oracle of the sparse pipelines.

The scalar pipelines (sparse location, normal mean) run on Python numbers
and load no numpy; the design pipelines import it when they are called.

Scale parameters that are usually only pinned up to proportionality
(eps^2 of order log(d/s)/n) are set to the exact maximizer of the bound
objective, which is concave in eps^2; every returned bound records that
eps and its whole recipe, and no unspecified "universal constant" is ever
hard-coded: the implied constant is reported alongside the bound instead.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .discrete import _fano_tail, sparse_sign_cardinality, sparse_sign_neighborhood_exact
from .info import LN2, DomainError, _require, _shown
from .results import MinimaxBound

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "sparse_location_bound",
    "compressed_sensing_bound",
    "normal_mean_tail_integral",
    "normal_mean_tail_integral_floor",
    "normal_mean_bound",
    "hinge_integral",
    "linear_regression_bound",
]


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
    import numpy as np

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
    degenerate = bool((X == 0.0).all(axis=0).any())
    return _sparse_bound("compressed-sensing", d, s, sigma2,
                         mi_coeff=s * fro2 / (d * sigma2),
                         rate=s * d * math.log(d / s) / fro2, valid=not degenerate,
                         extras={"degenerate_design": degenerate, "fro2": fro2,
                                 "d": d, "s": s, "sigma2": sigma2})


# Below this a = 2 (d - 1) ln2 / n the tail integral sums the series of
# expm1(a) - a, which the difference itself loses to cancellation (a relative
# error of about 4.4e-16 / a). The series' truncation error is below 1e-18
# there, and the difference's is below 5e-13 above it.
_SERIES_CUTOFF = 1e-3


def normal_mean_tail_integral(d: int, n: int) -> float:
    """Closed form of integral_0^inf max(0, (d-1)/d - n*ln(1+t)/(2 d ln2)) dt.

    Equals (n / (2 d ln2)) * (exp(2(d-1)ln2/n) - 1 - 2(d-1)ln2/n),
    and is never below (d-1)^2 * ln2 / (d n). No bound calls it: its
    integrand takes I = (n/2) ln(1 + t), which does not bound the mutual
    information once d outgrows n. It is the formula that `verify
    quadrature` and the acceptance tests check against quadrature.
    """
    _require("a whole number >= 2", d=d)
    _require("a whole number >= 1", n=n)
    _require("finite", d=d, n=n)
    try:
        a = 2.0 * (d - 1) * LN2 / n
        if a < _SERIES_CUTOFF:
            # n / (2 d ln2) * a^2/2 is exactly the floor, and the series of
            # expm1(a) - a is a^2/2 (1 + a/3 + a^2/12 + a^3/60 + a^4/360): the
            # floor's own float times a factor >= 1 never rounds below it
            value = normal_mean_tail_integral_floor(d, n) * (
                1.0 + a * (1 / 3 + a * (1 / 12 + a * (1 / 60 + a / 360))))
        else:
            value = n / (2.0 * d * LN2) * (math.expm1(a) - a)
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError("the tail integral overflows float64: d and n must fit a "
                          "float64 and keep 2 (d - 1) ln2 / n below about 709.78")
    return value


def normal_mean_tail_integral_floor(d: int, n: int) -> float:
    """Taylor floor (d-1)^2 * ln2 / (d n) of normal_mean_tail_integral;
    sigma2/4 times it is normal_mean_bound's integrated value."""
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
    """Minimax squared-error bound for a d-dimensional Gaussian mean.

    Both modes index a ball of radius r = 2t, so the log-ratio is d ln2,
    and bound the mutual information by the KL to the ball's centre,
    I <= n r^2 / (2 sigma2) = 2 n t^2 / sigma2.

    mode="simple", d >= 4: the single radius t^2 = d sigma2 ln2/(4n), where
    I <= d ln2/2 (the recorded mi_bound) and the Fano tail is 1/2 - 1/d.
    From d = 4 on that tail is at least the recorded prob_floor 1/4, so the
    risk is at least t^2/4, the bound value. Below d = 4 the tail is smaller
    (0 at d = 2), and the mode is refused.

    mode="integrated", d >= 2: the KL-to-centre step makes the tail at
    radius t linear in t^2, (d-1)/d - 2 n t^2 / (sigma2 d ln2), and its
    integral over t^2 (hinge_integral) is the value
    ((d-1)^2 ln2 / (4 d^2)) * (sigma2 d / n), at most ln2/4 of the exact
    minimax risk sigma2 d / n.
    """
    _require("a whole number >= 1", d=d)
    _require("finite and >= 2", "need d >= 2", d=d)
    _require("finite and > 0", sigma2=sigma2)
    _require("a whole number >= 1", n=n)
    _require("finite", n=n)
    log_ratio = d * LN2  # radius ratio r/t = 2
    if mode == "simple":
        if d < 4:
            raise DomainError(f"mode='simple' needs d >= 4, got d={d!r}: below it the "
                              "Fano tail 1/2 - 1/d is under the probability floor 1/4")
        t_sq = d * sigma2 * LN2 / (4.0 * n)
        value = t_sq / 4.0
        return MinimaxBound(value=value, pipeline="normal-mean-simple",
                            t=math.sqrt(t_sq), eps=None,
                            mi_bound=d * LN2 / 2.0, log_ratio=log_ratio, valid=True,
                            extras={"t_squared": t_sq, "prob_floor": 0.25,
                                    "d": d, "n": n, "sigma2": sigma2})
    if mode == "integrated":
        try:
            value = ((d - 1) ** 2 * LN2 / (4.0 * d * d)) * (sigma2 * d / n)
        except OverflowError:
            raise DomainError("d is too large: (d - 1)^2 overflows float64") from None
        return MinimaxBound(value=value, pipeline="normal-mean-integrated",
                            t=None, eps=None, mi_bound=None, log_ratio=log_ratio,
                            valid=True, extras={"d": d, "n": n, "sigma2": sigma2})
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
    import numpy as np

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
