"""Confidence intervals and reproducible float accumulation.

No function here imports scipy. ``mean_ci`` takes its normal quantile from
``statistics.NormalDist`` and polishes it with one Newton step on
``math.erfc``. ``clopper_pearson`` solves each endpoint as a binomial tail
equation, P(X >= k) = alpha/2 in k or, mirrored, in n - k. Where the tail
has a closed form (k = 1 and k = n) it is solved directly. Otherwise a
Newton iteration in log p, from the Wilson score bound, runs on the log
tail: the log pmf at k in Loader's saddle-point form (C. Loader, "Fast and
accurate computation of binomial probabilities", 2000), plus the terms
past k summed with numpy as cumulative log-ratio steps.
"""

from __future__ import annotations

import math

import numpy as np

from .info import DomainError, _require, _shown

__all__ = ["clopper_pearson", "mean_ci", "pairwise_sum"]

# log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15; past 15 the Stirling series
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
# the series' coefficients, largest first; their signs alternate
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188, 691 / 360360, 1 / 156)
_LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The limits of an exact interval: the tail sums about ten standard deviations
# of terms, so the variance k(n - k)/n at k/n is capped, and n must stay below
# 2**512, past which the Stirling series' n*n overflows float64.
_MAX_VARIANCE = 10**10
_MAX_N = 2**512
# the last tail term summed is below e**-45 times the first
_TAIL_CUT = -45.0


def clopper_pearson(k: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for k successes in n trials.

    With a = (1 - confidence)/2, the lower endpoint solves P(X >= k; n, p) = a
    and the upper one P(X <= k; n, p) = a, for X ~ Bin(n, p); the lower
    endpoint at k = 0 is 0 and the upper one at k = n is 1. An interval is
    refused as too large, naming n, when n is 2**512 or more, or when
    k(n - k)/n, the binomial variance at k/n, passes 10**10 (at k = n/2, an n
    past 4e10): its tail would be summed over more terms than that allows.
    """
    _require("an integer", n=n, k=k)
    _require("finite and >= 1", n=n)
    if not 0 <= k <= n:
        raise DomainError(f"k must lie in [0, n], got k={_shown(k)}, n={n}")
    _require("in (0, 1)", confidence=confidence)
    k, n = int(k), int(n)
    if n >= _MAX_N or k * (n - k) > _MAX_VARIANCE * n:
        raise DomainError(f"n is too large for an exact interval, got n={n:.3g}, k={k:.3g}")
    a = (1.0 - confidence) / 2
    # P(X <= k; n, p) = P(n - X >= n - k; n, 1 - p): the upper endpoint is the
    # complement of the lower one for n - k
    lo = 0.0 if k == 0 else _tail_root(k, n, a)[0]
    hi = 1.0 if k == n else _tail_root(n - k, n, a)[1]
    return lo, hi


def _tail_root(k: int, n: int, a: float) -> tuple[float, float]:
    """(p, 1 - p), each to full relative precision, where P(X >= k; n, p) = a,
    for 1 <= k <= n and 0 < a <= 1/2: in closed form at k = n and k = 1, else
    by Newton's method in log p on the log tail."""
    if k == n:  # P(X >= n) = p**n
        lp = math.log(a) / n
        return math.exp(lp), -math.expm1(lp)
    if k == 1:  # P(X >= 1) = 1 - (1 - p)**n
        lq = math.log1p(-a) / n
        return -math.expm1(lq), math.exp(lq)
    from statistics import NormalDist  # it loads decimal and fractions: only on use

    # start at the Wilson score lower bound k^2 / (n (k + w)), kept with its complement
    z = -NormalDist().inv_cdf(a)
    w = z * z / 2 + z * math.sqrt(k * (n - k) / n + z * z / 4)
    p, q = k / n * (k / (k + w)), (k * (n - k) / n + w) / (k + w)
    target = math.log(a)
    for _ in range(64):
        # Newton in u = log p. The log tail is increasing and concave in u, so
        # after at most one step from the right the iterates climb to the root.
        g, g1, g2 = _log_tail(k, n, p, q)
        step = (target - g) / g1
        dp = p * math.expm1(step)
        if p <= 0.5:
            p += dp
            q = 1.0 - p
        else:
            q -= dp
            p = 1.0 - q
        # stop when the step's own error, |g2 / (2 g1)| step**2, is far below
        # an ulp of both p and q
        if abs(g2) / (2 * g1) * step * step <= 2.0**-56 * min(1.0, q / p):
            return p, q
    raise ArithmeticError(f"no Clopper-Pearson endpoint found for k={k}, n={n}, a={a!r}")


def _log_tail(k: int, n: int, p: float, q: float) -> tuple[float, float, float]:
    """log P(X >= k; n, p) for 1 < k < n, and its first two derivatives in
    u = log p. The terms past k are summed outward as cumulative log ratios.

    p stays below (k + 1)/(n + 1), where pmf(k + 1) = pmf(k): that is above
    the root, since P(X >= k) >= 1/2 >= a there, and above the Wilson start.
    So the terms fall from the first, and their sum cannot overflow.
    """
    mu, var = n * p, n * p * q
    # about ten standard deviations past the mean, or fewer from a k beyond them
    m = min(n - k, int(math.sqrt((k - mu) ** 2 + 100 * var) - (k - mu)) + 32)
    while True:
        i = np.arange(m, dtype=np.float64)
        # log pmf(k + i + 1) - log pmf(k)
        cum = np.cumsum(np.log((float(n - k) - i) * p / ((float(k + 1) + i) * q)))
        if m == n - k or cum[-1] < _TAIL_CUT:
            break
        m = min(n - k, 2 * m)
    terms = np.exp(cum)
    log1s = math.log1p(float(terms.sum()))  # log(P(X >= k) / pmf(k))
    # each log ratio grows by 1/q per unit of u, so term i by (i + 1)/q
    ds = float(np.dot(terms, i + 1.0)) / q
    g1 = k * math.exp(-log1s)
    return _log_pmf(k, n, p, q) + log1s, g1, -g1 * ds * math.exp(-log1s)


def _log_pmf(k: int, n: int, p: float, q: float) -> float:
    """log P(X = k; n, p) for 0 < k < n in Loader's saddle-point form, which
    takes no difference of large log-gammas."""
    fn, fk, fnk = float(n), float(k), float(n - k)
    # d = n p - k, formed from whichever of p and q is the smaller
    d = fn * p - fk if p <= 0.5 else fnk - fn * q
    lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
          - _bd0(fk, fn * p, -d) - _bd0(fnk, fn * q, d))
    return lc - 0.5 * (_LOG_2PI + math.log(k * (n - k) / n))


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n)."""
    if n <= 15:
        return _STIRLERR[n]
    x = float(n)
    nn = x * x
    s = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        s = c - s / nn
    return s / x


def _bd0(x: float, m: float, diff: float) -> float:
    """x log(x/m) + m - x, given diff = x - m; a series where x is near m."""
    if abs(diff) >= 0.1 * (x + m):
        return x * math.log(x / m) - diff
    v = diff / (x + m)
    s = diff * v
    term = 2 * x * v
    v *= v
    j = 3
    while True:
        term *= v
        s1 = s + term / j
        if s1 == s:
            return s
        s = s1
        j += 2


def _normal_quantile(p: float) -> float:
    """The standard normal quantile at p in [1/2, 1]: NormalDist's, polished by
    one Newton step on the upper tail erfc(z/sqrt 2)/2 = 1 - p; inf at p = 1."""
    if p == 1.0:  # a confidence within 2**-53 of 1 rounds 1/2 + confidence/2 up to 1
        return math.inf
    from statistics import NormalDist

    z = NormalDist().inv_cdf(p)
    return z + (0.5 * math.erfc(z / _SQRT2) - (1.0 - p)) * _SQRT_2PI * math.exp(0.5 * z * z)


def mean_ci(values: np.ndarray, confidence: float = 0.99) -> tuple[float, tuple[float, float]]:
    """Sample mean with a normal-approximation confidence interval.

    With a single value the variance is undefined and the interval
    degenerates to (0, inf): the caller gets a report, never a crash. No
    values, or a value that is not finite, is refused.
    """
    _require("in (0, 1)", confidence=confidence)
    _require("finite", values=values)
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DomainError("values must hold at least one value")
    m = float(values.mean())
    if values.size < 2:
        return m, (0.0, math.inf)
    z = _normal_quantile(0.5 + confidence / 2)
    half = z * float(values.std(ddof=1)) / math.sqrt(values.size)
    return m, (m - half, m + half)


def pairwise_sum(values: list[float]) -> float:
    """Fixed-order pairwise reduction; deterministic for a given chunking."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]
