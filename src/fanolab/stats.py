"""Confidence intervals and reproducible float accumulation.

Importing this module, like ``import fanolab``, does not import scipy. The
interval functions import ``scipy.special`` on their first call: its
``betaincinv`` and ``ndtri`` are the functions behind
``scipy.stats.beta.ppf`` and ``scipy.stats.norm.ppf``, and give the same
bits without the import cost of ``scipy.stats``.
"""

from __future__ import annotations

import math

import numpy as np

from .info import DomainError, _require

__all__ = ["clopper_pearson", "mean_ci", "pairwise_sum"]


def clopper_pearson(k: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for k successes in n trials."""
    _require("an integer", n=n, k=k)
    _require("finite and >= 1", n=n)
    if not 0 <= k <= n:
        raise DomainError(f"k must lie in [0, n], got k={k}, n={n}")
    _require("in (0, 1)", confidence=confidence)
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    # betaincinv gives NaN once a shape parameter passes about 1e155
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"n is too large for an exact interval, got n={n:.3g}, k={k:.3g}")
    return lo, hi


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
    from scipy.special import ndtri

    z = float(ndtri(0.5 + confidence / 2))
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
