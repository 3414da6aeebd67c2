"""Confidence intervals and reproducible float accumulation."""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as _st

from .info import DomainError


def clopper_pearson(k: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for k successes in n trials."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n, n >= 1; got k={k}, n={n}")
    if not 0 < confidence < 1:
        raise DomainError(f"confidence must lie in (0, 1), got confidence={confidence!r}")
    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else float(_st.beta.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(_st.beta.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def mean_ci(values: np.ndarray, confidence: float = 0.99) -> tuple[float, tuple[float, float]]:
    """Sample mean with a normal-approximation confidence interval.

    With fewer than two values the variance is undefined and the interval
    degenerates to (0, inf): the caller gets a report, never a crash.
    """
    values = np.asarray(values, dtype=np.float64)
    m = float(values.mean())
    if values.size < 2:
        return m, (0.0, math.inf)
    z = float(_st.norm.ppf(0.5 + confidence / 2))
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
