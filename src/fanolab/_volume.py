"""The volume-ratio Fano bound and the analytic ratio of two balls: the scalar
part of fanolab.continuum, which exports them. They take Python numbers and
load no numpy, so a bound from a known log-ratio or from two radii starts
without the samplers.
"""

from __future__ import annotations

import math

from .discrete import _MI_DOMAIN, _fano_tail
from .info import DomainError, _require, _shown
from .results import MinimaxBound


class EstimationError(RuntimeError):
    """Monte Carlo estimation failed (e.g. zero acceptance within budget)."""


def ball_volume_ratio_analytic(r: float, t: float, d: int) -> float:
    """Vol(ball r) / Vol(ball t) = (r/t)^d for a region that is itself a ball.
    A ratio that overflows float64 is refused."""
    _require("finite and > 0", r=r, t=t)
    _require("a whole number >= 1", d=d)
    if not t <= r:
        raise DomainError(f"need 0 < t <= r, got t={t!r}, r={r!r}")
    try:
        if r / t < math.inf:
            return (r / t) ** d
    except OverflowError:
        pass
    raise DomainError(f"(r/t)^d overflows float64 at r={r!r}, t={t!r}, d={_shown(d)}")


def continuum_fano_bound(log_ratio: float, mi: float) -> MinimaxBound:
    """Volume-ratio Fano bound: P(rho(Vhat, V) >= t) >= 1 - (I + ln 2) / log_ratio.

    Applies to V uniform on the region, with log_ratio =
    ln( Vol(V) / sup_v Vol(ball(t, v) & V) ) in nats. The event uses the
    weak inequality rho >= t. The MinimaxBound has pipeline continuum-tail
    and no t: the log-ratio alone does not name the radius. A nonpositive
    log-ratio makes the formula inapplicable: valid=False, value 0.
    """
    _require("finite", "log_ratio must be finite", log_ratio=log_ratio)
    _require(*_MI_DOMAIN, mi=mi)
    return MinimaxBound(value=_fano_tail(mi, log_ratio), pipeline="continuum-tail",
                        mi_bound=mi, log_ratio=log_ratio, valid=log_ratio > 0,
                        extras={"mi_bound": mi, "log_ratio": log_ratio})
