"""The one record every bound computation returns: the tail forms of
fanolab.discrete and fanolab.continuum and the minimax pipelines alike."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .info import _require

__all__ = ["MinimaxBound"]

_BOUND_VALUE = "bound value must be finite and >= 0, got {value}"


@dataclass(frozen=True)
class MinimaxBound:
    """A lower bound, a tail probability or a minimax risk in loss units,
    with its full recipe.

    pipeline names which construction produced it; eps and t are the scale
    and radius the construction used (None where not applicable); mi_bound
    and log_ratio are the information terms in nats; extras holds the
    rest of the recipe. value is finite and clamped to [0, inf): a formula
    that evaluates negative is a vacuous-but-correct bound of 0 and keeps
    valid=True. valid=False marks a structural failure (denominator sign,
    side condition, a degenerate design), i.e. the formula did not apply at
    all; a tail form then reports 0, a minimax pipeline its formula value.
    """

    value: float
    pipeline: str
    t: float | None = None
    eps: float | None = None
    mi_bound: float | None = None
    log_ratio: float | None = None
    valid: bool = True
    extras: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    def __post_init__(self):
        given = ", ".join(f"{k}={self.extras[k]!r}" for k in ("d", "s", "n", "sigma2")
                          if k in self.extras)
        _require("finite and >= 0", _BOUND_VALUE + (f" at {given}" if given else ""),
                 value=self.value)
        for name in ("t", "eps", "mi_bound", "log_ratio"):
            if getattr(self, name) is not None:
                _require("finite", **{name: getattr(self, name)})
        if not isinstance(self.extras, MappingProxyType):
            object.__setattr__(self, "extras", MappingProxyType(dict(self.extras)))
