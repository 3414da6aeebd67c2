"""Result records shared by the bound computations."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .info import _require

__all__ = ["BoundResult", "MinimaxBound"]

_BOUND_VALUE = "bound value must be finite and >= 0, got {value!r}"


@dataclass(frozen=True)
class BoundResult:
    """A computed tail lower bound plus the ingredients that produced it.

    value is finite and clamped to [0, inf): a formula that evaluates
    negative is a vacuous-but-correct bound of 0 and keeps valid=True.
    valid=False marks a structural failure (denominator sign, side
    condition), i.e. the formula did not apply at all; the value is 0.
    """

    value: float
    valid: bool
    ingredients: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    def __post_init__(self):
        _require("finite and >= 0", _BOUND_VALUE, value=self.value)
        if not isinstance(self.ingredients, MappingProxyType):
            object.__setattr__(self, "ingredients", MappingProxyType(dict(self.ingredients)))


@dataclass(frozen=True)
class MinimaxBound:
    """A minimax risk lower bound in loss units, with its full recipe.

    pipeline names which construction produced it; eps and t are the scale
    and radius the construction used (None where not applicable); mi_bound
    and log_ratio are the information ingredients in nats.
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
