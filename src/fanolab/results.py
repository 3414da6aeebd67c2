"""Result records shared by the bound computations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

from .info import DomainError


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
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise DomainError(f"bound value must be finite and >= 0, got {self.value!r}")
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
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise DomainError(f"bound value must be finite and >= 0, got {self.value!r}")
        if not isinstance(self.extras, MappingProxyType):
            object.__setattr__(self, "extras", MappingProxyType(dict(self.extras)))
