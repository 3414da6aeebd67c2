"""Finite spaces with a distance-like function, and Fano bounds built on
neighborhood sizes.

The classical Fano inequality controls P(Vhat != V). Replacing the
mismatch event with {rho(Vhat, V) > t} turns the cardinality |V| of the
alphabet into the ratio |V| / N_t_max, where N_t_max is the largest
number of points within distance t of any point. This module computes
those neighborhood counts exactly and evaluates the resulting
inequalities. The last step of the mutual-information tail bound,
max(0, 1 - (I + ln 2) / L), is _fano_tail; the volume-based bound in
continuum and the sparse pipelines in minimax call it too.

Conventions kept exactly as stated by the inequalities themselves:
neighborhoods use rho <= t, the error event uses the strict rho > t, and
ties at exactly t therefore count as success.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .info import (
    LN2,
    DomainError,
    EnumerationLimitError,
    MarkovChainSpec,
    _require,
    binary_entropy,
    conditional_entropy,
)
from .results import BoundResult

__all__ = [
    "DiscreteSpace",
    "NeighborhoodProfile",
    "neighborhood_sizes",
    "sparse_sign_space",
    "sparse_sign_cardinality",
    "sparse_sign_neighborhood_exact",
    "sparse_sign_neighborhood_upper",
    "chain_tail",
    "fano_inequality_sides",
    "fano_tail_lower_bound",
    "fano_conditional_form",
    "PAIR_ENUM_CUTOFF",
]

# Matrix entries that exact neighborhood counting compares, block by block
# (the d=10 sparse sign spaces need 2.4e8).
PAIR_ENUM_CUTOFF = 10**9

_MATRIX_CACHE_CUTOFF = 10**7          # distance matrix entries (3,162 points)
_NEIGHBORHOOD_BLOCK = 1024            # centers per rho_rows call
_SPARSE_SIGN_MAX_POINTS = 2_000_000   # largest sparse sign space materialized


def _require_matrix_entries(n: int) -> None:
    if n * n > _MATRIX_CACHE_CUTOFF:
        raise EnumerationLimitError(
            f"a distance matrix over {n} points would have {n * n} entries (cutoff "
            f"{_MATRIX_CACHE_CUTOFF}); use DiscreteSpace.hamming or a structured "
            "formula (e.g. sparse_sign_neighborhood_upper) instead")


class DiscreteSpace:
    """Finite point set with a symmetric real-valued distance-like function.

    rho needs no positivity and no triangle inequality, but it must be
    symmetric. A space holds a read-only float64 distance matrix, checked
    exactly against its transpose, or read-only int8 vectors under Hamming
    distance. A callable rho is evaluated once per ordered pair into the
    matrix, and refused above 3,162 points (10**7 entries) before any call.

    The homogeneous attribute records that all neighborhoods are congruent,
    so neighborhood counting scans a single center. Callers cannot set it:
    only zero_one and sparse_sign_space do, whose symmetry groups prove it.
    """

    homogeneous = False

    def __init__(self, points: Sequence, rho: Callable):
        points = list(points)
        _require_matrix_entries(len(points))
        self._set_matrix([[rho(a, b) for b in points] for a in points])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix) -> "DiscreteSpace":
        """Space given by an explicit symmetric distance matrix."""
        self = cls.__new__(cls)
        self._set_matrix(matrix)
        return self

    def _set_matrix(self, matrix) -> None:
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DomainError("a discrete space needs a square distance matrix over "
                              ">= 2 points")
        if np.isnan(m).any():
            raise DomainError("rho must not be NaN: the distance matrix holds a NaN")
        bad = np.argwhere(m != m.T)
        if bad.size:
            i, j = bad[0].tolist()
            raise DomainError(f"rho must be symmetric: rho(p{i}, p{j}) = {float(m[i, j])!r} "
                              f"but rho(p{j}, p{i}) = {float(m[j, i])!r}")
        m.flags.writeable = False
        self._matrix = m
        self._vectors = None

    @classmethod
    def hamming(cls, vectors) -> "DiscreteSpace":
        """Integer-vector space under Hamming distance (vectorized fast path).
        Points are stored as int8, so entries must be integers in [-128, 127]."""
        v = np.asarray(vectors)
        if v.ndim != 2 or v.shape[0] < 2:
            raise DomainError("need a (n, d) array with n >= 2")
        if v.dtype.kind not in "biuf":
            raise DomainError(f"Hamming vectors must be numeric, got dtype {v.dtype}")
        with np.errstate(invalid="ignore"):  # a lossy cast would merge distinct points
            v8 = np.ascontiguousarray(v, dtype=np.int8)
        if np.any(v8 != v):
            raise DomainError("Hamming vectors must hold integers in [-128, 127], "
                              f"got {v[v8 != v][0].item()!r}")
        v8.flags.writeable = False
        self = cls.__new__(cls)
        self._matrix = None
        self._vectors = v8
        return self

    @classmethod
    def zero_one(cls, k: int) -> "DiscreteSpace":
        """k labelled points under the 0-1 metric."""
        _require("an integer in [2, 2**63)", k=k)
        space = cls.from_matrix(1.0 - np.eye(k))
        space.homogeneous = True  # every point sees the same distance multiset
        return space

    # -- basics ------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self._matrix if self._vectors is None else self._vectors)

    @property
    def vectors(self) -> np.ndarray | None:
        return self._vectors

    def rho_index(self, i: int, j: int) -> float:
        """rho between points i and j."""
        if self._vectors is None:
            return float(self._matrix[i, j])
        return float((self._vectors[i] != self._vectors[j]).sum())

    def rho_rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows of the pairwise distance matrix for the given center indices."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._vectors is None:
            return self._matrix[idx]
        return self._hamming_block(idx)

    @cached_property
    def _onehot(self) -> np.ndarray:
        values = np.unique(self._vectors)
        return np.concatenate([(self._vectors == v) for v in values],
                              axis=1).astype(np.float32)

    def _hamming_block(self, idx: np.ndarray) -> np.ndarray:
        """Hamming distances from the indexed centers to every point.

        Small queries broadcast directly; large blocks go through a
        one-hot matmul (equal-coordinate counts are exact integers below
        2^24, so float32 is lossless).
        """
        n, d = self._vectors.shape
        if idx.size * n * d <= 2**25:
            centers = self._vectors[idx]
            return (centers[:, None, :] != self._vectors[None, :, :]).sum(
                axis=2).astype(np.float64)
        equal = self._onehot[idx] @ self._onehot.T
        return (d - equal).astype(np.float64)

    @cached_property
    def _hamming_matrix(self) -> np.ndarray:
        _require_matrix_entries(self.n_points)
        m = self._hamming_block(np.arange(self.n_points))
        m.flags.writeable = False
        return m

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix, read-only. A Hamming space builds
        it once, under the 10**7-entry cutoff."""
        return self._matrix if self._vectors is None else self._hamming_matrix


@dataclass(frozen=True)
class NeighborhoodProfile:
    """Extreme neighborhood sizes at radius t: counts of {v' : rho(v, v') <= t}."""

    t: float
    n_max: int
    n_min: int

    def __post_init__(self):
        _require("finite", t=self.t)
        _require(">= 1", n_max=self.n_max)
        if not 0 <= self.n_min <= self.n_max:
            raise DomainError(f"need 0 <= n_min <= n_max, got {self.n_min}, {self.n_max}")


def neighborhood_sizes(space: DiscreteSpace, t: float) -> NeighborhoodProfile:
    """Exact max/min over centers v of card{v' : rho(v, v') <= t}.

    Enumeration is streamed in blocks of centers; the max/min reduction is
    order-independent, so any internal parallelization over blocks would
    give identical results. Spaces beyond the pairwise budget raise and
    point the caller at structured formulas such as
    sparse_sign_neighborhood_upper. A non-finite t, or one so small that
    every neighborhood is empty, is refused.
    """
    _require("finite", t=t)
    n = space.n_points
    if space.homogeneous:
        n_max = n_min = int((space.rho_rows(np.array([0])) <= t).sum())
    else:
        if n * n > PAIR_ENUM_CUTOFF:
            raise EnumerationLimitError(
                f"{n * n} pairwise evaluations exceed the enumeration budget "
                f"{PAIR_ENUM_CUTOFF}; "
                "use a structured formula (e.g. sparse_sign_neighborhood_upper) instead")
        n_max, n_min = 0, n + 1
        for lo in range(0, n, _NEIGHBORHOOD_BLOCK):
            rows = space.rho_rows(np.arange(lo, min(lo + _NEIGHBORHOOD_BLOCK, n)))
            counts = (rows <= t).sum(axis=1)
            n_max = max(n_max, int(counts.max()))
            n_min = min(n_min, int(counts.min()))
    if n_max < 1:
        raise DomainError(f"every neighborhood is empty at radius t={t!r}: "
                          "no point lies within t of any center")
    return NeighborhoodProfile(t=t, n_max=n_max, n_min=n_min)


def _require_sparse(d: int, s: int) -> None:
    _require("an integer", d=d, s=s)
    if not 1 <= s <= d:
        raise DomainError(f"need 1 <= s <= d, got s={s}, d={d}")


def sparse_sign_cardinality(d: int, s: int) -> int:
    """|{v in {-1,0,1}^d : exactly s nonzeros}| = 2^s * C(d, s), exactly."""
    _require_sparse(d, s)
    return (2**s) * math.comb(d, s)


def sparse_sign_space(d: int, s: int) -> DiscreteSpace:
    """Materialize the s-sparse sign vectors in {-1,0,1}^d under Hamming distance.

    The space is homogeneous: signed coordinate permutations act
    transitively on it and preserve Hamming distance, so every
    neighborhood is congruent and exact counts need only one center scan.
    For more than 2,000,000 points, work with
    sparse_sign_cardinality and sparse_sign_neighborhood_upper instead.
    """
    card = sparse_sign_cardinality(d, s)
    if card > _SPARSE_SIGN_MAX_POINTS:
        raise EnumerationLimitError(
            f"2^s * C(d, s) = {card} exceeds {_SPARSE_SIGN_MAX_POINTS} points; "
            "use the counting forms instead of materializing")
    out = np.zeros((card, d), dtype=np.int8)
    row = 0
    for support in itertools.combinations(range(d), s):
        cols = list(support)
        for signs in itertools.product((-1, 1), repeat=s):
            out[row, cols] = signs
            row += 1
    space = DiscreteSpace.hamming(out)
    space.homogeneous = True  # signed coordinate permutations act transitively
    return space


def sparse_sign_neighborhood_exact(d: int, s: int, t: float) -> int:
    """Exact neighborhood size at radius t in the s-sparse sign space.

    The space is homogeneous, so the count around any one center is the
    count everywhere. A neighbor at Hamming distance 2a + f zeroes a
    support coordinates, flips f support signs, and activates a
    off-support coordinates with free signs (sparsity forces the zeroed
    and activated counts to match); summing the choices enumerates the
    neighborhood without materializing the space.
    """
    _require_sparse(d, s)
    _require("finite", t=t)
    if t < 0:
        return 0
    radius = int(math.floor(t))
    total = 0
    for a in range(0, min(s, d - s, radius // 2) + 1):
        for f in range(0, min(s - a, radius - 2 * a) + 1):
            total += math.comb(s, a) * math.comb(s - a, f) * math.comb(d - s, a) * 2**a
    return total


def sparse_sign_neighborhood_upper(d: int, s: int) -> tuple[int, int]:
    """Radius floor(s/4) and the combinatorial ceiling on its max neighborhood size.

    Returns (t, ceil(s/4) * 2^t * C(d, t)) with t = floor(s/4). The exact
    count is recomputed on the spot and a violation of the ceiling raises:
    the ceiling is asserted, not assumed.
    """
    _require_sparse(d, s)
    t = s // 4
    bound = math.ceil(s / 4) * (2**t) * math.comb(d, t)
    exact = sparse_sign_neighborhood_exact(d, s, t)
    if exact > bound:
        raise RuntimeError(
            f"neighborhood ceiling violated at (d={d}, s={s}): exact {exact} > bound {bound}")
    return t, bound


def chain_tail(chain: MarkovChainSpec, space: DiscreteSpace, t: float) -> float:
    """Exact P(rho(Vhat, V) > t) of the chain V -> X -> Vhat, with the strict
    event: a pair at distance exactly t counts as a success. It is the sum
    of the joint law of (V, Vhat) over that event, clipped to [0, 1]. The
    chain's V and Vhat alphabets must both be the space's point set, in
    order, and t must be finite.
    """
    n = space.n_points
    if chain.n_v != n or chain.n_vhat != n:
        raise DomainError(
            f"alphabet mismatch: space has {n} points, chain has |V|={chain.n_v}, "
            f"|Vhat|={chain.n_vhat}")
    _require("finite", t=t)
    # joint[v, vhat] against the event rho(vhat, v) > t
    p_t = float(chain.joint_v_vhat()[space.distance_matrix().T > t].sum())
    return min(max(p_t, 0.0), 1.0)


def fano_inequality_sides(chain: MarkovChainSpec, space: DiscreteSpace,
                          t: float) -> tuple[float, float]:
    """Both sides of the distance-based Fano inequality, as (lhs, rhs).

    lhs = h2(P_t) + P_t * ln((|V| - N_min) / N_max) + ln(N_max) with
    P_t = P(rho(Vhat, V) > t) from chain_tail, and rhs = H(V | Vhat). The
    inequality under test is lhs >= rhs; it comes from conditioning the
    uncertainty about V on the binary indicator of the event
    {rho(Vhat, V) <= t}, which is why both extreme neighborhood sizes
    appear. The chain's V and Vhat alphabets must both be the space's point
    set, in order.
    """
    n = space.n_points
    p_t = chain_tail(chain, space, t)
    prof = neighborhood_sizes(space, t)
    # P_t > 0 forces N_min < |V|: some neighborhood misses a point, so the
    # middle term's log argument is positive whenever the term is nonzero.
    middle = p_t * math.log((n - prof.n_min) / prof.n_max) if p_t > 0 else 0.0
    lhs = binary_entropy(p_t) + middle + math.log(prof.n_max)
    rhs = conditional_entropy(chain)
    return lhs, rhs


def _fano_tail(mi: float, log_ratio: float) -> float:
    """max(0, 1 - (I + ln 2) / L): the step that both the distance-based and
    the volume-based tail bound end in, with L the log-ratio in nats.

    A nonpositive L makes the formula inapplicable and gives 0; the caller
    decides validity. I must be finite and >= 0.
    """
    _require("finite and >= 0", "mutual information mi must be finite and >= 0, got {value!r}",
             mi=mi)
    return max(0.0, 1.0 - (mi + LN2) / log_ratio) if log_ratio > 0 else 0.0


def _card_ratio(count: int, n_max: int) -> float:
    """count / n_max, exact for ints of any size; a quotient past float64 is refused."""
    try:
        return count / n_max
    except OverflowError:
        raise DomainError(f"card is too large: its ratio to n_max={n_max} overflows "
                          "float64") from None


def fano_tail_lower_bound(card: int, profile: NeighborhoodProfile, mi: float) -> BoundResult:
    """Mutual-information tail bound: P(rho(Vhat, V) > t) >= 1 - (I + ln 2) / ln(card / N_max).

    Requires V uniform on the space. The side condition
    (card - N_min) > N_max is what licenses the inequality; its failure
    (or a nonpositive log-ratio) sets valid=False. A merely negative
    value clamps to 0 with valid=True: vacuous but correct.
    """
    _require(">= 2", "need card >= 2", card=card)
    if profile.n_max > card:
        raise DomainError(f"neighborhood size n_max={profile.n_max} exceeds card={card}")
    log_ratio = math.log(_card_ratio(card, profile.n_max))
    value = _fano_tail(mi, log_ratio)
    side_ok = (card - profile.n_min) > profile.n_max
    valid = side_ok and log_ratio > 0
    return BoundResult(value=value, valid=valid, ingredients={
        "mi_bound": mi, "log_ratio": log_ratio, "t": profile.t,
        "card": card, "n_max": profile.n_max, "n_min": profile.n_min,
    })


def fano_conditional_form(hvx: float, card: int, profile: NeighborhoodProfile) -> BoundResult:
    """Conditional-entropy tail bound, valid for any distribution of V.

    P(rho(Vhat, V) > t) >= (H(V|X) - ln N_max - ln 2) / ln((card - N_min) / N_max),
    provided the denominator is positive (else valid=False, value 0).
    """
    _require("finite and >= 0", hvx=hvx)
    _require(">= 2", "need card >= 2", card=card)
    if profile.n_max > card:
        raise DomainError(f"neighborhood size n_max={profile.n_max} exceeds card={card}")
    ratio = _card_ratio(card - profile.n_min, profile.n_max)
    if ratio <= 1.0:
        den = math.log(ratio) if ratio > 0 else -math.inf
        return BoundResult(value=0.0, valid=False, ingredients={
            "hvx": hvx, "denominator": den, "t": profile.t,
            "card": card, "n_max": profile.n_max, "n_min": profile.n_min,
        })
    den = math.log(ratio)
    value = max(0.0, (hvx - math.log(profile.n_max) - LN2) / den)
    return BoundResult(value=value, valid=True, ingredients={
        "hvx": hvx, "denominator": den, "t": profile.t,
        "card": card, "n_max": profile.n_max, "n_min": profile.n_min,
    })
