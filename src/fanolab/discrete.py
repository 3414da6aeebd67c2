"""Finite spaces with a distance-like function, and Fano bounds built on
neighborhood sizes.

The classical Fano inequality controls P(Vhat != V). Replacing the
mismatch event with {rho(Vhat, V) > t} turns the cardinality |V| of the
alphabet into the ratio |V| / N_t_max, where N_t_max is the largest
number of points within distance t of any point. This module computes
those neighborhood counts exactly and evaluates the resulting
inequalities. Each formula is written once, in an unchecked core: the
scalar _fano_lhs (the sides h2(P_t) + P_t ln((|V| - N_min) / N_max) +
ln N_max), _fano_conditional and _fano_tail (max(0, 1 - (I + ln 2) / L)),
and, over leading batch axes, _neighborhood_extremes, _miss (the event
rho(Vhat, V) > t) and _miss_tail (its probability P_t). The public
functions here check their inputs and call them (neighborhood_sizes through
DiscreteSpace._counts_within); so do the volume-ratio bound and minimax
(_fano_tail) and the batched oracle kernels in lab (all of them). The tail
forms return the MinimaxBound that every bound returns, with pipeline
discrete-tail or discrete-conditional. Distance
matrices are checked by one rule, _check_symmetric. The Fano cores, the
tail forms and the sparse counts run on Python numbers; numpy loads when a
space or an array core is first used.

Conventions kept exactly as stated by the inequalities themselves:
neighborhoods use rho <= t, the error event uses the strict rho > t, and
ties at exactly t therefore count as success.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from .info import (
    LN2,
    DomainError,
    MarkovChainSpec,
    _budget,
    _h2,
    _require,
    _shown,
    conditional_entropy,
)
from .results import MinimaxBound

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiscreteSpace",
    "NeighborhoodProfile",
    "neighborhood_sizes",
    "sparse_sign_space",
    "sparse_sign_cardinality",
    "sparse_sign_neighborhood_exact",
    "chain_tail",
    "fano_inequality_sides",
    "fano_tail_lower_bound",
    "fano_conditional_form",
]

_NEIGHBORHOOD_BLOCK = 1024  # centers per _counts_within call


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
        n = len(points)
        _budget("distance-matrix entries", n * n, f"a distance matrix over {n} points")
        self._set_matrix([[rho(a, b) for b in points] for a in points])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix) -> "DiscreteSpace":
        """Space given by an explicit symmetric distance matrix."""
        self = cls.__new__(cls)
        self._set_matrix(matrix)
        return self

    def _set_matrix(self, matrix) -> None:
        import numpy as np

        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DomainError("a discrete space needs a square distance matrix over "
                              ">= 2 points")
        _check_symmetric(m)
        m.flags.writeable = False
        self._matrix = m
        self._vectors = None

    @classmethod
    def hamming(cls, vectors) -> "DiscreteSpace":
        """Integer-vector space under Hamming distance, counted from equal
        coordinates. Points are stored as int8, so entries must be integers in
        [-128, 127], and d is at most 2**24, where float32 counts stay exact."""
        import numpy as np

        v = np.asarray(vectors)
        if v.ndim != 2 or v.shape[0] < 2:
            raise DomainError("need a (n, d) array with n >= 2")
        if v.shape[1] > 2**24:
            raise DomainError(f"Hamming vectors must have d <= 2**24 coordinates, "
                              f"got d={v.shape[1]}")
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
        import numpy as np

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

    def _require_points(self, **indices) -> None:
        _require("an integer in [0, 2**63)", **indices)
        for name, i in indices.items():
            if i >= self.n_points:
                raise DomainError(f"{name}={_shown(i)} is not a point of the space")

    def rho_index(self, i: int, j: int) -> float:
        """rho between points i and j, each an integer index in [0, n_points)."""
        self._require_points(i=i, j=j)
        if self._vectors is None:
            return float(self._matrix[i, j])
        return float((self._vectors[i] != self._vectors[j]).sum())

    @cached_property
    def _onehot(self) -> np.ndarray:
        import numpy as np

        one_hot = self._vectors[:, :, None] == np.unique(self._vectors)
        return one_hot.reshape(self.n_points, -1).astype(np.float32)

    def _equal(self, idx: np.ndarray) -> np.ndarray:
        """Equal-coordinate counts from the indexed centers to every point."""
        import numpy as np

        if idx.size == 1:  # one center is compared with every vector directly
            return np.count_nonzero(self._vectors == self._vectors[idx], axis=1)[None]
        return self._onehot[idx] @ self._onehot.T  # float32 counts are exact below 2^24

    def _counts_within(self, idx: np.ndarray, t: float) -> tuple[int, int]:
        """The largest and smallest card{v' : rho(v, v') <= t} over the indexed centers v."""
        import numpy as np

        if self._vectors is None:
            return _neighborhood_extremes(self._matrix[idx], t)
        # Hamming distances are integers, so rho <= t exactly when more than
        # d - 1 - floor(t) coordinates agree; t is clamped to [-1, d] first.
        d = self._vectors.shape[1]
        counts = np.count_nonzero(self._equal(idx) > d - 1 - math.floor(min(max(t, -1), d)),
                                  axis=1)
        return counts.max(), counts.min()

    @cached_property
    def _hamming_matrix(self) -> np.ndarray:
        import numpy as np

        n, d = self._vectors.shape
        _budget("distance-matrix entries", n * n, f"a distance matrix over {n} points")
        m = (d - self._equal(np.arange(n))).astype(np.float64)
        m.flags.writeable = False
        return m

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix, read-only. A Hamming space builds
        it once, within the budget of 10**7 entries."""
        return self._matrix if self._vectors is None else self._hamming_matrix


def _check_symmetric(dist) -> None:
    """Refuses a distance matrix, or a stack along a leading axis, holding a NaN
    or differing from its transpose; names the first such pair (and matrix)."""
    import numpy as np

    dist = np.asarray(dist, dtype=np.float64)
    nan = np.isnan(dist)
    bad = np.argwhere(nan if nan.any() else dist != np.swapaxes(dist, -1, -2))
    if bad.size:
        *k, i, j = bad[0].tolist()
        at, m = (f"in dist[{k[0]}], ", dist[k[0]]) if k else ("", dist)
        if nan.any():
            raise DomainError(f"rho must not be NaN: {at}rho(p{i}, p{j}) is NaN")
        raise DomainError(f"rho must be symmetric: {at}rho(p{i}, p{j}) = {float(m[i, j])!r} "
                          f"but rho(p{j}, p{i}) = {float(m[j, i])!r}")


@dataclass(frozen=True)
class NeighborhoodProfile:
    """Extreme neighborhood sizes at radius t: counts of {v' : rho(v, v') <= t}."""

    t: float
    n_max: int
    n_min: int

    def __post_init__(self):
        _require("finite", t=self.t)
        _require("a whole number >= 1", n_max=self.n_max)
        if not 0 <= self.n_min <= self.n_max:
            raise DomainError(
                f"need 0 <= n_min <= n_max, got {_shown(self.n_min)}, {_shown(self.n_max)}")
        _require("a whole number >= 0", n_min=self.n_min)


def neighborhood_sizes(space: DiscreteSpace, t: float) -> NeighborhoodProfile:
    """Exact max/min over centers v of card{v' : rho(v, v') <= t}, counted in
    blocks of centers from distance rows, or on Hamming vectors from equal
    coordinates with no distance built. Spaces beyond the pairwise budget
    raise and point the caller at structured formulas such as
    sparse_sign_neighborhood_exact. A non-finite t, or one so small that
    every neighborhood is empty, is refused.
    """
    import numpy as np

    _require("finite", t=t)
    n = space.n_points
    scan = 1 if space.homogeneous else n  # a homogeneous space needs its first center only
    _budget("pairwise evaluations", scan * n, f"a space of {n} points")
    blocks = np.array_split(np.arange(scan), range(_NEIGHBORHOOD_BLOCK, scan, _NEIGHBORHOOD_BLOCK))
    highs, lows = zip(*(space._counts_within(b, t) for b in blocks))
    n_max, n_min = int(max(highs)), int(min(lows))
    if n_max < 1:
        raise DomainError(f"every neighborhood is empty at radius t={t!r}: "
                          "no point lies within t of any center")
    return NeighborhoodProfile(t=t, n_max=n_max, n_min=n_min)


def _neighborhood_extremes(dist: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The largest and smallest card{v' : rho(v, v') <= t} over the distance rows v."""
    import numpy as np

    counts = (dist <= np.asarray(t, dtype=np.float64)[..., None, None]).sum(axis=-1)
    return counts.max(axis=-1), counts.min(axis=-1)


def _require_sparse(d: int, s: int) -> None:
    _require("an integer", d=d, s=s)
    if not 1 <= s <= d:
        raise DomainError(f"need 1 <= s <= d, got s={_shown(s)}, d={_shown(d)}")


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
    sparse_sign_cardinality and sparse_sign_neighborhood_exact instead.
    """
    import numpy as np

    card = sparse_sign_cardinality(d, s)
    _budget("sparse sign points", card, f"2^s * C(d, s) at d={_shown(d)}, s={_shown(s)}")
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
    return float(_miss_tail(chain.joint_v_vhat(), space.distance_matrix(), t))


def _miss(dist: np.ndarray, t) -> np.ndarray:
    """miss[..., v, vhat] = rho(vhat, v) > t, from distance matrices and radii."""
    import numpy as np

    return np.swapaxes(dist, -1, -2) > np.asarray(t, dtype=np.float64)[..., None, None]


def _miss_tail(joint: np.ndarray, dist: np.ndarray, t) -> np.ndarray:
    """P(rho(Vhat, V) > t): joint laws P(V, Vhat) summed over _miss, clipped to [0, 1]."""
    import numpy as np

    return np.clip(np.where(_miss(dist, t), joint, 0.0).sum(axis=(-2, -1)), 0.0, 1.0)


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
    p_t = chain_tail(chain, space, t)
    prof = neighborhood_sizes(space, t)
    return _fano_lhs(p_t, space.n_points, prof.n_max, prof.n_min), conditional_entropy(chain)


# The domain of a mutual information I, and its refusal, for _require.
_MI_DOMAIN = ("finite and >= 0", "mutual information mi must be finite and >= 0, got {value}")


# The three Fano formulas, unchecked: their callers check the inputs first.
def _fano_lhs(p_t: float, card: int, n_max: int, n_min: int) -> float:
    """h2(P_t) + P_t * ln((card - N_min) / N_max) + ln N_max, for P_t in [0, 1]."""
    # P_t > 0 forces N_min < card: some neighborhood misses a point, so the
    # middle term's log argument is positive whenever the term is nonzero.
    middle = p_t * math.log((card - n_min) / n_max) if p_t > 0 else 0.0
    return _h2(p_t) + middle + math.log(n_max)


def _fano_tail(mi: float, log_ratio: float) -> float:
    """max(0, 1 - (I + ln 2) / L): the step that both the distance-based and
    the volume-based tail bound end in, with L the log-ratio in nats and I
    finite and >= 0. A nonpositive L makes the formula inapplicable and
    gives 0; the caller decides validity.
    """
    return max(0.0, 1.0 - (mi + LN2) / log_ratio) if log_ratio > 0 else 0.0


def _fano_conditional(hvx: float, card: int, n_max: int, n_min: int) -> tuple[float, float]:
    """(value, denominator) of the conditional form: the denominator is
    ln((card - N_min) / N_max), and the value max(0, (H(V|X) - ln N_max -
    ln 2) / denominator) when the denominator is positive. Otherwise the
    value is 0, and the denominator is -inf when N_min = card."""
    ratio = _card_ratio(card - n_min, n_max)
    if ratio <= 1.0:
        return 0.0, math.log(ratio) if ratio > 0 else -math.inf
    den = math.log(ratio)
    return max(0.0, (hvx - math.log(n_max) - LN2) / den), den


def _card_ratio(count: int, n_max: int) -> float:
    """count / n_max, exact for ints of any size; a quotient past float64 is refused."""
    try:
        return count / n_max
    except OverflowError:
        raise DomainError(f"card is too large: its ratio to n_max={_shown(n_max)} overflows "
                          "float64") from None


def _require_card(card: int, profile: NeighborhoodProfile) -> None:
    """The tail forms' rule on card: a whole number >= 2, and no smaller than n_max."""
    _require("a whole number >= 0", card=card)  # a fraction is refused as one
    _require("a whole number >= 2", "need card >= 2", card=card)
    if profile.n_max > card:
        raise DomainError(
            f"neighborhood size n_max={_shown(profile.n_max)} exceeds card={_shown(card)}")


def fano_tail_lower_bound(card: int, profile: NeighborhoodProfile, mi: float) -> MinimaxBound:
    """Mutual-information tail bound: P(rho(Vhat, V) > t) >= 1 - (I + ln 2) / ln(card / N_max).

    Requires V uniform on the space. The side condition
    (card - N_min) > N_max is what licenses the inequality; its failure
    (or a nonpositive log-ratio) sets valid=False. A merely negative
    value clamps to 0 with valid=True: vacuous but correct.
    """
    _require_card(card, profile)
    _require(*_MI_DOMAIN, mi=mi)
    log_ratio = math.log(_card_ratio(card, profile.n_max))
    value = _fano_tail(mi, log_ratio)
    side_ok = (card - profile.n_min) > profile.n_max
    valid = side_ok and log_ratio > 0
    return MinimaxBound(value=value, pipeline="discrete-tail", t=profile.t, mi_bound=mi,
                        log_ratio=log_ratio, valid=valid,
                        extras={"mi_bound": mi, "log_ratio": log_ratio, "t": profile.t,
                                "card": card, "n_max": profile.n_max, "n_min": profile.n_min})


def fano_conditional_form(hvx: float, card: int, profile: NeighborhoodProfile) -> MinimaxBound:
    """Conditional-entropy tail bound, valid for any distribution of V.

    P(rho(Vhat, V) > t) >= (H(V|X) - ln N_max - ln 2) / ln((card - N_min) / N_max),
    provided the denominator is positive (else valid=False, value 0).
    """
    _require("finite and >= 0", hvx=hvx)
    _require_card(card, profile)
    value, den = _fano_conditional(hvx, card, profile.n_max, profile.n_min)
    return MinimaxBound(value=value, pipeline="discrete-conditional", t=profile.t,
                        valid=den > 0,
                        extras={"hvx": hvx, "denominator": den, "t": profile.t,
                                "card": card, "n_max": profile.n_max, "n_min": profile.n_min})
