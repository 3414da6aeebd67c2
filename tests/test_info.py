"""Exact information quantities against brute-force enumeration oracles."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolab import info
from fanolab.info import (
    DomainError,
    MarkovChainSpec,
    ProbVector,
    binary_entropy,
    conditional_entropy,
    entropy,
    mutual_information_exact,
)
from fanolab.continuum import (
    ContinuumSpace,
    GridPartition,
    ball_volume_ratio_analytic,
    box_space,
    grid_partition_counts,
    l2_ball_space,
    mc_volume_ratio,
)
from fanolab.discrete import (
    DiscreteSpace,
    NeighborhoodProfile,
    fano_tail_lower_bound,
    neighborhood_sizes,
)
from fanolab.lab import OracleGroup, hard_threshold, prop1_groups
from fanolab.minimax import (
    hinge_integral,
    normal_mean_bound,
    normal_mean_tail_integral,
    normal_mean_tail_integral_floor,
    sparse_location_bound,
)
from fanolab.stats import clopper_pearson, mean_ci
from fanolab.streams import stream
from oracles import (
    kl_discrete,
    kl_gaussian_shared_cov,
    mi_pairwise_kl_bound,
    mi_pairwise_kl_bound_discrete,
    mutual_information_v_vhat,
    random_chain,
)

LN2 = math.log(2.0)
_NAN_ROWS = [[math.nan, 0.5], [0.5, 0.5]]
_HAMMING_3 = DiscreteSpace.hamming([[0, 1], [1, 1], [1, 0]])
_G = next(prop1_groups(1, 4))
_NAN_PRIOR = np.where(np.arange(_G.nv) == 0, math.nan, _G.prior)
_DISK = l2_ball_space(2, 1.0)


# -- oracles: plain-Python enumeration, no shared code with the library ------


def oracle_cond_entropy(chain):
    """H(V|Vhat) by summing the full (v, x, vhat) table."""
    p, c, dec = chain.prior.p, chain.channel, chain.decoder
    joint = {}
    for v in range(c.shape[0]):
        for x in range(c.shape[1]):
            for vh in range(dec.shape[1]):
                joint[(v, vh)] = joint.get((v, vh), 0.0) + p[v] * c[v, x] * dec[x, vh]
    marg = {}
    for (v, vh), w in joint.items():
        marg[vh] = marg.get(vh, 0.0) + w
    h = 0.0
    for (v, vh), w in joint.items():
        if w > 0:
            h -= w * math.log(w / marg[vh])
    return h


def oracle_mi(prior, channel):
    """I(V;X) by a double sum over the joint."""
    px = [sum(prior[v] * channel[v][x] for v in range(len(prior)))
          for x in range(len(channel[0]))]
    total = 0.0
    for v in range(len(prior)):
        for x in range(len(channel[0])):
            j = prior[v] * channel[v][x]
            if j > 0:
                total += j * math.log(j / (prior[v] * px[x]))
    return total


def oracle_pairwise_kl(means, sigma2, n):
    total = 0.0
    for a in means:
        for b in means:
            diff = np.asarray(a, float) - np.asarray(b, float)
            total += float(diff @ diff) / (2.0 * sigma2)
    return n * total / len(means) ** 2


# -- binary entropy ----------------------------------------------------------


def test_binary_entropy_symmetric_max():
    assert binary_entropy(0.5) == pytest.approx(LN2, rel=0, abs=0)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_quarter():
    # -0.25 ln 0.25 - 0.75 ln 0.75, mpmath at 50 digits
    assert binary_entropy(0.25) == pytest.approx(0.56233514461880835029, rel=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_binary_entropy_range_and_symmetry(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= LN2 + 1e-15
    assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


# -- ProbVector and entropy --------------------------------------------------


def test_probvector_rejects_bad_sum():
    with pytest.raises(DomainError):
        ProbVector([0.5, 0.5 + 1e-9])
    with pytest.raises(DomainError):
        ProbVector([0.7, -0.1, 0.4])
    with pytest.raises(DomainError):
        ProbVector([])


def test_probvector_no_silent_renormalization():
    # a 1e-6 defect must be rejected, not scaled away
    with pytest.raises(DomainError):
        ProbVector(np.full(4, 0.25 * (1 + 1e-6)))


@pytest.mark.parametrize("k", [2, 3, 10, 1000, 10**6])
def test_entropy_uniform(k):
    assert entropy(ProbVector.uniform(k)) == pytest.approx(math.log(k), abs=1e-12)


def test_entropy_point_mass():
    assert entropy(ProbVector([1.0, 0.0, 0.0])) == 0.0


def test_entropy_mixed():
    # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25), mpmath at 50 digits
    assert entropy(ProbVector([0.5, 0.25, 0.25])) == pytest.approx(
        1.0397207708399179641, rel=1e-15)


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_entropy_bounds(raw):
    w = np.asarray(raw)
    p = ProbVector(w / w.sum()) if abs(w.sum() - 1) > 1e-12 else ProbVector(w)
    h = entropy(p)
    assert -1e-12 <= h <= math.log(len(p)) + 1e-12


# -- conditional entropy and MI ----------------------------------------------


def test_conditional_entropy_identity_chain():
    chain = MarkovChainSpec(prior=ProbVector([0.2, 0.3, 0.5]),
                            channel=np.eye(3), decoder=np.eye(3))
    assert conditional_entropy(chain) == pytest.approx(0.0, abs=1e-15)


def test_conditional_entropy_independent_decoder():
    k = 4
    chain = MarkovChainSpec(prior=ProbVector.uniform(k), channel=np.eye(k),
                            decoder=np.full((k, k), 1.0 / k))
    assert conditional_entropy(chain) == pytest.approx(math.log(k), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_conditional_entropy_matches_oracle(seed):
    chain = random_chain(seed, (3, 3, 3))
    assert conditional_entropy(chain) == pytest.approx(oracle_cond_entropy(chain),
                                                       abs=1e-12)


def test_mi_identical_rows_zero():
    prior = ProbVector([0.3, 0.7])
    channel = np.array([[0.2, 0.8], [0.2, 0.8]])
    assert mutual_information_exact(prior, channel) == pytest.approx(0.0, abs=1e-15)


def test_mi_noiseless_uniform():
    k = 5
    assert mutual_information_exact(ProbVector.uniform(k), np.eye(k)) == pytest.approx(
        math.log(k), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_mi_matches_oracle(seed):
    chain = random_chain(seed, (4, 5, 2))
    got = mutual_information_exact(chain.prior, chain.channel)
    want = oracle_mi(chain.prior.p.tolist(), chain.channel.tolist())
    assert got == pytest.approx(want, abs=1e-12)
    assert 0 <= got <= min(entropy(chain.prior), math.log(5)) + 1e-12


@pytest.mark.parametrize("seed", range(50))
def test_data_processing(seed):
    """I(V; Vhat) never exceeds I(V; X) on exactly-enumerated chains."""
    chain = random_chain(seed, (3, 4, 3))
    assert mutual_information_v_vhat(chain) <= \
        mutual_information_exact(chain.prior, chain.channel) + 1e-12


# -- Gaussian KL and the pairwise MI bound ------------------------------------


def test_kl_gaussian_zero():
    assert kl_gaussian_shared_cov([1.0, 2.0], [1.0, 2.0], 3.0) == 0.0


def test_kl_gaussian_hand_value():
    # ||(1,-1)||^2 / (2*2) = 2/4
    assert kl_gaussian_shared_cov([1.0, 0.0], [0.0, 1.0], 2.0) == pytest.approx(0.5, rel=0)


def test_kl_gaussian_scaled_means():
    eps = 0.37
    v = np.array([1.0, 0.0, -1.0])
    w = np.array([0.0, 1.0, -1.0])
    want = eps**2 * float((v - w) @ (v - w)) / 2.0
    assert kl_gaussian_shared_cov(eps * v, eps * w, 1.0) == pytest.approx(want, rel=1e-14)


def test_kl_gaussian_dimension_mismatch():
    with pytest.raises(DomainError):
        kl_gaussian_shared_cov([1.0], [1.0, 2.0], 1.0)


def test_kl_gaussian_scaling_exact_power_of_two():
    # 1/sigma2 scaling is exact in IEEE arithmetic for power-of-two factors
    mu1, mu2 = np.array([0.3, -1.7, 2.2]), np.array([1.1, 0.4, -0.9])
    base = kl_gaussian_shared_cov(mu1, mu2, 1.3)
    for c in (2.0, 4.0, 8.0):
        assert kl_gaussian_shared_cov(mu1, mu2, c * 1.3) == base / c


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_kl_gaussian_scaling_general(c):
    mu1, mu2 = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
    got = kl_gaussian_shared_cov(mu1, mu2, c * 0.7)
    want = kl_gaussian_shared_cov(mu1, mu2, 0.7) / c
    assert got == pytest.approx(want, rel=1e-12)


def test_mi_pairwise_single_mean():
    assert mi_pairwise_kl_bound([[1.0, 2.0]], 1.0, 5) == 0.0


def test_mi_pairwise_two_symmetric_means():
    # means +-eps in 1-d: KL pairs {0, 0, 2 eps^2, 2 eps^2}, average eps^2
    eps = 0.4
    assert mi_pairwise_kl_bound([[eps], [-eps]], 1.0, 1) == pytest.approx(
        eps * eps, rel=1e-14)


def test_mi_pairwise_sparse_sign_family():
    """Scaled sparse sign means give exactly n * s * eps^2 (sigma2 = 1)."""
    from fanolab.discrete import sparse_sign_space

    d, s, n, eps = 6, 2, 7, 0.3
    means = eps * sparse_sign_space(d, s).vectors.astype(float)
    got = mi_pairwise_kl_bound(means, 1.0, n)
    assert got == pytest.approx(n * s * eps**2, rel=1e-12)
    assert got == pytest.approx(oracle_pairwise_kl(means, 1.0, n), rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_mi_pairwise_matches_double_sum(seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    means = g.normal(size=(6, 3))
    got = mi_pairwise_kl_bound(means, 0.8, 3)
    assert got == pytest.approx(oracle_pairwise_kl(means, 0.8, 3), rel=1e-11)


@pytest.mark.parametrize("means, sigma2, name", [
    ([[math.inf], [0.0]], 1.0, "means"),
    ([[math.nan], [0.0]], 1.0, "means"),
    ([[1.0, -math.inf]], 1.0, "means"),
    ([[1.0], [0.0]], math.inf, "sigma2"),
    ([[1.0], [0.0]], math.nan, "sigma2"),
    ([[1.0], [0.0]], 0.0, "sigma2"),
    ([[1e200], [0.0]], 1.0, "means"),
    ([[1e160], [0.0]], 1.0, "means"),
])
def test_mi_pairwise_refuses_non_finite(means, sigma2, name):
    """inf - inf in the collapsed form is NaN, which the clamp would turn
    into a silently wrong 0; such input, or finite means whose squares
    overflow into it, is refused instead."""
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        mi_pairwise_kl_bound(means, sigma2, 1)


@pytest.mark.parametrize("fn, args, name", [
    (kl_gaussian_shared_cov, ([math.nan], [0.0], 1.0), "mu1"),
    (kl_gaussian_shared_cov, ([0.0], [math.inf], 1.0), "mu2"),
    (kl_gaussian_shared_cov, ([1.0], [0.0], math.inf), "sigma2"),
    (kl_gaussian_shared_cov, ([1.0], [0.0], math.nan), "sigma2"),
    (clopper_pearson, (1, 2, math.nan), "confidence"),
    (clopper_pearson, (1, 2, 0.0), "confidence"),
    (clopper_pearson, (1, 2, 1.0), "confidence"),
    (clopper_pearson, (0, 2, 1.5), "confidence"),
    # a row's id carries its position (argsN), so removed rows are replaced in place
    (ball_volume_ratio_analytic, (math.nan, 1.0, 2), "r"),
    (ball_volume_ratio_analytic, (2.0, math.inf, 2), "t"),
    (ball_volume_ratio_analytic, (2.0, 1.0, math.inf), "d"),
    (ball_volume_ratio_analytic, (2.0, 1.0, 10**400), "d"),
    (DiscreteSpace.hamming, (np.broadcast_to(np.int8(0), (3, 2**24 + 1)),), "d"),
    (normal_mean_tail_integral, (2, 10**400), "n"),
    (normal_mean_tail_integral, (10**400, 2), "d"),
    (normal_mean_tail_integral, (1000, 1), "d"),
    (normal_mean_tail_integral_floor, (2, 10**400), "n"),
    (normal_mean_tail_integral_floor, (10**400, 2), "d"),
    (normal_mean_bound, (10**200, 1.0, 1), "d"),
    (normal_mean_bound, (10**400, 1.0, 1, "simple"), "d"),
    (normal_mean_bound, (2, 1.0, 10**400, "simple"), "n"),
    (hard_threshold, (np.array([0.5, -2.0]), math.nan), "tau"),
    (hard_threshold, (np.array([0.5, -2.0]), -math.inf), "tau"),
    (hard_threshold, (np.array([0.5, -2.0]), math.inf), "tau"),
    (hard_threshold, (np.array([0.5, -2.0]), 10**400), "tau"),
    (l2_ball_space, (2, math.inf), "r"),
    (box_space, ([0.0, 0.0], [math.inf, 1.0]), "hi"),
    (box_space, ([-math.inf, 0.0], [1.0, 1.0]), "lo"),
    (mean_ci, ([1.0, 2.0], 1.0), "confidence"),
    (mean_ci, ([1.0, 2.0], math.nan), "confidence"),
    (clopper_pearson, (1.5, 4), "k"),
    (clopper_pearson, (1, 4.0), "n"),
    (clopper_pearson, (5, 4), "k"),
    (clopper_pearson, (-1, 4), "k"),
    (clopper_pearson, (0, 0), "n"),
    (clopper_pearson, (1, 10**400), "n"),
    (mean_ci, ([],), "values"),
    (mean_ci, ([1.0, math.inf],), "values"),
    (clopper_pearson, (1, 10**155), "n"),
    (clopper_pearson, (5, 10**155), "n"),
    (clopper_pearson, (5, 10**300), "n"),
    (box_space, ([], []), "dim"),
    (ball_volume_ratio_analytic, (2.0, 5e-324, 2), "t"),
    (ball_volume_ratio_analytic, (math.inf, 1.0, 2), "r"),
    (hinge_integral, (1e308, 1.0), "c1"),
    (kl_gaussian_shared_cov, ([0.0], [1.0], 5e-324), "sigma2"),
    (mi_pairwise_kl_bound, ([[0.0], [1.0]], 1.0, math.inf), "n_samples"),
    (sparse_location_bound, (math.inf, 2, 1.0, 10), "d"),
    (normal_mean_bound, (5, 10**400, 10), "sigma2"),
    (neighborhood_sizes, (DiscreteSpace.zero_one(3), 10**400), "t"),
    (fano_tail_lower_bound, (10**400, NeighborhoodProfile(0.0, 1, 1), 0.0), "card"),
    (stream, (1, math.nan), "stream_id"),
    (mc_volume_ratio, (box_space([-1e200, -1e200], [1e200, 1e200]), 1.0), "space"),
    (mc_volume_ratio, (box_space([0.0, 0.0], [1e-200, 1e-200]), 1e-201), "space"),
    (mc_volume_ratio, (l2_ball_space(2, 1e308), 1.0), "space"),
    (mc_volume_ratio, (l2_ball_space(2, 5e-324), 5e-324), "space"),
    (mi_pairwise_kl_bound_discrete, ([[0.5, 0.5], [1e-300, 1 - 1e-300]], 1e308), "n_samples"),
    # NaN probabilities, which every rule on probability rows let through
    (ProbVector, ([math.nan, 0.5],), "p"),
    (MarkovChainSpec, (ProbVector.uniform(2), _NAN_ROWS, np.eye(2)), "channel"),
    (MarkovChainSpec, (ProbVector.uniform(2), np.eye(2), _NAN_ROWS), "decoder"),
    (mutual_information_exact, (ProbVector.uniform(2), _NAN_ROWS), "channel"),
    (mi_pairwise_kl_bound_discrete, (_NAN_ROWS,), "rows"),
    (OracleGroup, (0, _G.index, _G.t, _NAN_PRIOR, _G.channel, _G.decoder, _G.dist), "prior"),
    # a block is an index
    (OracleGroup, (1.5, _G.index, _G.t, _G.prior, _G.channel, _G.decoder, _G.dist), "block"),
    (OracleGroup, (-3, _G.index, _G.t, _G.prior, _G.channel, _G.decoder, _G.dist), "block"),
    # counts are whole numbers
    (ball_volume_ratio_analytic, (2.0, 1.0, 1.5), "d"),
    (fano_tail_lower_bound, (6.5, NeighborhoodProfile(0.0, 1, 1), 0.0), "card"),
    (NeighborhoodProfile, (0.0, 2.5, 1), "n_max"),
    (NeighborhoodProfile, (0.0, 3, 1.5), "n_min"),
    (GridPartition, (3, 0.125, 10.5, 2.5), "cell_count"),
    # a point index lies in [0, n)
    (DiscreteSpace.zero_one(3).rho_index, (-1, 0), "i"),
    (DiscreteSpace.zero_one(3).rho_index, (0, 5), "j"),
    (DiscreteSpace.zero_one(3).rho_index, (0.5, 0), "i"),
    (_HAMMING_3.rho_index, (-1, 0), "i"),
    (_HAMMING_3.rho_index, (5, 0), "i"),
    (_HAMMING_3.rho_index, (0, 0.5), "j"),
    # the Gaussian-mean pipelines' dimension and sample counts are whole numbers
    (normal_mean_bound, (2.5, 1.0, 10), "d"),
    (normal_mean_bound, (3, 1.0, 10.5), "n"),
    (sparse_location_bound, (8, 2, 1.0, 5.5), "n"),
    (normal_mean_tail_integral, (2.5, 3), "d"),
    (normal_mean_tail_integral_floor, (2.5, 3), "d"),
    # a grid level and a sample count are whole numbers
    (grid_partition_counts, (l2_ball_space(2, 1.0), 0.5, 1.5), "level"),
    (GridPartition, (1.5, 0.125, 10, 2), "level"),
    (mi_pairwise_kl_bound, ([[0.0], [1.0]], 1.0, 1.5), "n_samples"),
    (mi_pairwise_kl_bound_discrete, ([[0.5, 0.5], [0.25, 0.75]], 1.5), "n_samples"),
    # a volume ratio's sup comes from a declared maximizer, never a sampled center
    (mc_volume_ratio, (dataclasses.replace(l2_ball_space(2, 1.0), sup_center=None), 0.5),
     "sup_center"),
    # a declared maximizer is a finite point, and the norm one of the two
    (ContinuumSpace, (2, _DISK.contains, _DISK.bounding_box, "l2", [math.nan, 0.0]), "sup_center"),
    (ContinuumSpace, (2, _DISK.contains, _DISK.bounding_box, "l2", [0.0, math.inf]), "sup_center"),
    (ContinuumSpace, (2, _DISK.contains, _DISK.bounding_box, "l1"), "metric"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_out_of_domain_input_is_refused_naming_the_argument(fn, args, name):
    """Each of these returned NaN, +-inf, a wrong 0.0 or (nan, nan), zeroed
    every entry, built a space of infinite extent or of no axes, escaped with an
    OverflowError or a bare ValueError, returned an interval for a
    fractional count, returned a mean and interval for no values, computed
    on NaN probabilities (ProbVector([nan, 0.5]) had entropy 0.3466), took
    a fractional or negative block index, gave a Hamming distance matrix
    past 2**24 coordinates whose float32 counts had rounded, took a
    fractional count (ball_volume_ratio_analytic(2.0, 1.0, 1.5) was 2.828,
    normal_mean_bound(2.5, 1.0, 10) was 0.0156, grid_partition_counts at level
    1.5 counted 32 cells), read a point index
    outside [0, n) (rho_index(-1, 0) wrapped to the last point), took a
    volume ratio's sup from sampled centers alone, or estimated it around a
    non-finite declared center (NaN ended in "no draw landed in the declared
    ball", inf in "the declared ball misses the bounding box")."""
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        fn(*args)


# The values both routes of a real domain must agree on: Python, numpy and
# other real types, signed zeros and infinities, NaN, the largest finite
# float, and an int past float64, which each route refuses as too large.
ROUTE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, 2**1024, True,
                np.float64(0.5), np.int64(3), Fraction(3, 2), Decimal("0.25"))
REAL_DOMAINS = [name for name, test in info._DOMAINS.items()
                if test.__qualname__.startswith("_reals")]


def _outcome(domain, value):
    try:
        info._require(domain, x=value)
    except DomainError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("domain", REAL_DOMAINS)
def test_scalar_and_array_routes_of_a_real_domain_agree(domain, monkeypatch):
    """_require tests a Python int or float with plain comparisons and any
    other value through numpy; forced onto either route, every value gets the
    same verdict and the same refusal."""
    monkeypatch.setattr(info, "_SCALARS", (object,))
    scalar = [_outcome(domain, v) for v in ROUTE_VALUES]
    monkeypatch.setattr(info, "_SCALARS", ())
    array = [_outcome(domain, v) for v in ROUTE_VALUES]
    assert scalar == array
    assert scalar[ROUTE_VALUES.index(2**1024)] == "x is too large for float64"


def test_integer_too_large_for_float64_is_not_called_infinite():
    with pytest.raises(DomainError, match="d is too large for float64"):
        normal_mean_bound(10**400, 1.0, 1, "simple")
    with pytest.raises(DomainError, match="d is too large for float64"):
        normal_mean_tail_integral(10**400, 1)


@pytest.mark.parametrize("seed", range(20))
def test_pairwise_bound_dominates_exact_mi_discrete(seed):
    """Convexity bound >= exact MI on finite channels with uniform prior."""
    chain = random_chain(seed, (4, 4, 2))
    exact = mutual_information_exact(ProbVector.uniform(4), chain.channel)
    bound = mi_pairwise_kl_bound_discrete(chain.channel, 1)
    assert bound >= exact - 1e-12


def oracle_pairwise_kl_discrete(rows, n):
    """n * (1/M^2) * sum over all ordered row pairs of kl_discrete."""
    dists = [ProbVector(r) for r in rows]
    total = sum(kl_discrete(p, q) for p in dists for q in dists)
    return n * total / len(dists) ** 2


@pytest.mark.parametrize("seed", range(6))
def test_mi_pairwise_discrete_matches_double_loop(seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    m, k = int(g.integers(2, 40)), int(g.integers(2, 12))
    rows = g.dirichlet(np.full(k, 0.7), size=m)
    got = mi_pairwise_kl_bound_discrete(rows, 3)
    assert got == pytest.approx(oracle_pairwise_kl_discrete(rows, 3), rel=1e-12)


def test_mi_pairwise_discrete_support_mismatch_is_infinite():
    rows = [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.1, 0.9, 0.0]]
    assert mi_pairwise_kl_bound_discrete(rows, 2) == math.inf
    assert oracle_pairwise_kl_discrete(rows, 2) == math.inf


def test_mi_pairwise_discrete_all_zero_column_is_finite():
    rows = [[0.5, 0.0, 0.5], [0.25, 0.0, 0.75], [0.9, 0.0, 0.1]]
    got = mi_pairwise_kl_bound_discrete(rows, 2)
    assert math.isfinite(got) and got > 0
    assert got == pytest.approx(oracle_pairwise_kl_discrete(rows, 2), rel=1e-12)
    assert mi_pairwise_kl_bound_discrete([[0.0, 1.0], [0.0, 1.0]]) == 0.0


def test_kl_discrete_infinite_on_support_mismatch():
    p = ProbVector([0.5, 0.5, 0.0])
    q = ProbVector([1.0, 0.0, 0.0])
    assert kl_discrete(p, q) == math.inf
    assert kl_discrete(q, p) < math.inf


def test_chain_validation():
    with pytest.raises(DomainError):
        MarkovChainSpec(prior=ProbVector([1.0]), channel=np.eye(1), decoder=np.eye(1))
    with pytest.raises(DomainError):
        MarkovChainSpec(prior=ProbVector.uniform(2),
                        channel=np.array([[0.6, 0.5], [0.5, 0.5]]), decoder=np.eye(2))


def test_joint_enumeration_cutoff():
    from fanolab.info import EnumerationLimitError

    k = 300  # 300^3 = 2.7e7 > the 1e7 exact-enumeration cutoff
    chain = MarkovChainSpec(prior=ProbVector.uniform(k),
                            channel=np.full((k, k), 1.0 / k),
                            decoder=np.full((k, k), 1.0 / k))
    with pytest.raises(EnumerationLimitError):
        conditional_entropy(chain)
