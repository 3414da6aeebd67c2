"""Neighborhood counting and the distance-based Fano forms."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolab.discrete import (
    DiscreteSpace,
    NeighborhoodProfile,
    chain_tail,
    fano_conditional_form,
    fano_inequality_sides,
    fano_tail_lower_bound,
    neighborhood_sizes,
    sparse_sign_cardinality,
    sparse_sign_neighborhood_exact,
    sparse_sign_space,
)
from fanolab.info import (
    DomainError,
    EnumerationLimitError,
    binary_entropy,
    entropy,
    mutual_information_exact,
)
from oracles import enumerate_decoders_min_tail, random_chain, random_symmetric_space

LN2 = math.log(2.0)


# -- oracles ------------------------------------------------------------------


def oracle_neighborhoods(points, rho, t):
    counts = [sum(1 for q in points if rho(p, q) <= t) for p in points]
    return max(counts), min(counts)


def oracle_sparse_sign_points(d, s):
    out = set()
    for support in itertools.combinations(range(d), s):
        for signs in itertools.product((-1, 1), repeat=s):
            v = [0] * d
            for j, sg in zip(support, signs):
                v[j] = sg
            out.add(tuple(v))
    return out


def hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


# -- spaces and neighborhood sizes ---------------------------------------------


def test_zero_one_radius_zero():
    prof = neighborhood_sizes(DiscreteSpace.zero_one(5), 0.0)
    assert prof.n_max == prof.n_min == 1


def test_hypercube_hamming_radius_one():
    pts = np.array(list(itertools.product((0, 1), repeat=2)), dtype=np.int8)
    space = DiscreteSpace.hamming(pts)
    prof = neighborhood_sizes(space, 1.0)
    want = oracle_neighborhoods([tuple(p) for p in pts], hamming, 1)
    assert (prof.n_max, prof.n_min) == want == (3, 3)


def test_sparse_d3_s1_radius_one():
    prof = neighborhood_sizes(sparse_sign_space(3, 1), 1.0)
    pts = sorted(oracle_sparse_sign_points(3, 1))
    assert (prof.n_max, prof.n_min) == oracle_neighborhoods(pts, hamming, 1) == (2, 2)


def test_generic_callable_space_matches_oracle():
    pts = [(0.0,), (1.5,), (2.0,), (5.0,)]
    rho = lambda a, b: abs(a[0] - b[0])
    space = DiscreteSpace(pts, rho)
    for t in (0.0, 0.5, 1.6, 3.0, 10.0):
        prof = neighborhood_sizes(space, t)
        assert (prof.n_max, prof.n_min) == oracle_neighborhoods(pts, rho, t)


def test_homogeneous_flag_agrees_with_full_enumeration():
    for d, s in [(4, 2), (5, 3), (6, 2)]:
        space = sparse_sign_space(d, s)  # flagged homogeneous
        generic = DiscreteSpace.hamming(space.vectors)  # full scan
        for t in (0.0, 1.0, 2.0):
            a = neighborhood_sizes(space, t)
            b = neighborhood_sizes(generic, t)
            assert (a.n_max, a.n_min) == (b.n_max, b.n_min)
            assert b.n_max == b.n_min  # transitivity claim, checked exhaustively


def test_homogeneous_only_from_proving_constructors():
    vectors = sparse_sign_space(4, 2).vectors
    assert not DiscreteSpace.hamming(vectors).homogeneous
    assert not DiscreteSpace([(0,), (1,)], hamming).homogeneous
    assert DiscreteSpace.zero_one(3).homogeneous
    with pytest.raises(TypeError):
        DiscreteSpace.hamming(vectors, homogeneous=True)


@pytest.mark.parametrize("vectors", [
    [[0.5], [0.0]],            # non-integer: would merge with 0
    [[300], [44]],             # above 127: would wrap to 44
    [[-129], [0]],             # below -128
    [[math.nan], [0.0]],
    [[math.inf], [0.0]],
], ids=["fraction", "wraps", "below-range", "nan", "inf"])
def test_hamming_refuses_entries_lost_in_int8(vectors):
    with pytest.raises(DomainError, match="integers in \\[-128, 127\\]"):
        DiscreteSpace.hamming(vectors)


def test_hamming_refuses_more_coordinates_than_float32_counts_exactly():
    """Past 2**24 coordinates the one-hot float32 counts of equal
    coordinates round, and distance_matrix() gave 0.0 where rho_index
    gave 1.0. The refusal comes before the int8 copy, so a zero-strided
    view allocates nothing."""
    wide = np.broadcast_to(np.int8(0), (3, 2**24 + 1))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"\bd=16777217\b"):
            DiscreteSpace.hamming(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hamming_keeps_exact_int8_entries():
    space = DiscreteSpace.hamming([[-128.0, 127.0], [1, 0], [True, False]])
    assert space.vectors.tolist() == [[-128, 127], [1, 0], [1, 0]]
    assert space.rho_index(1, 2) == 0.0


def test_asymmetric_rho_rejected():
    with pytest.raises(DomainError):
        DiscreteSpace([(0,), (1,)], lambda a, b: float(a[0] - b[0]))
    with pytest.raises(DomainError):
        DiscreteSpace.from_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("pair", [(0, 1), (597, 599)])
def test_asymmetric_pair_named_in_a_large_callable_space(pair):
    """Every pair is checked, not a sample: one asymmetric pair among
    600 points is found and named, with plain float values."""
    i, j = pair

    def rho(a, b):
        return {(i, j): 0.5, (j, i): 1.0}.get((a, b), float(abs(a - b)))

    want = f"rho(p{i}, p{j}) = 0.5 but rho(p{j}, p{i}) = 1.0"
    with pytest.raises(DomainError, match=re.escape(want)):
        DiscreteSpace(range(600), rho)


def test_callable_rho_evaluated_once_per_pair_into_a_read_only_matrix():
    calls = []

    def rho(a, b):
        calls.append((a, b))
        return float(abs(a - b))

    space = DiscreteSpace(range(7), rho)
    assert sorted(calls) == [(a, b) for a in range(7) for b in range(7)]
    neighborhood_sizes(space, 1.0)
    space.rho_index(2, 5)
    assert len(calls) == 49
    m = space.distance_matrix()
    assert m.dtype == np.float64 and not m.flags.writeable
    assert m.tolist() == [[float(abs(a - b)) for b in range(7)] for a in range(7)]
    assert set(vars(space)) == {"_matrix", "_vectors"} and space.vectors is None


def test_hamming_space_holds_only_read_only_int8_vectors():
    space = DiscreteSpace.hamming([[0, 1], [1, 1], [1, 0]])
    assert space.vectors.dtype == np.int8 and not space.vectors.flags.writeable
    assert set(vars(space)) == {"_matrix", "_vectors"} and space._matrix is None


def test_callable_space_above_matrix_cutoff_refused_before_any_rho_call():
    calls = []
    with pytest.raises(EnumerationLimitError, match="3163 points"):
        DiscreteSpace(range(3163), lambda a, b: calls.append(1) or 0.0)
    assert not calls


@pytest.mark.parametrize("matrix", [
    [[math.nan, 1.0], [1.0, 0.0]],
    [[0.0, math.nan], [math.nan, 0.0]],
], ids=["diagonal", "off-diagonal"])
def test_nan_distance_refused(matrix):
    with pytest.raises(DomainError, match="rho must not be NaN"):
        DiscreteSpace.from_matrix(matrix)


# (n, d, values): random Hamming spaces over 2-5 distinct int8 values, and
# one without coordinates. At n = 1025 the full scan's last block of centers
# is a single center, so the one-center comparison and the one-hot block
# matmul both meet the oracle.
HAMMING_SPACES = [
    (5, 0, (0, 1)),
    (2, 1, (0, 1)),
    (9, 4, (-1, 0, 1)),
    (40, 6, (-128, 5, 127)),
    (300, 3, (-2, -1, 0, 1, 2)),
    (1025, 5, (-3, 4, 7, -100)),
]


@pytest.mark.parametrize("n, d, values", HAMMING_SPACES,
                         ids=[f"n{n}-d{d}-k{len(v)}" for n, d, v in HAMMING_SPACES])
def test_hamming_counts_match_the_oracle_on_both_routes(n, d, values):
    g = np.random.Generator(np.random.Philox(key=n))
    vectors = np.array(values, dtype=np.int8)[g.integers(len(values), size=(n, d))]
    space = DiscreteSpace.hamming(vectors)
    table = (vectors[:, None, :] != vectors[None, :, :]).sum(axis=2).tolist()
    for t in (0, 0.5, 1, 2.5, d, d + 0.5, 1e308):
        prof = neighborhood_sizes(space, t)
        want = oracle_neighborhoods(range(n), lambda i, j: table[i][j], t)
        assert (prof.n_max, prof.n_min) == want, t
    with pytest.raises(DomainError, match="every neighborhood is empty"):
        neighborhood_sizes(space, -0.5)


def test_one_center_scan_builds_no_onehot_table():
    """A homogeneous space scans one center, which is compared with every
    vector directly. Routed through the one-hot table, this scan of 8200
    points in 4100 coordinates took 482 MiB; the comparison takes 32 MiB."""
    space = sparse_sign_space(4100, 1)
    tracemalloc.start()
    try:
        prof = neighborhood_sizes(space, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prof.n_max, prof.n_min) == (2, 2)
    assert "_onehot" not in vars(space)
    assert peak < 64 << 20, f"{peak} bytes traced"


def test_monotone_in_t():
    space = random_symmetric_space(11, 6)
    profs = [neighborhood_sizes(space, t) for t in (0.0, 0.3, 0.8, 1.5, 2.5)]
    for a, b in zip(profs, profs[1:]):
        assert b.n_max >= a.n_max
        assert b.n_min >= a.n_min


# -- sparse sign spaces ---------------------------------------------------------


def test_sparse_sign_cardinalities():
    assert sparse_sign_space(4, 2).n_points == sparse_sign_cardinality(4, 2) == 24
    assert sparse_sign_space(3, 3).n_points == 8
    got = {tuple(v) for v in sparse_sign_space(4, 2).vectors.tolist()}
    assert got == oracle_sparse_sign_points(4, 2)


def test_sparse_sign_d1_s1():
    assert {tuple(v) for v in sparse_sign_space(1, 1).vectors.tolist()} == {(-1,), (1,)}


def test_sparse_sign_invalid():
    with pytest.raises(DomainError):
        sparse_sign_space(3, 0)
    with pytest.raises(DomainError):
        sparse_sign_cardinality(2, 3)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_sparse_neighborhood_exact_refuses_non_finite_t(t):
    with pytest.raises(DomainError, match="t="):
        sparse_sign_neighborhood_exact(8, 2, t)


_TWO_POINT = DiscreteSpace.from_matrix([[0.0, 0.5], [0.5, 0.0]])


@pytest.mark.parametrize("space", [DiscreteSpace.zero_one(4), _TWO_POINT],
                         ids=["zero-one", "matrix"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_neighborhood_sizes_refuses_non_finite_t(space, t):
    with pytest.raises(DomainError, match=r"t must be finite, got t="):
        neighborhood_sizes(space, t)


@pytest.mark.parametrize("space", [DiscreteSpace.zero_one(4), _TWO_POINT],
                         ids=["zero-one", "matrix"])
def test_neighborhood_sizes_refuses_empty_neighborhoods(space):
    with pytest.raises(DomainError, match=r"empty at radius t=-0\.1"):
        neighborhood_sizes(space, -0.1)


def neighborhood_ceiling(d, s):
    """Radius t = floor(s/4) and the combinatorial ceiling ceil(s/4) 2^t C(d, t)
    on the s-sparse sign space's largest neighborhood at t."""
    t = s // 4
    return t, math.ceil(s / 4) * 2**t * math.comb(d, t)


def test_neighborhood_upper_checks_ceiling_at_every_size():
    """The ceiling holds against the exact count even where the space is far
    too large to materialize."""
    assert neighborhood_ceiling(200, 12) == (3, 3 * 8 * math.comb(200, 3))
    for d, s in [(200, 12), (50, 5), (1000, 40)]:
        t, ceiling = neighborhood_ceiling(d, s)
        assert sparse_sign_neighborhood_exact(d, s, t) <= ceiling


def test_neighborhood_upper_examples():
    assert neighborhood_ceiling(8, 4) == (1, 16)
    assert neighborhood_ceiling(5, 1) == (0, 1)
    assert neighborhood_ceiling(16, 8) == (2, 960)
    # the exact counts, by hand: 1 + 4, 1, and 1 + 8 + 28 + 8 * 8 * 2
    for (d, s), want in {(8, 4): 5, (5, 1): 1, (16, 8): 165}.items():
        t, ceiling = neighborhood_ceiling(d, s)
        assert sparse_sign_neighborhood_exact(d, s, t) == want <= ceiling


@pytest.mark.parametrize("d", range(2, 8))
def test_neighborhood_upper_dominates_exact(d):
    for s in range(1, d + 1):
        t, bound = neighborhood_ceiling(d, s)
        exact = neighborhood_sizes(sparse_sign_space(d, s), t).n_max
        assert exact <= bound


# -- inequality sides ------------------------------------------------------------


def test_sides_identity_chain_zero_zero():
    from fanolab.info import MarkovChainSpec, ProbVector

    k = 3
    chain = MarkovChainSpec(prior=ProbVector.uniform(k), channel=np.eye(k),
                            decoder=np.eye(k))
    lhs, rhs = fano_inequality_sides(chain, DiscreteSpace.zero_one(k), 0.0)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(30))
def test_sides_reduce_to_classical_at_t0(seed):
    """0-1 metric, t=0: the lhs equals the classical form to 1e-12."""
    chain = random_chain(seed, (4, 3, 4))
    space = DiscreteSpace.zero_one(4)
    lhs, _ = fano_inequality_sides(chain, space, 0.0)
    joint = chain.joint_v_vhat()
    p_err = 1.0 - float(np.trace(joint))
    classical = binary_entropy(p_err) + p_err * math.log(4 - 1)
    assert lhs == pytest.approx(classical, abs=1e-12)


@pytest.mark.parametrize("seed", range(200))
def test_sides_inequality_random_spaces(seed):
    """lhs >= rhs on random 4-point spaces with random rho and random t."""
    chain = random_chain(seed, (4, 4, 4))
    space = random_symmetric_space(seed, 4)
    g = np.random.Generator(np.random.Philox(key=seed))
    t = float(g.uniform(0, 2.2))
    lhs, rhs = fano_inequality_sides(chain, space, t)
    assert lhs >= rhs - 1e-9


def test_sides_alphabet_mismatch():
    chain = random_chain(0, (3, 3, 3))
    with pytest.raises(DomainError):
        fano_inequality_sides(chain, DiscreteSpace.zero_one(4), 0.0)


def oracle_chain_tail(chain, space, t):
    """P(rho(Vhat, V) > t) by a loop over the pairs (v, vhat) and the x between."""
    k = space.n_points
    total = 0.0
    for v, vhat in itertools.product(range(k), repeat=2):
        if space.rho_index(vhat, v) > t:
            total += sum(chain.prior.p[v] * chain.channel[v, x] * chain.decoder[x, vhat]
                         for x in range(chain.n_x))
    return total


@pytest.mark.parametrize("seed, sizes", [(0, (3, 2, 3)), (1, (4, 4, 4)), (2, (5, 3, 5)),
                                         (3, (2, 5, 2)), (4, (6, 6, 6))])
def test_chain_tail_matches_pair_loop(seed, sizes):
    chain = random_chain(seed, sizes)
    space = random_symmetric_space(seed, sizes[0])
    # every distance of the space is a radius too, where the strict > matters
    radii = [0.0, 0.5, 1.0, 2.5] + space.distance_matrix().ravel().tolist()
    for t in radii:
        assert chain_tail(chain, space, t) == pytest.approx(
            oracle_chain_tail(chain, space, t), rel=1e-12, abs=1e-15)
    # with every distance below 2.5 no pair misses, and at t = -1 every pair does
    assert chain_tail(chain, space, 2.5) == 0.0
    assert chain_tail(chain, space, -1.0) == pytest.approx(1.0, rel=1e-12)


def test_chain_tail_identity_chain_never_misses():
    from fanolab.info import MarkovChainSpec, ProbVector

    k = 4
    chain = MarkovChainSpec(prior=ProbVector(np.array([0.1, 0.2, 0.3, 0.4])),
                            channel=np.eye(k), decoder=np.eye(k))
    for space in (DiscreteSpace.zero_one(k), random_symmetric_space(3, k)):
        for t in (0.0, 1e-300, 0.5, 1.0, 7.0):
            assert chain_tail(chain, space, t) == 0.0


def test_fano_sides_take_the_tail_from_chain_tail(monkeypatch):
    import fanolab.discrete as discrete

    chain = random_chain(5, (4, 3, 4))
    space = random_symmetric_space(5, 4)
    seen = []

    def spy(*args):
        seen.append(chain_tail(*args))
        return seen[-1]

    monkeypatch.setattr(discrete, "chain_tail", spy)
    lhs, _ = fano_inequality_sides(chain, space, 0.7)
    assert seen == [chain_tail(chain, space, 0.7)]
    p_t, prof = seen[0], neighborhood_sizes(space, 0.7)
    assert lhs == (binary_entropy(p_t) + p_t * math.log((4 - prof.n_min) / prof.n_max)
                   + math.log(prof.n_max))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_chain_tail_refuses_a_non_finite_radius(t):
    chain = random_chain(0, (3, 3, 3))
    with pytest.raises(DomainError, match=r"\bt\b"):
        chain_tail(chain, random_symmetric_space(0, 3), t)


# -- tail and conditional forms ---------------------------------------------------


def test_tail_bound_six_points():
    prof = NeighborhoodProfile(t=1.0, n_max=2, n_min=2)
    res = fano_tail_lower_bound(6, prof, 0.0)
    # 1 - ln2/ln3, mpmath at 50 digits
    assert res.value == pytest.approx(0.3690702464285425629, rel=1e-15)
    assert res.valid


def test_tail_bound_clamps_to_zero_when_vacuous():
    prof = NeighborhoodProfile(t=1.0, n_max=2, n_min=2)
    res = fano_tail_lower_bound(6, prof, 10.0)
    assert res.value == 0.0
    assert res.valid  # vacuous, not inapplicable


def test_tail_bound_card2_matches_classical_value_but_fails_side_condition():
    prof = NeighborhoodProfile(t=0.0, n_max=1, n_min=1)
    res = fano_tail_lower_bound(2, prof, 0.0)
    assert res.value == 0.0  # 1 - ln2/ln2
    assert not res.valid  # (card - n_min) > n_max fails at card=2


def test_tail_bound_invalid_when_log_ratio_nonpositive():
    prof = NeighborhoodProfile(t=1.0, n_max=4, n_min=2)
    res = fano_tail_lower_bound(4, prof, 0.0)
    assert res.value == 0.0
    assert not res.valid


@pytest.mark.parametrize("mi", [math.nan, math.inf])
def test_tail_bound_rejects_non_finite_mi(mi):
    prof = NeighborhoodProfile(t=1.0, n_max=2, n_min=2)
    with pytest.raises(DomainError, match=r"\bmi\b"):
        fano_tail_lower_bound(6, prof, mi)


def test_profile_rejects_n_max_below_one():
    with pytest.raises(DomainError, match="n_max"):
        NeighborhoodProfile(t=0.0, n_max=0, n_min=0)


def test_tail_bounds_reject_n_max_above_card():
    prof = NeighborhoodProfile(t=1.0, n_max=7, n_min=1)
    with pytest.raises(DomainError, match="n_max"):
        fano_tail_lower_bound(6, prof, 0.0)
    with pytest.raises(DomainError, match="n_max"):
        fano_conditional_form(1.0, 6, prof)


@given(st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=5))
@settings(max_examples=100, deadline=None)
def test_tail_bound_monotone_in_mi(mi1, mi2):
    prof = NeighborhoodProfile(t=0.0, n_max=2, n_min=1)
    lo, hi = sorted((mi1, mi2))
    assert fano_tail_lower_bound(12, prof, hi).value <= \
        fano_tail_lower_bound(12, prof, lo).value + 1e-15


def test_conditional_form_zero_numerator():
    prof = NeighborhoodProfile(t=0.5, n_max=2, n_min=1)
    res = fano_conditional_form(math.log(2) + LN2, 6, prof)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.valid


def test_conditional_form_consistency_with_tail_route():
    """Uniform V, I=0: the conditional form equals the pre-weakening value
    and dominates the weakened tail form."""
    prof = NeighborhoodProfile(t=1.0, n_max=2, n_min=2)
    cond = fano_conditional_form(math.log(6), 6, prof)
    # ln(6/4)/ln2, mpmath at 50 digits
    assert cond.value == pytest.approx(0.58496250072115618145, rel=1e-14)
    intermediate = (math.log(3) - LN2) / LN2  # ln(card/n_max)/ln B - ln2/ln B at I=0
    assert cond.value == pytest.approx(intermediate, rel=1e-12)
    tail = fano_tail_lower_bound(6, prof, 0.0)
    assert cond.value >= tail.value


def test_conditional_form_invalid_denominator():
    prof = NeighborhoodProfile(t=0.5, n_max=3, n_min=2)
    res = fano_conditional_form(1.0, 5, prof)  # (5-2)/3 = 1 -> ln = 0
    assert not res.valid
    assert res.value == 0.0


@pytest.mark.parametrize("hvx", [math.nan, math.inf])
def test_conditional_form_rejects_non_finite_hvx(hvx):
    prof = NeighborhoodProfile(t=0.5, n_max=2, n_min=1)
    with pytest.raises(DomainError, match="hvx"):
        fano_conditional_form(hvx, 6, prof)


@pytest.mark.parametrize("seed", range(10))
def test_conditional_form_matches_high_precision(seed):
    from mpmath import mp, mpf

    mp.dps = 50
    g = np.random.Generator(np.random.Philox(key=seed))
    card = int(g.integers(4, 30))
    n_min = int(g.integers(1, card // 3 + 1))
    n_max = int(g.integers(n_min, card - n_min))  # keep (card - n_min) > n_max
    if (card - n_min) <= n_max:
        return
    hvx = float(g.uniform(0, math.log(card)))
    res = fano_conditional_form(hvx, card, NeighborhoodProfile(t=1, n_max=n_max, n_min=n_min))
    want = (mpf(hvx) - mp.log(n_max) - mp.log(2)) / mp.log(mpf(card - n_min) / n_max)
    assert res.value == pytest.approx(float(max(want, 0)), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("seed", range(40))
def test_exact_min_decoder_tail_dominates_bounds(seed):
    """Sharpest testable form: best deterministic decoder cannot beat the bounds."""
    chain = random_chain(seed, (4, 3, 4), uniform_prior=True)
    space = random_symmetric_space(seed, 4)
    g = np.random.Generator(np.random.Philox(key=seed + 999))
    t = float(g.uniform(0, 2))
    min_tail = enumerate_decoders_min_tail(chain.prior, chain.channel, space, t)
    prof = neighborhood_sizes(space, t)
    mi = mutual_information_exact(chain.prior, chain.channel)
    assert min_tail >= fano_tail_lower_bound(4, prof, mi).value - 1e-12
    hvx = max(0.0, entropy(chain.prior) - mi)
    assert min_tail >= fano_conditional_form(hvx, 4, prof).value - 1e-12


def test_neighborhood_enumeration_budget():
    from fanolab.info import EnumerationLimitError

    n = 10_100  # a callable space this large is refused before any rho call
    pts = list(range(n))
    with pytest.raises(EnumerationLimitError) as exc:
        neighborhood_sizes(DiscreteSpace(pts, lambda a, b: float(abs(a - b))), 1.0)
    assert "sparse_sign_neighborhood_exact" in str(exc.value)


def test_distance_matrix_guard():
    from fanolab.info import EnumerationLimitError

    n = 4000  # 1.6e7 matrix entries > the 1e7 cache guard
    with pytest.raises(EnumerationLimitError):
        DiscreteSpace(list(range(n)), lambda a, b: float(abs(a - b))).distance_matrix()


def test_sparse_sign_materialization_guard():
    from fanolab.info import EnumerationLimitError

    with pytest.raises(EnumerationLimitError):
        sparse_sign_space(50, 5)  # 32 * C(50,5) = 6.8e7 points
    # counting forms still fine at that size
    assert sparse_sign_cardinality(50, 5) == 2**5 * math.comb(50, 5)
    assert sparse_sign_neighborhood_exact(50, 5, 1) == 1 + 5
