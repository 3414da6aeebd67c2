"""The four bound pipelines, and the generic reduction of tests/oracles.py
that the sparse pipelines are checked against."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from fanolab.discrete import (
    DiscreteSpace,
    _fano_tail,
    neighborhood_sizes,
    sparse_sign_cardinality,
    sparse_sign_neighborhood_exact,
    sparse_sign_space,
)
from fanolab.info import DomainError
from fanolab.lab import ExperimentConfig
from fanolab.minimax import (
    compressed_sensing_bound,
    hinge_integral,
    linear_regression_bound,
    normal_mean_bound,
    normal_mean_tail_integral,
    normal_mean_tail_integral_floor,
    sparse_location_bound,
)
from fanolab.streams import stream
from oracles import (
    ParamFamily,
    generalized_fano_minimax,
    mi_pairwise_kl_bound,
    quadpack_tail_integral,
    reduce_estimator_to_test,
    separation_delta,
)

LN2 = math.log(2.0)


def l2(a, b):
    d = np.asarray(a, float) - np.asarray(b, float)
    return math.sqrt(float(d @ d))


def sparse_family(d, s, eps):
    space = sparse_sign_space(d, s)
    vec = space.vectors.astype(float)
    return ParamFamily(index_space=space, theta_map=lambda i: eps * vec[i],
                       param_metric=l2)


# -- separation -----------------------------------------------------------------


def test_separation_zero_one_is_packing_radius():
    space = DiscreteSpace.zero_one(4)
    thetas = [np.array([0.0]), np.array([2.0]), np.array([5.0]), np.array([9.0])]
    fam = ParamFamily(index_space=space, theta_map=lambda i: thetas[i], param_metric=l2)
    assert separation_delta(fam, 0.0) == pytest.approx(2.0, rel=0)


def test_separation_sparse_d2_s1():
    eps = 0.7
    fam = sparse_family(2, 1, eps)
    # pairs with Hamming distance > 1 differ in both coordinates: sqrt(2)*eps
    assert separation_delta(fam, 1.0) == pytest.approx(math.sqrt(2) * eps, rel=1e-12)


def test_separation_beyond_diameter_infinite():
    fam = sparse_family(2, 1, 1.0)
    assert separation_delta(fam, 10.0) == math.inf


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_separation_refuses_non_finite_t(t):
    with pytest.raises(DomainError, match=r"\bt\b"):
        separation_delta(sparse_family(2, 1, 1.0), t)


def test_separation_exhaustive_oracle():
    fam = sparse_family(3, 2, 1.0)
    space = fam.index_space
    vec = space.vectors.astype(float)
    for t in (0.0, 1.0, 2.0):
        want = math.inf
        for i in range(space.n_points):
            for j in range(space.n_points):
                if i != j and float((vec[i] != vec[j]).sum()) > t:
                    want = min(want, l2(vec[i], vec[j]))
        assert separation_delta(fam, t) == pytest.approx(want, rel=1e-12)


# -- generalized bound ------------------------------------------------------------


def test_generalized_equals_classical_at_t0():
    """t=0, 0-1 metric: the bound is Phi(eps/2)(1 - (I + ln2)/ln M)."""
    space = DiscreteSpace.zero_one(4)
    thetas = [np.array([0.0]), np.array([2.0]), np.array([4.0]), np.array([6.0])]
    fam = ParamFamily(index_space=space, theta_map=lambda i: thetas[i], param_metric=l2)
    prof = neighborhood_sizes(space, 0.0)
    assert prof.n_max == 1
    for mi in (0.0, 0.3, 1.2):
        got = generalized_fano_minimax(fam, 0.0, mi, 4, prof)
        eps = 2.0  # packing radius of the thetas
        want = (eps / 2) ** 2 * max(0.0, 1 - (mi + LN2) / math.log(4))
        assert got.value == pytest.approx(want, rel=1e-12)


def test_generalized_half_example():
    """card/n_max = 4, mi = 0, delta = 2, square loss: value 1/2."""
    space = DiscreteSpace.zero_one(4)
    thetas = [np.array([0.0]), np.array([2.0]), np.array([4.0]), np.array([6.0])]
    fam = ParamFamily(index_space=space, theta_map=lambda i: thetas[i], param_metric=l2)
    got = generalized_fano_minimax(fam, 0.0, 0.0, 4, neighborhood_sizes(space, 0.0))
    assert got.value == pytest.approx(0.5, abs=1e-12)


def test_generalized_zero_delta():
    space = DiscreteSpace.zero_one(3)
    fam = ParamFamily(index_space=space, theta_map=lambda i: np.array([0.0]),
                      param_metric=l2)
    got = generalized_fano_minimax(fam, 0.0, 0.0, 3, neighborhood_sizes(space, 0.0))
    assert got.value == 0.0


def test_generalized_vacuous_tail_with_infinite_delta():
    """No qualifying pair forces n_max = card, so validity fails and value is 0."""
    fam = sparse_family(2, 1, 1.0)
    prof = neighborhood_sizes(fam.index_space, 10.0)
    got = generalized_fano_minimax(fam, 10.0, 0.0, 4, prof)
    assert got.value == 0.0
    assert not got.valid


# Every sparse family with d <= 9 whose pairwise separation the oracle finds in
# about a second; the largest, (8, 4), is the smallest with t = floor(s/4) = 1.
ORACLE_FAMILIES = [(d, s) for d in range(2, 10) for s in range(1, d // 2 + 1)
                   if 2**s * math.comb(d, s) <= 1120]


def test_sparse_pipeline_is_below_the_generic_reduction():
    """sparse_location_bound never exceeds the generic reduction on the family
    it describes, theta_v = eps v with its own eps, I and t. The two share the
    tail, so their ratio is the ratio of the separations the pipeline and the
    family pay: max(t, 1) eps^2 against delta^2."""
    for k, (d, s) in enumerate(ORACLE_FAMILIES):
        n = (3, 10, 50, 200)[k % 4]
        res = sparse_location_bound(d, s, 1.0, n)
        fam = sparse_family(d, s, res.eps)
        card = fam.index_space.n_points
        generic = generalized_fano_minimax(fam, res.t, res.mi_bound, card,
                                           neighborhood_sizes(fam.index_space, res.t))
        assert generic.valid and res.value <= generic.value, (d, s, n)
        delta = generic.extras["delta"]
        assert res.value / generic.value == pytest.approx(
            max(res.t, 1) * res.eps**2 / delta**2, rel=1e-12), (d, s, n)


# -- estimation-to-testing reduction ------------------------------------------------


def test_reduction_exact_estimate():
    fam = sparse_family(2, 1, 1.0)
    for v in range(4):
        chk = reduce_estimator_to_test(fam, 1.0, fam.theta_map(v), v)
        assert chk.decoded == v
        assert chk.holds is True


def test_reduction_grid_implication():
    """Every theta-hat with a true premise decodes within index distance t."""
    eps = 1.0
    fam = sparse_family(2, 1, eps)
    delta = separation_delta(fam, 1.0)
    grid = np.linspace(-2 * eps, 2 * eps, 21)
    checked = 0
    for v in range(4):
        for x in grid:
            for y in grid:
                chk = reduce_estimator_to_test(fam, 1.0, np.array([x, y]), v)
                if chk.premise:
                    checked += 1
                    assert chk.conclusion
    assert checked > 100  # the premise region is not empty


def test_reduction_boundary_tie():
    """Equidistant theta-hat: lowest-index tie-break, nothing asserted."""
    fam = sparse_family(2, 1, 1.0)
    chk = reduce_estimator_to_test(fam, 1.0, np.array([0.0, 0.0]), 1)
    assert chk.decoded == 0  # all four distances equal
    assert chk.premise is False
    assert chk.holds is None


def test_reduction_monte_carlo_pathwise():
    """On simulated data the implication holds on every replicate, so the
    decoded test errs no more often than the estimator's half-separation
    event (the probability form follows pathwise)."""
    eps, t, n, sigma = 0.8, 1.0, 3, 0.5
    fam = sparse_family(3, 1, eps)
    vec = fam.index_space.vectors.astype(float)
    delta = separation_delta(fam, t)
    est_event = 0
    test_event = 0
    for r in range(500):
        g = stream(99, r)
        v = int(g.integers(0, fam.index_space.n_points))
        xbar = eps * vec[v] + sigma * g.standard_normal(3) / math.sqrt(n)
        chk = reduce_estimator_to_test(fam, t, xbar, v)
        if chk.premise:
            assert chk.conclusion
        est_event += l2(xbar, eps * vec[v]) >= delta / 2
        test_event += fam.index_space.rho_index(chk.decoded, v) > t
    assert test_event <= est_event


# -- sparse location ------------------------------------------------------------------


def test_sparse_location_mi_ingredient():
    res = sparse_location_bound(8, 2, 1.0, 5)
    assert res.mi_bound == pytest.approx(5 * 2 * res.eps**2, rel=1e-12)
    # the pairwise-KL bound over the materialized means eps*v is the oracle
    for d in range(2, 9):
        for s in range(1, d // 2 + 1):
            res = sparse_location_bound(d, s, 1.3, 5)
            means = res.eps * sparse_sign_space(d, s).vectors.astype(float)
            assert res.mi_bound == pytest.approx(mi_pairwise_kl_bound(means, 1.3, 5),
                                                 rel=1e-12), (d, s)


def sparse_objective(u, t, log_ratio, mi_coeff):
    """The sparse pipelines' bound at eps^2 = u: ((t v 1)/4) u (1 - (c u + ln 2)/L)_+."""
    return max(t, 1) / 4.0 * u * max(0.0, 1.0 - (mi_coeff * u + LN2) / log_ratio)


def eps_sq_grid(ref_eps_sq, n_points=64, span=1e3):
    """The 64-point grid of eps^2, log-spaced over six decades around
    ref_eps_sq, that the closed-form eps is cross-checked against."""
    return np.logspace(math.log10(ref_eps_sq / span), math.log10(ref_eps_sq * span),
                       n_points)


def test_sparse_location_small_eps_vanishes():
    res = sparse_location_bound(8, 2, 1.0, 5)
    tiny = [sparse_objective(eps * eps, res.t, res.log_ratio, 5 * 2 / 1.0)
            for eps in (1e-9, 1e-8)]
    assert max(tiny) <= 1e-14
    assert tiny[1] > tiny[0]  # larger eps still wins among the tiny ones
    assert res.value > max(tiny)


def test_sparse_location_exact_formula_reeval():
    """Returned value equals an independent evaluation at the returned eps."""
    res = sparse_location_bound(32, 4, 1.0, 200)
    t = 4 // 4
    card = 2**4 * math.comb(32, 4)
    n_max = neighborhood_sizes(sparse_sign_space(32, 4), t).n_max
    L = math.log(card / n_max)
    eps2 = res.eps**2
    want = (max(t, 1) * eps2 / 4.0) * max(0.0, 1.0 - (200 * 4 * eps2 / 1.0 + LN2) / L)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.extras["log_ratio_route"] == "exact-neighborhood"
    assert res.extras["n_max"] == n_max
    assert res.log_ratio == pytest.approx(L, rel=1e-15)


GRID_CONFIGS = [(2, 1, 10, 1.0), (8, 2, 5, 1.0), (12, 6, 30, 0.3), (16, 4, 50, 1.0),
                (64, 4, 200, 2.5), (80, 8, 100, 1.0)]


def test_sparse_location_grid_never_below_grid_points():
    """For both sparse pipelines, the closed-form eps is at least every point
    of the six-decade grid and within the grid's worst-case half-step loss
    (1.4%) of its maximum."""
    for pipeline, (d, s, n, sigma2) in itertools.product(
            ("sparse-location", "compressed-sensing"), GRID_CONFIGS):
        if pipeline == "sparse-location":
            res = sparse_location_bound(d, s, sigma2, n)
            ref, mi_coeff = sigma2 * math.log(d / s) / n, n * s / sigma2
        else:
            X = np.random.Generator(np.random.Philox(key=d * 1000 + n)).standard_normal((n, d))
            res = compressed_sensing_bound(X, s, sigma2)
            fro2 = float((X * X).sum())
            ref, mi_coeff = sigma2 * d * math.log(d / s) / fro2, s * fro2 / (d * sigma2)
        grid = [sparse_objective(u, res.t, res.log_ratio, mi_coeff) for u in eps_sq_grid(ref)]
        assert res.value >= max(grid), (d, s, n, sigma2)
        assert res.value <= 1.014 * max(grid), (d, s, n, sigma2)


def test_sparse_location_sigma_rescaling_exact():
    """bound(sigma2=c) == c * bound(sigma2=1) and eps scales by sqrt(c), bitwise."""
    d, s, n, c = 16, 4, 50, 4.0
    base = sparse_location_bound(d, s, 1.0, n)
    scaled = sparse_location_bound(d, s, c, n)
    assert scaled.value == c * base.value
    assert scaled.eps == 2.0 * base.eps


def test_sparse_location_neighborhood_route_for_large_d():
    """The exact local count is the one route at every size; the counting
    relaxation is recorded and never exceeds it."""
    res = sparse_location_bound(80, 8, 1.0, 100)
    assert res.extras["log_ratio_route"] == "exact-neighborhood"
    t = 2
    counting = (math.lgamma(t + 1) + math.lgamma(80 - t + 1)
                - math.lgamma(8 + 1) - math.lgamma(80 - 8 + 1))
    assert res.extras["log_ratio_counting"] == pytest.approx(counting, rel=1e-12)
    assert res.log_ratio >= counting
    small_exact = sparse_location_bound(16, 4, 1.0, 100)
    assert small_exact.extras["log_ratio_route"] == "exact-neighborhood"
    assert small_exact.extras["n_max"] == neighborhood_sizes(sparse_sign_space(16, 4), 1).n_max
    assert small_exact.log_ratio >= small_exact.extras["log_ratio_counting"]


@pytest.mark.parametrize("d", range(2, 13))
def test_sparse_pipelines_match_materialized_enumeration(d):
    """Both sparse pipelines' n_max and log-ratio equal those of the
    enumerated space, for every s with 2s <= d."""
    for s in range(1, d // 2 + 1):
        space = sparse_sign_space(d, s)
        n_max = neighborhood_sizes(space, s // 4).n_max
        log_ratio = math.log(space.n_points) - math.log(n_max)
        for res in (sparse_location_bound(d, s, 1.0, 50),
                    compressed_sensing_bound(np.eye(d), s, 1.0)):
            assert res.extras["n_max"] == n_max, (res.pipeline, d, s)
            assert res.log_ratio == log_ratio, (res.pipeline, d, s)


def test_sparse_neighborhood_exact_matches_full_enumeration():
    from fanolab.discrete import sparse_sign_neighborhood_exact

    for d in range(2, 8):
        for s in range(1, d + 1):
            space = sparse_sign_space(d, s)
            for t in range(0, d + 1):
                want = neighborhood_sizes(space, float(t)).n_max
                assert sparse_sign_neighborhood_exact(d, s, t) == want


def test_sparse_location_sweep_monotone_in_d():
    vals = [sparse_location_bound(d, 4, 1.0, 200).value for d in (16, 32, 64)]
    assert vals == sorted(vals)


def test_sparse_location_domain():
    with pytest.raises(DomainError):
        sparse_location_bound(8, 5, 1.0, 10)  # needs s <= d/2
    with pytest.raises(DomainError):
        sparse_location_bound(8, 2, 0.0, 10)


@pytest.mark.parametrize("sigma2", [math.nan, math.inf])
def test_pipelines_reject_non_finite_sigma2(sigma2):
    X = 3.0 * np.eye(9)
    calls = [lambda: normal_mean_bound(4, sigma2, 10),
             lambda: sparse_location_bound(8, 2, sigma2, 5),
             lambda: compressed_sensing_bound(X, 2, sigma2),
             lambda: linear_regression_bound(X, sigma2)]
    for call in calls:
        with pytest.raises(DomainError, match="sigma2"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_design_pipelines_reject_non_finite_design(bad):
    """A non-finite entry, or entries whose squares overflow, are refused
    (an infinite design used to end in LinAlgError)."""
    X = 3.0 * np.eye(9)
    X[2, 2] = bad
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="design"):
            linear_regression_bound(X, 1.0)
        with pytest.raises(DomainError, match="design"):
            compressed_sensing_bound(X, 2, 1.0)


@pytest.mark.parametrize("X", [np.zeros((0, 8)), np.zeros((4, 8)), 1e-170 * np.eye(8),
                               np.full((2, 8), math.nan), [["a"] * 8], [[1.0] * 8, [1.0]],
                               np.eye(8) * (3 + 4j), [[10**400] * 8]],
                         ids=["empty", "zero", "underflowing", "nan", "strings", "ragged",
                              "complex", "past-float64"])
def test_design_pipelines_share_one_design_rule(X):
    """Both design pipelines and the OLS experiment refuse an empty design, a
    zero one (also by underflow), a non-finite one, one that is not an array
    of real numbers and one with an entry past float64, with the same words.
    They used to let a ragged design escape as a bare ValueError, compute a
    complex one on its real part with only a ComplexWarning, and let an entry
    past float64 escape as an OverflowError."""
    refusals = []
    for call in (lambda: compressed_sensing_bound(X, 2, 1.0),
                 lambda: linear_regression_bound(X, 1.0),
                 lambda: ExperimentConfig(problem="regression", reps=10, seed=0, d=8, design=X)):
        with pytest.raises(DomainError) as exc:
            call()
        refusals.append(str(exc.value))
    assert refusals[0] == refusals[1] == refusals[2]


@pytest.mark.parametrize("X", [np.ones((4, 8)), np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])],
                         ids=["wide", "tall"])
def test_least_squares_designs_share_one_rank_rule(X):
    """The regression bound and the OLS experiment refuse a rank-deficient
    design with the same words."""
    refusals = []
    for call in (lambda: linear_regression_bound(X, 1.0),
                 lambda: ExperimentConfig(problem="regression", reps=10, seed=0,
                                          d=X.shape[1], design=X)):
        with pytest.raises(DomainError, match="full-column-rank") as exc:
            call()
        refusals.append(str(exc.value))
    assert refusals[0] == refusals[1]


# -- compressed sensing -----------------------------------------------------------------


def test_cs_mi_ingredient():
    g = np.random.Generator(np.random.Philox(key=5))
    X = g.normal(size=(12, 10))
    res = compressed_sensing_bound(X, 2, 1.3)
    fro2 = float((X * X).sum())
    assert res.mi_bound == pytest.approx(2 * res.eps**2 * fro2 / (10 * 1.3), rel=1e-12)
    # the pairwise-KL bound over the materialized means X*eps*v is the oracle
    for d in range(2, 9):
        X = g.normal(size=(5, d))
        for s in range(1, d // 2 + 1):
            res = compressed_sensing_bound(X, s, 1.3)
            means = res.eps * sparse_sign_space(d, s).vectors.astype(float) @ X.T
            assert res.mi_bound == pytest.approx(mi_pairwise_kl_bound(means, 1.3, 1),
                                                 rel=1e-12), (d, s)


def test_cs_matches_sparse_location_for_scaled_identity():
    """Through sqrt(n) I_d the design pipeline is the sparse-location one."""
    for d, n, sigma2 in itertools.product(SWEEP_DESIGN_D, SWEEP_N, SWEEP_SIGMA2):
        for s in sweep_s(d):
            a = compressed_sensing_bound(math.sqrt(n) * np.eye(d), s, sigma2)
            b = sparse_location_bound(d, s, sigma2, n)
            assert abs(a.value - b.value) <= 1e-15 * b.value, (d, s, n, sigma2)
            assert abs(a.eps - b.eps) <= 1e-15 * b.eps, (d, s, n, sigma2)


def test_cs_degenerate_design_flagged():
    X = np.zeros((6, 8))
    X[:, 0] = 1.0  # single informative column
    res = compressed_sensing_bound(X, 2, 1.0)
    assert res.extras["degenerate_design"]
    assert not res.valid


def test_cs_zero_design_rejected():
    with pytest.raises(DomainError):
        compressed_sensing_bound(np.zeros((4, 8)), 2, 1.0)


def test_cs_underflowing_mi_coefficient_rejected():
    """||X||_F^2 / sigma2 below the smallest double leaves no finite eps."""
    with pytest.raises(DomainError, match="bound value"):
        compressed_sensing_bound(1e-160 * np.eye(2), 1, 1e10)


# -- tail integral ------------------------------------------------------------------------


def test_tail_integral_d2_n2():
    # (1 - ln2) / (2 ln2), mpmath at 50 digits
    want = 0.22134752044448170368
    assert normal_mean_tail_integral(2, 2) == pytest.approx(want, rel=1e-14)
    assert normal_mean_tail_integral_floor(2, 2) == pytest.approx(LN2 / 4, rel=1e-15)
    assert normal_mean_tail_integral(2, 2) >= normal_mean_tail_integral_floor(2, 2)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 1000), (5, 10), (9, 100), (64, 1),
                                 (64, 1000), (3, 7), (16, 300)])
def test_tail_integral_matches_quadrature(d, n):
    closed = normal_mean_tail_integral(d, n)
    quad = quadpack_tail_integral(d, n)
    assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


def _mp_tail_integral(d, n):
    """normal_mean_tail_integral at 50 digits."""
    with mp.workdps(50):
        a = 2 * (d - 1) * mp.log(2) / n
        return n / (2 * d * mp.log(2)) * (mp.expm1(a) - a)


# the four pairs where expm1(a) - a cancelled, and a log-spaced grid of n
TAIL_ACCURACY_PAIRS = [(2, 10**5), (2, 10**7), (2, 10**9), (3, 10**12)] + [
    (d, round(10 ** (k / 8))) for d in (2, 3, 17, 64) for k in range(0, 97)]


def test_tail_integral_within_1e_12_of_mpmath():
    for d, n in TAIL_ACCURACY_PAIRS:
        want = _mp_tail_integral(d, n)
        assert abs(normal_mean_tail_integral(d, n) - want) <= 1e-12 * want, (d, n)


def test_tail_integral_floor_holds_on_grid():
    for d in (2, 3, 5, 9, 17, 33, 64):
        for n in (1, 10, 100, 1000):
            assert normal_mean_tail_integral(d, n) >= normal_mean_tail_integral_floor(d, n)


def test_tail_integral_floor_holds_where_a_is_below_an_ulp():
    """Down to a = 2 (d - 1) ln2 / n of about 1e-18, where the value and the
    floor round nearly the same exact number: the value must not round below."""
    for d in (2, 3, 5, 17, 64, 1000):
        for n in (m * 10**k for k in range(1, 19) for m in (1, 3)):
            assert normal_mean_tail_integral(d, n) >= normal_mean_tail_integral_floor(d, n), \
                (d, n)


def test_tail_integral_taylor_limit():
    """n -> inf at fixed d: ratio to the floor tends to 1."""
    d = 6
    ratios = [normal_mean_tail_integral(d, n) / normal_mean_tail_integral_floor(d, n)
              for n in (10, 100, 10_000, 1_000_000)]
    assert all(r >= 1.0 for r in ratios)
    assert ratios[-1] == pytest.approx(1.0, abs=1e-4)
    assert ratios == sorted(ratios, reverse=True)


# -- normal mean ----------------------------------------------------------------------------


def test_normal_mean_integrated_constant():
    res = normal_mean_bound(10, 1.0, 100, mode="integrated")
    want = (81 * LN2 / 400) * 0.1
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.value == pytest.approx(0.014036230406338892516, rel=1e-13)


def test_normal_mean_simple_artifacts():
    res = normal_mean_bound(4, 1.0, 50, mode="simple")
    t_sq = 4 * 1.0 * LN2 / (4 * 50)
    assert res.extras["t_squared"] == pytest.approx(t_sq, rel=1e-15)
    assert res.extras["prob_floor"] == 0.25
    assert res.value == pytest.approx(t_sq / 4, rel=1e-15)
    assert set(res.extras) == {"t_squared", "prob_floor", "d", "n", "sigma2"}


def test_normal_mean_integrated_dominates_simple():
    for d, n in [(4, 10), (5, 40), (10, 100), (32, 1000)]:
        simple = normal_mean_bound(d, 1.0, n, mode="simple")
        integ = normal_mean_bound(d, 1.0, n, mode="integrated")
        assert integ.value >= simple.value
        assert set(integ.extras) == {"d", "n", "sigma2"}


def test_normal_mean_domain():
    with pytest.raises(DomainError):
        normal_mean_bound(1, 1.0, 10)
    with pytest.raises(DomainError):
        normal_mean_bound(3, 1.0, 10, mode="other")


@pytest.mark.parametrize("d", [2, 3, 3.0])
def test_normal_mean_simple_refuses_d_below_4(d):
    """At d < 4 the Fano tail 1/2 - 1/d of the recorded ingredients is below
    the probability floor 1/4 that the value t^2/4 takes."""
    assert _fano_tail(d * LN2 / 2, d * LN2) < 0.25
    with pytest.raises(DomainError, match=r"needs d >= 4, got d="):
        normal_mean_bound(d, 1.0, 10, mode="simple")
    assert normal_mean_bound(d, 1.0, 10).valid  # the integrated mode holds from d = 2


# -- hinge integral ---------------------------------------------------------------------------


def test_hinge_values():
    assert hinge_integral(1.0, 2.0) == 0.25
    assert hinge_integral(0.0, 2.0) == 0.0
    assert hinge_integral(-1.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        hinge_integral(1.0, 0.0)


@pytest.mark.parametrize("c1, c2, name", [
    (math.nan, 1.0, "c1"), (math.inf, 1.0, "c1"), (-math.inf, 1.0, "c1"),
    (1.0, math.nan, "c2"), (1.0, math.inf, "c2"),
])
def test_hinge_refuses_non_finite(c1, c2, name):
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        hinge_integral(c1, c2)


@pytest.mark.parametrize("seed", range(10))
def test_hinge_matches_quadrature(seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    c1, c2 = float(g.uniform(0.01, 5)), float(g.uniform(0.1, 5))
    ref = integrate.quad(lambda t: c1 - c2 * t, 0.0, c1 / c2, limit=100)[0]
    assert abs(hinge_integral(c1, c2) - ref) <= 1e-10


# -- linear regression -------------------------------------------------------------------------


def test_regression_scaled_identity_constant():
    X = 3.0 * np.eye(9)  # sqrt(n) * I with n = d = 9
    res = linear_regression_bound(X, 1.0)
    assert res.value == 9 * 1.0 / (12 * 9)
    assert res.extras["simplified_valid"]
    assert res.extras["exact_value"] >= res.value
    # ((8/9)^2) * 9*11*ln2 / (8*81), mpmath at 50 digits
    assert res.extras["exact_value"] == pytest.approx(0.083672087639609310327, rel=1e-14)


@pytest.mark.parametrize("d", [9, 12, 20, 50])
def test_regression_exact_dominates_simplified(d):
    g = np.random.Generator(np.random.Philox(key=d))
    X = g.normal(size=(d + 3, d))
    res = linear_regression_bound(X, 2.0)
    assert res.extras["exact_value"] >= res.extras["simplified_value"]
    assert res.value == res.extras["simplified_value"]


def test_regression_small_d_returns_exact_flagged():
    X = 2.0 * np.eye(4)
    res = linear_regression_bound(X, 1.0)
    assert not res.extras["simplified_valid"]
    assert res.value == res.extras["exact_value"]


def test_regression_scaling():
    """X -> cX divides the regression and compressed-sensing bounds by c^2.
    The simplified regression value takes ||X||_2 from an SVD, whose relative
    error moves by a few ulps under scaling; the rest are within 1e-15."""
    for d, sigma2, c in itertools.product(SWEEP_DESIGN_D, SWEEP_SIGMA2, (0.5, 3.0, 1e3)):
        for X in sweep_designs(d):
            base, scaled = linear_regression_bound(X, sigma2), linear_regression_bound(c * X, sigma2)
            for key, rel in (("exact_value", 1e-15), ("simplified_value", 4e-15)):
                want = base.extras[key] / c**2
                assert abs(scaled.extras[key] - want) <= rel * want, (d, sigma2, c, key)
            for s in sweep_s(d):
                want = compressed_sensing_bound(X, s, sigma2).value / c**2
                got = compressed_sensing_bound(c * X, s, sigma2).value
                assert abs(got - want) <= 1e-15 * want, (d, sigma2, c, s)


def test_regression_refuses_a_sigma2_whose_simplified_bound_underflows():
    # the simplified bound is 0.0, and exact / simplified divided by zero
    with pytest.raises(DomainError, match=r"\bsigma2\b"):
        linear_regression_bound(np.eye(4), 5e-324)


def test_regression_rank_deficient_rejected():
    X = np.ones((5, 3))
    with pytest.raises(DomainError):
        linear_regression_bound(X, 1.0)


@pytest.mark.parametrize("d,sigma2", [(5, 1.0), (9, 2.0), (20, 0.3)])
def test_regression_exact_value_via_hinge_route(d, sigma2):
    """Independent route: integrate the tail bound in the squared-error
    variable with the ball-covariance MI coefficient; must equal the
    closed-form exact expression."""
    g = np.random.Generator(np.random.Philox(key=d))
    X = g.normal(size=(d + 2, d))
    res = linear_regression_bound(X, sigma2)
    mi_coeff = res.extras["mi_r2_coeff"]   # I(r) <= mi_coeff * r^2
    assert mi_coeff == pytest.approx(
        float((X * X).sum()) / ((d + 2) * sigma2), rel=1e-14)
    c1 = (d - 1) / d
    c2 = 4.0 * mi_coeff / (d * LN2)  # tail at radius sqrt(u) with r = 2 sqrt(u)
    assert hinge_integral(c1, c2) == pytest.approx(res.extras["exact_value"],
                                                   rel=1e-12)


def test_param_family_rejects_decreasing_loss():
    space = DiscreteSpace.zero_one(3)
    with pytest.raises(DomainError):
        ParamFamily(index_space=space, theta_map=lambda i: np.array([float(i)]),
                    param_metric=l2, loss=lambda x: -x)


# -- soundness sweep ------------------------------------------------------------------------------
# Each pipeline over a log-spaced grid of its domain, with identity and seeded
# Gaussian designs. Every headline is recomputed from the ingredients its record
# carries, through the one tail formula discrete._fano_tail, and it and every
# extra that names a bound (a key ending in "_value") stay at or below the exact
# minimax risk: sigma2 d / n for a Gaussian mean, where the sample mean is
# minimax, and sigma2 tr((X^T X)^-1) for fixed-design regression, where OLS is.
# The sparse problems restrict those models to s-sparse parameters, so the same
# risks bound theirs from above.

SWEEP_D = (2, 3, 4, 9, 32, 100, 1000)
SWEEP_DESIGN_D = (2, 4, 9, 32, 100)
SWEEP_N = (1, 10, 1000, 10**6)
SWEEP_SIGMA2 = (1e-6, 1.0, 1e6)


def sweep_s(d):
    """The sparsity levels swept at dimension d: 1, 2, d/4 and d/2 where allowed."""
    return sorted({1, 2, d // 4, d // 2} & set(range(1, d // 2 + 1)))


def sweep_designs(d):
    """sqrt(10) I_d and seeded Gaussian designs with d and 4d rows."""
    return [math.sqrt(10) * np.eye(d)] + [stream(41, d).standard_normal((m, d))
                                          for m in (d, 4 * d)]


def assert_at_most_risk(res, risk):
    for key in ("value", *(k for k in res.extras if k.endswith("_value"))):
        x = res.value if key == "value" else res.extras[key]
        assert 0.0 <= x <= risk, (res.pipeline, key, x, risk)


def assert_sparse_recipe(res, d, s):
    """Pairs of the s-sparse sign family further than t = floor(s/4) apart are
    more than max(sqrt(t), 1) eps apart, so the value is (that / 2)^2 times the
    Fano tail of the recorded I and L = ln(|V| / N_t)."""
    t = s // 4
    assert res.t == t
    card, n_max = sparse_sign_cardinality(d, s), sparse_sign_neighborhood_exact(d, s, t)
    assert res.log_ratio == pytest.approx(math.log(card) - math.log(n_max), rel=1e-15)
    want = max(t, 1) * res.eps**2 / 4 * _fano_tail(res.mi_bound, res.log_ratio)
    assert res.value == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("d", SWEEP_D)
def test_normal_mean_bounds_follow_from_their_ingredients(d):
    for n, sigma2 in itertools.product(SWEEP_N, SWEEP_SIGMA2):
        risk = sigma2 * d / n
        integ = normal_mean_bound(d, sigma2, n)
        L = integ.log_ratio
        assert L == d * LN2
        # with I <= 2 n t^2 / sigma2 the tail at radius t is c1 - c2 t^2
        c1, c2 = _fano_tail(0.0, L), 2 * n / (sigma2 * L)
        assert _fano_tail(2 * n * (c1 / c2 / 2) / sigma2, L) == pytest.approx(c1 / 2, rel=1e-12)
        assert integ.value == pytest.approx(hinge_integral(c1, c2), rel=1e-13)
        assert integ.value == pytest.approx(sigma2 / 4 * normal_mean_tail_integral_floor(d, n),
                                            rel=1e-15)
        assert_at_most_risk(integ, risk)
        if d < 4:
            continue
        simple = normal_mean_bound(d, sigma2, n, mode="simple")
        assert simple.log_ratio == L
        assert simple.mi_bound == pytest.approx(2 * n * simple.t**2 / sigma2, rel=1e-13)
        assert simple.extras["prob_floor"] <= _fano_tail(simple.mi_bound, L)
        assert simple.value == pytest.approx(simple.t**2 * simple.extras["prob_floor"],
                                             rel=1e-13)
        assert_at_most_risk(simple, risk)


@pytest.mark.parametrize("d", SWEEP_D)
def test_sparse_location_bounds_follow_from_their_ingredients(d):
    for s, n, sigma2 in itertools.product(sweep_s(d), SWEEP_N, SWEEP_SIGMA2):
        res = sparse_location_bound(d, s, sigma2, n)
        assert res.mi_bound == pytest.approx(n * s * res.eps**2 / sigma2, rel=1e-13)
        assert_sparse_recipe(res, d, s)
        assert_at_most_risk(res, sigma2 * d / n)
        # linear in sigma2, and 1/n in n
        for c in (1e-3, 3.0, 1e3):
            assert abs(sparse_location_bound(d, s, c * sigma2, n).value - c * res.value) \
                <= 1e-15 * c * res.value, (d, s, n, sigma2, c)
        for c in (2, 10, 1000):
            assert abs(sparse_location_bound(d, s, sigma2, c * n).value - res.value / c) \
                <= 1e-15 * res.value / c, (d, s, n, sigma2, c)


@pytest.mark.parametrize("d", SWEEP_DESIGN_D)
def test_design_bounds_follow_from_their_ingredients(d):
    for X, sigma2 in itertools.product(sweep_designs(d), SWEEP_SIGMA2):
        risk = sigma2 * float(np.trace(np.linalg.inv(X.T @ X)))
        fro2 = float((X * X).sum())
        res = linear_regression_bound(X, sigma2)
        L = res.log_ratio
        assert L == d * LN2
        # with I <= mi_r2_coeff r^2 at r = 2t the tail is c1 - c2 t^2
        c1, c2 = _fano_tail(0.0, L), 4 * res.extras["mi_r2_coeff"] / L
        assert res.extras["exact_value"] == pytest.approx(hinge_integral(c1, c2),
                                                          rel=1e-13)
        if res.extras["simplified_valid"]:
            assert res.value == res.extras["simplified_value"] <= res.extras["exact_value"]
        assert_at_most_risk(res, risk)
        for s in sweep_s(d):
            cs = compressed_sensing_bound(X, s, sigma2)
            assert cs.mi_bound == pytest.approx(s * fro2 * cs.eps**2 / (d * sigma2), rel=1e-13)
            assert_sparse_recipe(cs, d, s)
            assert_at_most_risk(cs, risk)


# -- pinned bits ---------------------------------------------------------------------------------


def test_pipeline_bits_pinned():
    """value, eps and log_ratio compared with ==, so that a change that moves
    any of them by one ulp fails."""
    cases = [
        (normal_mean_bound(10, 1.0, 100, mode="integrated"),
         (0.01403623040633889, None, 6.931471805599453)),
        (normal_mean_bound(10, 1.0, 100, mode="simple"),
         (0.004332169878499658, None, 6.931471805599453)),
        (sparse_location_bound(32, 4, 1.0, 200),
         (0.0008053318604450071, 0.08276535400543247, 11.653313298391238)),
        (sparse_location_bound(80, 8, 1.0, 100),
         (0.0033108513957159024, 0.11689015727474386, 22.554441368902914)),
        (compressed_sensing_bound(math.sqrt(25) * np.eye(16), 3, 1.0),
         (0.0058985254630753575, 0.22677788170879284, 8.40737832540903)),
        (linear_regression_bound(3.0 * np.eye(9), 1.0),
         (0.08333333333333333, None, 6.238324625039508)),
    ]
    for res, want in cases:
        assert (res.value, res.eps, res.log_ratio) == want, res.pipeline
