"""Harness behavior: generators, the decoder oracle, risk simulation."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fanolab import lab
from fanolab.cli import main
from fanolab.continuum import continuum_fano_bound
from fanolab.discrete import (
    DiscreteSpace,
    NeighborhoodProfile,
    fano_conditional_form,
    fano_inequality_sides,
    fano_tail_lower_bound,
    neighborhood_sizes,
)
from fanolab.info import (
    DomainError,
    EnumerationLimitError,
    MarkovChainSpec,
    ProbVector,
    entropy,
    mutual_information_exact,
)
from fanolab.lab import (
    AUDIT_PROBLEM_OF,
    ORACLE_BLOCK,
    PROBLEMS,
    REPLICATE_BLOCK,
    ExperimentConfig,
    MatchedBound,
    audit_config,
    check_bounds,
    decoder_bounds_batch,
    decoder_groups,
    fano_sides_batch,
    hard_threshold,
    prop1_groups,
    simulate_risk,
)
from fanolab.minimax import (
    compressed_sensing_bound,
    linear_regression_bound,
    normal_mean_bound,
    sparse_location_bound,
)
from fanolab.results import MinimaxBound
from fanolab.streams import REPLICATE_STREAM, stream
from oracles import enumerate_decoders_min_tail, random_chain, random_symmetric_space


# -- generators ----------------------------------------------------------------


def test_random_chain_deterministic():
    a = random_chain(123, (3, 4, 2))
    b = random_chain(123, (3, 4, 2))
    assert np.array_equal(a.prior.p, b.prior.p)
    assert np.array_equal(a.channel, b.channel)
    assert np.array_equal(a.decoder, b.decoder)
    c = random_chain(124, (3, 4, 2))
    assert not np.array_equal(a.channel, c.channel)


def test_random_chain_rows_normalized():
    chain = random_chain(0, (2, 2, 2))
    assert abs(chain.prior.p.sum() - 1) <= 1e-12
    assert np.all(np.abs(chain.channel.sum(axis=1) - 1) <= 1e-12)
    assert np.all(np.abs(chain.decoder.sum(axis=1) - 1) <= 1e-12)


def test_random_symmetric_space_properties():
    space = random_symmetric_space(5, 6)
    m = space.distance_matrix()
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0)


# -- decoder enumeration oracle ---------------------------------------------------


def test_decoder_oracle_noiseless():
    k = 3
    got = enumerate_decoders_min_tail(ProbVector.uniform(k), np.eye(k),
                                      DiscreteSpace.zero_one(k), 0.0)
    assert got == pytest.approx(0.0, abs=1e-15)


def test_decoder_oracle_uninformative():
    k = 4
    channel = np.full((k, 2), 0.5)
    got = enumerate_decoders_min_tail(ProbVector.uniform(k), channel,
                                      DiscreteSpace.zero_one(k), 0.0)
    assert got == pytest.approx(1 - 1 / k, rel=1e-12)


def test_decoder_oracle_matches_naive_enumeration():
    """Cross-check against a fully naive triple-loop enumeration."""
    import itertools

    chain = random_chain(77, (3, 3, 3), uniform_prior=True)
    space = random_symmetric_space(77, 3)
    t = 0.7
    dmat = space.distance_matrix()
    best = math.inf
    for g in itertools.product(range(3), repeat=3):
        tail = 0.0
        for v in range(3):
            for x in range(3):
                if dmat[g[x], v] > t:
                    tail += chain.prior.p[v] * chain.channel[v, x]
        best = min(best, tail)
    got = enumerate_decoders_min_tail(chain.prior, chain.channel, space, t)
    assert got == pytest.approx(best, abs=1e-14)


def test_decoder_oracle_cutoff():
    k = 8
    space = DiscreteSpace.zero_one(k)
    with pytest.raises(EnumerationLimitError):
        enumerate_decoders_min_tail(ProbVector.uniform(k), np.full((k, 8), 1 / 8),
                                    space, 0.0)


# -- batched oracle blocks --------------------------------------------------------


def _looped_sides(group, i):
    chain = MarkovChainSpec(ProbVector(group.prior[i]), group.channel[i], group.decoder[i])
    return fano_inequality_sides(chain, DiscreteSpace.from_matrix(group.dist[i]),
                                 float(group.t[i]))


def _looped_decoder_bounds(group, i):
    prior, channel = ProbVector(group.prior[i]), group.channel[i]
    space, t = DiscreteSpace.from_matrix(group.dist[i]), float(group.t[i])
    mi = mutual_information_exact(prior, channel)
    prof = neighborhood_sizes(space, t)
    return (enumerate_decoders_min_tail(prior, channel, space, t),
            fano_tail_lower_bound(group.nv, prof, mi).value,
            fano_conditional_form(max(0.0, entropy(prior) - mi), group.nv, prof).value)


def _assert_sides_match(group):
    got = np.stack(fano_sides_batch(group), axis=1)
    want = np.array([_looped_sides(group, i) for i in range(group.index.size)])
    assert np.array_equal(got, want)


def _assert_decoder_bounds_match(group):
    got = np.stack(decoder_bounds_batch(group), axis=1)
    want = np.array([_looped_decoder_bounds(group, i) for i in range(group.index.size)])
    assert np.array_equal(got, want)


def _edge_group():
    """Four instances on three points, V uniform, at the edges of the Fano
    formulas: P_t = 0 under a perfect decoder; P_t = 1 under a decoder that
    always errs; N_min = |V| at a radius past every distance; and
    0 < (|V| - N_min) / N_max < 1."""
    eye, uniform = np.eye(3), np.full((3, 3), 1 / 3)
    dist = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    return lab.OracleGroup(block=0, index=np.arange(4), t=np.array([0.5, 0.5, 1.5, 1.2]),
                           prior=np.full((4, 3), 1 / 3),
                           channel=np.stack([eye, eye, uniform, uniform]),
                           decoder=np.stack([eye, np.roll(eye, 1, axis=1), uniform, eye]),
                           dist=np.tile(dist, (4, 1, 1)))


def test_batched_fano_sides_match_looped_oracle():
    groups = list(prop1_groups(3, 1000))
    assert [(g.nv, g.nx) for g in groups] == list(itertools.product(range(2, 6), repeat=2))
    assert sorted(np.concatenate([g.index for g in groups]).tolist()) == list(range(1000))
    for group in groups + [_edge_group()]:
        _assert_sides_match(group)


def test_batched_decoder_bounds_match_looped_oracle():
    groups = list(decoder_groups(3, 500))
    assert [(g.nv, g.nx) for g in groups] == list(itertools.product(range(2, 5), repeat=2))
    for group in groups + [replace(_edge_group(), decoder=None)]:
        assert np.all(group.prior == 1.0 / group.nv) and group.decoder is None
        _assert_decoder_bounds_match(group)


def test_decoder_minimum_past_the_enumeration_budget():
    """2^20 decoders, past the oracle's budget of 10**6: the closed form
    needs none of them. Under a uniform channel every decoder misses half
    the time."""
    group = lab.OracleGroup(0, np.array([0]), np.array([0.5]), np.full((1, 2), 0.5),
                            np.full((1, 2, 20), 1 / 20), None,
                            np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    assert decoder_bounds_batch(group)[0] == pytest.approx([0.5], rel=1e-12)


@pytest.mark.parametrize("draw, check", [(prop1_groups, _assert_sides_match),
                                         (decoder_groups, _assert_decoder_bounds_match)],
                         ids=["prop1", "decoder"])
def test_batched_kernels_keep_the_tie_conventions(draw, check):
    """Whole distances and radii make rho = t ties common, which continuous
    draws never do: a tie counts in the neighborhood (rho <= t) and is no
    miss (rho > t)."""
    for group in draw(8, 300):
        check(replace(group, dist=np.round(group.dist), t=np.round(group.t)))


def _prop1_slack(group):
    lhs, rhs = fano_sides_batch(group)
    return lhs - rhs


def _decoder_margin(group):
    min_tail, tail, cond = decoder_bounds_batch(group)
    return np.minimum(min_tail - tail, min_tail - cond)


def _block_values(groups, value, block):
    """Per-instance values of one block, in instance order."""
    out = {}
    for group in groups:
        if group.block == block:
            out.update(zip(group.index.tolist(), value(group).tolist()))
    return [out[i] for i in range(len(out))]


@pytest.mark.parametrize("draw, value", [(prop1_groups, _prop1_slack),
                                         (decoder_groups, _decoder_margin)],
                         ids=["prop1", "decoder"])
def test_growing_instances_keeps_full_oracle_block(draw, value):
    full = _block_values(list(draw(4, ORACLE_BLOCK)), value, 0)
    grown = list(draw(4, 5000))
    assert len(full) == ORACLE_BLOCK
    assert _block_values(grown, value, 0) == full
    assert len(_block_values(grown, value, 1)) == 5000 - ORACLE_BLOCK


@pytest.mark.parametrize("suite", ["prop1-exhaustive", "decoder-oracle"])
def test_oracle_suite_partial_last_block_byte_identical(tmp_path, suite):
    instances = ORACLE_BLOCK + 4
    reports = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["verify", suite, "--seed", "2", "--instances", str(instances),
                     "--out-dir", str(out)]) == 0
        reports.append((out / f"verify-{suite}-seed2.txt").read_bytes())
    assert reports[0] == reports[1]
    assert f": PASS instances={instances} ".encode() in reports[0]


@pytest.mark.parametrize("field, at, delta, match", [
    ("prior", (0, 0), 1e-9, "prior rows must sum to 1"),
    ("channel", (0, 1, 0), 2.0, r"channel entries must lie in \[0, 1\]"),
    ("decoder", (0, 0, 1), -1e-9, "decoder rows must sum to 1"),
    ("dist", (0, 0, 1), 0.25, "symmetric"),
    ("dist", (0, 1, 1), 0.5, "zero diagonal"),
    ("t", (0,), math.nan, "t=nan"),
    ("t", (0,), -10.0, "t=-"),
    ("dist", (0, 0, 1), 0.25, r"in dist\[0\], rho\(p0, p1\) = "),
    ("dist", (0, 1, 0), math.nan, r"rho must not be NaN: in dist\[0\], rho\(p1, p0\)"),
])
def test_oracle_group_refuses_a_corrupted_row(field, at, delta, match):
    group = next(prop1_groups(6, 50))
    corrupted = getattr(group, field).copy()
    corrupted[at] += delta
    with pytest.raises(DomainError, match=match):
        replace(group, **{field: corrupted})


def test_oracle_group_refuses_mismatched_shapes():
    group = next(prop1_groups(6, 50))
    with pytest.raises(DomainError, match="decoder has shape"):
        replace(group, decoder=group.decoder[:, :, :1])
    with pytest.raises(DomainError, match="channel must stack"):
        replace(group, channel=group.channel[0])


# -- thresholds ----------------------------------------------------------------------


def test_thresholds():
    x = np.array([-2.0, -0.5, 0.1, 0.9, 3.0])
    assert np.array_equal(hard_threshold(x, 1.0), [-2.0, 0.0, 0.0, 0.0, 3.0])


# -- risk simulation -------------------------------------------------------------------


def test_sample_mean_risk_matches_analytic():
    cfg = ExperimentConfig(problem="normal-mean", reps=4000, seed=11, d=10, n=100,
                           sigma2=1.0)
    rep = simulate_risk(cfg)
    # E||xbar - theta||^2 = sigma2 * d / n = 0.1; se ~ 0.0007
    assert rep.risk_mean == pytest.approx(0.1, abs=0.004)
    assert rep.risk_ci[0] < 0.1 < rep.risk_ci[1]


def test_ols_risk_matches_analytic():
    X = math.sqrt(5) * np.eye(5)
    cfg = ExperimentConfig(problem="regression", reps=4000, seed=13, d=5, sigma2=1.0,
                           design=X)
    rep = simulate_risk(cfg)
    # sigma2 * tr((X^T X)^{-1}) = 5/5 = 1
    assert rep.risk_mean == pytest.approx(1.0, rel=0.05)


def test_ols_error_covariance_non_orthogonal_design():
    """A transposed factor keeps tr(Cov) and the loss law; only the
    covariance of the error vectors tells it apart."""
    X = stream(2026, 0).standard_normal((12, 5))  # seeded, cond(X) ~ 2.7
    sigma2 = 2.0
    cov = sigma2 * np.linalg.inv(X.T @ X)
    cfg = ExperimentConfig(problem="regression", reps=20_000, seed=19, d=5,
                           sigma2=sigma2, design=X)
    rep = simulate_risk(cfg)
    assert rep.risk_ci[0] <= np.trace(cov) <= rep.risk_ci[1]
    m = 50_000
    err = lab._error_sampler(cfg)(stream(19, REPLICATE_STREAM), m)
    emp = err.T @ err / m
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / m)
    assert np.all(np.abs(emp - cov) <= 5 * se)


def test_single_replicate_degenerate_ci():
    cfg = ExperimentConfig(problem="normal-mean", reps=1, seed=3, d=2, n=5, sigma2=1.0,
                           t_list=(0.5,))
    rep = simulate_risk(cfg)
    assert rep.risk_ci == (0.0, math.inf)
    assert rep.tails[0].reps == 1


def test_report_bit_identical():
    cfg = ExperimentConfig(problem="sparse-location", reps=500, seed=21, d=16, s=2, n=30,
                           sigma2=1.0, eps=0.3, t_list=(0.1, 0.5))
    a = simulate_risk(cfg).to_text()
    b = simulate_risk(cfg).to_text()
    assert a == b
    assert a.startswith("problem=sparse-location estimator=hard-threshold reps=500 ")


_MULTI_BLOCK_REPS = 2 * REPLICATE_BLOCK + 123  # two full blocks and a partial one

_BLOCK_CONFIGS = {
    "normal-mean": dict(problem="normal-mean", d=3, n=10, t_list=(0.3,)),
    "sparse-location": dict(problem="sparse-location", d=16, s=2, n=30, eps=0.4,
                            t_list=(0.2,)),
    "regression": dict(problem="regression", d=3,
                       design=np.array([[2.0, 0.0, 1.0], [0.5, 1.0, 0.0],
                                        [0.0, 1.0, 3.0], [1.0, 1.0, 1.0]]),
                       t_list=(1.0,)),
}


# (risk_mean, tail count) of each multi-block config at seed 12: any change
# to the block draws or to the order of the loss-sum reduction shows here
_MULTI_BLOCK_GOLDEN = {
    "normal-mean": (0.2967315803039118, 6863),
    "regression": (1.0629882641688404, 3059),
    "sparse-location": (0.27934191087962346, 7888),
}


@pytest.mark.parametrize("problem", sorted(_BLOCK_CONFIGS))
def test_block_draws_independent_of_chunking(problem):
    rep = simulate_risk(ExperimentConfig(reps=_MULTI_BLOCK_REPS, seed=12,
                                         **_BLOCK_CONFIGS[problem]))
    assert (rep.risk_mean, rep.tails[0].count) == _MULTI_BLOCK_GOLDEN[problem]


@pytest.mark.parametrize("problem", sorted(_BLOCK_CONFIGS))
def test_growing_reps_keeps_shared_full_blocks(problem):
    short = ExperimentConfig(reps=REPLICATE_BLOCK + 7, seed=12, **_BLOCK_CONFIGS[problem])
    long = replace(short, reps=_MULTI_BLOCK_REPS)
    a = lab._replicate_losses(short)
    b = lab._replicate_losses(long)
    assert np.array_equal(a[:REPLICATE_BLOCK], b[:REPLICATE_BLOCK])
    assert not np.array_equal(b[:REPLICATE_BLOCK], b[REPLICATE_BLOCK:2 * REPLICATE_BLOCK])


def test_multi_block_report_byte_identical():
    cfg = ExperimentConfig(reps=_MULTI_BLOCK_REPS, seed=12,
                           **_BLOCK_CONFIGS["sparse-location"])
    assert simulate_risk(cfg).to_text() == simulate_risk(cfg).to_text()


def test_ci_scales_inverse_sqrt_reps():
    widths = []
    for reps in (400, 1600):
        cfg = ExperimentConfig(problem="normal-mean", reps=reps, seed=17, d=10, n=50,
                               sigma2=1.0)
        rep = simulate_risk(cfg)
        widths.append(rep.risk_ci[1] - rep.risk_ci[0])
        assert rep.risk_ci[0] < 10 / 50 < rep.risk_ci[1]
    assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.25)


# -- vectorized samplers --------------------------------------------------------------


def test_sparse_theta_rows_exact_support_and_uniform_inclusion():
    d, s, eps, m = 10, 3, 0.7, 20_000
    theta = lab._sparse_theta(stream(5, REPLICATE_STREAM), m, d, s, eps)
    assert np.all(np.count_nonzero(theta, axis=1) == s)
    assert np.all(np.abs(theta[theta != 0]) == eps)
    freq = np.count_nonzero(theta, axis=0) / m
    se = math.sqrt((s / d) * (1 - s / d) / m)
    assert np.all(np.abs(freq - s / d) <= 5 * se)
    assert abs(np.mean(np.sign(theta[theta != 0]))) <= 5 / math.sqrt(m * s)


def test_tail_event_convention_continuum(monkeypatch):
    """Every tail is the weak event ||theta_hat - theta|| >= t: errors of
    norm exactly t all count toward the tail at t, and none toward the
    next float above it."""
    t = 0.75  # t * t and its square root are exact in float64
    monkeypatch.setattr(lab, "_error_sampler",
                        lambda cfg: lambda g, m: np.tile([0.0, t], (m, 1)))
    cfg = ExperimentConfig(problem="normal-mean", reps=REPLICATE_BLOCK + 5, seed=1, d=2,
                           n=4, t_list=(t, math.nextafter(t, math.inf)))
    rep = simulate_risk(cfg)
    assert [te.count for te in rep.tails] == [cfg.reps, 0]
    assert rep.tails[0].p_hat == 1.0


# -- bound auditing ------------------------------------------------------------------------


def test_check_bounds_pass_and_margin():
    cfg = ExperimentConfig(problem="normal-mean", reps=2000, seed=11, d=10, n=100,
                           sigma2=1.0)
    rep = simulate_risk(cfg, (MatchedBound("integrated", "risk", 0.014036230406338893),))
    audit = check_bounds(rep)
    assert audit.passed
    assert audit.worst_margin == pytest.approx(rep.risk_ci[1] - 0.014036230406338893)


def test_check_bounds_detects_inflated_bound():
    cfg = ExperimentConfig(problem="normal-mean", reps=2000, seed=11, d=10, n=100,
                           sigma2=1.0)
    rep = simulate_risk(cfg, (MatchedBound("inflated", "risk", 0.2),))
    audit = check_bounds(rep)
    assert not audit.passed
    assert audit.worst_label == "inflated"


def test_check_bounds_tail_target():
    cfg = ExperimentConfig(problem="normal-mean", reps=2000, seed=8, d=2, n=1, sigma2=1.0,
                           t_list=(0.32,))
    rep = simulate_risk(cfg, (MatchedBound("tail", "tail", 0.375, t=0.32),))
    assert check_bounds(rep).passed


def test_check_bounds_refuses_a_tail_bound_off_t_list():
    cfg = ExperimentConfig(problem="normal-mean", reps=100, seed=8, d=2, n=1,
                           t_list=(0.32,))
    rep = simulate_risk(cfg, (MatchedBound("tail", "tail", 0.375, t=0.5),))
    with pytest.raises(DomainError, match="not in the report's t_list"):
        check_bounds(rep)


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(problem="bogus", reps=10, seed=0)
    with pytest.raises(DomainError, match="design matrix"):
        ExperimentConfig(problem="regression", reps=10, seed=0, d=3)
    with pytest.raises(DomainError, match="full-column-rank"):
        ExperimentConfig(problem="regression", reps=10, seed=0, d=2,
                         design=np.ones((4, 2)))
    with pytest.raises(DomainError):
        ExperimentConfig(problem="sparse-location", reps=10, seed=0, d=4, s=5, n=2)


_DESIGN = np.eye(3)


@pytest.mark.parametrize("kwargs, key", [
    (dict(problem="regression", d=3, design=_DESIGN, sigma2=-1.0), "sigma2"),
    (dict(problem="regression", d=3, design=_DESIGN, sigma2=math.nan), "sigma2"),
    (dict(problem="normal-mean", d=3, n=5, sigma2=math.inf), "sigma2"),
    (dict(problem="sparse-location", d=4, s=2, n=5,
          eps=math.nan), "eps"),
    (dict(problem="sparse-location", d=4, s=2, n=5,
          eps=-0.1), "eps"),
    # regression's d is the design's column count; an empty design has none
    (dict(problem="regression", d=5, design=_DESIGN), "d=5"),
    (dict(problem="regression", d=0, design=np.zeros((0, 0))), "design"),
    (dict(problem="normal-mean", d=3, n=5, t_list=(math.nan,)), "t_list"),
    (dict(problem="normal-mean", d=3, n=5, t_list=(0.1, -0.5)), "t_list"),
    (dict(problem="regression",
          design=np.array([[1.0, 0.0], [0.0, math.nan], [1.0, 1.0]])), "design"),
    # counts must be integers, and reps small enough to size an array by
    (dict(problem="normal-mean", d=3, n=5, reps=10.5), "reps"),
    (dict(problem="normal-mean", d=3, n=5, seed=1.5), "seed"),
    (dict(problem="normal-mean", d=2.5, n=5), "d"),
    (dict(problem="sparse-location", d=4, s=1.5, n=5), "s"),
    (dict(problem="normal-mean", d=3, n=2.5), "n"),
    (dict(problem="regression", d=3, n=2.5, design=_DESIGN), "n"),
    (dict(problem="normal-mean", d=3, n=5, reps=10**30), "reps"),
    # seeds outside the 64-bit seed word of a stream's key
    (dict(problem="normal-mean", d=3, n=5, seed=-1), "seed"),
    (dict(problem="normal-mean", d=3, n=5, seed=2**64), "seed"),
])
def test_config_rejects_out_of_domain_values(kwargs, key):
    with pytest.raises(DomainError, match=key):
        ExperimentConfig(**{"reps": 10, "seed": 0, **kwargs})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_matched_bound_rejects_non_finite_value(value):
    with pytest.raises(DomainError, match="finite"):
        MatchedBound("b", "risk", value)


def test_nan_margin_is_a_violation():
    # sigma2 near the float maximum overflows the losses: simulate_risk refuses
    # it, and a report that still carries a NaN CI fails its audit
    cfg = ExperimentConfig(problem="normal-mean", reps=10,
                           seed=1, d=4, n=1, sigma2=1.7e308, t_list=(1.0,))
    bounds = (MatchedBound("tail", "tail", 0.1, t=1.0), MatchedBound("risk", "risk", 0.1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="overflow"):
        simulate_risk(cfg, bounds)
    rep = replace(simulate_risk(replace(cfg, sigma2=1.0), bounds),
                  risk_ci=(math.nan, math.nan))
    audit = check_bounds(rep)
    assert not audit.passed
    assert audit.worst_label == "risk" and math.isnan(audit.worst_margin)


@pytest.mark.parametrize("sigma2", [1e152, 1e305])
def test_simulate_risk_refuses_overflowing_ci(sigma2):
    """At 1e152 the losses stay finite but their variance overflows (the CI
    was (-inf, inf) and passed every audit); at 1e305 their sum overflows
    (risk_mean was inf, the CI NaN)."""
    cfg = ExperimentConfig(problem="normal-mean", reps=10_000,
                           seed=1, d=4, n=1, sigma2=sigma2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="sigma2"):
        simulate_risk(cfg, (MatchedBound("risk", "risk", 0.1),))


# -- the estimator that audits each pipeline -----------------------------------


@pytest.mark.parametrize("mode", ["simple", "integrated"])
def test_audit_config_normal_mean_uses_the_sample_mean(mode):
    cfg = audit_config(normal_mean_bound(10, 2.0, 50, mode=mode), 300, 4)
    assert (cfg.problem, cfg.reps, cfg.seed) == ("normal-mean", 300, 4)
    assert (cfg.d, cfg.n, cfg.sigma2) == (10, 50, 2.0)
    assert simulate_risk(replace(cfg, reps=1)).estimator == "mean"


def test_audit_config_sparse_location_thresholds_at_the_bound_eps():
    bound = sparse_location_bound(32, 4, 1.5, 200)
    cfg = audit_config(bound, 300, 4)
    assert cfg.problem == "sparse-location"
    assert simulate_risk(replace(cfg, reps=1)).estimator == "hard-threshold"
    assert (cfg.d, cfg.s, cfg.n, cfg.sigma2, cfg.eps) == (32, 4, 200, 1.5, bound.eps)


def test_audit_config_linear_pipelines_use_ols_on_their_design():
    X = stream(3, 0).standard_normal((20, 8))
    for bound in (linear_regression_bound(X, 1.5), compressed_sensing_bound(X, 2, 1.5)):
        cfg = audit_config(bound, 300, 4, X)
        assert (cfg.problem, cfg.d, cfg.sigma2) == ("regression", 8, 1.5)
        assert simulate_risk(replace(cfg, reps=1)).estimator == "ols"
        assert np.array_equal(cfg.design, X)
        with pytest.raises(DomainError, match="design"):
            audit_config(bound, 300, 4)


def test_audit_config_refuses_a_design_other_than_the_bounds():
    bound = linear_regression_bound(stream(3, 0).standard_normal((20, 8)), 1.5)
    with pytest.raises(DomainError, match="d=8"):
        audit_config(bound, 300, 4, stream(3, 1).standard_normal((20, 9)))


def test_every_pipeline_has_one_audit_problem():
    X = stream(3, 0).standard_normal((20, 8))
    pipelines = {b.pipeline for b in (normal_mean_bound(10, 1.0, 50, mode="simple"),
                                      normal_mean_bound(10, 1.0, 50, mode="integrated"),
                                      sparse_location_bound(32, 4, 1.0, 200),
                                      linear_regression_bound(X, 1.0),
                                      compressed_sensing_bound(X, 2, 1.0))}
    assert pipelines == set(AUDIT_PROBLEM_OF)
    assert set(AUDIT_PROBLEM_OF.values()) == set(PROBLEMS)


def test_audit_config_refuses_a_pipeline_without_an_estimator():
    profile = NeighborhoodProfile(t=1.0, n_max=2, n_min=2)
    for bound in (MinimaxBound(value=0.1, pipeline="generalized-fano"),
                  fano_tail_lower_bound(6, profile, 0.1),
                  fano_conditional_form(1.5, 6, profile),
                  continuum_fano_bound(2.0, 0.1)):
        with pytest.raises(DomainError, match=f"pipeline '{bound.pipeline}'$"):
            audit_config(bound, 300, 4)
