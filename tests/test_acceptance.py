"""Acceptance gate: every shipped inequality and constant, at its stated
tolerance, against exhaustive oracles and seeded Monte Carlo.

Run with ``pytest tests/test_acceptance.py -s`` to see one status line per
criterion. Heavier criteria (volume sweep, 1e5-replicate risk) run in a
couple of minutes total.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import fanolab.cli as cli
from fanolab.continuum import (
    ball_volume_ratio_analytic,
    continuum_fano_bound,
    grid_partition_counts,
    l2_ball_space,
    mc_volume_ratio,
)
from fanolab.discrete import (
    DiscreteSpace,
    NeighborhoodProfile,
    fano_conditional_form,
    fano_inequality_sides,
    fano_tail_lower_bound,
    neighborhood_sizes,
    sparse_sign_cardinality,
    sparse_sign_neighborhood_exact,
    sparse_sign_space,
)
from fanolab.info import binary_entropy, entropy, mutual_information_exact
from fanolab.lab import MatchedBound, audit_config, check_bounds, simulate_risk
from fanolab.minimax import (
    linear_regression_bound,
    normal_mean_bound,
    normal_mean_tail_integral,
    normal_mean_tail_integral_floor,
    sparse_location_bound,
)
from oracles import (
    enumerate_decoders_min_tail,
    quadpack_tail_integral,
    random_chain,
    random_symmetric_space,
)

LN2 = math.log(2.0)
SEED = 20240817


def report(num, desc, ok, detail=""):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_distance_fano_exhaustive():
    start = time.monotonic()
    worst = math.inf
    for i in range(1000):
        meta = np.random.Generator(np.random.Philox(key=[SEED, i]))
        nv = int(meta.integers(2, 6))
        nx = int(meta.integers(2, 6))
        chain = random_chain(SEED, (nv, nx, nv), stream_id=i)
        space = random_symmetric_space(SEED, nv, stream_id=i)
        t = float(meta.uniform(0.0, 2.2))
        lhs, rhs = fano_inequality_sides(chain, space, t)
        worst = min(worst, lhs - rhs)
    elapsed = time.monotonic() - start
    report(1, "distance-based Fano holds on 1000 random chains",
           worst >= -1e-9 and elapsed < 30.0,
           f"min slack={worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_classical_reduction():
    worst = 0.0
    exact_tail = True
    for i in range(100):
        meta = np.random.Generator(np.random.Philox(key=[SEED + 1, i]))
        nv = int(meta.integers(2, 6))
        nx = int(meta.integers(2, 6))
        chain = random_chain(SEED + 1, (nv, nx, nv), stream_id=i, uniform_prior=True)
        space = DiscreteSpace.zero_one(nv)
        lhs, _ = fano_inequality_sides(chain, space, 0.0)
        joint = chain.joint_v_vhat()
        p_err = float(joint.sum() - np.trace(joint))
        classical = binary_entropy(min(max(p_err, 0.0), 1.0))
        if p_err > 0:
            classical += p_err * math.log(nv - 1)
        worst = max(worst, abs(lhs - classical))
        # information form with N_max = N_min = 1 must match the classical
        # mutual-information bound exactly
        mi = mutual_information_exact(chain.prior, chain.channel)
        got = fano_tail_lower_bound(nv, NeighborhoodProfile(t=0.0, n_max=1, n_min=1), mi)
        want = max(0.0, 1.0 - (mi + LN2) / math.log(nv / 1))
        exact_tail = exact_tail and (got.value == want)
    report(2, "0-1 metric at t=0 reduces to the classical forms",
           worst <= 1e-12 and exact_tail, f"max lhs deviation={worst:.3e}")


def test_criterion_03_decoder_oracle():
    violations = 0
    worst = math.inf
    for i in range(200):
        meta = np.random.Generator(np.random.Philox(key=[SEED + 2, i]))
        nv = int(meta.integers(2, 5))
        nx = int(meta.integers(2, 5))
        chain = random_chain(SEED + 2, (nv, nx, nv), stream_id=i, uniform_prior=True)
        space = random_symmetric_space(SEED + 2, nv, stream_id=i)
        t = float(meta.uniform(0.0, 2.0))
        min_tail = enumerate_decoders_min_tail(chain.prior, chain.channel, space, t)
        prof = neighborhood_sizes(space, t)
        mi = mutual_information_exact(chain.prior, chain.channel)
        tail = fano_tail_lower_bound(nv, prof, mi)
        cond = fano_conditional_form(max(0.0, entropy(chain.prior) - mi), nv, prof)
        for val in (tail.value, cond.value):
            worst = min(worst, min_tail - val)
            if min_tail < val - 1e-12:
                violations += 1
    report(3, "exhaustive decoder minimum dominates both Fano forms on 200 instances",
           violations == 0, f"violations={violations}, worst margin={worst:.3e}")


def test_criterion_04_tail_integral_quadrature():
    pairs = [(d, n) for d in (2, 3, 5, 9, 64) for n in (1, 10, 100, 1000)]
    assert len(pairs) == 20
    worst = 0.0
    floor_ok = True
    for d, n in pairs:
        closed = normal_mean_tail_integral(d, n)
        quad = quadpack_tail_integral(d, n)
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
        floor_ok = floor_ok and closed >= normal_mean_tail_integral_floor(d, n)
    report(4, "tail integral closed form matches quadrature on 20 (d, n) pairs",
           worst <= 1e-8 and floor_ok, f"max rel err={worst:.3e}, floor holds={floor_ok}")


def test_criterion_05_normal_mean_constant_and_risk():
    start = time.monotonic()
    res = normal_mean_bound(10, 1.0, 100, mode="integrated")
    want = (81 * LN2 / 400) * 0.1
    const_ok = abs(res.value - want) <= 1e-12 * want
    cfg = audit_config(res, 100_000, SEED + 5)
    rep = simulate_risk(cfg, (MatchedBound("integrated", "risk", res.value),))
    audit = check_bounds(rep)
    elapsed = time.monotonic() - start
    report(5, "dense-mean integrated constant exact and below sample-mean risk",
           const_ok and audit.passed and elapsed < 60.0,
           f"bound={res.value:.6f}, risk={rep.risk_mean:.6f}, {elapsed:.1f}s")


def test_criterion_06_regression_constants_and_risk():
    X = 3.0 * np.eye(9)  # sqrt(n) * identity with d = n = 9
    res = linear_regression_bound(X, 1.0)
    exact = res.extras["exact_value"]
    simplified_ok = res.value == 9 * 1.0 / (12 * 9)
    dominates = exact >= res.value
    cfg = audit_config(res, 10_000, SEED + 6, X)
    rep = simulate_risk(cfg, (MatchedBound("simplified", "risk", res.value),
                              MatchedBound("exact", "risk", exact)))
    audit = check_bounds(rep)
    report(6, "regression constants exact and below OLS risk",
           simplified_ok and dominates and audit.passed,
           f"simplified={res.value:.6f}, exact={exact:.6f}, risk={rep.risk_mean:.4f}")


def test_criterion_07_sparse_pipeline_soundness():
    res = sparse_location_bound(32, 4, 1.0, 200)
    c = res.extras["implied_c"]
    cfg = audit_config(res, 10_000, SEED + 7)
    rep = simulate_risk(cfg, (MatchedBound("sparse-location", "risk", res.value),))
    audit = check_bounds(rep)
    report(7, "sparse pipeline bound below thresholding risk with c in (0, 1]",
           audit.passed and 0 < c <= 1,
           f"bound={res.value:.3e}, risk={rep.risk_mean:.3e}, implied c={c:.4f}")


def test_criterion_08_volume_oracle_sweep():
    lines = []
    all_ok = True
    for d in (2, 3, 5):
        space = l2_ball_space(d, 1.0)
        truth = ball_volume_ratio_analytic(1.0, 0.5, d)
        fails = 0
        for k in range(100):
            est = mc_volume_ratio(space, 0.5, points=10**6, seed=SEED + 8 + k)
            if abs(est.ratio - truth) > 0.03 * truth or \
                    not (est.ci[0] <= truth <= est.ci[1]):
                fails += 1
        lines.append(f"d={d}: {fails}/100")
        all_ok = all_ok and fails <= 3
    report(8, "volume ratio within 3% and CI coverage across 100 seeds",
           all_ok, ", ".join(lines))


def test_criterion_09_grid_convergence_level9():
    disk = l2_ball_space(2, 1.0)
    gp = grid_partition_counts(disk, 0.5, 9)
    area = gp.cell_width**2 * gp.cell_count
    area_err = abs(area - math.pi) / math.pi
    ratio_err = abs(gp.log_count_ratio() - math.log(4.0)) / math.log(4.0)
    report(9, "level-9 grid: disk area within 2%, log ratio within 5%",
           area_err <= 0.02 and ratio_err <= 0.05,
           f"area err={area_err:.4f}, log-ratio err={ratio_err:.4f}")


def test_criterion_10_continuum_bound_sanity():
    ok = True
    for d in (2, 3, 4, 7, 16, 101):
        log_ratio = math.log(ball_volume_ratio_analytic(2.0, 1.0, d))
        val = continuum_fano_bound(log_ratio, 0.0).value
        ok = ok and abs(val - (d - 1) / d) <= 1e-12
    half = continuum_fano_bound(math.log(ball_volume_ratio_analytic(2.0, 1.0, 2)),
                                0.0).value
    ok = ok and abs(half - 0.5) <= 1e-12
    report(10, "r=2t, I=0 gives (d-1)/d exactly; 1/2 at d=2", ok,
           f"d=2 value={half!r}")


def test_criterion_11_sparse_sign_combinatorics():
    card_ok = True
    bound_ok = True
    local_ok = True
    for d in range(1, 11):
        for s in range(1, d + 1):
            space = sparse_sign_space(d, s)
            card_ok = card_ok and space.n_points == sparse_sign_cardinality(d, s)
            t = s // 4
            upper = math.ceil(s / 4) * 2**t * math.comb(d, t)
            # full all-centers enumeration, not the homogeneous shortcut
            prof = neighborhood_sizes(DiscreteSpace.hamming(space.vectors), t)
            bound_ok = bound_ok and prof.n_max <= upper
            local_ok = local_ok and \
                sparse_sign_neighborhood_exact(d, s, t) == prof.n_max == prof.n_min
    report(11, "sparse-sign cardinalities and neighborhood ceiling for all d <= 10",
           card_ok and bound_ok and local_ok,
           f"cardinalities={card_ok}, ceiling={bound_ok}, local count={local_ok}")


# The six criterion-12 runs at seed 31, each with the SHA-256 of its report
# as the suites wrote it before they moved from fanolab.cli to fanolab.verify;
# quadrature's is re-pinned to its Gauss-Legendre reference, whose errors
# differ from QUADPACK's in the last bits, and grid-partition's to the
# closed-form touched count and the margins its log-ratio checks now carry.
CRITERION_12_SUITES = [
    (["verify", "prop1-exhaustive", "--seed", "31", "--instances", "150"],
     "962d4dd7aa763c0d64fad33e61430c3800f85c082e1343081a4cdd7d7eb46d37"),
    (["verify", "decoder-oracle", "--seed", "31", "--instances", "50"],
     "09a686899b94c44809067648ec488933d2ad2edb9c7c91af0c5c943ca68b3662"),
    (["verify", "quadrature", "--seed", "31"],
     "8fc2c021614b033464b3941fbf0dca666dafc412f3b2d4b7426630423c830319"),
    (["verify", "volume", "--seed", "31", "--seeds", "3", "--points", "50000"],
     "70df93db9e0f26ac1c14d5b97e04e3c64450f67b503e126ddffbd604654c8575"),
    (["verify", "grid-partition", "--seed", "31", "--level", "6"],
     "bcf5b9f57d5fe7b33f461708dcc8ac31d086ddf3ce25c9d2ebfd7717c400450d"),
    (["verify", "estimator-risk", "--seed", "31", "--reps-scale", "0.01"],
     "32f14c52cbb64788d744be4ef05e10433aaa2155eff0f89f54e452ca79219f57"),
]


def test_criterion_12_verify_suites_byte_identical(tmp_path):
    identical = True
    for argv, _ in CRITERION_12_SUITES:
        a, b = tmp_path / f"a-{argv[1]}", tmp_path / f"b-{argv[1]}"
        for out in (a, b):
            code = cli.main(argv + ["--out-dir", str(out)])
            assert code == 0, f"suite {argv[1]} failed"
        name = f"verify-{argv[1]}-seed31.txt"
        identical = identical and \
            (a / name).read_bytes() == (b / name).read_bytes()
    report(12, "all six verify suites byte-identical on repeat", identical)


@pytest.mark.parametrize("argv, digest", CRITERION_12_SUITES,
                         ids=[argv[1] for argv, _ in CRITERION_12_SUITES])
def test_criterion_12_reports_match_pinned_digests(argv, digest, tmp_path):
    """Repeat-identity cannot show that a refactor kept the bytes; the
    pinned digests can."""
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    report_bytes = (tmp_path / f"verify-{argv[1]}-seed31.txt").read_bytes()
    assert hashlib.sha256(report_bytes).hexdigest() == digest
