"""Verification suites: each one audits a family of computed quantities
against an independent reference and returns its findings as Check records.

Every suite takes the seed, whether to inject a fault (corrupt the quantity
under test, to show that the suite detects it) and its own keys. report()
turns the records into the text of a verify report: one line per check,
then the suite's verdict (every check passed) and its worst margin (the
smallest margin among the checks that carry one, in check order).

The quadrature suite's reference is a composite Gauss-Legendre rule from
numpy, and the intervals come from fanolab.stats, so no suite loads scipy.
Each suite imports the library modules it calls: only volume and
grid-partition load fanolab.continuum, which runs their chunks in forked
worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .info import LN2, DomainError, _budget
from .streams import VERIFY_STREAM, stream

if TYPE_CHECKING:
    from . import lab

VERIFY_SCHEMA = "fanolab-verify-v1"
# the (d, n) pairs at which the quadrature suite checks the tail integral
TAIL_PAIRS = [(d, n) for d in (2, 3, 5, 9, 64) for n in (1, 10, 100, 1000)]
# the most runs of the volume suite that go to one continuum.mc_volume_ratios call
_SEED_BATCH = 1024


@dataclass(frozen=True)
class Check:
    """One check of a suite: whether it passed, the key=value fields of its
    report line (floats shown by repr, other values as str), and its margin
    toward the suite's worst margin, or None when it carries none."""

    name: str
    ok: bool
    fields: dict = field(default_factory=dict)
    margin: float | None = None


def report(suite: str, seed: int, checks: list[Check]) -> tuple[str, bool]:
    """(the report text, whether every check passed)."""
    ok = all(c.ok for c in checks)
    worst = min(c.margin for c in checks if c.margin is not None)
    lines = [f"# fanolab verify suite={suite} seed={seed} schema={VERIFY_SCHEMA}"]
    for c in checks:
        lines.append(" ".join([f"check {c.name}: {'PASS' if c.ok else 'FAIL'}"]
                              + [f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in c.fields.items()]))
    lines.append(f"suite {suite}: {'PASS' if ok else 'FAIL'} worst_margin={worst!r}")
    return "\n".join(lines) + "\n", ok


def prop1_exhaustive(seed: int, fault: bool, instances: int) -> list[Check]:
    from . import lab

    worst = math.inf
    for group in lab.prop1_groups(seed, instances):
        lhs, rhs = lab.fano_sides_batch(group)
        slack = lhs - rhs - (0.1 if fault else 0.0)
        worst = min(worst, float(slack.min()))
    return [Check("distance-fano-sides", worst >= -1e-9,
                  {"instances": instances, "min_slack": worst}, worst)]


def decoder_oracle(seed: int, fault: bool, instances: int) -> list[Check]:
    from . import lab

    worst = math.inf
    bump = 0.05 if fault else 0.0
    for group in lab.decoder_groups(seed, instances):
        min_tail, tail, cond = lab.decoder_bounds_batch(group)
        margin = np.minimum(min_tail - (tail + bump), min_tail - (cond + bump))
        worst = min(worst, float(margin.min()))
    return [Check("decoder-domination", worst >= -1e-12,
                  {"instances": instances, "worst_margin": worst}, worst)]


def _gauss_legendre(f, edges: np.ndarray, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """Composite Gauss-Legendre quadrature: the rule (nodes and weights on
    [-1, 1], from np.polynomial.legendre.leggauss) applied to f on every
    panel [edges[i], edges[i+1]]. f takes an array of points."""
    nodes, weights = rule
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    return float(half @ (f(mid[:, None] + half[:, None] * nodes) @ weights))


def _quad_hinge_log(d: int, n: int, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """Quadrature of max(0, (d-1)/d - n*ln(1+t)/(2 d ln2)) on [0, inf): the
    Gauss-Legendre rule on 120 log-spaced panels that end at the kink."""
    c = (d - 1) / d

    def f(t):
        return c - n * np.log1p(t) / (2 * d * LN2)

    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
    # locate the kink, then integrate on log-spaced panels up to it
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    edges = np.concatenate([[0.0], np.logspace(-6, math.log10(max(root, 1e-6)), 120)])
    edges = edges[edges <= root]
    return _gauss_legendre(f, np.append(edges, root), rule)


def _hinge_draws(seed: int) -> list[tuple[float, float]]:
    """The quadrature suite's 20 seeded (c1, c2) hinge coefficients."""
    g = stream(seed, VERIFY_STREAM + (2 << 20))
    return [(float(g.uniform(0.0, 5.0)), float(g.uniform(0.1, 5.0))) for _ in range(20)]


def _quad_hinge(c1: float, c2: float, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """Quadrature of max(0, c1 - c2*t) on [0, inf) for c1 >= 0: the integrand
    vanishes beyond its root c1/c2, so the rule covers the smooth piece in
    one panel."""
    return _gauss_legendre(lambda t: c1 - c2 * t, np.array([0.0, c1 / c2]), rule)


def quadrature(seed: int, fault: bool) -> list[Check]:
    from . import minimax

    rule = np.polynomial.legendre.leggauss(20)
    worst = -math.inf
    floor_ok = True
    for d, n in TAIL_PAIRS:
        closed = minimax.normal_mean_tail_integral(d, n) + (1e-6 if fault else 0.0)
        quad = _quad_hinge_log(d, n, rule)
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
        if closed < minimax.normal_mean_tail_integral_floor(d, n):
            floor_ok = False
    hinge_worst = max(abs(minimax.hinge_integral(c1, c2) - _quad_hinge(c1, c2, rule))
                      for c1, c2 in _hinge_draws(seed))
    return [
        Check("tail-integral-vs-quadrature", worst <= 1e-8,
              {"pairs": len(TAIL_PAIRS), "max_rel_err": worst}, 1e-8 - worst),
        Check("tail-integral-floor", floor_ok),
        Check("hinge-identity-vs-quadrature", hinge_worst <= 1e-10,
              {"max_abs_err": hinge_worst}, 1e-10 - hinge_worst),
    ]


def volume(seed: int, fault: bool, seeds: int, points: int) -> list[Check]:
    """Per dimension, `seeds` estimates of the ratio of a radius-1/2 ball to
    the unit ball. A run fails when it is off by more than 3% or its CI
    misses the truth; the check allows at most 3 such runs, and never all.
    Run k takes seed + k, so the last seed must still be a stream seed.
    The runs of a dimension go to continuum.mc_volume_ratios in one call,
    which forks its worker processes once, or in calls of _SEED_BATCH
    seeds, so that what the suite holds does not grow with `seeds`."""
    from . import continuum

    # three dimensions, each run counting the region and the declared ball
    _budget("sampled points", 6 * seeds * points, "6 * seeds * points")
    if seed + seeds - 1 >= 2**64:
        raise DomainError(f"seeds={seeds} from seed={seed} would run seeds past 2**64 - 1, "
                          "the largest stream seed")
    checks = []
    for d in (2, 3, 5):
        space = continuum.l2_ball_space(d, 1.0)
        truth = continuum.ball_volume_ratio_analytic(1.0, 0.5, d) * (1.2 if fault else 1.0)
        fails = 0
        d_rel = 0.0
        for first in range(seed, seed + seeds, _SEED_BATCH):
            batch = range(first, min(first + _SEED_BATCH, seed + seeds))
            for est in continuum.mc_volume_ratios(space, 0.5, points=points, seeds=batch):
                d_rel = max(d_rel, abs(est.ratio - truth) / truth)
                if abs(est.ratio - truth) > 0.03 * truth or \
                        not (est.ci[0] <= truth <= est.ci[1]):
                    fails += 1
        checks.append(Check(f"volume-ratio-d{d}", fails <= 3 and fails < seeds,
                            {"failures": f"{fails}/{seeds}", "max_rel_err": d_rel},
                            0.03 - d_rel))
    return checks


def grid_partition(seed: int, fault: bool, level: int) -> list[Check]:
    """The unit square's cell counts, then the disk's area and log count
    ratio against pi and ln 4 at levels level - 4 to level. The grid draws
    nothing, so the seed changes no check. The disk at `level` is computed
    first, so a level past the grid budget is refused before any other."""
    from . import continuum

    disk = continuum.l2_ball_space(2, 1.0)
    gp = continuum.grid_partition_counts(disk, 0.5, level)
    square = continuum.box_space([0.0, 0.0], [1.0, 1.0], metric="linf")
    sq_ok = all(continuum.grid_partition_counts(square, 0.5, lv).cell_count == 4**lv
                for lv in range(1, 5))
    log4 = math.log(4.0) * (1.2 if fault else 1.0)
    errs = [abs(continuum.grid_partition_counts(disk, 0.5, lv).log_count_ratio() - log4)
            for lv in range(level - 4, level)]
    errs.append(abs(gp.log_count_ratio() - log4))
    truth = math.pi * (1.05 if fault else 1.0)
    area_err = abs(gp.cell_width**2 * gp.cell_count - truth) / truth
    ratio_err = errs[-1] / log4
    return [
        Check("unit-square-cells", sq_ok),
        Check(f"disk-area-level{level}", area_err <= 0.02, {"rel_err": area_err},
              0.02 - area_err),
        Check(f"log-ratio-level{level}", ratio_err <= 0.05,
              {"rel_err": ratio_err, "cell_count": gp.cell_count,
               "touched_count": gp.touched_count}, 0.05 - ratio_err),
        Check("log-ratio-convergence", errs[-1] <= errs[0],
              {"errs": [repr(e) for e in errs]}, errs[0] - errs[-1]),
    ]


def _risk_check(name: str, config: lab.ExperimentConfig, *bounds: lab.MatchedBound) -> Check:
    """Simulates `config` and checks that every bound sits below the 99% CI
    upper endpoint of the risk or tail it is matched to. The report line
    shows that risk or tail, the bound when there is one, and the margin."""
    from . import lab

    rep = lab.simulate_risk(config, bounds)
    audit = lab.check_bounds(rep)
    fields = ({"tail": rep.tails[0].p_hat} if bounds[0].target == "tail"
              else {"risk": rep.risk_mean})
    if len(bounds) == 1:
        fields["bound"] = bounds[0].value
    return Check(name, audit.passed, {**fields, "margin": audit.worst_margin},
                 audit.worst_margin)


def estimator_risk(seed: int, fault: bool, reps_scale: float) -> list[Check]:
    from . import lab, minimax
    from ._volume import continuum_fano_bound

    inflate = 20.0 if fault else 1.0

    def reps(base: int) -> int:
        return max(100, int(base * reps_scale))

    nm = minimax.normal_mean_bound(10, 1.0, 100, mode="integrated")
    X = 3.0 * np.eye(9)
    reg = minimax.linear_regression_bound(X, 1.0)
    sp = minimax.sparse_location_bound(32, 4, 1.0, 200)
    # nonvacuous continuum tail at one radius: d=2, one sample, t chosen so
    # the channel information bound stays below the volume log-ratio
    t = math.sqrt((math.sqrt(2.0) - 1.0) / 4.0)
    mi_ub = 0.5 * math.log1p(4.0 * t * t)
    tail = continuum_fano_bound(2 * LN2, mi_ub)
    tail_config = lab.ExperimentConfig(problem="normal-mean", reps=reps(20_000), seed=seed,
                                       d=2, n=1, sigma2=1.0, t_list=(t,))
    return [
        _risk_check("normal-mean-risk", lab.audit_config(nm, reps(100_000), seed),
                    lab.MatchedBound("normal-mean-integrated", "risk", inflate * nm.value)),
        _risk_check("regression-risk", lab.audit_config(reg, reps(10_000), seed, X),
                    lab.MatchedBound("regression-simplified", "risk", inflate * reg.value),
                    lab.MatchedBound("regression-exact", "risk",
                                     inflate * reg.extras["exact_value"])),
        _risk_check("sparse-location-risk", lab.audit_config(sp, reps(10_000), seed),
                    lab.MatchedBound("sparse-location", "risk", inflate * sp.value)),
        _risk_check("continuum-tail", tail_config,
                    lab.MatchedBound("continuum-tail", "tail", inflate * tail.value, t=t)),
    ]
