"""Verify suites as check records: the one report formatter, the rules
that the suites apply, and the accuracy of the quadrature suite's reference."""

import re

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import fanolab.cli as cli
from fanolab.info import LN2
from fanolab.verify import (
    TAIL_PAIRS,
    Check,
    _hinge_draws,
    _quad_hinge,
    _quad_hinge_log,
    grid_partition,
    report,
    volume,
)
from oracles import quadpack_tail_integral

RULE = np.polynomial.legendre.leggauss(20)
# d up to 1000 and n up to 1e5, wherever the integral's kink expm1(2 (d-1) ln2 / n)
# fits a float64; that leaves out d = 1000, n = 1 only
WIDE_PAIRS = [(d, n) for d in (2, 10, 100, 1000) for n in (1, 10, 100, 1000, 10**4, 10**5)
              if 2 * (d - 1) * LN2 / n < 700]
# each suite at its criterion-12 size
SUITE_ARGV = [
    ["prop1-exhaustive", "--instances", "150"],
    ["decoder-oracle", "--instances", "50"],
    ["quadrature"],
    ["volume", "--seeds", "3", "--points", "50000"],
    ["grid-partition", "--level", "6"],
    ["estimator-risk", "--reps-scale", "0.01"],
]


def test_report_lines_verdict_and_worst_margin():
    """The verdict is that every check passed, whatever the margins say; the
    worst margin is the smallest one carried, in check order."""
    checks = [Check("a", True, {"k": 3, "x": 0.5, "s": "1/3"}, 0.25),
              Check("b", False),
              Check("c", True, {"errs": "['0.1']"}, 0.125)]
    text, ok = report("demo", 7, checks)
    assert not ok
    assert text == ("# fanolab verify suite=demo seed=7 schema=fanolab-verify-v1\n"
                    "check a: PASS k=3 x=0.5 s=1/3\n"
                    "check b: FAIL\n"
                    "check c: PASS errs=['0.1']\n"
                    "suite demo: FAIL worst_margin=0.125\n")


def test_report_passes_when_every_check_passes():
    text, ok = report("demo", 1, [Check("a", True, {}, -0.5), Check("b", True)])
    assert ok and text.endswith("suite demo: PASS worst_margin=-0.5\n")


@pytest.mark.parametrize("seeds", [1, 2, 3])
def test_volume_never_forgives_every_run_failing(seeds):
    """Up to 3 failed runs pass, but not when they are all of the runs."""
    checks = volume(5, True, seeds=seeds, points=10_000)
    assert [c.fields["failures"] for c in checks] == [f"{seeds}/{seeds}"] * 3
    assert not any(c.ok for c in checks)


def test_volume_hands_its_runs_over_in_batches(monkeypatch):
    """A dimension's runs go to mc_volume_ratios in calls of at most 1024
    seeds, in seed order, so what the suite holds does not grow with seeds."""
    from fanolab import continuum

    calls = []

    def record(space, t, *, points, seeds):
        calls.append((space.dim, seeds[0], len(seeds)))
        truth = 2.0**space.dim  # the radius-1/2 ball in the unit ball
        exact = continuum.VolumeRatioEstimate(truth, (truth, truth), 1.0, (1.0, 1.0),
                                              1.0 / truth, (1.0 / truth, 1.0 / truth))
        return [exact] * len(seeds)

    monkeypatch.setattr(continuum, "mc_volume_ratios", record)
    checks = volume(7, False, seeds=2500, points=1)
    assert calls == [(d, 7 + first, n) for d in (2, 3, 5)
                     for first, n in ((0, 1024), (1024, 1024), (2048, 452))]
    assert [c.fields["failures"] for c in checks] == ["0/2500"] * 3


def test_grid_partition_checks_carry_their_margins():
    checks = {c.name: c for c in grid_partition(1, False, 6)}
    level = checks["log-ratio-level6"]
    assert level.ok and level.margin == 0.05 - level.fields["rel_err"]
    assert (level.fields["cell_count"], level.fields["touched_count"]) == (13056, 3473)
    conv = checks["log-ratio-convergence"]
    errs = [float(e) for e in conv.fields["errs"]]
    assert conv.ok and conv.margin == errs[0] - errs[-1] > 0


@pytest.mark.parametrize("level", [6, 9])
def test_grid_partition_fault_fails_area_and_log_ratio(level):
    """The injected fault corrupts both truths, pi and ln 4, so both checks
    at the top level fail, with negative margins."""
    failed = {c.name: c.margin for c in grid_partition(1, True, level) if not c.ok}
    assert {f"disk-area-level{level}", f"log-ratio-level{level}"} <= set(failed)
    assert failed[f"log-ratio-level{level}"] < 0


def test_grid_partition_checks_do_not_depend_on_the_seed(tmp_path):
    """The grid draws nothing, so only the report's header names the seed."""
    lines = []
    for seed in (1, 31):
        assert cli.main(["verify", "grid-partition", "--level", "6", "--seed", str(seed),
                         "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / f"verify-grid-partition-seed{seed}.txt").read_text()
        lines.append(text.splitlines()[1:])
    assert lines[0] == lines[1]


def _mp_tail_integral(d, n):
    """The tail integral by mpmath's tanh-sinh rule at 30 digits, from 0 to
    the kink expm1(c / k) where the integrand c - k ln(1+t) reaches zero."""
    with mp.workdps(30):
        c = mp.mpf(d - 1) / d
        k = mp.mpf(n) / (2 * d * mp.log(2))
        return mp.quad(lambda t: c - k * mp.log1p(t), [0, mp.expm1(c / k)])


@pytest.mark.parametrize("d, n", sorted(set(TAIL_PAIRS + WIDE_PAIRS)))
def test_tail_reference_matches_quadpack_and_mpmath(d, n):
    """The composite Gauss-Legendre reference agrees with QUADPACK, the
    suite's former reference, and with mpmath to 1e-13 relative error."""
    ref = _quad_hinge_log(d, n, RULE)
    assert abs(ref - quadpack_tail_integral(d, n)) <= 1e-13 * ref
    assert abs(ref - _mp_tail_integral(d, n)) <= 1e-13 * ref


@pytest.mark.parametrize("seed", [1, 5, 31])
def test_hinge_reference_matches_quadpack_and_mpmath(seed):
    draws = _hinge_draws(seed)
    assert len(draws) == 20
    for c1, c2 in draws:
        ref = _quad_hinge(c1, c2, RULE)
        quadpack = integrate.quad(lambda t: c1 - c2 * t, 0.0, c1 / c2, limit=200)[0]
        with mp.workdps(30):
            exact = mp.quad(lambda t: c1 - c2 * t, [0, mp.mpf(c1) / c2])
        assert abs(ref - quadpack) <= 1e-13 * ref
        assert abs(ref - exact) <= 1e-13 * ref


@pytest.mark.parametrize("argv", SUITE_ARGV, ids=[argv[0] for argv in SUITE_ARGV])
def test_reports_show_no_numpy_scalar_repr(argv, tmp_path):
    """A numpy scalar in a check's fields would print as np.float64(...);
    every suite casts its values to Python numbers first."""
    assert cli.main(["verify", *argv, "--seed", "31", "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / f"verify-{argv[0]}-seed31.txt").read_text()
    assert not re.search(r"\bnp\.\w+", text), text
