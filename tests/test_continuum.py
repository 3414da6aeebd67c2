"""Volume-ratio machinery against analytic geometry oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolab import continuum
from fanolab.continuum import (
    ContinuumSpace,
    EstimationError,
    ball_volume_ratio_analytic,
    box_space,
    continuum_fano_bound,
    grid_partition_counts,
    l2_ball_space,
    mc_volume_ratio,
    surface_volume_bounds,
)
from fanolab.info import DomainError

LN2 = math.log(2.0)


def box_intersection_volume(center, t, lo=0.0, hi=1.0):
    """Analytic |B_inf(t, c) & [lo, hi]^d| for the sup-norm ball."""
    c = np.asarray(center, dtype=float)
    return float(np.prod(np.minimum(c + t, hi) - np.maximum(c - t, lo)))


# -- analytic ratio -------------------------------------------------------------


def test_ratio_power():
    assert ball_volume_ratio_analytic(2.0, 1.0, 2) == 4.0
    assert ball_volume_ratio_analytic(1.0, 1.0, 7) == 1.0
    for d in (1, 2, 3, 10):
        assert math.log(ball_volume_ratio_analytic(2.0, 1.0, d)) == pytest.approx(
            d * LN2, rel=1e-15)


def test_ratio_domain():
    with pytest.raises(DomainError):
        ball_volume_ratio_analytic(1.0, 2.0, 3)
    with pytest.raises(DomainError):
        ball_volume_ratio_analytic(1.0, 0.0, 3)


def test_ratio_overflow_refused():
    with pytest.raises(DomainError, match="overflow"):
        ball_volume_ratio_analytic(1e300, 0.25, 12)


# -- Monte Carlo volume ratio ----------------------------------------------------


def test_mc_ratio_ball_in_ball_d3():
    est = mc_volume_ratio(l2_ball_space(3, 1.0), 0.5, centers=0, points=200_000, seed=42)
    assert est.ci[0] <= 8.0 <= est.ci[1]
    assert est.ratio == pytest.approx(8.0, rel=0.05)
    assert est.sup_source == "declared"


def test_mc_ratio_unit_square_linf():
    """Ball at the middle covers the whole square: ratio -> 1."""
    space = box_space([0.0, 0.0], [1.0, 1.0], metric="linf")
    est = mc_volume_ratio(space, 0.5, centers=8, points=100_000, seed=3)
    assert est.ci[0] <= 1.0 <= est.ci[1] * (1 + 1e-9)
    assert est.ratio == pytest.approx(1.0, rel=0.03)
    assert est.ball_estimate == pytest.approx(
        box_intersection_volume(est.center, 0.5), rel=0.03)


def test_mc_ratio_sampled_centers_match_box_oracle():
    """Per-center ball estimates agree with the exact box-intersection areas."""
    space = box_space([0.0, 0.0], [1.0, 1.0], metric="linf")
    g = np.random.Generator(np.random.Philox(key=7))
    for _ in range(5):
        c = g.random(2)
        sub = ContinuumSpace(dim=2, contains=space.contains,
                             bounding_box=space.bounding_box, rho=space.rho,
                             ball_bbox=space.ball_bbox, sup_center=c)
        est = mc_volume_ratio(sub, 0.3, centers=0, points=100_000, seed=11)
        assert est.ball_estimate == pytest.approx(
            box_intersection_volume(c, 0.3), rel=0.05)


def test_mc_ratio_t_at_least_diameter():
    space = l2_ball_space(2, 1.0)
    est = mc_volume_ratio(space, 2.0, centers=0, points=50_000, seed=5)
    assert est.ci[0] <= 1.0 <= est.ci[1]
    assert est.ratio == pytest.approx(1.0, rel=0.02)


def test_mc_ratio_reproducible():
    space = l2_ball_space(2, 1.0)
    a = mc_volume_ratio(space, 0.5, centers=4, points=20_000, seed=9)
    b = mc_volume_ratio(space, 0.5, centers=4, points=20_000, seed=9)
    assert a.ratio == b.ratio and a.ci == b.ci


def test_mc_ratio_estimation_failure():
    # membership never true inside the box: zero acceptance must raise
    space = ContinuumSpace(dim=1, contains=lambda p: np.zeros(len(p), dtype=bool),
                           bounding_box=np.array([[0.0], [1.0]]),
                           rho=lambda c, p: np.abs(p - c).ravel(),
                           sup_center=np.array([0.5]))
    with pytest.raises(EstimationError):
        mc_volume_ratio(space, 0.1, centers=0, points=1000, seed=0)


def hit_counts(est, space, t, points):
    """(region hits, hits of the winning ball), recovered from an estimate."""
    lo, hi = space.bounding_box
    bb = space.ball_bbox(est.center, t) if space.ball_bbox else space.bounding_box
    sub_vol = float(np.prod(np.minimum(hi, bb[1]) - np.maximum(lo, bb[0])))
    return (round(est.vol_estimate / space.box_volume() * points),
            round(est.ball_estimate / sub_vol * points))


def plain_disk():
    """The unit disk built from lambdas, with no ball_bbox and no declared center."""
    return ContinuumSpace(dim=2, contains=lambda p: (p * p).sum(axis=1) <= 1.0,
                          bounding_box=np.array([[-1.0, -1.0], [1.0, 1.0]]),
                          rho=lambda c, p: np.sqrt(((p - c) ** 2).sum(axis=1)))


# 200_003 points leave a partial last chunk; centers=3 runs the sampled
# candidates next to the declared one. The counts were taken from the
# serial implementation, before chunks ran on threads.
GOLDEN_MC = [
    (lambda: l2_ball_space(2, 1.0), 0.5, (157101, 157514), 3.989512043373922),
    (lambda: l2_ball_space(3, 1.0), 0.5, (104823, 104781), 8.003206688235464),
    (lambda: l2_ball_space(5, 1.0), 0.5, (33145, 32646), 32.48912577344851),
    (lambda: box_space(np.zeros(2), np.ones(2)), 0.3, (200003, 200003), 2.7777777777777772),
    (lambda: box_space(np.zeros(3), np.ones(3)), 0.3, (200003, 200003), 4.629629629629628),
    (lambda: box_space(np.zeros(5), np.ones(5)), 0.3, (200003, 200003), 12.86008230452674),
    (lambda: box_space(np.zeros(3), np.ones(3), metric="l2"), 0.3, (200003, 104781),
     8.836905687241147),
]


@pytest.mark.parametrize("make, t, hits, ratio", GOLDEN_MC)
def test_mc_ratio_golden_counts(make, t, hits, ratio):
    space = make()
    est = mc_volume_ratio(space, t, centers=3, points=200_003, seed=7)
    assert hit_counts(est, space, t, 200_003) == hits
    assert est.ratio == ratio
    assert est.sup_source == "declared"


def test_mc_ratio_user_built_space_golden():
    space = plain_disk()
    est = mc_volume_ratio(space, 0.5, centers=3, points=200_003, seed=7)
    assert hit_counts(est, space, 0.5, 200_003) == (157101, 39362)
    assert est.ratio == 3.991184391037041
    assert est.sup_source == "sampled"
    assert est.center.tolist() == [0.3752783223698122, 0.2646387513888435]


def assert_same_estimate(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("make", [lambda: l2_ball_space(2, 1.0), plain_disk])
def test_results_do_not_depend_on_worker_count(make, monkeypatch):
    space = make()
    runs = []
    for workers in (1, 4):
        monkeypatch.setattr(continuum, "_usable_cpus", lambda: workers)
        runs.append((mc_volume_ratio(space, 0.5, centers=3, points=200_003, seed=5),
                     grid_partition_counts(space, 0.5, 8, seed=5, centers=3)))
    (est1, gp1), (est4, gp4) = runs
    assert_same_estimate(est1, est4)
    assert gp1 == gp4


# -- the bound itself -------------------------------------------------------------


def test_continuum_bound_exact_values():
    assert continuum_fano_bound(2 * LN2, 0.0).value == 0.5
    for d in (2, 3, 4, 8, 64):
        got = continuum_fano_bound(d * LN2, 0.0).value
        assert got == pytest.approx((d - 1) / d, abs=1e-12)


def test_continuum_bound_vacuous_and_invalid():
    res = continuum_fano_bound(2 * LN2, 50.0)
    assert res.value == 0.0 and res.valid
    res = continuum_fano_bound(-1.0, 0.0)
    assert res.value == 0.0 and not res.valid
    with pytest.raises(DomainError):
        continuum_fano_bound(math.inf, 0.0)
    with pytest.raises(DomainError):
        continuum_fano_bound(1.0, -0.1)


@pytest.mark.parametrize("mi", [math.nan, math.inf])
def test_continuum_bound_rejects_non_finite_mi(mi):
    with pytest.raises(DomainError, match=r"\bmi\b"):
        continuum_fano_bound(2.0, mi)


@given(st.floats(min_value=0.01, max_value=20), st.floats(min_value=0, max_value=20),
       st.floats(min_value=0, max_value=20))
@settings(max_examples=150, deadline=None)
def test_continuum_bound_monotone(log_ratio, mi1, mi2):
    lo, hi = sorted((mi1, mi2))
    assert continuum_fano_bound(log_ratio, hi).value <= \
        continuum_fano_bound(log_ratio, lo).value + 1e-15
    assert continuum_fano_bound(log_ratio, lo).value <= \
        continuum_fano_bound(log_ratio + 1.0, lo).value + 1e-15


# -- grid partition ----------------------------------------------------------------


def test_grid_unit_square_exact_counts():
    space = box_space([0.0, 0.0], [1.0, 1.0], metric="linf")
    for level in range(1, 5):
        gp = grid_partition_counts(space, 0.5, level, seed=0, centers=2)
        assert gp.cell_count == 4**level
        assert gp.cell_width == 2.0 ** (-level)


def test_grid_disk_area_converges():
    disk = l2_ball_space(2, 1.0)
    gp = grid_partition_counts(disk, 0.5, 7, seed=0, centers=2)
    area = gp.cell_width**2 * gp.cell_count
    assert area == pytest.approx(math.pi, rel=0.02)


def test_grid_ball_in_ball_log_ratio():
    disk = l2_ball_space(2, 1.0)
    gp = grid_partition_counts(disk, 0.5, 7, seed=0, centers=4)
    assert gp.log_count_ratio() == pytest.approx(math.log(4.0), rel=0.05)


def test_grid_log_ratio_error_shrinks_with_level():
    """Discrete quotient bound ingredient approaches the continuum one."""
    disk = l2_ball_space(2, 1.0)
    errs = [abs(grid_partition_counts(disk, 0.5, lv, seed=0, centers=2).log_count_ratio()
                - math.log(4.0)) for lv in (4, 5, 6, 7)]
    assert errs[-1] < errs[0]
    bound_errs = [abs(continuum_fano_bound(math.log(4.0) - e, 0.0).value
                      - continuum_fano_bound(math.log(4.0), 0.0).value) for e in errs]
    assert bound_errs[-1] < bound_errs[0]


def test_grid_golden_counts():
    disk = grid_partition_counts(l2_ball_space(2, 1.0), 0.5, 8, seed=7, centers=4)
    assert (disk.cell_count, disk.touched_count) == (206620, 51856)
    user = grid_partition_counts(plain_disk(), 0.5, 6, seed=7, centers=3)
    assert (user.cell_count, user.touched_count) == (13056, 3311)


def test_grid_memory_guard():
    disk = l2_ball_space(2, 1.0)
    with pytest.raises(EstimationError):
        grid_partition_counts(disk, 0.5, 14, seed=0, max_cells=10**6)


# -- surface sandwich ----------------------------------------------------------------


def test_surface_bounds_eps_zero():
    assert surface_volume_bounds(3.0, 7.0, 0.0, 2) == (3.0, 3.0)


def test_surface_bounds_unit_square():
    lo, hi = surface_volume_bounds(1.0, 4.0, 0.1, 2)
    assert lo == pytest.approx(1 - 0.16, rel=1e-12)
    assert hi == pytest.approx(1 + 0.16, rel=1e-12)


def test_surface_bounds_power_law():
    for d in (1, 2, 3):
        lo1, hi1 = surface_volume_bounds(1.0, 1.0, 0.2, d)
        lo2, hi2 = surface_volume_bounds(1.0, 1.0, 0.1, d)
        assert (hi1 - 1.0) == pytest.approx((hi2 - 1.0) * 2**d, rel=1e-12)


def test_surface_bounds_domain():
    with pytest.raises(DomainError):
        surface_volume_bounds(-1.0, 1.0, 0.1, 2)
    with pytest.raises(DomainError):
        surface_volume_bounds(1.0, 1.0, 0.1, 0)


def test_grid_counts_within_first_order_surface_correction():
    """|eps^d * cell count - Vol| <= eps * surface on disks and boxes.

    The grid count converges at first order in the cell width with the
    surface area as the prefactor; constant 1 is comfortable for both
    shapes at these levels.
    """
    for space, vol, surf in [(l2_ball_space(2, 1.0), math.pi, 2 * math.pi),
                             (box_space([0.0, 0.0], [1.0, 1.0]), 1.0, 4.0)]:
        for level in (5, 6, 7):
            gp = grid_partition_counts(space, 0.5, level, seed=0, centers=2)
            measured = gp.cell_width**2 * gp.cell_count
            assert abs(measured - vol) <= gp.cell_width * surf
