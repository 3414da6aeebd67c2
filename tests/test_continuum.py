"""Volume-ratio machinery against analytic geometry oracles."""

import dataclasses
import math
import tracemalloc

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
from fanolab.streams import GRID_STREAM

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


def test_mc_ratio_refuses_a_ball_whose_volume_underflows():
    # hits land in the ball's box, whose float64 volume is 0; this divided by zero
    with pytest.raises(DomainError, match=r"\bt\b"):
        mc_volume_ratio(l2_ball_space(2, 1.0), 5e-324, centers=0, points=100)


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


@pytest.mark.parametrize("make", [
    lambda: l2_ball_space(2, 1.0), plain_disk,
    pytest.param(lambda: box_space([0.0, 0.0], [1.0, 1.0]), id="box-linf")])
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


@pytest.mark.parametrize("d", range(1, 6))
def test_sampling_and_metrics_match_row_broadcast_formulas(d):
    """The box scaling and rho work on long rows; each value must still be
    bit for bit the one the (m, d) op (d,) row broadcast gives."""
    lo = np.linspace(-1.5, 0.25, d)
    hi = lo + np.linspace(0.5, 3.0, d)  # a different width on every axis
    c = np.linspace(-0.3, 0.6, d)
    for m in (1, 63, 64, 1001, 16960, 65536):
        pts = continuum._sample_box(np.random.Generator(np.random.Philox(key=m)), m,
                                    np.stack([lo, hi]))
        ref = lo + (hi - lo) * np.random.Generator(np.random.Philox(key=m)).random((m, d))
        assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes()
        for metric, formula in [
                ("l2", lambda diff: np.sqrt(np.einsum("ij,ij->i", diff, diff))),
                ("linf", lambda diff: np.abs(diff).max(axis=1))]:
            got = continuum._metric(metric)[0](c, pts)
            want = formula(pts - c)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (metric, m)


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


def brute_grid_counts(space, t, level, probes):
    """(cell_count, touched_count, cells whose center is in the region),
    from every one of the 4^d + 1 sample points of every candidate cell,
    each point built as cell corner plus offset: the cell's 4^d interior
    sub-grid points and its center."""
    d = space.dim
    eps = 2.0 ** (-level)
    lo, hi = space.bounding_box
    axes = [np.arange(a, b) for a, b in zip(np.floor(lo / eps).astype(np.int64),
                                             np.ceil(hi / eps).astype(np.int64))]
    kvec = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    q = (np.arange(4) + 0.5) / 4.0
    offsets = np.stack(np.meshgrid(*([q] * d), indexing="ij"), axis=-1).reshape(-1, d)
    offsets = np.vstack([offsets, np.full((1, d), 0.5)]) * eps
    pts = (kvec[:, None, :] * eps + offsets[None, :, :]).reshape(-1, d)
    inside = np.asarray(space.contains(pts), dtype=bool).reshape(len(kvec), -1)
    touched = 0
    for c in probes:
        in_ball = inside & (np.asarray(space.rho(c, pts)).reshape(len(kvec), -1) <= t)
        touched = max(touched, int(in_ball.any(axis=1).sum()))
    return int(inside.any(axis=1).sum()), touched, int(inside[:, -1].sum())


def annulus(d):
    """The thin shell 0.55 <= |p| <= 0.6, built by hand, with no declared center."""
    def contains(p):
        r2 = (p * p).sum(axis=1)
        return (r2 >= 0.55**2) & (r2 <= 0.6**2)

    return ContinuumSpace(dim=d, contains=contains,
                          bounding_box=np.stack([np.full(d, -0.6), np.full(d, 0.6)]),
                          rho=lambda c, p: np.sqrt(((p - c) ** 2).sum(axis=1)))


# (space, t, level, whether some occupied cell has its center outside the
# region); the off-grid boxes have edges that no level's cell edges meet.
GRID_ORACLE_CASES = {
    "ball-l2-d1": (lambda: l2_ball_space(1, 1.0), 0.3, 6, False),
    "ball-linf-d1": (lambda: l2_ball_space(1, 0.7, metric="linf"), 0.25, 5, True),
    "ball-l2-d2": (lambda: l2_ball_space(2, 1.0), 0.5, 5, True),
    "ball-linf-d2": (lambda: l2_ball_space(2, 1.0, metric="linf"), 0.4, 5, True),
    "ball-l2-d3": (lambda: l2_ball_space(3, 1.0), 0.5, 3, True),
    "ball-linf-d3": (lambda: l2_ball_space(3, 0.9, metric="linf"), 0.3, 3, True),
    "plain-disk": (plain_disk, 0.5, 5, True),
    "annulus-d2": (lambda: annulus(2), 0.3, 5, True),
    "annulus-d3": (lambda: annulus(3), 0.3, 3, True),
    "box-off-grid-l2-d1": (lambda: box_space([-0.3], [0.77], metric="l2"), 0.2, 4, True),
    "box-off-grid-linf-d2": (lambda: box_space([-0.3, 0.1], [0.45, 0.77]), 0.2, 4, True),
    "box-off-grid-l2-d3": (lambda: box_space([-0.3, 0.1, -0.55], [0.45, 0.77, 0.2],
                                             metric="l2"), 0.2, 3, True),
    # the declared center's ball box overruns the bounding box on every
    # side, so its window of cells is the whole grid
    "ball-box-overruns-grid": (lambda: l2_ball_space(2, 1.0), 1.5, 4, True),
}


@pytest.mark.parametrize("case", GRID_ORACLE_CASES)
def test_grid_counts_match_every_point_oracle(case):
    make, t, level, center_misses = GRID_ORACLE_CASES[case]
    space = make()
    gp = grid_partition_counts(space, t, level, seed=7, centers=3)
    probes = list(continuum._sample_in_space(space, 3, 7, GRID_STREAM))
    if space.sup_center is not None:
        probes.insert(0, space.sup_center)
    cells, touched, center_hits = brute_grid_counts(space, t, level, probes)
    assert (gp.cell_count, gp.touched_count) == (cells, touched)
    # the case reaches the sub-grid points when some cell is occupied only
    # through them
    assert (center_hits < cells) == center_misses


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_grid_ball_box_off_the_grid_touches_no_cell(side):
    """A ball_bbox beyond the grid, below or above it, gives every probe an
    empty window of cells: no cell is touched, and no index runs off the grid."""
    disk = l2_ball_space(2, 1.0)
    space = dataclasses.replace(disk, ball_bbox=lambda c, t: np.stack([c, c + t]) + 3 * side)
    with pytest.raises(EstimationError, match="no cell touched"):
        grid_partition_counts(space, 0.5, 4, seed=1, centers=2)


def test_grid_occupancy_takes_one_byte_per_cell(monkeypatch):
    """The level-10 unit square has 2^20 candidate cells, all occupied: an
    int64 index row per occupied cell alone would take 16 MiB. Each worker
    holds one chunk's points, so the worker count is pinned."""
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 2)
    space = box_space([0.0, 0.0], [1.0, 1.0])
    tracemalloc.start()
    try:
        grid_partition_counts(space, 0.25, 10, seed=1, centers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_grid_memory_guard():
    disk = l2_ball_space(2, 1.0)
    with pytest.raises(EstimationError):
        grid_partition_counts(disk, 0.5, 14, seed=0)  # about 1e9 candidate cells


def test_grid_refuses_cell_indices_beyond_int64():
    """A box whose cell indices pass 2**63 is refused before the int64 cast,
    which warned "invalid value encountered in cast" and built a garbage shape."""
    far = box_space([1e19], [1e19 + 4096])
    with pytest.raises(DomainError, match=r"\blevel\b"):
        grid_partition_counts(far, 100.0, 0, centers=2)


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
