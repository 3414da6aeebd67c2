"""Volume-ratio machinery against analytic geometry oracles."""

import dataclasses
import itertools
import math
import os
import signal
import threading
import tracemalloc
from fractions import Fraction

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
    mc_volume_ratios,
)
from fanolab.info import DomainError, EnumerationLimitError
from fanolab.streams import BALL_STREAM, VOLUME_STREAM, stream

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
    est = mc_volume_ratio(l2_ball_space(3, 1.0), 0.5, points=200_000, seed=42)
    assert est.ci[0] <= 8.0 <= est.ci[1]
    assert est.ratio == pytest.approx(8.0, rel=0.05)


def test_mc_ratio_unit_square_linf():
    """Ball at the middle covers the whole square: ratio -> 1."""
    space = box_space([0.0, 0.0], [1.0, 1.0], metric="linf")
    est = mc_volume_ratio(space, 0.5, points=100_000, seed=3)
    assert est.ci[0] <= 1.0 <= est.ci[1] * (1 + 1e-9)
    assert est.ratio == pytest.approx(1.0, rel=0.03)
    assert est.ball_estimate == pytest.approx(
        box_intersection_volume(space.sup_center, 0.5), rel=0.03)


def test_mc_ratio_sampled_centers_match_box_oracle():
    """Per-center ball estimates agree with the exact box-intersection areas."""
    space = box_space([0.0, 0.0], [1.0, 1.0], metric="linf")
    g = np.random.Generator(np.random.Philox(key=7))
    for _ in range(5):
        c = g.random(2)
        sub = ContinuumSpace(dim=2, contains=space.contains,
                             bounding_box=space.bounding_box, metric=space.metric,
                             sup_center=c)
        est = mc_volume_ratio(sub, 0.3, points=100_000, seed=11)
        assert est.ball_estimate == pytest.approx(
            box_intersection_volume(c, 0.3), rel=0.05)


def test_mc_ratio_t_at_least_diameter():
    space = l2_ball_space(2, 1.0)
    est = mc_volume_ratio(space, 2.0, points=50_000, seed=5)
    assert est.ci[0] <= 1.0 <= est.ci[1]
    assert est.ratio == pytest.approx(1.0, rel=0.02)


def test_mc_ratio_reproducible():
    space = l2_ball_space(2, 1.0)
    a = mc_volume_ratio(space, 0.5, points=20_000, seed=9)
    b = mc_volume_ratio(space, 0.5, points=20_000, seed=9)
    assert a.ratio == b.ratio and a.ci == b.ci


def test_mc_ratio_estimation_failure():
    # membership never true inside the box: zero acceptance must raise
    space = ContinuumSpace(dim=1, contains=lambda p: np.zeros(len(p), dtype=bool),
                           bounding_box=np.array([[0.0], [1.0]]), metric="linf",
                           sup_center=np.array([0.5]))
    with pytest.raises(EstimationError):
        mc_volume_ratio(space, 0.1, points=1000)


def test_mc_ratio_refuses_a_ball_whose_volume_underflows():
    # hits land in the ball's box, whose float64 volume is 0; this divided by zero
    with pytest.raises(DomainError, match=r"\bt\b"):
        mc_volume_ratio(l2_ball_space(2, 1.0), 5e-324, points=100)


def hit_counts(est, space, t, points):
    """(region hits, hits of the declared ball), recovered from an estimate."""
    lo, hi = space.bounding_box
    bb = np.stack([space.sup_center - t, space.sup_center + t])
    sub_vol = float(np.prod(np.minimum(hi, bb[1]) - np.maximum(lo, bb[0])))
    return (round(est.vol_estimate / space.box_volume() * points),
            round(est.ball_estimate / sub_vol * points))


def plain_disk():
    """The unit disk built from a lambda, with no declared center."""
    return ContinuumSpace(dim=2, contains=lambda p: (p * p).sum(axis=1) <= 1.0,
                          bounding_box=np.array([[-1.0, -1.0], [1.0, 1.0]]), metric="l2")


# 200_003 points leave a partial last chunk, whose last block is partial
# too. The counts are those of the SFC64 streams of streams.stream, each
# chunk drawn in coordinate-major blocks (blocked_reference_hits below), the
# same on any number of worker processes.
GOLDEN_MC = [
    (lambda: l2_ball_space(2, 1.0), 0.5, (156758, 157264), 3.987129921660393),
    (lambda: l2_ball_space(3, 1.0), 0.5, (104673, 104698), 7.998089743834649),
    (lambda: l2_ball_space(5, 1.0), 0.5, (32739, 33033), 31.715193897012078),
    (lambda: box_space(np.zeros(2), np.ones(2)), 0.3, (200003, 200003), 2.7777777777777772),
    (lambda: box_space(np.zeros(3), np.ones(3)), 0.3, (200003, 200003), 4.629629629629628),
    (lambda: box_space(np.zeros(5), np.ones(5)), 0.3, (200003, 200003), 12.86008230452674),
    (lambda: box_space(np.zeros(3), np.ones(3), metric="l2"), 0.3, (200003, 104698),
     8.843911199973395),
]


@pytest.mark.parametrize("make, t, hits, ratio", GOLDEN_MC)
def test_mc_ratio_golden_counts(make, t, hits, ratio):
    space = make()
    est = mc_volume_ratio(space, t, points=200_003, seed=7)
    assert hit_counts(est, space, t, 200_003) == hits
    assert est.ratio == ratio


@pytest.mark.parametrize("space", [
    pytest.param(plain_disk(), id="plain-disk"),
    # a sampled center understated the sup here: at seeds 1-3 the ratio
    # read 4.33-5.52 against the true 1.694
    pytest.param(dataclasses.replace(l2_ball_space(5, 1.0), sup_center=None),
                 id="ball-d5-undeclared")])
def test_mc_ratio_refuses_a_space_without_sup_center(space):
    with pytest.raises(DomainError, match=r"\bsup_center\b"):
        mc_volume_ratio(space, 0.9, points=200_000, seed=1)


def declared_disk():
    """plain_disk with the origin declared as its maximizer."""
    return dataclasses.replace(plain_disk(), sup_center=np.zeros(2))


# Point counts on both sides of a block's and a chunk's edge, and one with
# a partial last chunk and a partial last block.
BLOCK_EDGES = (1, 16_383, 16_384, 16_385, 65_537, 200_003)


def mc_outcome(space, t, points, seed):
    """The estimate, or the type and text of the refusal: at one point, the
    region or the ball may get no hit."""
    try:
        return mc_volume_ratio(space, t, points=points, seed=seed)
    except EstimationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("make", [
    lambda: l2_ball_space(2, 1.0), pytest.param(declared_disk, id="plain_disk"),
    pytest.param(lambda: box_space([0.0, 0.0], [1.0, 1.0]), id="box-linf"),
    # three even and two odd columns in the l2 sum of squares
    pytest.param(lambda: l2_ball_space(5, 1.0), id="ball-l2-d5"),
    pytest.param(lambda: box_space([0.0, 0.0], [1.0, 1.0], metric="l2"), id="box-l2")])
def test_results_do_not_depend_on_worker_count(make, monkeypatch):
    """1 worker is the plain loop; on 3, the round-robin shares are uneven."""
    space = make()
    level = 8 if space.dim == 2 else 1  # a d = 5 cell has 4^5 sub-grid points
    runs = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(continuum, "_usable_cpus", lambda: workers)
        runs.append(([mc_outcome(space, 0.5, points, 5) for points in BLOCK_EDGES],
                     grid_partition_counts(space, 0.5, level)))
    for est, gp in runs[1:]:
        assert est == runs[0][0]
        assert gp == runs[0][1]


# At one point a count, seed 6 gets no hit in the disk's declared ball and
# seed 1 none in the disk, so the batch is refused as seed 6 is.
BATCH_SEEDS = (2, 6, 1, 2**64 - 1, 3)


def batch_outcome(space, t, points, seeds):
    """The estimates of one batched call, or the type and text of its refusal."""
    try:
        return mc_volume_ratios(space, t, points=points, seeds=seeds)
    except EstimationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("points", (1, 16_383, 16_385, 65_537, 200_003))
@pytest.mark.parametrize("make", [
    pytest.param(lambda: l2_ball_space(2, 1.0), id="ball-l2"),
    pytest.param(lambda: box_space([0.0, 0.0], [1.0, 1.0]), id="box-linf")])
def test_batched_estimates_equal_the_single_seed_ones(make, points, monkeypatch):
    """One call over seeds gives, on 1 to 4 workers, the estimates of one
    call per seed; where a seed is refused, the batch is refused as the
    first such seed is."""
    space = make()
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 1)
    single = [mc_outcome(space, 0.5, points, seed) for seed in BATCH_SEEDS]
    refused = [out for out in single if not isinstance(out, continuum.VolumeRatioEstimate)]
    want = refused[0] if refused else single
    if points == 1 and space.metric == "l2":
        assert want == (EstimationError, "no draw landed in the declared ball; "
                                         "cannot estimate the sup")
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(continuum, "_usable_cpus", lambda: workers)
        assert batch_outcome(space, 0.5, points, BATCH_SEEDS) == want, workers


def disk_calling(act):
    """declared_disk whose contains first calls act(caller's pid)."""
    caller, disk = os.getpid(), declared_disk()

    def contains(p):
        act(caller)
        return disk.contains(p)

    return dataclasses.replace(disk, contains=contains)


def fail_in_worker(caller):
    if os.getpid() != caller:
        raise ValueError("boom")


def fail_in_caller(caller):
    if os.getpid() == caller:
        raise ValueError("boom")


def kill_worker(caller):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)


def mark_pid(folder):
    """An act that leaves a file named by the pid of each process running it:
    a side effect in a worker reaches the caller only through the file system."""
    def act(caller):
        (folder / str(os.getpid())).touch()

    return act


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the Monte Carlo call has 2 * 4 jobs, the level-8 grid 8 chunks
CALLS = {
    "mc": lambda space: mc_volume_ratio(space, 0.5, points=200_003, seed=5),
    "grid": lambda space: grid_partition_counts(space, 0.5, 8),
}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("act", [fail_in_worker, fail_in_caller])
def test_an_exception_in_contains_is_raised_in_the_caller(call, act, monkeypatch):
    """Raised in a worker or in the caller's own share, the exception keeps
    its type and message, and every worker is reaped."""
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError) as caught:
        CALLS[call](disk_calling(act))
    assert str(caught.value) == "boom"
    if act is fail_in_worker:
        assert "raised in a worker process" in "".join(caught.value.__notes__)
    assert_no_worker_left()


@pytest.mark.parametrize("call", CALLS)
def test_a_worker_that_dies_fails_the_call(call, monkeypatch):
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"exit status -9 \(killed by SIGKILL\)"):
        CALLS[call](disk_calling(kill_worker))
    assert_no_worker_left()


class Unpicklable(Exception):
    """Unpickling calls Unpicklable(*args), with one argument of two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_unpicklable_exception_keeps_its_type_name_and_message(monkeypatch):
    def act(caller):
        if os.getpid() != caller:
            raise Unpicklable("this", "that")

    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError) as caught:
        CALLS["grid"](disk_calling(act))
    assert str(caught.value) == "Unpicklable: this and that"
    assert_no_worker_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_call_runs_in_one_process_per_worker(workers, monkeypatch, tmp_path):
    """The level-8 disk has 8 chunks, so every worker gets one."""
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: workers)
    CALLS["grid"](disk_calling(mark_pid(tmp_path)))
    pids = {int(f.name) for f in tmp_path.iterdir()}
    assert len(pids) == workers and os.getpid() in pids
    assert_no_worker_left()


def test_a_batched_call_forks_its_workers_once(monkeypatch, tmp_path):
    """Ten seeds on two workers run in two processes, not one per seed."""
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 2)
    mc_volume_ratios(disk_calling(mark_pid(tmp_path)), 0.5, points=1000, seeds=range(10))
    pids = {int(f.name) for f in tmp_path.iterdir()}
    assert len(pids) == 2 and os.getpid() in pids
    assert_no_worker_left()


@pytest.mark.parametrize("seeds, named", [
    ((), "seeds=()"),
    (5, "seeds=5"),
    pytest.param(10**5000, "seeds=about 10**5000", id="huge-seeds"),
    pytest.param((10**5000,), "seed=about 10**5000 at seeds[0]", id="huge-seed"),
    ((0, -1), "seed=-1 at seeds[1]"),
    ((0, 1, 2**64), f"seed={2**64} at seeds[2]"),
    ((1.5,), "seed=1.5 at seeds[0]"),
    ((3, 2.0), "seed=2.0 at seeds[1]"),
    ((math.nan,), "seed=nan at seeds[0]"),
    (("7",), "seed='7' at seeds[0]"),
    ((None, 1), "seed=None at seeds[0]")])
def test_batched_seeds_are_refused_before_any_worker(seeds, named, monkeypatch):
    def never(*args):
        raise AssertionError("a worker started before the seeds were checked")

    monkeypatch.setattr(continuum, "_map", never)
    with pytest.raises(DomainError) as caught:
        mc_volume_ratios(l2_ball_space(2, 1.0), 0.5, points=1000, seeds=seeds)
    assert named in str(caught.value)


def test_a_call_from_a_threaded_process_forks_no_worker(monkeypatch, tmp_path):
    """A fork copies only the calling thread, so a call made while another
    thread runs keeps to its own process, with the same counts."""
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 2)
    want = CALLS["grid"](disk_calling(lambda caller: None))
    got = []
    thread = threading.Thread(
        target=lambda: got.append(CALLS["grid"](disk_calling(mark_pid(tmp_path)))))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and got == [want]
    assert [f.name for f in tmp_path.iterdir()] == [str(os.getpid())]
    assert_no_worker_left()


def test_user_predicates_get_float64_points_in_any_layout():
    """A user-built space's contains gets (m, d) float64 arrays, and
    plain_disk counts the same on a C-contiguous copy of each array."""
    disk = plain_disk()
    seen = []

    def space(copy):
        def look(p):
            seen.append((p.ndim, p.shape[-1], p.dtype))
            return np.ascontiguousarray(p) if copy else p

        return ContinuumSpace(dim=2, contains=lambda p: disk.contains(look(p)),
                              bounding_box=disk.bounding_box, metric="l2",
                              sup_center=np.zeros(2))

    runs = [(mc_volume_ratio(space(copy), 0.5, points=200_003, seed=5),
             grid_partition_counts(space(copy), 0.5, 6))
            for copy in (False, True)]
    assert set(seen) == {(2, 2, np.dtype(np.float64))}
    (est, gp), (est_c, gp_c) = runs
    assert est == est_c
    assert gp == gp_c


def column_sum_of_squares(diff):
    """The squares of the even columns added in order, then those of the odd
    columns in order, then the even sum plus the odd sum."""
    sq = diff * diff
    total = sq[:, 0].copy()
    for j in range(2, sq.shape[1], 2):
        total += sq[:, j]
    if sq.shape[1] > 1:
        odd = sq[:, 1].copy()
        for j in range(3, sq.shape[1], 2):
            odd += sq[:, j]
        total += odd
    return total


@pytest.mark.parametrize("d", range(1, 9))
def test_sampling_and_metrics_match_row_broadcast_formulas(d):
    """Each value is bit for bit the one a formula on (m, d) arrays with a
    (d,) row broadcast gives: the sample is the transpose of a (d, m) draw
    scaled into its box, with contiguous columns; l2 sums the squares of
    pts - c in the column order written out above; linf is the row maximum."""
    lo = np.linspace(-1.5, 0.25, d)
    hi = lo + np.linspace(0.5, 3.0, d)  # a different width on every axis
    c = np.linspace(-0.3, 0.6, d)
    for m in (1, 63, 64, 1001, 16960, 65536):
        out = np.empty((d, m))
        pts = continuum._sample_box(np.random.Generator(np.random.Philox(key=m)),
                                    np.stack([lo, hi]), out)
        ref = lo + (hi - lo) * np.random.Generator(np.random.Philox(key=m)).random((d, m)).T
        assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes()
        assert pts.flags.f_contiguous and np.shares_memory(pts, out)
        for metric, want in [("l2", np.sqrt(column_sum_of_squares(pts - c))),
                             ("linf", np.abs(pts - c).max(axis=1))]:
            got = continuum._metric(metric)(c, pts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (metric, m)
        # a radius with about half the points inside
        sums = column_sum_of_squares(pts)
        r = math.sqrt(float(np.median(sums)))
        inside = l2_ball_space(d, r).contains(pts)
        assert np.array_equal(inside, sums <= r * r), m


def blocked_reference_hits(space, t, points, seed):
    """(region hits, ball hits) of an l2 space, recomputed chunk by chunk from
    the documented layout. Chunk i of the region draws from the stream
    (seed, VOLUME_STREAM + i), that of the ball from (seed, BALL_STREAM + i).
    In the block of b points that starts at point a of its chunk, coordinate
    j of point a + i is the chunk stream's value d*a + j*b + i: each point is
    gathered by that index from one flat draw of the whole chunk, then scaled
    into its box by the row-broadcast formula."""
    d, block = space.dim, 16_384
    lo, hi = space.bounding_box
    c = space.sup_center
    boxes = [(VOLUME_STREAM, lo, hi),
             (BALL_STREAM, np.maximum(lo, c - t), np.minimum(hi, c + t))]
    hits = []
    for base, box_lo, box_hi in boxes:
        count = 0
        for i, first in enumerate(range(0, points, continuum.VOLUME_CHUNK)):
            m = min(continuum.VOLUME_CHUNK, points - first)
            flat = stream(seed, base + i).random(d * m)
            index = np.empty((m, d), dtype=np.int64)
            for a in range(0, m, block):
                b = min(block, m - a)
                index[a:a + b] = d * a + np.arange(d) * b + np.arange(b)[:, None]
            pts = box_lo + (box_hi - box_lo) * flat[index]
            inside = space.contains(pts)
            if base == BALL_STREAM:
                inside &= np.sqrt(column_sum_of_squares(pts - c)) <= t
            count += int(np.count_nonzero(inside))
        hits.append(count)
    return tuple(hits)


@pytest.mark.parametrize("points", BLOCK_EDGES)
@pytest.mark.parametrize("make, t", [
    pytest.param(lambda: l2_ball_space(2, 1.0), 0.5, id="ball-l2-d2"),
    pytest.param(lambda: l2_ball_space(5, 1.0), 0.5, id="ball-l2-d5"),
    pytest.param(lambda: box_space(np.zeros(3), np.ones(3), metric="l2"), 0.3, id="box-l2-d3")])
def test_mc_counts_match_the_blocked_layout_reference(make, t, points):
    assert continuum._VOLUME_BLOCK == 16_384
    space = make()
    want = blocked_reference_hits(space, t, points, 7)
    got = mc_outcome(space, t, points, 7)
    if 0 in want:  # a count with no hit is refused, naming which
        assert got[0] is EstimationError
        assert ("region" if want[0] == 0 else "declared ball") in got[1]
    else:
        assert hit_counts(got, space, t, points) == want


def test_mc_memory_does_not_grow_with_points(monkeypatch):
    """Each worker draws and tests a chunk in blocks through one buffer of
    d * 16,384 floats, and derives each chunk's size and stream from the
    job's index. On one worker, where tracemalloc sees every chunk, a call
    at d = 5 stays below 4 MiB, where whole 65,536-point chunks took
    8.2 MiB, and 10**6 points take what 2**16 take. On two, tracemalloc
    sees only the caller, whose peak does not grow from 10**6 to 4 * 10**6
    points: it holds no list of jobs, streams or results (a job list took
    about 1 KB a job)."""
    space = l2_ball_space(5, 1.0)
    peaks = {}
    for workers, sizes in ((1, (2**16, 10**6)), (2, (10**6, 4 * 10**6))):
        monkeypatch.setattr(continuum, "_usable_cpus", lambda: workers)
        mc_volume_ratio(space, 0.5, points=1000, seed=1)  # loads what a call loads, untraced
        for points in sizes:
            tracemalloc.start()
            try:
                mc_volume_ratio(space, 0.5, points=points, seed=1)
                peaks[workers, points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[1, 10**6] < 4 * 2**20
    assert peaks[1, 10**6] - peaks[1, 2**16] < 2**12
    assert peaks[2, 4 * 10**6] - peaks[2, 10**6] < 2**12


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
        gp = grid_partition_counts(space, 0.5, level)
        assert gp.cell_count == 4**level
        assert gp.cell_width == 2.0 ** (-level)


def test_grid_disk_area_converges():
    disk = l2_ball_space(2, 1.0)
    gp = grid_partition_counts(disk, 0.5, 7)
    area = gp.cell_width**2 * gp.cell_count
    assert area == pytest.approx(math.pi, rel=0.02)


def test_grid_ball_in_ball_log_ratio():
    disk = l2_ball_space(2, 1.0)
    gp = grid_partition_counts(disk, 0.5, 7)
    assert gp.log_count_ratio() == pytest.approx(math.log(4.0), rel=0.05)


def test_grid_log_ratio_error_shrinks_with_level():
    """Discrete quotient bound ingredient approaches the continuum one."""
    disk = l2_ball_space(2, 1.0)
    errs = [abs(grid_partition_counts(disk, 0.5, lv).log_count_ratio()
                - math.log(4.0)) for lv in (4, 5, 6, 7)]
    assert errs[-1] < errs[0]
    bound_errs = [abs(continuum_fano_bound(math.log(4.0) - e, 0.0).value
                      - continuum_fano_bound(math.log(4.0), 0.0).value) for e in errs]
    assert bound_errs[-1] < bound_errs[0]


def test_grid_golden_counts():
    disk = grid_partition_counts(l2_ball_space(2, 1.0), 0.5, 8)
    assert (disk.cell_count, disk.touched_count) == (206620, 52465)
    user = grid_partition_counts(plain_disk(), 0.5, 6)
    assert (user.cell_count, user.touched_count) == (13056, 3473)


def grid_reach(space, level):
    """The largest |k_i| of an index offset between two cells of the grid."""
    eps = 2.0 ** (-level)
    lo, hi = space.bounding_box
    return [int(math.ceil(b / eps) - math.floor(a / eps)) - 1 for a, b in zip(lo, hi)]


def grid_samples(space, level):
    """The 4^d + 1 sample points of every candidate cell, as (cells, 4^d + 1, d),
    and whether the region holds each: each point is built as cell corner plus
    offset, the cell's 4^d interior sub-grid points and then its center."""
    d = space.dim
    eps = 2.0 ** (-level)
    lo, hi = space.bounding_box
    axes = [np.arange(a, b) for a, b in zip(np.floor(lo / eps).astype(np.int64),
                                             np.ceil(hi / eps).astype(np.int64))]
    kvec = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    q = (np.arange(4) + 0.5) / 4.0
    offsets = np.stack(np.meshgrid(*([q] * d), indexing="ij"), axis=-1).reshape(-1, d)
    offsets = np.vstack([offsets, np.full((1, d), 0.5)]) * eps
    pts = kvec[:, None, :] * eps + offsets[None, :, :]
    inside = np.asarray(space.contains(pts.reshape(-1, d)), dtype=bool).reshape(len(kvec), -1)
    return pts, inside


def every_point_touched(space, t, pts, inside, c):
    """The cells with a sample point in the region within t of c, in the
    space's norm as numpy.linalg.norm computes it."""
    near = np.linalg.norm(pts - c, ord=2 if space.metric == "l2" else np.inf, axis=-1) <= t
    return int((inside & near).any(axis=1).sum())


def lattice_oracle(metric, reach, t, level):
    """#{k : |k_i| <= reach_i, ||(|k_i| - 1)_+|| * 2^(-level) <= t}, every k
    enumerated and compared in exact rationals."""
    q = Fraction(t) * 2**level
    count = 0
    for k in itertools.product(*(range(-m, m + 1) for m in reach)):
        j = [max(abs(x) - 1, 0) for x in k]
        count += (sum(x * x for x in j) <= q * q) if metric == "l2" else (max(j) <= q)
    return count


@pytest.mark.parametrize("metric, reach, t, level", [
    ("l2", [0], 0.3, 2), ("linf", [9], 0.3, 2), ("l2", [9], 0.3, 2),
    ("linf", [0, 5], 0.5, 1), ("l2", [3, 0, 4], 0.74, 2),
    ("l2", [7, 9], 1.3, 2), ("linf", [4, 6, 3], 0.6, 2), ("l2", [3, 2, 4, 3], 0.8, 2),
    # norms of exactly t: (3, 4) at q = 5 in l2, and j = 2 at q = 2 in linf
    ("l2", [6, 6], 1.25, 2), ("linf", [6, 6], 0.5, 2),
    # every offset, then only |k_i| <= 1
    ("l2", [5, 5], 1e300, 3), ("linf", [5, 5], 1e300, 3),
    ("l2", [5, 5], 5e-324, 10), ("linf", [5, 5], 5e-324, 10)])
def test_lattice_count_matches_enumeration(metric, reach, t, level):
    assert continuum._lattice_count(metric, reach, t, level) == \
        lattice_oracle(metric, reach, t, level)


def annulus(d):
    """The thin shell 0.55 <= |p| <= 0.6, built by hand, with no declared center."""
    def contains(p):
        r2 = (p * p).sum(axis=1)
        return (r2 >= 0.55**2) & (r2 <= 0.6**2)

    return ContinuumSpace(dim=d, contains=contains,
                          bounding_box=np.stack([np.full(d, -0.6), np.full(d, 0.6)]),
                          metric="l2")


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
    # the lattice count exceeds the occupied cells, so cell_count caps it, as
    # it does for annulus-d2
    "ball-box-overruns-grid": (lambda: l2_ball_space(2, 1.0), 1.5, 4, True),
}


@pytest.mark.parametrize("case", GRID_ORACLE_CASES)
def test_grid_counts_match_every_point_oracle(case):
    make, t, level, center_misses = GRID_ORACLE_CASES[case]
    space = make()
    gp = grid_partition_counts(space, t, level)
    pts, inside = grid_samples(space, level)
    cells = int(inside.any(axis=1).sum())
    lattice = lattice_oracle(space.metric, grid_reach(space, level), t, level)
    assert (gp.cell_count, gp.touched_count) == (cells, min(cells, lattice))
    # the case reaches the sub-grid points when some cell is occupied only
    # through them
    assert (int(inside[:, -1].sum()) < cells) == center_misses


@pytest.mark.parametrize("case", GRID_ORACLE_CASES)
def test_grid_touched_count_bounds_every_center(case):
    """No ball meets more occupied cells than touched_count, wherever its
    center: at the declared center, at cell corners, at points drawn in the
    bounding box (outside the region too, where the region is not a box)
    and at points beyond the box."""
    make, t, level, _ = GRID_ORACLE_CASES[case]
    space = make()
    gp = grid_partition_counts(space, t, level)
    pts, inside = grid_samples(space, level)
    g = np.random.Generator(np.random.Philox(key=level))
    lo, hi = space.bounding_box
    eps = 2.0 ** (-level)
    drawn = lo + (hi - lo) * g.random((40, space.dim))
    probes = [*np.round(drawn[:8] / eps) * eps, *drawn[8:],
              *(hi + t * g.random((4, space.dim))), *(lo - t * g.random((4, space.dim)))]
    if space.sup_center is not None:
        probes.append(space.sup_center)
    for c in probes:
        assert every_point_touched(space, t, pts, inside, c) <= gp.touched_count


def test_grid_touched_count_is_no_less_than_an_off_center_ball():
    """The disk's ball at (11/1024, 11/1024) meets 3322 cells at level 6, more
    than at the origin: a count over a few probed centers read 3300 here."""
    space = l2_ball_space(2, 1.0)
    pts, inside = grid_samples(space, 6)
    c = np.full(2, 11 / 1024)
    assert every_point_touched(space, 0.5, pts, inside, c) == 3322
    assert every_point_touched(space, 0.5, pts, inside, np.zeros(2)) < 3322
    assert grid_partition_counts(space, 0.5, 6).touched_count >= 3322


def test_grid_draws_nothing(monkeypatch):
    def no_stream(*args):
        raise AssertionError("the grid drew from a random stream")

    monkeypatch.setattr(continuum, "_sfc64", no_stream)
    for space in (l2_ball_space(2, 1.0), box_space([0.0, 0.0], [1.0, 1.0])):
        assert grid_partition_counts(space, 0.5, 6).touched_count >= 1


def test_grid_occupancy_takes_one_byte_per_cell(monkeypatch):
    """The level-10 unit square has 2^20 candidate cells, all occupied: an
    int64 index row per occupied cell alone would take 16 MiB, and the grid
    keeps no more than a byte per cell. On one worker tracemalloc sees
    every chunk; a forked worker's memory is its own and not traced here."""
    monkeypatch.setattr(continuum, "_usable_cpus", lambda: 1)
    space = box_space([0.0, 0.0], [1.0, 1.0])
    tracemalloc.start()
    try:
        grid_partition_counts(space, 0.25, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_grid_memory_guard():
    disk = l2_ball_space(2, 1.0)
    with pytest.raises(EnumerationLimitError):
        grid_partition_counts(disk, 0.5, 14)  # about 1e9 candidate cells


def test_grid_refuses_cell_indices_beyond_int64():
    """A box whose cell indices pass 2**63 is refused before the int64 cast,
    which warned "invalid value encountered in cast" and built a garbage shape."""
    far = box_space([1e19], [1e19 + 4096])
    with pytest.raises(DomainError, match=r"\blevel\b"):
        grid_partition_counts(far, 100.0, 0)


def test_grid_counts_within_first_order_surface_correction():
    """|eps^d * cell count - Vol| <= eps * surface on disks and boxes.

    The grid count converges at first order in the cell width with the
    surface area as the prefactor; constant 1 is comfortable for both
    shapes at these levels.
    """
    for space, vol, surf in [(l2_ball_space(2, 1.0), math.pi, 2 * math.pi),
                             (box_space([0.0, 0.0], [1.0, 1.0]), 1.0, 4.0)]:
        for level in (5, 6, 7):
            gp = grid_partition_counts(space, 0.5, level)
            measured = gp.cell_width**2 * gp.cell_count
            assert abs(measured - vol) <= gp.cell_width * surf
