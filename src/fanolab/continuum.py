"""Volume-ratio Fano bound on bounded subsets of R^d, with Monte Carlo
and grid-partition machinery to estimate and cross-check the ratio.

The bound controls P(rho(Vhat, V) >= t) for V uniform on the region: note
the weak inequality, in contrast with the strict rho > t of the discrete
tail bound; both APIs preserve their own convention verbatim. rho is the
distance of the space's declared norm, l2 or linf, and "ball" means the
closed set {v' : rho(v, v') <= t}. The bound's formula,
max(0, 1 - (I + ln 2) / L), is the discrete tail bound's: both call
discrete._fano_tail. The bound (continuum_fano_bound), the analytic ratio
of two balls and EstimationError need no arrays: they are defined in
fanolab._volume, which loads no numpy, and exported from here.

One deliberate approximation, reported rather than hidden: grid-cell
occupancy ("intersection of nonzero volume") is decided by a fixed 4^d
sub-grid per cell plus the cell center, all strictly interior, so
measure-zero touchings do not count. The centers are tested first, and
the 4^d sub-grid points only of the cells whose center failed: the same
any() over the same points, so the same counts, while a cell whose center
lies in the region costs one test. Each chunk of cells returns only its
count of occupied cells.

The supremum over centers of Vol(ball(t, v) & V) is uncomputable in
general. mc_volume_ratio takes it at the space's declared maximizer
sup_center and refuses a space that declares none: a sampled center can
only under-estimate the sup, which over-states the ratio and the bound.
The grid needs no center: its touched count is a closed-form lattice count
that bounds the cells any radius-t ball meets, whatever its center.

Both estimators split their work into fixed-size chunks and run the chunks
on a pool of threads, one per usable CPU. Each Monte Carlo chunk draws from
its own stream keyed by (seed, chunk index), and every chunk's count is
summed exactly, so the results do not depend on the number of workers or
on the order in which chunks finish. A chunk of m points is drawn
coordinate-major: coordinate j of point i is the stream's value j*m + i, so
each coordinate is one contiguous column, and the built-in predicates work
column by column. The grid builds its sample points in the same layout.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._volume import EstimationError, ball_volume_ratio_analytic, continuum_fano_bound
from .info import DomainError, _budget, _require, _shown
from .stats import clopper_pearson
from .streams import BALL_STREAM, VOLUME_STREAM, stream

__all__ = [
    "EstimationError",
    "ContinuumSpace",
    "GridPartition",
    "VolumeRatioEstimate",
    "l2_ball_space",
    "box_space",
    "ball_volume_ratio_analytic",
    "mc_volume_ratio",
    "continuum_fano_bound",
    "grid_partition_counts",
    "VOLUME_CHUNK",
    "GRID_CHUNK",
]

# Points per keyed stream in mc_volume_ratio and cells per job in
# grid_partition_counts. The volume chunk is part of the stream keying, and
# so is the coordinate-major layout of a chunk: changing either changes which
# draw lands in which stream and coordinate, hence the counts.
VOLUME_CHUNK = 1 << 16
GRID_CHUNK = 1 << 15
# Sample points per predicate call of the grid: a chunk's sub-grid points go
# in parts, which bounds their memory and that of the predicate's temporaries.
_GRID_POINTS = 1 << 16
_CONFIDENCE = 0.99  # joint confidence of each volume-ratio interval


@dataclass(frozen=True)
class ContinuumSpace:
    """Bounded region of R^d with membership test, bounding box and norm.

    contains maps an (m, d) array to an (m,) boolean array. The estimators
    pass (m, d) float64 arrays whose columns are contiguous (the transpose
    of a C-ordered (d, m) array): contains must not assume C order, and
    must not write into the array it gets. metric names the norm of rho,
    "l2" or "linf": the Monte Carlo ball and the grid's lattice count both
    take it from here, so they cannot disagree. sup_center is a declared
    analytic maximizer of Vol(ball(t, v) & V) over v: mc_volume_ratio
    needs it, and the grid does not use it. The volume of the region is
    always estimated, never declared.

    contains must be row-wise: output row i depends only on input row i,
    never on the other rows or on how many there are. The grid partition
    relies on this when it tests each cell's center apart from, and
    before, the cell's other sample points. The estimators call contains
    concurrently from worker threads, so it must be pure: no shared state
    that a call mutates.
    """

    dim: int
    contains: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    metric: str
    sup_center: np.ndarray | None = None

    def __post_init__(self):
        _require("a whole number >= 1", dim=self.dim)
        _metric(self.metric)
        box = np.asarray(self.bounding_box, dtype=np.float64)
        if box.shape != (2, self.dim):
            raise DomainError("bounding_box must be (2, dim), lows then highs, at "
                              f"dim={_shown(self.dim)}")
        object.__setattr__(self, "dim", box.shape[1])  # an integral float dim as an int
        if not np.all(box[1] > box[0]):
            raise DomainError("bounding_box must have positive extent on every axis")
        box = box.copy()
        box.flags.writeable = False
        object.__setattr__(self, "bounding_box", box)
        if self.sup_center is not None:
            c = np.asarray(self.sup_center, dtype=np.float64).copy()
            if c.shape != (self.dim,) or not np.all(np.isfinite(c)):
                raise DomainError("sup_center must be a finite d-vector")
            c.flags.writeable = False
            object.__setattr__(self, "sup_center", c)

    def box_volume(self) -> float:
        lo, hi = self.bounding_box
        return float(np.prod(hi - lo))


def _column_minus(pts: np.ndarray, center, j: int, out: np.ndarray) -> np.ndarray:
    """pts[:, j] - center[j] into out, or column j itself when center is None."""
    return pts[:, j] if center is None else np.subtract(pts[:, j], center[j], out=out)


def _sum_of_squares(pts: np.ndarray, center=None) -> np.ndarray:
    """sum_j (pts[:, j] - center[j])**2 for (m, d) points, column by column.

    The order of the additions is fixed: the squares of the even columns
    in column order, then those of the odd columns in column order, then
    the even sum plus the odd sum. Each column is read once, through one
    m-length scratch row; the odd sum takes a row of its own only when it
    has more than one column.
    """
    m, d = pts.shape
    scratch = np.empty(m)

    def square(j, out):
        col = _column_minus(pts, center, j, scratch)
        return np.multiply(col, col, out=out)

    total = square(0, np.empty(m))
    for j in range(2, d, 2):
        total += square(j, scratch)
    if d > 1:
        odd = square(1, np.empty(m) if d > 3 else scratch)
        for j in range(3, d, 2):
            odd += square(j, scratch)
        total += odd
    return total


def _metric(name: str):
    if name == "l2":
        def rho(center, pts):
            out = _sum_of_squares(np.asarray(pts, dtype=np.float64), center)
            return np.sqrt(out, out=out)
    elif name == "linf":
        def rho(center, pts):
            # A max over the d columns; max is exact, so the order is immaterial.
            pts = np.asarray(pts, dtype=np.float64)
            m, d = pts.shape
            out, scratch = np.empty(m), np.empty(m)
            np.abs(_column_minus(pts, center, 0, out), out=out)
            for j in range(1, d):
                np.maximum(out, np.abs(_column_minus(pts, center, j, scratch), out=scratch),
                           out=out)
            return out
    else:
        raise DomainError(f"unknown metric {name!r}; expected 'l2' or 'linf'")
    return rho


def l2_ball_space(d: int, r: float, *, metric: str = "l2") -> ContinuumSpace:
    """Closed Euclidean ball of radius r centered at the origin.

    The origin is the declared maximizer: any rho-ball around it
    intersected with the region is at least as large as around any other
    center, in either norm.
    """
    _require("an integer in [1, 2**63)", d=d)
    _require("finite and > 0", r=r)
    r2 = r * r

    def contains(pts):
        return _sum_of_squares(np.asarray(pts, dtype=np.float64)) <= r2

    box = np.stack([np.full(d, -r), np.full(d, r)])
    return ContinuumSpace(dim=d, contains=contains, bounding_box=box, metric=metric,
                          sup_center=np.zeros(d))


def box_space(lo, hi, *, metric: str = "linf") -> ContinuumSpace:
    """Axis-aligned box [lo, hi] with its midpoint as declared maximizer."""
    _require("finite", lo=lo, hi=hi)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
        raise DomainError("need matching 1-d lo < hi")
    d = lo.size

    def contains(pts):
        pts = np.asarray(pts, dtype=np.float64)
        ok = np.ones(len(pts), dtype=bool)
        scratch = np.empty_like(ok)
        for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            ok &= np.greater_equal(pts[:, j], a, out=scratch)
            ok &= np.less_equal(pts[:, j], b, out=scratch)
        return ok

    box = np.stack([lo, hi])
    return ContinuumSpace(dim=d, contains=contains, bounding_box=box, metric=metric,
                          sup_center=(lo + hi) / 2.0)


@dataclass(frozen=True)
class VolumeRatioEstimate:
    """Monte Carlo estimate of Vol(V) / sup_v Vol(ball(t, v) & V).

    The sup is the ball at the space's declared sup_center. ci combines
    one-sided Clopper-Pearson intervals of the two hit counts
    conservatively; joint coverage is at least the requested confidence.
    """

    ratio: float
    ci: tuple[float, float]
    vol_estimate: float
    vol_ci: tuple[float, float]
    ball_estimate: float
    ball_ci: tuple[float, float]

    def log_ratio(self) -> float:
        return math.log(self.ratio)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], run on min(n, usable CPUs) threads.

    With one worker this is a plain in-order loop. fn must call no public
    fanolab function: perfbench's tracer rebinds those to span recorders
    that share one stack, which is not thread-local. So whatever fn needs
    from the library, random streams included, is built by the caller.
    """
    workers = min(n, _usable_cpus())
    if workers <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def _sample_box(g: np.random.Generator, count: int, box: np.ndarray) -> np.ndarray:
    """count points uniform in box, as the (count, d) transpose of a (d, count)
    draw: coordinate j of point i is the stream's value j * count + i, scaled
    in place, and each coordinate is a contiguous column."""
    lo, hi = box
    u = g.random((lo.size, count))
    u *= (hi - lo)[:, None]
    u += lo[:, None]
    return u.T


def _intersect_boxes(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    lo = np.maximum(a[0], b[0])
    hi = np.minimum(a[1], b[1])
    if np.any(hi <= lo):
        return None
    return np.stack([lo, hi])


def mc_volume_ratio(space: ContinuumSpace, t: float, *, points: int = 100_000,
                    seed: int = 0) -> VolumeRatioEstimate:
    """Estimate Vol(V) and sup_v Vol(ball(t, v) & V) by rejection sampling.

    Vol(V) uses `points` draws in the bounding box, and the ball around the
    space's declared sup_center `points` draws in the box sup_center +- t cut
    to the bounding box. A space that declares no sup_center is refused. The draws
    come in chunks of VOLUME_CHUNK points, each from the stream keyed by
    (seed, chunk), and the chunks run on worker threads; the result is
    bit-identical whatever the number of workers or the order in which the
    chunks run.
    """
    _require("finite and > 0", t=t)
    _require("an integer in [1, 2**63)", points=points)
    _budget("sampled points", 2 * points, "2 * points")  # the region and the ball
    if space.sup_center is None:
        raise DomainError("mc_volume_ratio needs the space's declared maximizer sup_center; "
                          "a sampled center would understate the sup and overstate the ratio")
    with np.errstate(over="ignore"):
        box_vol = space.box_volume()
    if not 0 < box_vol < math.inf:
        raise DomainError(f"the volume {box_vol!r} of space's bounding box is out of range")
    per_count_conf = 1.0 - (1.0 - _CONFIDENCE) / 2.0  # two counts share the miss budget

    rho = _metric(space.metric)
    # center +- t bounds the ball in either norm
    ball_box = _intersect_boxes(space.bounding_box,
                                np.stack([space.sup_center - t, space.sup_center + t]))
    if ball_box is None:
        raise EstimationError("the declared ball misses the bounding box; cannot estimate the sup")

    def in_region(u):
        return np.asarray(space.contains(u), dtype=bool)

    def in_ball(u):
        ok = in_region(u)
        ok &= rho(space.sup_center, u) <= t
        return ok

    # (box, predicate, stream base): the region, then the ball
    counts = [(space.bounding_box, in_region, VOLUME_STREAM),
              (ball_box, in_ball, BALL_STREAM)]
    sizes = [min(VOLUME_CHUNK, points - done) for done in range(0, points, VOLUME_CHUNK)]
    jobs = [(k, box, predicate, stream(seed, base + i), take)
            for k, (box, predicate, base) in enumerate(counts)
            for i, take in enumerate(sizes)]

    def run(n):
        _, box, predicate, g, take = jobs[n]
        return int(np.count_nonzero(predicate(_sample_box(g, take, box))))

    hits = [0, 0]
    for (k, *_), h in zip(jobs, _map(run, len(jobs))):
        hits[k] += h
    vol_hits, ball_hits = hits

    if vol_hits == 0:
        raise EstimationError("no draw landed in the region; cannot estimate its volume")
    v_lo, v_hi = clopper_pearson(vol_hits, points, per_count_conf)
    vol_est = vol_hits / points * box_vol
    vol_ci = (v_lo * box_vol, v_hi * box_vol)

    if ball_hits == 0:
        raise EstimationError("no draw landed in the declared ball; cannot estimate the sup")
    sub_vol = float(np.prod(ball_box[1] - ball_box[0]))
    b_lo, b_hi = clopper_pearson(ball_hits, points, per_count_conf)
    ball_est = ball_hits / points * sub_vol
    ball_ci = (b_lo * sub_vol, b_hi * sub_vol)
    if ball_ci[0] == 0.0:
        raise DomainError(f"t={t!r} is too small: the volume of its ball underflows float64")
    return VolumeRatioEstimate(
        ratio=vol_est / ball_est,
        ci=(vol_ci[0] / ball_ci[1], vol_ci[1] / ball_ci[0]),
        vol_estimate=vol_est, vol_ci=vol_ci,
        ball_estimate=ball_est, ball_ci=ball_ci)


@dataclass(frozen=True)
class GridPartition:
    """Dyadic-grid quantization summary at one refinement level.

    cell_count is the number of width-2^(-level) cells whose intersection
    with the region has nonzero volume; touched_count is a sound upper
    count of the most of those cells that a closed radius-t ball meets,
    over every center: never below the true sup_v N_t(v), so
    log_count_ratio never overstates the discrete log-ratio.
    """

    level: int
    cell_width: float
    cell_count: int
    touched_count: int

    def __post_init__(self):
        _require("a whole number >= 0", level=self.level)
        _require("finite", level=self.level, cell_width=self.cell_width)
        _require("a whole number >= 1", cell_count=self.cell_count,
                 touched_count=self.touched_count)

    def log_count_ratio(self) -> float:
        """ln(cell_count / touched_count), the discrete log-ratio ingredient."""
        return math.log(self.cell_count / self.touched_count)


def _cell_offsets(d: int) -> np.ndarray:
    # 4^d strictly interior sub-grid points plus the cell center.
    q = (np.arange(4) + 0.5) / 4.0
    grids = np.meshgrid(*([q] * d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    return np.vstack([pts, np.full((1, d), 0.5)])


def _lattice_count(metric: str, reach: list[int], t: float, level: int) -> int:
    """#{k in Z^d : |k_i| <= reach_i, eps * ||(|k_i| - 1)_+|| <= t} in the
    metric's norm, with eps = 2^(-level), counted in exact integers.

    A closed radius-t ball meets at most this many cells of a grid with
    reach_i + 1 cells on axis i, whatever its center v. If v lies in cell
    k0 and a point w of the ball in cell k0 + k, then
    |w_i - v_i| >= (|k_i| - 1)_+ * eps on every axis, and both norms grow
    with each |coordinate|; both cells lie in the grid, so |k_i| <= reach_i.
    A v off the grid is no nearer any cell than its nearest point of the
    grid's box. t / eps is exact, eps being a power of two.
    """
    num, den = float(t).as_integer_ratio()
    num <<= int(level)  # t / eps == num / den

    def per_axis(m, j):  # the k with |k| <= m and (|k| - 1)_+ <= j
        return 2 * min(m, j + 1) + 1

    if metric == "linf":
        return math.prod(per_axis(m, num // den) for m in reach)
    # l2: the multiplicity of each budget floor((t / eps)^2) - sum j_i^2
    # left after the first axes, with j_i = (|k_i| - 1)_+; the last axis
    # takes every j whose square fits in what is left.
    left = {num * num // (den * den): 1}
    for m in reach[:-1]:
        nxt = Counter()
        for rem, w in left.items():
            nxt[rem] += w * per_axis(m, 0)
            for j in range(1, min(m - 1, math.isqrt(rem)) + 1):
                nxt[rem - j * j] += 2 * w
        left = nxt
    return sum(w * per_axis(reach[-1], math.isqrt(rem)) for rem, w in left.items())


def grid_partition_counts(space: ContinuumSpace, t: float, level: int) -> GridPartition:
    """Count the occupied grid cells, and bound the most cells a radius-t
    ball meets.

    Cells are [k*eps, (k+1)*eps)^d with eps = 2^(-level). Occupancy is
    decided on each cell's fixed interior sample points, for the candidate
    cells of the bounding box's grid in chunks of GRID_CHUNK on worker
    threads; the count does not depend on the number of workers.
    touched_count is the smaller of cell_count and _lattice_count, a
    closed form that no center's ball exceeds, so it needs no center.
    Nothing is drawn: the result depends on the space, t and level alone.
    """
    _require("finite and > 0", t=t)
    _require("a whole number >= 0", level=level)
    _require("finite", level=level)  # 2.0 ** -level is taken in float64
    d = space.dim
    eps = 2.0 ** (-level)
    lo, hi = space.bounding_box
    # the index range in float first: an int64 cast of an index past 2**63 is garbage
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k_lo, k_hi = np.floor(lo / eps), np.ceil(hi / eps)  # k_hi exclusive
        total = float(np.prod(k_hi - k_lo))
    _budget("grid cells", total, f"the grid at level={level!r}")
    if not np.all((np.abs(k_lo) < 2**63) & (np.abs(k_hi) < 2**63)):
        raise DomainError(f"the cell indices of the space's bounding box at level={level} "
                          "do not fit int64: the box lies too far from the origin")
    k_lo, k_hi = k_lo.astype(np.int64), k_hi.astype(np.int64)
    shape, total = k_hi - k_lo, int(total)
    offsets = _cell_offsets(d) * eps
    center, sub_grid = offsets[-1:], offsets[:-1]
    per = max(1, _GRID_POINTS // len(sub_grid))  # cells per sub-grid call, one at least

    def cell_points(kvec: np.ndarray, offs: np.ndarray) -> np.ndarray:
        # Row q * m + c is the point kvec[:, c] * eps + offs[q], stored
        # coordinate-major like the Monte Carlo draws.
        pts = np.empty((d, len(offs), kvec.shape[1]))
        np.multiply(kvec[:, None, :], eps, out=pts)
        pts += offs.T[:, :, None]
        return pts.reshape(d, -1).T

    def occupied(n):
        # The integer corners k of the chunk's cells as (d, m), then whether
        # the region holds any sample point of each cell: the center first,
        # then the sub-grid of only the cells whose center failed, in parts
        # of `per` cells. contains is row-wise, so this is the any() over all
        # the points at once.
        ids = np.arange(n * GRID_CHUNK, min((n + 1) * GRID_CHUNK, total), dtype=np.int64)
        kvec = np.empty((d, ids.size), dtype=np.int64)
        for i, col in enumerate(np.unravel_index(ids, shape)):
            np.add(col, k_lo[i], out=kvec[i])
        hit = np.array(space.contains(cell_points(kvec, center)), dtype=bool)
        miss = np.flatnonzero(~hit)
        for start in range(0, miss.size, per):
            part = miss[start:start + per]
            sub = np.asarray(space.contains(cell_points(kvec[:, part], sub_grid)), dtype=bool)
            hit[part] = sub.reshape(-1, part.size).any(axis=0)
        return int(np.count_nonzero(hit))

    n_cells = sum(_map(occupied, -(-total // GRID_CHUNK)))
    if n_cells == 0:
        raise EstimationError("no cell intersects the region; check bounding box and level")
    reach = [int(m) - 1 for m in shape]
    return GridPartition(level=level, cell_width=eps, cell_count=n_cells,
                         touched_count=min(n_cells, _lattice_count(space.metric, reach, t, level)))
