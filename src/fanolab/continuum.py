"""Volume-ratio Fano bound on bounded subsets of R^d, with Monte Carlo
and grid-partition machinery to estimate and cross-check the ratio.

The bound controls P(rho(Vhat, V) >= t) for V uniform on the region: note
the weak inequality, in contrast with the strict rho > t of the discrete
tail bound; both APIs preserve their own convention verbatim. rho is not
required to be symmetric (or even positive) here: "ball" means the
sublevel set {v' : rho(v, v') <= t}. The bound's formula,
max(0, 1 - (I + ln 2) / L), is the discrete tail bound's: both call
discrete._fano_tail.

Two deliberate approximations, both reported rather than hidden:

* The supremum over centers of Vol(ball(t, v) & V) is uncomputable in
  general. It is approximated by sampled centers plus an optional
  user-declared analytic maximizer; results record which produced the
  value. Under-estimating the sup over-states the bound, so nothing in
  this package feeds a sampled-only sup into a reported bound.
* Grid-cell occupancy ("intersection of nonzero volume") is decided by a
  fixed 4^d sub-grid per cell plus the cell center, all strictly
  interior, so measure-zero touchings do not count. The centers are
  tested first, and the 4^d sub-grid points only of the cells whose
  center failed: the same any() over the same points, so the same
  counts, while a cell whose center lies in the region costs one test.
  Occupancy is stored as one byte per candidate cell, and each probed
  ball tests only the occupied cells in the index window of its box.

Both estimators split their work into fixed-size chunks and run the chunks
on a pool of threads, one per usable CPU. Each Monte Carlo chunk draws from
its own stream keyed by (seed, chunk index), and every chunk's count is
summed exactly, so the results do not depend on the number of workers or
on the order in which chunks finish.
"""

from __future__ import annotations

import bisect
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import _fano_tail
from .info import DomainError, _require
from .results import BoundResult
from .stats import clopper_pearson
from .streams import BALL_STREAM, CENTER_STREAM, GRID_STREAM, VOLUME_STREAM, stream

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
    "surface_volume_bounds",
    "VOLUME_CHUNK",
    "GRID_CHUNK",
]

# Points per keyed stream in mc_volume_ratio and cells per job in
# grid_partition_counts. The volume chunk is part of the stream keying:
# changing it changes which draws land in which stream, hence the counts.
VOLUME_CHUNK = 1 << 16
GRID_CHUNK = 1 << 15
# Rejection sampling of candidate centers: proposals per keyed stream, and
# the number of streams tried before the region counts as too thin.
_SAMPLE_CHUNK = 8192
_SAMPLE_BUDGET = 1000
_CONFIDENCE = 0.99  # joint confidence of each volume-ratio interval
_MAX_CELLS = 1 << 22  # candidate cells one grid partition may examine


class EstimationError(RuntimeError):
    """Monte Carlo estimation failed (e.g. zero acceptance within budget)."""


@dataclass(frozen=True)
class ContinuumSpace:
    """Bounded region of R^d with membership test, bounding box and rho.

    contains maps an (m, d) array to an (m,) boolean array. rho maps a
    (d,) center and an (m, d) array of points to (m,) values, evaluating
    rho(center, point) for each row. ball_bbox, when given, returns an
    axis-aligned box certain to contain {v' : rho(c, v') <= t}; it only
    tightens sampling, never changes semantics. sup_center is a declared
    analytic maximizer of Vol(ball(t, v) & V) over v. The volume of the
    region is always estimated, never declared.

    contains and rho must be row-wise: output row i depends only on input
    row i, never on the other rows or on how many there are. The grid
    partition relies on this when it tests each cell's center apart from,
    and before, the cell's other sample points. The estimators call
    contains and rho concurrently from worker threads, so both must be
    pure: no shared state that a call mutates.
    """

    dim: int
    contains: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    rho: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ball_bbox: Callable[[np.ndarray, float], np.ndarray] | None = None
    sup_center: np.ndarray | None = None

    def __post_init__(self):
        _require(">= 1", dim=self.dim)
        box = np.asarray(self.bounding_box, dtype=np.float64)
        if box.shape != (2, self.dim):
            raise DomainError(f"bounding_box must be (2, dim), lows then highs, at dim={self.dim}")
        if not np.all(box[1] > box[0]):
            raise DomainError("bounding_box must have positive extent on every axis")
        box = box.copy()
        box.flags.writeable = False
        object.__setattr__(self, "bounding_box", box)
        if self.sup_center is not None:
            c = np.asarray(self.sup_center, dtype=np.float64).copy()
            if c.shape != (self.dim,):
                raise DomainError("sup_center must be a d-vector")
            c.flags.writeable = False
            object.__setattr__(self, "sup_center", c)

    def box_volume(self) -> float:
        lo, hi = self.bounding_box
        return float(np.prod(hi - lo))


def _long_rows(a: np.ndarray) -> tuple[np.ndarray, int]:
    """An (m, w) array viewed as m/k rows of k*w values, k = gcd(m, 64).

    An elementwise op between an (m, w) array and a (w,) vector spread over
    its rows runs numpy's inner loop over only w values at a time. The same
    op between this view and np.tile(v, k) does the same arithmetic on each
    value, so it gives the same bits, over rows up to 64 times longer. The
    view shares a's memory when a is C-contiguous.
    """
    m, w = a.shape
    k = math.gcd(m, 64)
    return a.reshape(m // k, k * w), k


def _minus(pts, center) -> np.ndarray:
    """pts - center[None, :] for (m, d) points, computed on long rows."""
    pts = np.asarray(pts)
    rows, k = _long_rows(pts)
    return (rows - np.tile(center, k)).reshape(pts.shape)


def _metric(name: str):
    if name == "l2":
        def rho(center, pts):
            diff = _minus(pts, center)
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    elif name == "linf":
        def rho(center, pts):
            # A max over the d columns, not .max(axis=1), whose inner loop
            # runs over only d values; max is exact, so the bits agree.
            diff = _minus(pts, center)
            np.abs(diff, out=diff)
            out = diff[:, 0].copy()
            for j in range(1, diff.shape[1]):
                np.maximum(out, diff[:, j], out=out)
            return out
    else:
        raise DomainError(f"unknown metric {name!r}; expected 'l2' or 'linf'")

    def bbox(center, t):
        return np.stack([center - t, center + t])

    return rho, bbox


def l2_ball_space(d: int, r: float, *, metric: str = "l2") -> ContinuumSpace:
    """Closed Euclidean ball of radius r centered at the origin.

    The origin is the declared maximizer: any rho-ball around it
    intersected with the region is at least as large as around any other
    center, for the built-in norms.
    """
    _require("an integer in [1, 2**63)", d=d)
    _require("finite and > 0", r=r)
    rho, bbox = _metric(metric)
    r2 = r * r

    def contains(pts):
        pts = np.asarray(pts, dtype=np.float64)
        return np.einsum("ij,ij->i", pts, pts) <= r2

    box = np.stack([np.full(d, -r), np.full(d, r)])
    return ContinuumSpace(dim=d, contains=contains, bounding_box=box, rho=rho,
                          ball_bbox=bbox, sup_center=np.zeros(d))


def box_space(lo, hi, *, metric: str = "linf") -> ContinuumSpace:
    """Axis-aligned box [lo, hi] with its midpoint as declared maximizer."""
    _require("finite", lo=lo, hi=hi)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
        raise DomainError("need matching 1-d lo < hi")
    d = lo.size
    rho, bbox = _metric(metric)

    def contains(pts):
        pts = np.asarray(pts, dtype=np.float64)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    box = np.stack([lo, hi])
    return ContinuumSpace(dim=d, contains=contains, bounding_box=box, rho=rho,
                          ball_bbox=bbox, sup_center=(lo + hi) / 2.0)


def ball_volume_ratio_analytic(r: float, t: float, d: int) -> float:
    """Vol(ball r) / Vol(ball t) = (r/t)^d for a region that is itself a ball.
    A ratio that overflows float64 is refused."""
    _require("finite and > 0", r=r, t=t)
    _require(">= 1", d=d)
    if not t <= r:
        raise DomainError(f"need 0 < t <= r, got t={t!r}, r={r!r}")
    try:
        if r / t < math.inf:
            return (r / t) ** d
    except OverflowError:
        pass
    raise DomainError(f"(r/t)^d overflows float64 at r={r!r}, t={t!r}, d={d}")


@dataclass(frozen=True)
class VolumeRatioEstimate:
    """Monte Carlo estimate of Vol(V) / sup_v Vol(ball(t, v) & V).

    ci combines one-sided Clopper-Pearson intervals of the two hit counts
    conservatively; joint coverage is at least the requested confidence.
    A sampled-only sup is biased low (hence the ratio biased high):
    sup_source records whether a declared maximizer took part.
    """

    ratio: float
    ci: tuple[float, float]
    vol_estimate: float
    vol_ci: tuple[float, float]
    ball_estimate: float
    ball_ci: tuple[float, float]
    sup_source: str
    center: np.ndarray

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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def _sample_box(g: np.random.Generator, count: int, box: np.ndarray) -> np.ndarray:
    lo, hi = box
    u = g.random((count, lo.size))
    rows, k = _long_rows(u)
    rows *= np.tile(hi - lo, k)
    rows += np.tile(lo, k)
    return u


def _sample_in_space(space: ContinuumSpace, count: int, seed: int, base: int) -> np.ndarray:
    got = []
    have = 0
    for i in range(_SAMPLE_BUDGET):
        u = _sample_box(stream(seed, base + i), _SAMPLE_CHUNK, space.bounding_box)
        keep = u[np.asarray(space.contains(u), dtype=bool)]
        if keep.size:
            got.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(got, axis=0)[:count]
    raise EstimationError(
        f"rejection sampling accepted {have}/{count} points after "
        f"{_SAMPLE_BUDGET * _SAMPLE_CHUNK} proposals; region too thin for its bounding box")


def _intersect_boxes(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    lo = np.maximum(a[0], b[0])
    hi = np.minimum(a[1], b[1])
    if np.any(hi <= lo):
        return None
    return np.stack([lo, hi])


def _in_ball(space: ContinuumSpace, c: np.ndarray, t: float):
    """The predicate of ball(t, c) & region on an (m, d) array of points."""
    def in_ball(u):
        ok = np.asarray(space.contains(u), dtype=bool)
        ok &= np.asarray(space.rho(c, u), dtype=np.float64) <= t
        return ok

    return in_ball


def mc_volume_ratio(space: ContinuumSpace, t: float, *, centers: int = 16,
                    points: int = 100_000, seed: int = 0) -> VolumeRatioEstimate:
    """Estimate Vol(V) and sup_v Vol(ball(t, v) & V) by rejection sampling.

    Vol(V) uses `points` draws in the bounding box. Each candidate center
    (the declared maximizer, if any, plus `centers` rejection-sampled
    ones) gets its own `points` draws inside the tightest box known to
    contain its ball. The draws come in chunks of VOLUME_CHUNK points,
    each from the stream keyed by (seed, chunk), and the chunks run on
    worker threads; the result is bit-identical whatever the number of
    workers or the order in which the chunks run.
    """
    _require("finite and > 0", t=t)
    _require("an integer in [0, 2**63)", centers=centers)
    _require("an integer in [1, 2**63)", points=points)
    with np.errstate(over="ignore"):
        box_vol = space.box_volume()
    if not 0 < box_vol < math.inf:
        raise DomainError(f"the volume {box_vol!r} of space's bounding box is out of range")
    per_count_conf = 1.0 - (1.0 - _CONFIDENCE) / 2.0  # two counts share the miss budget

    cand: list[tuple[np.ndarray, str]] = []
    if space.sup_center is not None:
        cand.append((np.asarray(space.sup_center, dtype=np.float64), "declared"))
    if centers > 0:
        for c in _sample_in_space(space, centers, seed, CENTER_STREAM):
            cand.append((c, "sampled"))
    if not cand:
        raise DomainError("need centers > 0 or a declared sup_center")

    def in_region(u):
        return np.asarray(space.contains(u), dtype=bool)

    # counts[0] is the region; the others are the candidate balls whose box
    # meets the bounding box, as (box, predicate, candidate).
    counts = [(space.bounding_box, in_region, None)]
    for j, (c, _) in enumerate(cand):
        box = space.bounding_box
        if space.ball_bbox is not None:
            box = _intersect_boxes(box, np.asarray(space.ball_bbox(c, t), dtype=np.float64))
        if box is None:
            continue
        counts.append((box, _in_ball(space, c, t), j))

    sizes = [min(VOLUME_CHUNK, points - done) for done in range(0, points, VOLUME_CHUNK)]
    jobs = []
    for k, (box, predicate, j) in enumerate(counts):
        base = VOLUME_STREAM if j is None else BALL_STREAM + (j << 20)
        jobs.extend((k, box, predicate, stream(seed, base + i), take)
                    for i, take in enumerate(sizes))

    def run(n):
        _, box, predicate, g, take = jobs[n]
        return int(np.count_nonzero(predicate(_sample_box(g, take, box))))

    hits = [0] * len(counts)
    for (k, *_), h in zip(jobs, _map(run, len(jobs))):
        hits[k] += h

    vol_hits = hits[0]
    if vol_hits == 0:
        raise EstimationError("no draw landed in the region; cannot estimate its volume")
    v_lo, v_hi = clopper_pearson(vol_hits, points, per_count_conf)
    vol_est = vol_hits / points * box_vol
    vol_ci = (v_lo * box_vol, v_hi * box_vol)

    best = None
    for (box, _, j), n_hit in zip(counts[1:], hits[1:]):
        sub_vol = float(np.prod(box[1] - box[0]))
        est = n_hit / points * sub_vol
        if best is None or est > best[0]:
            b_lo, b_hi = clopper_pearson(n_hit, points, per_count_conf)
            c, src = cand[j]
            best = (est, (b_lo * sub_vol, b_hi * sub_vol), src, c, n_hit)

    if best is None or best[4] == 0:
        raise EstimationError("no draw landed in any candidate ball; cannot estimate the sup")
    ball_est, ball_ci, src, c, _ = best
    if ball_ci[0] == 0.0:
        raise DomainError(f"t={t!r} is too small: the volume of its ball underflows float64")
    return VolumeRatioEstimate(
        ratio=vol_est / ball_est,
        ci=(vol_ci[0] / ball_ci[1], vol_ci[1] / ball_ci[0]),
        vol_estimate=vol_est, vol_ci=vol_ci,
        ball_estimate=ball_est, ball_ci=ball_ci,
        sup_source=src, center=c)


def continuum_fano_bound(log_ratio: float, mi: float) -> BoundResult:
    """Volume-ratio Fano bound: P(rho(Vhat, V) >= t) >= 1 - (I + ln 2) / log_ratio.

    Applies to V uniform on the region, with log_ratio =
    ln( Vol(V) / sup_v Vol(ball(t, v) & V) ) in nats. The event uses the
    weak inequality rho >= t. A nonpositive log-ratio makes the formula
    inapplicable: valid=False, value 0.
    """
    _require("finite", "log_ratio must be finite", log_ratio=log_ratio)
    return BoundResult(value=_fano_tail(mi, log_ratio), valid=log_ratio > 0,
                       ingredients={"mi_bound": mi, "log_ratio": log_ratio})


@dataclass(frozen=True)
class GridPartition:
    """Dyadic-grid quantization summary at one refinement level.

    cell_count is the number of width-2^(-level) cells whose intersection
    with the region has nonzero volume; touched_count is the largest
    number of those cells met by a radius-t ball around any probed center.
    """

    level: int
    cell_width: float
    cell_count: int
    touched_count: int

    def __post_init__(self):
        _require("finite", level=self.level, cell_width=self.cell_width)
        _require(">= 1", cell_count=self.cell_count, touched_count=self.touched_count)

    def log_count_ratio(self) -> float:
        """ln(cell_count / touched_count), the discrete log-ratio ingredient."""
        return math.log(self.cell_count / self.touched_count)


def _cell_offsets(d: int) -> np.ndarray:
    # 4^d strictly interior sub-grid points plus the cell center.
    q = (np.arange(4) + 0.5) / 4.0
    grids = np.meshgrid(*([q] * d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    return np.vstack([pts, np.full((1, d), 0.5)])


def grid_partition_counts(space: ContinuumSpace, t: float, level: int, *,
                          seed: int = 0, centers: int = 4) -> GridPartition:
    """Count occupied grid cells and the most cells a radius-t ball touches.

    Cells are [k*eps, (k+1)*eps)^d with eps = 2^(-level). Occupancy and
    ball-touching are decided on each cell's fixed interior sample points,
    so both counts are deterministic given the seed (which only drives the
    probed centers). The probed centers are the declared maximizer plus
    `centers` rejection-sampled points of the region.

    Occupancy is kept as one byte per candidate cell of the bounding box's
    grid, so at most _MAX_CELLS bytes. Each probe scans only the window of
    cell indices that its ball's box meets, the whole grid when the space
    has no ball_bbox, and tests the occupied cells in it. Cells are examined
    in chunks of GRID_CHUNK on worker threads; the counts do not depend on
    the number of workers.
    """
    _require("finite and > 0", t=t)
    _require("finite and >= 0", level=level)
    _require("an integer in [0, 2**63)", centers=centers)
    d = space.dim
    eps = 2.0 ** (-level)
    lo, hi = space.bounding_box
    # the index range in float first: an int64 cast of an index past 2**63 is garbage
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k_lo, k_hi = np.floor(lo / eps), np.ceil(hi / eps)  # k_hi exclusive
        total = float(np.prod(k_hi - k_lo))
    if not total <= _MAX_CELLS:
        raise EstimationError(
            f"grid would have {total:.0f} candidate cells (guard {_MAX_CELLS}); lower the level")
    if not np.all((np.abs(k_lo) < 2**63) & (np.abs(k_hi) < 2**63)):
        raise DomainError(f"the cell indices of the space's bounding box at level={level} "
                          "do not fit int64: the box lies too far from the origin")
    k_lo, k_hi = k_lo.astype(np.int64), k_hi.astype(np.int64)
    shape, total = k_hi - k_lo, int(total)
    offsets = _cell_offsets(d) * eps
    center, sub_grid = offsets[-1:], offsets[:-1]

    def cells(ids: np.ndarray) -> np.ndarray:
        # The (m, d) integer corners k of the cells with these flat ids.
        kvec = np.empty((ids.size, d), dtype=np.int64)
        for i, col in enumerate(np.unravel_index(ids, shape)):
            np.add(col, k_lo[i], out=kvec[:, i])
        return kvec

    def cell_points(kvec: np.ndarray, offs: np.ndarray) -> np.ndarray:
        # Row c * len(offs) + q is the point kvec[c] * eps + offs[q].
        rows, k = _long_rows(np.tile(kvec * eps, len(offs)))
        rows += np.tile(offs.ravel(), k)
        return rows.reshape(-1, d)

    def any_point(kvec: np.ndarray, pred) -> np.ndarray:
        # Whether pred holds at any sample point of each cell: the center
        # first, then the sub-grid of only the cells whose center failed.
        # pred is row-wise, so this is the any() over all the points at once.
        hit = np.array(pred(cell_points(kvec, center)), dtype=bool)
        miss = np.flatnonzero(~hit)
        if miss.size:
            sub = np.asarray(pred(cell_points(kvec[miss], sub_grid)), dtype=bool)
            hit[miss] = sub.reshape(miss.size, -1).any(axis=1)
        return hit

    def occupied(n):
        ids = np.arange(n * GRID_CHUNK, min((n + 1) * GRID_CHUNK, total), dtype=np.int64)
        return any_point(cells(ids), space.contains)

    # One byte per candidate cell, indexed by flat cell id.
    mask = np.concatenate(_map(occupied, -(-total // GRID_CHUNK)))
    n_cells = int(np.count_nonzero(mask))
    if n_cells == 0:
        raise EstimationError("no cell intersects the region; check bounding box and level")

    probes = []
    if space.sup_center is not None:
        probes.append(np.asarray(space.sup_center, dtype=np.float64))
    if centers > 0:
        probes.extend(_sample_in_space(space, centers, seed, GRID_STREAM))
    if not probes:
        raise DomainError("need centers > 0 or a declared sup_center")

    touched_max = 0
    for c in probes:
        # The window [w_lo, w_hi) of cell indices on each axis whose cells
        # [k*eps, (k+1)*eps) meet the ball's box: (k+1)*eps > box low holds
        # on a suffix of the axis and k*eps < box high on a prefix, so the
        # cells that pass both form one run, found by bisection.
        w_lo, w_hi = np.zeros(d, dtype=np.int64), shape.copy()
        if space.ball_bbox is not None:
            bb = np.asarray(space.ball_bbox(c, t), dtype=np.float64)
            for i, (b_lo, b_hi) in enumerate(zip(bb[0].tolist(), bb[1].tolist())):
                axis = range(int(k_lo[i]), int(k_hi[i]))
                w_lo[i] = bisect.bisect_left(axis, True, key=lambda k: (k + 1) * eps > b_lo)
                w_hi[i] = max(w_lo[i], bisect.bisect_left(
                    axis, True, key=lambda k: not k * eps < b_hi))
        w_shape = w_hi - w_lo
        w_total = int(np.prod(w_shape))
        if w_total == 0:
            continue
        w_start = np.ravel_multi_index(w_lo, shape)

        def touched(n, w_shape=w_shape, w_start=w_start, w_total=w_total,
                    in_ball=_in_ball(space, c, t)):
            w_ids = np.arange(n * GRID_CHUNK, min((n + 1) * GRID_CHUNK, w_total), dtype=np.int64)
            ids = np.ravel_multi_index(np.unravel_index(w_ids, w_shape), shape) + w_start
            return int(np.count_nonzero(any_point(cells(ids[mask[ids]]), in_ball)))

        touched_max = max(touched_max, sum(_map(touched, -(-w_total // GRID_CHUNK))))
    if touched_max == 0:
        raise EstimationError("no cell touched by any probed ball; is t too small for the grid?")
    return GridPartition(level=level, cell_width=eps, cell_count=n_cells,
                         touched_count=touched_max)


def surface_volume_bounds(volume: float, surface: float, eps: float,
                          d: int) -> tuple[float, float]:
    """Volume sandwich for an eps-thickened/thinned set with finite surface area.

    Returns (volume - (2 eps)^d * surface, volume + (2 eps)^d * surface):
    the Lebesgue measure of A minus/plus a (2 eps)-cube carried along its
    boundary. Finiteness of the surface area is the caller's assertion;
    there is no constructive test here. Non-finite arguments are refused.
    """
    _require("finite and >= 0", volume=volume, surface=surface, eps=eps)
    _require("finite and >= 1", d=d)
    try:
        pad = (2.0 * eps) ** d * surface
    except OverflowError:
        pad = math.inf
    if not math.isfinite(volume + pad):
        raise DomainError("volume + (2 eps)^d * surface overflows float64: volume, "
                          "surface, eps or d is too large")
    return volume - pad, volume + pad
