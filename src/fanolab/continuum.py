"""Volume-ratio Fano bound on bounded subsets of R^d, with Monte Carlo
and grid-partition machinery to estimate and cross-check the ratio.

The bound controls P(rho(Vhat, V) >= t) for V uniform on the region: note
the weak inequality, in contrast with the strict rho > t of the discrete
tail bound; both APIs preserve their own convention verbatim. rho is not
required to be symmetric (or even positive) here: "ball" means the
sublevel set {v' : rho(v, v') <= t}.

Two deliberate approximations, both reported rather than hidden:

* The supremum over centers of Vol(ball(t, v) & V) is uncomputable in
  general. It is approximated by sampled centers plus an optional
  user-declared analytic maximizer; results record which produced the
  value. Under-estimating the sup over-states the bound, so nothing in
  this package feeds a sampled-only sup into a reported bound.
* Grid-cell occupancy ("intersection of nonzero volume") is decided by a
  fixed 4^d sub-grid per cell plus the cell center, all strictly
  interior, so measure-zero touchings do not count.

Both estimators split their work into fixed-size chunks and run the chunks
on a pool of threads, one per usable CPU. Each Monte Carlo chunk draws from
its own stream keyed by (seed, chunk index), and every chunk's count is
summed exactly, so the results do not depend on the number of workers or
on the order in which chunks finish.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .info import LN2, DomainError
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


class EstimationError(RuntimeError):
    """Monte Carlo estimation failed (e.g. zero acceptance within budget)."""


@dataclass(frozen=True)
class ContinuumSpace:
    """Bounded region of R^d with membership test, bounding box and rho.

    contains maps an (m, d) array to an (m,) boolean array. rho maps a
    (d,) center and an (m, d) array of points to (m,) values, evaluating
    rho(center, point) for each row. volume records the exact Lebesgue
    measure when known (None means "estimate it"). ball_bbox, when given,
    returns an axis-aligned box certain to contain {v' : rho(c, v') <= t};
    it only tightens sampling, never changes semantics. sup_center is a
    declared analytic maximizer of Vol(ball(t, v) & V) over v.

    The estimators call contains and rho concurrently from worker threads,
    so both must be pure: no shared state that a call mutates.
    """

    dim: int
    contains: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    rho: Callable[[np.ndarray, np.ndarray], np.ndarray]
    volume: float | None = None
    ball_bbox: Callable[[np.ndarray, float], np.ndarray] | None = None
    sup_center: np.ndarray | None = None

    def __post_init__(self):
        box = np.asarray(self.bounding_box, dtype=np.float64)
        if box.shape != (2, self.dim):
            raise DomainError(f"bounding_box must be (2, {self.dim}): row 0 lows, row 1 highs")
        if not np.all(box[1] > box[0]):
            raise DomainError("bounding_box must have positive extent on every axis")
        box = box.copy()
        box.flags.writeable = False
        object.__setattr__(self, "bounding_box", box)
        if self.volume is not None and not self.volume > 0:
            raise DomainError("declared volume must be positive")
        if self.sup_center is not None:
            c = np.asarray(self.sup_center, dtype=np.float64).copy()
            if c.shape != (self.dim,):
                raise DomainError("sup_center must be a d-vector")
            c.flags.writeable = False
            object.__setattr__(self, "sup_center", c)

    def box_volume(self) -> float:
        lo, hi = self.bounding_box
        return float(np.prod(hi - lo))


def _metric(name: str):
    if name == "l2":
        def rho(center, pts):
            diff = pts - center[None, :]
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    elif name == "linf":
        def rho(center, pts):
            return np.abs(pts - center[None, :]).max(axis=1)
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
    if d < 1 or not r > 0:
        raise DomainError("need d >= 1 and r > 0")
    rho, bbox = _metric(metric)
    r2 = r * r

    def contains(pts):
        pts = np.asarray(pts, dtype=np.float64)
        return np.einsum("ij,ij->i", pts, pts) <= r2

    box = np.stack([np.full(d, -r), np.full(d, r)])
    return ContinuumSpace(dim=d, contains=contains, bounding_box=box, rho=rho,
                          volume=_unit_ball_volume(d) * r**d, ball_bbox=bbox,
                          sup_center=np.zeros(d))


def box_space(lo, hi, *, metric: str = "linf") -> ContinuumSpace:
    """Axis-aligned box [lo, hi] with its midpoint as declared maximizer."""
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
                          volume=float(np.prod(hi - lo)), ball_bbox=bbox,
                          sup_center=(lo + hi) / 2.0)


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def ball_volume_ratio_analytic(r: float, t: float, d: int) -> float:
    """Vol(ball r) / Vol(ball t) = (r/t)^d for a region that is itself a ball."""
    if not 0 < t <= r:
        raise DomainError(f"need 0 < t <= r, got t={t!r}, r={r!r}")
    if d < 1:
        raise DomainError("need d >= 1")
    try:
        return (r / t) ** d
    except OverflowError:
        raise DomainError(f"(r/t)^d overflows float64 at r={r!r}, t={t!r}, d={d}") from None


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
    u *= hi - lo
    u += lo
    return u


def _sample_in_space(space: ContinuumSpace, count: int, seed: int, base: int,
                     *, chunk: int = 8192, budget_chunks: int = 1000) -> np.ndarray:
    got = []
    have = 0
    for i in range(budget_chunks):
        u = _sample_box(stream(seed, base + i), chunk, space.bounding_box)
        keep = u[np.asarray(space.contains(u), dtype=bool)]
        if keep.size:
            got.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(got, axis=0)[:count]
    raise EstimationError(
        f"rejection sampling accepted {have}/{count} points after "
        f"{budget_chunks * chunk} proposals; region too thin for its bounding box")


def _intersect_boxes(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    lo = np.maximum(a[0], b[0])
    hi = np.minimum(a[1], b[1])
    if np.any(hi <= lo):
        return None
    return np.stack([lo, hi])


def mc_volume_ratio(space: ContinuumSpace, t: float, *, centers: int = 16,
                    points: int = 100_000, seed: int = 0,
                    confidence: float = 0.99) -> VolumeRatioEstimate:
    """Estimate Vol(V) and sup_v Vol(ball(t, v) & V) by rejection sampling.

    Vol(V) uses `points` draws in the bounding box. Each candidate center
    (the declared maximizer, if any, plus `centers` rejection-sampled
    ones) gets its own `points` draws inside the tightest box known to
    contain its ball. The draws come in chunks of VOLUME_CHUNK points,
    each from the stream keyed by (seed, chunk), and the chunks run on
    worker threads; the result is bit-identical whatever the number of
    workers or the order in which the chunks run.
    """
    if points < 1 or centers < 0:
        raise DomainError("need points >= 1 and centers >= 0")
    if not t > 0:
        raise DomainError("need t > 0")
    per_count_conf = 1.0 - (1.0 - confidence) / 2.0  # two counts share the miss budget

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

        def in_ball(u, c=c):
            ok = np.asarray(space.contains(u), dtype=bool)
            ok &= np.asarray(space.rho(c, u), dtype=np.float64) <= t
            return ok

        counts.append((box, in_ball, j))

    sizes = [min(VOLUME_CHUNK, points - done) for done in range(0, points, VOLUME_CHUNK)]
    jobs = []
    for k, (box, predicate, j) in enumerate(counts):
        base = VOLUME_STREAM if j is None else BALL_STREAM + (j << 20)
        jobs.extend((k, box, predicate, stream(seed, base + i), take)
                    for i, take in enumerate(sizes))

    def run(n):
        _, box, predicate, g, take = jobs[n]
        return int(predicate(_sample_box(g, take, box)).sum())

    hits = [0] * len(counts)
    for (k, *_), h in zip(jobs, _map(run, len(jobs))):
        hits[k] += h

    vol_hits = hits[0]
    if vol_hits == 0:
        raise EstimationError("no draw landed in the region; cannot estimate its volume")
    box_vol = space.box_volume()
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
    if not math.isfinite(log_ratio):
        raise DomainError("log_ratio must be finite")
    if not (math.isfinite(mi) and mi >= 0):
        raise DomainError(f"mutual information mi must be finite and >= 0, got {mi!r}")
    valid = log_ratio > 0
    value = max(0.0, 1.0 - (mi + LN2) / log_ratio) if valid else 0.0
    return BoundResult(value=value, valid=valid,
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
        if self.cell_count < 1 or self.touched_count < 1:
            raise DomainError("counts must be >= 1")

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
                          seed: int = 0, centers: int = 4,
                          max_cells: int = 1 << 22) -> GridPartition:
    """Count occupied grid cells and the most cells a radius-t ball touches.

    Cells are [k*eps, (k+1)*eps)^d with eps = 2^(-level). Occupancy and
    ball-touching are decided on each cell's fixed interior sample points,
    so both counts are deterministic given the seed (which only drives the
    probed centers). The probed centers are the declared maximizer plus
    `centers` rejection-sampled points of the region. Cells are examined
    in chunks of GRID_CHUNK on worker threads; the counts do not depend on
    the number of workers.
    """
    if level < 0:
        raise DomainError("level must be >= 0")
    if not t > 0:
        raise DomainError("need t > 0")
    d = space.dim
    eps = 2.0 ** (-level)
    lo, hi = space.bounding_box
    k_lo = np.floor(lo / eps).astype(np.int64)
    k_hi = np.ceil(hi / eps).astype(np.int64)  # exclusive
    shape = k_hi - k_lo
    total = int(np.prod(shape))
    if total > max_cells:
        raise EstimationError(
            f"grid would have {total} candidate cells (guard {max_cells}); lower the level")
    offsets = _cell_offsets(d) * eps

    def cell_points(kvec: np.ndarray) -> np.ndarray:
        base = kvec.astype(np.float64) * eps
        return (base[:, None, :] + offsets[None, :, :]).reshape(-1, d)

    def occupied(n):
        ids = np.arange(n * GRID_CHUNK, min((n + 1) * GRID_CHUNK, total), dtype=np.int64)
        kvec = np.stack(np.unravel_index(ids, shape), axis=1) + k_lo
        inside = np.asarray(space.contains(cell_points(kvec)), dtype=bool)
        return kvec[inside.reshape(kvec.shape[0], -1).any(axis=1)]

    occ = np.concatenate(_map(occupied, -(-total // GRID_CHUNK)), axis=0)
    n_cells = int(occ.shape[0])
    if n_cells == 0:
        raise EstimationError("no cell intersects the region; check bounding box and level")

    probes = []
    if space.sup_center is not None:
        probes.append(np.asarray(space.sup_center, dtype=np.float64))
    if centers > 0:
        probes.extend(_sample_in_space(space, centers, seed, GRID_STREAM))
    if not probes:
        raise DomainError("need centers > 0 or a declared sup_center")

    # One probe at a time: holding every probe's candidate cells at once
    # raises the peak memory.
    touched_max = 0
    for c in probes:
        cand = occ
        if space.ball_bbox is not None:
            bb = np.asarray(space.ball_bbox(c, t), dtype=np.float64)
            keep = np.all((cand * eps < bb[1]) & ((cand + 1) * eps > bb[0]), axis=1)
            cand = cand[keep]

        def touched(n, c=c, cand=cand):
            kvec = cand[n * GRID_CHUNK:(n + 1) * GRID_CHUNK]
            pts = cell_points(kvec)
            ok = np.asarray(space.contains(pts), dtype=bool)
            ok &= np.asarray(space.rho(c, pts), dtype=np.float64) <= t
            return int(ok.reshape(kvec.shape[0], -1).any(axis=1).sum())

        touched_max = max(touched_max, sum(_map(touched, -(-cand.shape[0] // GRID_CHUNK))))
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
    there is no constructive test here.
    """
    if volume < 0 or surface < 0 or eps < 0:
        raise DomainError("volume, surface and eps must be >= 0")
    if d < 1:
        raise DomainError("need d >= 1")
    pad = (2.0 * eps) ** d * surface
    return volume - pad, volume + pad
