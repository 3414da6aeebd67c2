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
general. mc_volume_ratios (and mc_volume_ratio, its one-seed form) takes it
at the space's declared maximizer sup_center and refuses a space that
declares none: a sampled center can only under-estimate the sup, which
over-states the ratio and the bound. The grid needs no center: its
touched count is a closed-form lattice count that bounds the cells any
radius-t ball meets, whatever its center.

Both estimators split their work into fixed-size chunks and run them in
processes: with W = min(chunks, usable CPUs) > 1 the caller forks W - 1
worker processes and runs every W-th chunk itself. A call forks its workers
once, so mc_volume_ratios runs the chunks of all its seeds in one call: a
dimension of `verify volume` forks W - 1 workers for all its seeds. Each
Monte Carlo chunk draws from its own stream keyed by (seed, chunk index),
its seed, size and stream derived from its index inside the worker, and
each worker sends back the exact integer sums of its chunks' counts, so the
results do not depend on the number of workers or on which seeds share a
call. A worker gets the space as it was at the fork, and a side effect of
contains in a worker is never seen by the caller. A chunk is drawn and
tested in blocks of _VOLUME_BLOCK points, each block coordinate-major
through one buffer per worker process: in the block of b points that
starts at point a of its chunk, coordinate j of point a + i is the chunk
stream's value d*a + j*b + i. So each coordinate of a block is one
contiguous column, the built-in predicates work column by column, and a
worker holds one block, not a chunk. The grid builds its sample points
coordinate-major too.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._volume import EstimationError, ball_volume_ratio_analytic, continuum_fano_bound
from .info import DomainError, _budget, _require, _shown
from .stats import clopper_pearson
from .streams import BALL_STREAM, VOLUME_STREAM, _sfc64

__all__ = [
    "EstimationError",
    "ContinuumSpace",
    "GridPartition",
    "VolumeRatioEstimate",
    "l2_ball_space",
    "box_space",
    "ball_volume_ratio_analytic",
    "mc_volume_ratio",
    "mc_volume_ratios",
    "continuum_fano_bound",
    "grid_partition_counts",
    "VOLUME_CHUNK",
    "GRID_CHUNK",
]

# Points per keyed stream in mc_volume_ratio and cells per job in
# grid_partition_counts. The volume chunk is part of the stream keying, and
# so are the block and its coordinate-major layout: a chunk's stream fills
# its blocks in order, d * b values for a block of b points, coordinate j of
# the block's point i at offset j * b + i. Changing the chunk, the block or
# the layout changes which draw lands in which stream and coordinate, hence
# the counts. A block is the most points a worker holds at once.
VOLUME_CHUNK = 1 << 16
_VOLUME_BLOCK = 1 << 14
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
    in the caller and in worker processes forked from it, so it must be
    pure: what a call changes in a worker (a counter, a cache, an array)
    stays in that worker and is never seen by the caller.
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
    """sum_j (pts[:, j] - center[j])**2 for (m, d) points.

    The squares of all d columns take one or two whole-array operations into
    a (d, m) scratch, one contiguous row per column. The order of the
    additions is fixed: the squares of the even columns in column order,
    then those of the odd columns in column order, then the even sum plus
    the odd sum, accumulated in place in the rows of columns 0 and 1.
    """
    m, d = pts.shape
    sq = np.empty((d, m)).T
    if center is None:
        np.multiply(pts, pts, out=sq)
    else:
        np.subtract(pts, center, out=sq)
        np.multiply(sq, sq, out=sq)
    total = sq[:, 0]
    for j in range(2, d, 2):
        total += sq[:, j]
    if d > 1:
        odd = sq[:, 1]
        for j in range(3, d, 2):
            odd += sq[:, j]
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


def _map(fn, n: int, width: int) -> list[int]:
    """The per-slot sums of the (slot, count) pairs fn(0), ..., fn(n - 1), as
    a list of width ints.

    With W = min(n, usable CPUs) > 1 and os.fork at hand, the caller forks
    W - 1 worker processes and is worker 0 itself: worker w runs the jobs
    i = w (mod W) in order, and sends the sums of its share through a pipe
    for the caller to add up. Integer sums do not depend on the order of
    the additions, so the result is the same for any W. Otherwise, and in
    a process that runs other threads (a fork copies only the calling
    thread, and a lock that another thread holds would stay held in the
    worker), this is a plain in-order loop.

    Each call forks its workers anew, and a forked worker pays a
    copy-on-write page fault for each page of the caller's that it writes
    to. So a caller puts all the jobs it has into one call, as
    mc_volume_ratios does with the chunks of all its seeds.

    An exception that fn raises in a worker is raised again in the caller,
    with its type, its message and the worker's traceback as a note. A
    worker that ends without sending its sums raises a RuntimeError that
    names its exit status. The caller's share is run first, then the
    workers' results are taken in order, and the first failure is raised;
    partial sums are never returned. On every path each worker is reaped,
    killed first if it is still running.

    fn must call no public fanolab function: a tracer that rebinds those
    keeps a worker's spans in that worker, so it would see the caller's
    share alone. So fn builds its random streams through streams._sfc64.
    """
    workers = min(n, _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _share(fn, range(n), width)
    procs = []  # [pid or None once reaped, read end of its pipe] per worker
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            procs.append([None, open(r, "rb")])
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, range(w, n, workers), width, wfd)
            finally:
                os.close(wfd)
            procs[-1][0] = pid
        sums = _share(fn, range(0, n, workers), width)
        for proc in procs:
            pid, reader = proc
            with reader:
                data = reader.read()
            status = os.waitpid(pid, 0)[1]
            proc[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                raise RuntimeError(f"worker process {pid} ended with {_exit_status(code)} "
                                   "before sending its counts")
            part = pickle.loads(data)
            if isinstance(part, BaseException):
                raise part
            sums = [a + b for a, b in zip(sums, part)]
        return sums
    finally:
        for pid, reader in procs:
            reader.close()
            if pid is not None:
                with suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _share(fn, jobs, width: int) -> list[int]:
    sums = [0] * width
    for i in jobs:
        slot, count = fn(i)
        sums[slot] += count
    return sums


def _work(fn, jobs, width: int, fd: int):
    """A forked worker of _map: runs its share and writes the sums, or the
    exception that stopped it, to fd; then leaves through os._exit, so none
    of the caller's cleanup (atexit, finally blocks, buffered output) runs
    in the worker. The exit status is 0 only once the result is written."""
    status = 1
    try:
        try:
            result = _share(fn, jobs, width)
        except BaseException as exc:
            result = _portable(exc)
        with open(fd, "wb") as out:
            out.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _portable(exc: BaseException) -> BaseException:
    """exc with the worker's traceback as a note, or, when it does not survive
    pickling, a RuntimeError with its type, message and note."""
    import traceback

    note = "raised in a worker process:\n" + "".join(traceback.format_exception(exc)).rstrip()
    exc.add_note(note)
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # say, a class whose __init__ its args do not fit
        out = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        out.add_note(note)
        return out


def _exit_status(code: int) -> str:
    """A waitstatus_to_exitcode value in words: negative codes are signals."""
    if code >= 0:
        return f"exit status {code}"
    try:
        name = signal.Signals(-code).name
    except ValueError:
        name = f"signal {-code}"
    return f"exit status {code} (killed by {name})"


def _sample_box(g: np.random.Generator, box: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fills out, a C-ordered (d, b) float64 array, with b points uniform in
    box and returns them as its (b, d) transpose: coordinate j of point i is
    the stream's next value j * b + i, scaled in place, and each coordinate
    is a contiguous column."""
    lo, hi = box
    g.random(out=out)
    out *= (hi - lo)[:, None]
    out += lo[:, None]
    return out.T


def _intersect_boxes(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    lo = np.maximum(a[0], b[0])
    hi = np.minimum(a[1], b[1])
    if np.any(hi <= lo):
        return None
    return np.stack([lo, hi])


def mc_volume_ratio(space: ContinuumSpace, t: float, *, points: int = 100_000,
                    seed: int = 0) -> VolumeRatioEstimate:
    """mc_volume_ratios for the one seed: the estimate of
    Vol(V) / sup_v Vol(ball(t, v) & V) from the streams keyed by seed."""
    return mc_volume_ratios(space, t, points=points, seeds=(seed,))[0]


def _seed_tuple(seeds) -> tuple:
    """seeds as a nonempty tuple of stream seeds, or a DomainError naming the
    first one that is not an integer in [0, 2**64)."""
    try:
        out = tuple(seeds)
    except TypeError:  # not a sequence at all
        out = ()
    if not out:
        raise DomainError("seeds must be a nonempty sequence of integers in [0, 2**64), "
                          f"got seeds={_shown(seeds, repr)}")
    for s, seed in enumerate(out):
        _require("an integer in [0, 2**64)", "seed must be an integer in [0, 2**64), "
                 f"got seed={{value}} at seeds[{s}]", seed=seed)
    return out


def mc_volume_ratios(space: ContinuumSpace, t: float, *, points: int = 100_000,
                     seeds: Sequence[int]) -> list[VolumeRatioEstimate]:
    """Estimate Vol(V) and sup_v Vol(ball(t, v) & V) by rejection sampling,
    once per seed: one VolumeRatioEstimate per seed, in seed order.

    For each seed, Vol(V) uses `points` draws in the bounding box, and the
    ball around the space's declared sup_center `points` draws in the box
    sup_center +- t cut to the bounding box. A space that declares no
    sup_center is refused. The draws come in chunks of VOLUME_CHUNK points,
    each from the stream keyed by (seed, chunk), and the chunks of every
    seed run in one _map call, so a call forks its worker processes once
    however many seeds it has; each estimate is bit-identical to that of
    a call with its seed alone, whatever the number of workers. A job
    knows only its index: the worker derives the job's seed, count and
    chunk from it, and the chunk's size and stream, and draws and tests the
    chunk in blocks of _VOLUME_BLOCK points through the one buffer it owns.
    So neither the caller nor a worker holds anything that grows with
    `points`; the caller holds two sums per seed. contains runs in the
    workers too, and what it changes there is not seen by the caller. A
    refusal that depends on the draws (no hit in the region or the ball,
    or a ball volume that underflows) is raised for the first seed, in
    seed order, whose draws call for it.
    """
    _require("finite and > 0", t=t)
    _require("an integer in [1, 2**63)", points=points)
    _budget("sampled points", 2 * points, "2 * points")  # the region and the ball, per seed
    seeds = _seed_tuple(seeds)  # every seed checked before any worker starts
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

    # (box, predicate, stream base): count 0 is the region, count 1 the ball
    counts = [(space.bounding_box, in_region, VOLUME_STREAM),
              (ball_box, in_ball, BALL_STREAM)]
    chunks = -(-points // VOLUME_CHUNK)
    buf = np.empty(space.dim * _VOLUME_BLOCK)  # each forked worker writes its own copy

    def run(n):
        s, rest = divmod(n, 2 * chunks)  # job n is chunk i of count k of seed s
        k, i = divmod(rest, chunks)
        box, predicate, base = counts[k]
        g = _sfc64(seeds[s], base + i)
        take = min(VOLUME_CHUNK, points - i * VOLUME_CHUNK)
        hits = 0
        for start in range(0, take, _VOLUME_BLOCK):
            b = min(_VOLUME_BLOCK, take - start)
            u = _sample_box(g, box, buf[:space.dim * b].reshape(space.dim, b))
            hits += int(np.count_nonzero(predicate(u)))
        return 2 * s + k, hits

    sums = _map(run, 2 * chunks * len(seeds), 2 * len(seeds))

    sub_vol = float(np.prod(ball_box[1] - ball_box[0]))
    estimates = []
    for vol_hits, ball_hits in zip(sums[0::2], sums[1::2]):
        if vol_hits == 0:
            raise EstimationError("no draw landed in the region; cannot estimate its volume")
        v_lo, v_hi = clopper_pearson(vol_hits, points, per_count_conf)
        vol_est = vol_hits / points * box_vol
        vol_ci = (v_lo * box_vol, v_hi * box_vol)

        if ball_hits == 0:
            raise EstimationError("no draw landed in the declared ball; cannot estimate the sup")
        b_lo, b_hi = clopper_pearson(ball_hits, points, per_count_conf)
        ball_est = ball_hits / points * sub_vol
        ball_ci = (b_lo * sub_vol, b_hi * sub_vol)
        if ball_ci[0] == 0.0:
            raise DomainError(f"t={t!r} is too small: the volume of its ball underflows float64")
        estimates.append(VolumeRatioEstimate(
            ratio=vol_est / ball_est,
            ci=(vol_ci[0] / ball_ci[1], vol_ci[1] / ball_ci[0]),
            vol_estimate=vol_est, vol_ci=vol_ci,
            ball_estimate=ball_est, ball_ci=ball_ci))
    return estimates


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
    cells of the bounding box's grid in chunks of GRID_CHUNK in worker
    processes (see _map); the count does not depend on the number of
    workers, and what contains changes in a worker is not seen by the
    caller.
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
    # the count as an int where finite, so that a refusal shows it as one
    _budget("grid cells", int(total) if math.isfinite(total) else total,
            f"the grid at level={level!r}")
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
        return 0, int(np.count_nonzero(hit))

    n_cells, = _map(occupied, -(-total // GRID_CHUNK), 1)
    if n_cells == 0:
        raise EstimationError("no cell intersects the region; check bounding box and level")
    reach = [int(m) - 1 for m in shape]
    return GridPartition(level=level, cell_width=eps, cell_count=n_cells,
                         touched_count=min(n_cells, _lattice_count(space.metric, reach, t, level)))
