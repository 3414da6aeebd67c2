"""Traced in-process run of one workload: per-module layer metrics.

Run as a child of run.py:

    python3 perfbench/tracer.py --workload NAME --seed N --src SRC --out DIR

It imports fanolab.cli once and runs each command of the workload through
``fanolab.cli.main`` twice: untraced, then with timing wrappers installed.
The wrappers are installed from here, with no change to the program:
every public function that a fanolab module defines is rebound, in its
own module and in every fanolab module that imported it, to a wrapper
that records a span (name, start, end, parent). Calls across
modules, such as ``fanolab.lab.stream`` or ``fanolab.continuum.clopper_pearson``,
are therefore spans of the callee's module; class constructors and
methods are not wrapped and count toward their caller. Spans stay in
memory and are written out at the end together with the layer metrics.
Each traced command's result carries its own exact counts, so that a
count that does not repeat is charged to the command that made it.

The span arithmetic (layer_times, layer_metrics) imports nothing from
fanolab, so selftest.py can check it on made-up spans.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import inspect
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT_LAYER = "cli"


class Tracer:
    """Span recorder. A span is [name_id, start, end, parent_index]."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        nid = self._name_id(name, layer)
        counts = self.counts

        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result, rec[2] - rec[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object]):
        """Rebind every public fanolab function in every fanolab module."""
        wrapped = self._wrapped
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", "") or ""
                if not (inspect.isfunction(obj) and home.startswith("fanolab.")):
                    continue
                layer = home.rsplit(".", 1)[1]
                if layer == ROOT_LAYER or obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrapped:
                    name = f"{layer}.{obj.__name__}"
                    wrapped[id(obj)] = self.wrap(obj, name, layer, counter_for(name, obj))
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


# -- computed counts, from call arguments and returned objects ---------------


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def counter_for(name: str, fn):
    if name == "discrete.sparse_sign_space":
        def count(c, a, k, res, dur):
            _add(c, "discrete.points_materialized", res.n_points)
        return count
    if name == "discrete.neighborhood_sizes":
        def count(c, a, k, res, dur):
            space = a[0] if a else k["space"]
            n = space.n_points
            _add(c, "discrete.pairs_evaluated", n if space.homogeneous else n * n)
        return count
    if name == "lab.enumerate_decoders_min_tail":
        bind = _binder(fn)

        def count(c, a, k, res, dur):
            p = bind(a, k)
            nx = len(p["channel"][0])
            _add(c, "lab.decoders_enumerated", p["space"].n_points ** nx)
        return count
    if name == "lab.simulate_risk":
        bind = _binder(fn)

        def count(c, a, k, res, dur):
            cfg = bind(a, k)["config"]
            kind = "tail" if cfg.t_list else cfg.problem
            _add(c, "lab.replicates", cfg.reps)
            _add(c, f"lab.reps.{kind}", cfg.reps)
            _add(c, f"lab.time_s.{kind}", dur)
        return count
    if name == "continuum.mc_volume_ratio":
        bind = _binder(fn)

        def count(c, a, k, res, dur):
            p = bind(a, k)
            space, points = p["space"], p["points"]
            n_cand = (space.sup_center is not None) + p["centers"]
            drawn = points * (1 + n_cand)
            _add(c, "continuum.points_sampled", drawn)
            _add(c, "continuum.bytes_computed", drawn * space.dim * 8)
            lo, hi = space.bounding_box
            box_vol = math.prod(float(h - l) for l, h in zip(lo, hi))
            _add(c, "continuum.region_hits", round(res.vol_estimate / box_vol * points))
            _add(c, "continuum.region_proposals", points)
            _add(c, "continuum.mc_time_s", dur)
            _add(c, f"continuum.mc_calls.d{space.dim}", 1)
            _add(c, f"continuum.mc_time_s.d{space.dim}", dur)
        return count
    if name == "continuum.grid_partition_counts":
        bind = _binder(fn)

        def count(c, a, k, res, dur):
            p = bind(a, k)
            level = p["level"]
            eps = 2.0 ** (-level)
            lo, hi = p["space"].bounding_box
            _add(c, "continuum.cells_probed", math.prod(
                math.ceil(float(h) / eps) - math.floor(float(l) / eps) for l, h in zip(lo, hi)))
            _add(c, f"continuum.grid_calls.level{level}", 1)
            _add(c, f"continuum.grid_time_s.level{level}", dur)
        return count
    return None


# -- span arithmetic ---------------------------------------------------------


def layer_times(names, layers, spans, wall: float):
    """Per-layer self time, per-name calls and inclusive time, and the
    unattributed remainder.

    A span's self time is its duration minus the durations of its direct
    children. The layer self times plus the unattributed time (the wall
    time outside every top-level span) sum to ``wall``.
    """
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    covered = 0.0
    for i, (nid, start, end, parent) in enumerate(spans):
        dur = end - start
        layer, name = layers[nid], names[nid]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        if parent < 0:
            covered += dur
    return self_s, calls, incl, wall - covered, covered


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# Computed counts that, with the calls counted in exact_counts, must repeat
# exactly when a command is rerun with its seed.
COUNTED = ("discrete.points_materialized", "discrete.pairs_evaluated", "lab.replicates",
           "lab.decoders_enumerated", "continuum.points_sampled", "continuum.bytes_computed",
           "continuum.cells_probed")


def exact_counts(names, spans, counts) -> dict[str, int]:
    """The counts of these spans and computed counts that must repeat exactly."""
    calls = collections.Counter(names[s[0]] for s in spans)
    return {**{k: counts.get(k, 0) for k in COUNTED},
            "info.calls": sum(n for name, n in calls.items() if name.startswith("info.")),
            "streams.stream_calls": calls["streams.stream"],
            "stats.clopper_pearson_calls": calls["stats.clopper_pearson"]}


def layer_metrics(names, layers, spans, counts, wall: float) -> dict[str, float]:
    """The traced run's per-layer metrics, except import.*, proc.* and
    trace.overhead, which come from outside the span list."""
    self_s, calls, incl, unattributed, covered = layer_times(names, layers, spans, wall)
    lab_kinds = ("normal-mean", "sparse-location", "regression", "tail")
    m = exact_counts(names, spans, counts)
    info_calls = m["info.calls"]
    m.update({
        "cli.self_s": self_s.get("cli", 0.0),
        "minimax.sparse_location_bound_s": incl.get("minimax.sparse_location_bound", 0.0),
        "minimax.compressed_sensing_bound_s": incl.get("minimax.compressed_sensing_bound", 0.0),
        "minimax.self_s": self_s.get("minimax", 0.0),
        "discrete.sparse_sign_space_s": incl.get("discrete.sparse_sign_space", 0.0),
        "discrete.neighborhood_sizes_us": _ratio(
            incl.get("discrete.neighborhood_sizes", 0.0),
            calls.get("discrete.neighborhood_sizes", 0), 1e6),
        "discrete.self_s": self_s.get("discrete", 0.0),
        "info.us_per_call": _ratio(self_s.get("info", 0.0), info_calls, 1e6),
        "info.self_s": self_s.get("info", 0.0),
    })
    for kind in lab_kinds:
        m[f"lab.us_per_replicate.{kind}"] = _ratio(
            counts.get(f"lab.time_s.{kind}", 0.0), counts.get(f"lab.reps.{kind}", 0), 1e6)
    m.update({
        "lab.enumerate_decoders_us": _ratio(
            incl.get("lab.enumerate_decoders_min_tail", 0.0),
            calls.get("lab.enumerate_decoders_min_tail", 0), 1e6),
        "lab.self_s": self_s.get("lab", 0.0),
        "streams.stream_us": _ratio(incl.get("streams.stream", 0.0),
                                    calls.get("streams.stream", 0), 1e6),
        "streams.self_s": self_s.get("streams", 0.0),
    })
    for d in (2, 3, 5):
        m[f"continuum.mc_volume_ratio_ms.d{d}"] = _ratio(
            counts.get(f"continuum.mc_time_s.d{d}", 0.0),
            counts.get(f"continuum.mc_calls.d{d}", 0), 1e3)
    m.update({
        "continuum.ns_per_point": _ratio(counts.get("continuum.mc_time_s", 0.0),
                                         counts.get("continuum.points_sampled", 0), 1e9),
        "continuum.accept_rate": _ratio(counts.get("continuum.region_hits", 0),
                                        counts.get("continuum.region_proposals", 0)),
        "continuum.grid_ms.level9": _ratio(counts.get("continuum.grid_time_s.level9", 0.0),
                                           counts.get("continuum.grid_calls.level9", 0), 1e3),
        "continuum.self_s": self_s.get("continuum", 0.0),
        "stats.clopper_pearson_us": _ratio(incl.get("stats.clopper_pearson", 0.0),
                                           calls.get("stats.clopper_pearson", 0), 1e6),
        "stats.mean_ci_us": _ratio(incl.get("stats.mean_ci", 0.0),
                                   calls.get("stats.mean_ci", 0), 1e6),
        "stats.self_s": self_s.get("stats", 0.0),
        "trace.coverage": _ratio(covered, wall),
    })
    return m


# -- the in-process run ------------------------------------------------------


def run_command(main, cmd, seed: int, cmd_dir: Path) -> dict:
    """Run one command through fanolab.cli.main with its output captured."""
    out_dir = cmd_dir / "out"
    out_dir.mkdir(parents=True)
    argv = workloads.command_argv(cmd, seed, str(out_dir))
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - t0
    (cmd_dir / "stdout.txt").write_text(stdout.getvalue())
    (cmd_dir / "stderr.txt").write_text(stderr.getvalue())
    return {"exit": int(code), "wall_s": wall}


def _cpu_s() -> float:
    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (ru_self.ru_utime + ru_self.ru_stime + ru_kids.ru_utime + ru_kids.ru_stime)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    sys.path.insert(0, args.src)

    import fanolab.cli

    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("fanolab.") and mod is not None}

    # Each command runs untraced and then traced, back to back, so that
    # slow drifts in machine speed fall on both sides of trace.overhead.
    tracer = Tracer()
    traced_main = tracer.wrap(fanolab.cli.main, "cli.main", ROOT_LAYER)
    untraced, traced, cpu = [], [], 0.0
    for i, cmd in enumerate(workload.commands):
        cpu0 = _cpu_s()
        untraced.append(run_command(fanolab.cli.main, cmd, args.seed, out / "pass0" / f"cmd{i}"))
        cpu += _cpu_s() - cpu0
        first_span, counts0 = len(tracer.spans), dict(tracer.counts)
        tracer.install(modules)
        try:
            traced.append(run_command(traced_main, cmd, args.seed, out / "pass1" / f"cmd{i}"))
        finally:
            tracer.uninstall()
        counts = {k: tracer.counts.get(k, 0) - counts0.get(k, 0) for k in COUNTED}
        traced[-1]["exact_counts"] = exact_counts(tracer.names, tracer.spans[first_span:],
                                                  counts)
    wall_u = sum(r["wall_s"] for r in untraced)
    wall_t = sum(r["wall_s"] for r in traced)
    cpu_util = cpu / wall_u

    metrics = layer_metrics(tracer.names, tracer.layers, tracer.spans, tracer.counts, wall_t)
    metrics["proc.cpu_util"] = cpu_util
    metrics["trace.overhead"] = wall_t / wall_u - 1.0
    self_s, _, _, unattributed, _ = layer_times(tracer.names, tracer.layers, tracer.spans,
                                                wall_t)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    (out / "spans.json").write_text(json.dumps({
        "names": tracer.names, "layers": tracer.layers,
        "columns": ["name_id", "start_s", "end_s", "parent"],
        "spans": [[n, round(s - origin, 9), round(e - origin, 9), p]
                  for n, s, e, p in tracer.spans]}))
    (out / "trace.json").write_text(json.dumps({
        "untraced": untraced, "traced": traced,
        "wall_untraced_s": wall_u, "wall_traced_s": wall_t,
        "self_s": self_s, "unattributed_s": unattributed,
        "counts": tracer.counts, "metrics": metrics,
    }, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
