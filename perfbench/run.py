"""fanolab benchmark: fixed lists of `fanolab` CLI commands, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the program from
``src/`` and needs nothing installed but numpy and scipy. Each command
runs in a fresh ``python -m fanolab.cli`` process with ``--seed N``.

--trace 0 measures the end-to-end metrics over one pass of the command
list: its wall time (the sum of its commands' wall times), the median of
fresh ``import fanolab.cli`` set-ups, the largest per-process max-RSS and
the workload's throughput. Set-ups are taken before each of the first five
commands and then after the pass until S seconds have passed.

--trace 1 measures the per-layer metrics: per-module import times
(importprobe.py), and an in-process run of the list, each command untraced
and then traced, in a child process (tracer.py).

Every command's outputs are checked (checks.py) and, keyed by the
program's source, workload and seed, compared byte for byte with every
earlier run; so are a traced command's exact counts. A failed check, an
exit code other than 0 or a mismatch counts as a failed command, and makes
the run incorrect unless the program refused its input (exit 2). The last
line of stdout is the result JSON; a fuller report, with the timings of a
fixed calibration loop that show the host's speed, is written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
IMPORT_PROBE_REPS = 3
CALIBRATION_LOOP = 10**6
COMMAND_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str], cwd: Path, stdout: Path, stderr: Path) -> dict:
    """Run one process to completion; its exit code, wall time, CPU time and
    max-RSS come from its own wait4 rusage."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        reaped = threading.Event()
        timer = threading.Timer(COMMAND_TIMEOUT_S,
                                lambda: reaped.is_set() or proc.kill())
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0}


def calibrate(samples: list[float]):
    """Time a fixed pure-Python loop: the host's speed, independent of the program."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    samples.append(time.perf_counter() - t0)


def source_key(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    files = sorted((SRC / "fanolab").rglob("*.py")) + [BENCH_DIR / "workloads.py"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return f"{h.hexdigest()[:16]}/{workload}/seed{seed}"


class DigestStore:
    """Digests of earlier runs' outputs and exact counts, by source, workload and seed."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.data = json.loads(path.read_text()) if path.is_file() else {}
        self.entry = self.data.setdefault(key, {})

    def same(self, field: str, value) -> bool:
        """Record value on first sight; afterwards report whether it repeats."""
        return self.entry.setdefault(field, value) == value

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def judge(workload, seed: int, pass_dir: Path, results: list[dict], store: DigestStore):
    """Check each command's outputs and rerun identity (outputs, and exact
    counts where the result has them); sets each result's "failure" to None
    or the reason."""
    for i, (cmd, r) in enumerate(zip(workload.commands, results)):
        out_dir = pass_dir / f"cmd{i}" / "out"
        why = checks.check_command(cmd, r["exit"], out_dir, seed)
        if why is None and not store.same(f"cmd{i}", checks.output_digest(out_dir)):
            why = "outputs differ from an earlier run with the same source and seed"
        if (why is None and "exact_counts" in r
                and not store.same(f"cmd{i}.exact_counts", r["exact_counts"])):
            why = f"exact counts differ from an earlier traced run: {r['exact_counts']}"
        r["failure"] = why and f"{' '.join(cmd[:2])}: {why}"


def verdict(commands: list[list[dict]]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the commands of the list, each given
    as its runs: a command failed if any of its runs failed."""
    failed = sum(1 for runs in commands if any(r["failure"] for r in runs))
    correct = not any(checks.is_wrong(r) for runs in commands for r in runs)
    return correct, len(commands), failed


def run_list(workload, seed: int, pass_dir: Path, before_each=None) -> list[dict]:
    results = []
    for i, cmd in enumerate(workload.commands):
        if before_each is not None:
            before_each()
        cmd_dir = pass_dir / f"cmd{i}"
        (cmd_dir / "out").mkdir(parents=True)
        argv = [sys.executable, "-m", "fanolab.cli",
                *workloads.command_argv(cmd, seed, str(cmd_dir / "out"))]
        results.append(spawn(argv, cmd_dir, cmd_dir / "stdout.txt", cmd_dir / "stderr.txt"))
    return results


def measure_end_to_end(workload, seed: int, seconds: int, run_dir: Path, store: DigestStore,
                       calibration: list[float]):
    setups = []

    def take_setup():
        setups.append(spawn([sys.executable, "-c", "import fanolab.cli"], run_dir,
                            run_dir / "setup.out", run_dir / "setup.err"))
        calibrate(calibration)

    # The first set-ups are taken between commands, not back to back, so that
    # their median spans the same stretch of time as the commands.
    def before_command():
        if len(setups) < SETUP_REPS:
            take_setup()

    start = time.perf_counter()
    pass_dir = run_dir / "pass0"
    results = run_list(workload, seed, pass_dir, before_command)
    judge(workload, seed, pass_dir, results, store)
    while len(setups) < SETUP_REPS or time.perf_counter() - start < seconds:
        take_setup()
    timed = workload.timed if workload.timed is not None else range(len(results))
    items_per_s = workload.items / sum(results[i]["wall_s"] for i in timed)
    samples = {
        "wall_s": [sum(r["wall_s"] for r in results)],
        "setup_s": [s["wall_s"] for s in setups],
        "peak_rss_mb": [max(r["rss_mb"] for r in results)],
        "items_per_s": [items_per_s],
    }
    detail = {"commands": results, "setups": setups, workload.throughput: items_per_s}
    return samples, [[r] for r in results], detail


def measure_layers(workload, seed: int, run_dir: Path, store: DigestStore,
                   calibration: list[float]):
    samples: dict[str, list[float]] = {}
    calibrate(calibration)
    for _ in range(IMPORT_PROBE_REPS):
        spawn([sys.executable, str(BENCH_DIR / "importprobe.py")], run_dir,
              run_dir / "probe.out", run_dir / "probe.err")
        probe = json.loads((run_dir / "probe.out").read_text())
        for k, v in probe.items():
            if k.startswith("import."):
                samples.setdefault(k, []).append(v)

    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    proc = spawn([sys.executable, str(BENCH_DIR / "tracer.py"), "--workload", workload.name,
                  "--seed", str(seed), "--src", str(SRC), "--out", str(trace_dir)],
                 run_dir, run_dir / "tracer.out", run_dir / "tracer.err")
    if proc["exit"] != 0:
        raise RuntimeError("traced run failed:\n" + (run_dir / "tracer.err").read_text())
    calibrate(calibration)
    trace = json.loads((trace_dir / "trace.json").read_text())
    for name, pass_dir in (("untraced", "pass0"), ("traced", "pass1")):
        judge(workload, seed, trace_dir / pass_dir, trace[name], store)
    commands = [list(runs) for runs in zip(trace["untraced"], trace["traced"])]
    for k, v in trace["metrics"].items():
        samples[k] = [v]
    OUT.joinpath(f"spans-{workload.name}-seed{seed}.json").write_bytes(
        (trace_dir / "spans.json").read_bytes())
    detail = {k: trace[k] for k in ("untraced", "traced", "wall_untraced_s", "wall_traced_s",
                                    "self_s", "unattributed_s", "counts")}
    return samples, commands, detail


def environment(calibration: list[float]) -> dict:
    sha = "unknown"  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
            "calibration_s": {"loop": CALIBRATION_LOOP, "samples": calibration,
                              "median": statistics.median(calibration)}}


def load_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "fanolab" / "cli.py").is_file():
        print(f"error: no fanolab source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    store = DigestStore(OUT / "digests.json", source_key(workload.name, args.seed))
    calibration: list[float] = []
    try:
        units = load_units("per_layer" if args.trace else "end_to_end")
        if args.trace:
            samples, commands, detail = measure_layers(workload, args.seed, run_dir, store,
                                                       calibration)
        else:
            samples, commands, detail = measure_end_to_end(workload, args.seed, args.seconds,
                                                           run_dir, store, calibration)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    store.save()

    correct, attempted, failed = verdict(commands)
    failures = [r["failure"] for runs in commands for r in runs if r["failure"]]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(calibration), "correct": correct,
              "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
              "metrics": {k: dict(v, samples=samples[k]) for k, v in metrics.items()},
              "failures": failures, **detail}
    OUT.joinpath(f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:6s} n={len(samples[name])}")
    print(f"error_rate {failed}/{attempted}" +
          "".join(f"\n  failed: {why}" for why in report["failures"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
