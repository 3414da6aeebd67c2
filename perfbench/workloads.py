"""The four fixed fanolab command lists the benchmark runs.

Each command runs with the workload seed appended as ``--seed`` and with
its outputs sent to a directory of its own. ``items`` is the unit of work
behind the workload's throughput metric ``items_per_s``: ``items`` divided
by the wall time of the commands listed in ``timed`` (all of them when
``timed`` is None). ``throughput`` names that figure in the run report.
Why each workload exists is written in ``BENCHMARK.json``.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

# Volume suite size: seeds x 3 dimensions x 10^6 points, each estimate
# drawing 10^6 proposals for the region and 10^6 for the declared center's
# ball (the suite samples no extra centers).
VOLUME_SEEDS = 10
VOLUME_POINTS = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    items: int
    throughput: str
    timed: tuple[int, ...] | None = None


def _cmds(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(shlex.split(line)) for line in lines)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bound-cli",
        commands=_cmds(
            "bound normal-mean --d 10 --n 100 --sigma2 1 --mode integrated",
            "bound sparse-location --d 32 --s 4 --n 200 --sigma2 1",
            "bound compressed-sensing --d 32 --s 4 --n 20 --design gaussian",
            "bound regression --d 9 --n 9 --design identity --sigma2 1",
            "bound discrete-tail --card 6 --n-max 2 --n-min 2 --t 1 --mi 0",
            "bound continuum-tail --r 2 --t 1 --d 2 --mi 0",
            "table sparse-location --sweep d=16,32,64 --s 4 --n 200",
        ),
        items=9, throughput="bounds_per_s"),
    Workload(
        name="volume-audit",
        commands=_cmds(
            f"verify volume --seeds {VOLUME_SEEDS} --points {VOLUME_POINTS}",
            "verify grid-partition --level 9",
        ),
        items=VOLUME_SEEDS * 3 * 2 * VOLUME_POINTS, throughput="mc_points_per_s",
        timed=(0,)),
    Workload(
        name="risk-audit",
        commands=_cmds(
            "verify estimator-risk",
            "table compressed-sensing --sweep n=8 --d 16 --s 4 --design gaussian "
            "--with-risk 2000",
        ),
        items=140_000, throughput="replicates_per_s", timed=(0,)),
    Workload(
        name="oracle-audit",
        commands=_cmds(
            "verify prop1-exhaustive --instances 10000",
            "verify decoder-oracle --instances 2000",
            "verify quadrature",
        ),
        items=12_000, throughput="oracle_instances_per_s", timed=(0, 1)),
)}


def command_argv(cmd: tuple[str, ...], seed: int, out_dir: str) -> list[str]:
    """The fanolab argv for one command: seed and output location appended."""
    out = ["--out", f"{out_dir}/table.csv"] if cmd[0] == "table" else ["--out-dir", out_dir]
    return [*cmd, "--seed", str(seed), *out]
