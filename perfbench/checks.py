"""Output checks for every benchmark command, and the digests that the
rerun-identity check compares.

The reference values are computed here from the problem definitions, not
taken from fanolab. The sparse-location and compressed-sensing values are
checked against the eps grid search as it stood when the benchmark was
defined, with 1% of headroom above it for a closed-form eps maximizer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

LN2 = math.log(2.0)
REL_TOL = 1e-12
GRID_HEADROOM = 1.01
DESIGN_STREAM = 7 << 40  # fanolab's stream id for seeded design matrices

EXACT = {
    "normal-mean": 0.01403623040633889,
    "regression": 1.0 / 12.0,
    "discrete-tail": 1.0 - math.log(2.0) / math.log(3.0),
    "continuum-tail": 0.5,
}


def _params(cmd) -> dict[str, str]:
    return {k[2:]: v for k, v in zip(cmd, cmd[1:]) if k.startswith("--")}


def _grid_reference(d: int, s: int, ref_eps_sq: float, mi_coeff: float) -> float:
    """The 64-point log-spaced eps^2 grid maximum of
    (max(t,1)/4) * u * (1 - (mi_coeff*u + ln 2)/L) at t = floor(s/4),
    with L = ln(|V| / N_t) for the s-sparse sign set."""
    t = s // 4
    if t > 1:
        raise ValueError("reference neighborhood count is only written for t <= 1")
    card = 2**s * math.comb(d, s)
    n_max = 1 + s * t  # the center, plus its s single sign flips when t = 1
    big_l = math.log(card / n_max)
    lo, hi = math.log10(ref_eps_sq / 1e3), math.log10(ref_eps_sq * 1e3)
    best = 0.0
    for i in range(64):
        u = 10 ** (lo + (hi - lo) * i / 63)
        best = max(best, max(t, 1) / 4 * u * max(0.0, 1 - (mi_coeff * u + LN2) / big_l))
    return best


def _design_fro2(seed: int, n: int, d: int) -> float:
    import numpy as np

    key = np.array([seed & (2**64 - 1), DESIGN_STREAM], dtype=np.uint64)
    x = np.random.Generator(np.random.Philox(key=key)).standard_normal((n, d))
    return float((x * x).sum())


def sparse_reference(problem: str, p: dict[str, str], seed: int) -> float:
    d, s = int(p["d"]), int(p["s"])
    sigma2 = float(p.get("sigma2", 1.0))
    if problem == "sparse-location":
        n = int(p["n"])
        return _grid_reference(d, s, sigma2 * math.log(d / s) / n, n * s / sigma2)
    fro2 = _design_fro2(seed, int(p["n"]), d)
    return _grid_reference(d, s, sigma2 * d * math.log(d / s) / fro2, s * fro2 / (d * sigma2))


def _check_value(problem: str, value: float, p: dict[str, str], seed: int) -> str | None:
    if problem in EXACT:
        want = EXACT[problem]
        if not abs(value - want) <= REL_TOL * abs(want):
            return f"{problem} value {value!r} != {want!r}"
        return None
    ref = sparse_reference(problem, p, seed)
    if not ref * (1 - 1e-9) <= value <= GRID_HEADROOM * ref:
        return f"{problem} value {value!r} outside [{ref!r}, {GRID_HEADROOM} x]"
    return None


def _check_bound(cmd, out_dir: Path, seed: int) -> str | None:
    problem = cmd[1]
    files = list(out_dir.glob(f"{problem}-*.json"))
    if len(files) != 1:
        return f"expected one {problem} result JSON, found {len(files)}"
    res = json.loads(files[0].read_text())
    if res.get("valid") is not True:
        return f"{problem} valid={res.get('valid')!r}"
    return _check_value(problem, float(res["value"]), _params(cmd), seed)


def _check_verify(cmd, out_dir: Path, seed: int) -> str | None:
    path = out_dir / f"verify-{cmd[1]}-seed{seed}.txt"
    if not path.is_file():
        return f"missing report {path.name}"
    lines = path.read_text().splitlines()
    checks = [ln for ln in lines if ln.startswith("check ")]
    if not checks:
        return "report has no check lines"
    bad = [ln for ln in checks if not ln.split(":", 1)[1].strip().startswith("PASS")]
    if bad:
        return f"failed check: {bad[0]}"
    if not lines or not lines[-1].startswith(f"suite {cmd[1]}: PASS"):
        return f"suite summary is not PASS: {lines[-1] if lines else ''!r}"
    return None


def _check_table(cmd, out_dir: Path, seed: int) -> str | None:
    path = out_dir / "table.csv"
    if not path.is_file():
        return "missing table CSV"
    text = path.read_text().splitlines()
    rows = list(csv.DictReader(io.StringIO("\n".join(text[1:]))))
    p = _params(cmd)
    key, values = p["sweep"].split("=", 1)
    if len(rows) != len(values.split(",")):
        return f"table has {len(rows)} rows for sweep {p['sweep']}"
    problem = cmd[1]
    for row, val in zip(rows, values.split(",")):
        if row["valid"] != "true":
            return f"table row {key}={val} valid={row['valid']}"
        why = _check_value(problem, float(row["bound"]), dict(p, **{key: val}), seed)
        if why:
            return f"table row {key}={val}: {why}"
        if "risk_ci_hi" in row and not float(row["risk_ci_hi"]) >= float(row["bound"]):
            return f"table row {key}={val}: risk_ci_hi {row['risk_ci_hi']} < bound {row['bound']}"
    return None


# fanolab's exit code when it refuses its input (a ConfigError or
# DomainError). Such a command failed but wrote no wrong result. Every other
# non-zero exit is a wrong result (1: a verify check failed; 3: an invalid
# bound) or a crash.
REFUSED_EXIT = 2


def check_command(cmd, exit_code: int, out_dir: Path, seed: int) -> str | None:
    """None when the command exited 0 and its outputs are correct, else the
    reason. Outputs are checked whatever the exit code, except after
    REFUSED_EXIT."""
    if exit_code == REFUSED_EXIT:
        return f"exit code {exit_code} (input refused), expected 0"
    checker = {"bound": _check_bound, "verify": _check_verify, "table": _check_table}[cmd[0]]
    try:
        why = checker(cmd, out_dir, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        why = f"unreadable output: {exc!r}"
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0" + (f"; {why}" if why else "")
    return why


def is_wrong(result: dict) -> bool:
    """Whether a command's failure makes the run incorrect: every failure
    does, except a refused input."""
    return bool(result["failure"]) and result["exit"] != REFUSED_EXIT


def output_digest(out_dir: Path) -> str:
    """Digest of every result file a command wrote; run manifests are excluded
    because they carry timestamps."""
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        if f.is_file() and not f.name.startswith("manifest-"):
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()
