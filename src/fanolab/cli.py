"""Command-line front end: bound computation, verification suites, sweeps.

    fanolab bound <problem> [params] [--config FILE] [--out-dir DIR]
    fanolab verify <suite> [params] [--seed N] [--inject-fault] [--out-dir DIR]
    fanolab table <problem> --sweep key=v1,v2,... [params] [--with-risk REPS]

BOUND_PROBLEMS and SUITES list the keys (params) of each problem and
suite. Flags, config files (flat ``key = value`` text, '#' comments, which
flags override) and sweeps are checked against them; a key the chosen
problem or suite does not use, or a value outside its domain, is refused
with the key named. The default seed comes from FANOLAB_SEED when set.
Exit codes: 0 success, 1 a verify check failed, 2 invalid configuration,
3 when the computed bound carries valid=False.

Every artifact embeds the 16-hex config hash of its run manifest; the
manifest file itself carries wall-clock timestamps, but result JSON/CSV
and verify reports never do, so reruns with the same config and seed are
byte-identical. Monte Carlo volume estimates are verification-only: the
``bound`` command never reports a bound whose volume ratio came from a
sampled-only supremum.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import integrate

from . import __version__
from .continuum import (
    EstimationError,
    ball_volume_ratio_analytic,
    box_space,
    continuum_fano_bound,
    grid_partition_counts,
    l2_ball_space,
    mc_volume_ratio,
)
from .discrete import (
    NeighborhoodProfile,
    fano_conditional_form,
    fano_inequality_sides,
    fano_tail_lower_bound,
    neighborhood_sizes,
)
from .info import LN2, DomainError, entropy, mutual_information_exact
from .lab import (
    ExperimentConfig,
    MatchedBound,
    check_bounds,
    enumerate_decoders_min_tail,
    random_chain,
    random_symmetric_space,
    simulate_risk,
)
from .minimax import (
    compressed_sensing_bound,
    hinge_integral,
    linear_regression_bound,
    normal_mean_bound,
    normal_mean_tail_integral,
    normal_mean_tail_integral_floor,
    sparse_location_bound,
)
from .results import MinimaxBound
from .streams import DESIGN_STREAM, VERIFY_STREAM, stream

CSV_SCHEMA = "fanolab-bound-v1"
VERIFY_SCHEMA = "fanolab-verify-v1"
CSV_COLUMNS = ("pipeline", "d", "s", "n", "sigma2", "t", "eps",
               "mi_bound_nats", "log_ratio_nats", "bound", "valid")
DEFAULT_SEED = 1234


class ConfigError(Exception):
    pass


# -- the parameter table -----------------------------------------------------

REQUIRED = "required"
_DOMAINS = {"any": lambda v: True, "finite": math.isfinite,
            "finite and > 0": lambda v: math.isfinite(v) and v > 0,
            ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2}


@dataclass(frozen=True)
class Key:
    """One parameter key: its type, its default (REQUIRED when it must be
    given, None when it may stay absent) and its domain: a _DOMAINS name,
    or the values a string may take."""

    type: type
    default: object = REQUIRED
    domain: str | tuple[str, ...] = "finite"

    def parse(self, key: str, raw: str):
        try:
            value = self.type(raw)
            ok = value in self.domain if isinstance(self.domain, tuple) \
                else _DOMAINS[self.domain](value)
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"bad value for key {key}: {raw!r} "
                              f"(must be {self.type.__name__}, {self.domain})")
        return value


_COUNT = Key(int, REQUIRED, ">= 1")
_SIGMA2 = Key(float, 1.0, "finite and > 0")
_DESIGN = Key(str, "identity", "any")  # identity | gaussian | path to a CSV file
_SCALE = Key(float, 1.0)
_MI = Key(float, 0.0)
_RADIUS = Key(float, None, "finite and > 0")

BOUND_PROBLEMS = {
    "normal-mean": {"d": _COUNT, "n": _COUNT, "sigma2": _SIGMA2,
                    "mode": Key(str, "integrated", ("simple", "integrated"))},
    "sparse-location": {"d": _COUNT, "s": _COUNT, "n": _COUNT, "sigma2": _SIGMA2},
    "compressed-sensing": {"d": _COUNT, "s": _COUNT, "n": _COUNT, "sigma2": _SIGMA2,
                           "design": _DESIGN, "scale": _SCALE},
    "regression": {"d": _COUNT, "n": _COUNT, "sigma2": _SIGMA2,
                   "design": _DESIGN, "scale": _SCALE},
    "discrete-tail": {"card": _COUNT, "n_max": _COUNT, "n_min": Key(int),
                      "t": Key(float, 0.0), "mi": _MI},
    # log_ratio, or r, t and d for the ratio of a radius-r ball to a radius-t one
    "continuum-tail": {"log_ratio": Key(float, None), "r": _RADIUS, "t": _RADIUS,
                       "d": Key(int, None, ">= 1"), "mi": _MI},
}


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _seed(given: str | None) -> int:
    """--seed or a config file's seed, else FANOLAB_SEED, else DEFAULT_SEED."""
    name, raw = "seed", given
    if raw is None:
        name, raw = "FANOLAB_SEED", os.environ.get("FANOLAB_SEED") or str(DEFAULT_SEED)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _params(args) -> tuple[dict[str, str], int]:
    """(the keys given, the seed). Keys keep the strings that results store:
    a config file's values as written, then each flag's typed value as
    str(), flags winning."""
    given = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in (*args.key_flags, "seed"):
        val = getattr(args, key)
        if val is not None:
            given[key] = str(val)
    return given, _seed(given.pop("seed", None))


def _typed(given: dict[str, str], keys: dict[str, Key], what: str) -> dict:
    """Every key of `keys` as a typed, domain-checked value, with the
    defaults filled in. A given key that `what` does not use is refused."""
    for key in given:
        if key not in keys:
            raise ConfigError(f"{what} does not use key {key}; it accepts: "
                              f"{', '.join(keys) or 'none'}")
    out = {}
    for key, spec in keys.items():
        if key in given:
            out[key] = spec.parse(key, given[key])
        elif spec.default is REQUIRED:
            raise ConfigError(f"missing required key for {what}: {key}")
        else:
            out[key] = spec.default
    return out


def _design_matrix(p: dict, seed: int) -> np.ndarray:
    kind, d, n = p["design"], p["d"], p["n"]
    if kind == "identity":
        if n != d:
            raise ConfigError("design=identity builds sqrt(n)*I and needs n == d")
        X = math.sqrt(n) * np.eye(d)
    elif kind == "gaussian":
        X = stream(seed, DESIGN_STREAM).standard_normal((n, d))
    else:
        try:
            X = np.loadtxt(kind, ndmin=2, delimiter=",")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read design file {kind}: {exc}") from None
        if X.shape != (n, d):
            raise ConfigError(f"design file {kind} has shape {X.shape}, expected ({n}, {d})")
    return p["scale"] * X


# -- output plumbing ---------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _config_hash(command: str, problem: str, cfg: dict[str, str], seed: int) -> str:
    canon = "\n".join([command, problem, f"seed={seed}"]
                      + [f"{k}={v}" for k, v in sorted(cfg.items())])
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _bound_row(problem: str, result, cfg: dict[str, str]) -> dict[str, str]:
    if isinstance(result, MinimaxBound):
        pipeline, t, eps = result.pipeline, result.t, result.eps
        mi, lr = result.mi_bound, result.log_ratio
    else:
        ing = result.ingredients
        pipeline, t, eps = problem, ing.get("t"), None
        mi, lr = ing.get("mi_bound"), ing.get("log_ratio")
    return {
        "pipeline": pipeline,
        "d": cfg.get("d", ""), "s": cfg.get("s", ""), "n": cfg.get("n", ""),
        "sigma2": cfg.get("sigma2", ""),
        "t": _fmt(t), "eps": _fmt(eps),
        "mi_bound_nats": _fmt(mi), "log_ratio_nats": _fmt(lr),
        "bound": _fmt(result.value), "valid": _fmt(result.valid),
    }


def _write_bound_outputs(out_dir: Path, problem: str, cfg: dict[str, str], seed: int,
                         result, row: dict[str, str]) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = _config_hash("bound", problem, cfg, seed)
    detail = (dict(result.extras) if isinstance(result, MinimaxBound)
              else dict(result.ingredients))
    payload = {
        "schema": CSV_SCHEMA,
        "manifest": chash,
        "pipeline": row["pipeline"],
        "params": dict(sorted(cfg.items())),
        "seed": seed,
        "value": result.value,
        "valid": result.valid,
        "t": getattr(result, "t", None),
        "eps": getattr(result, "eps", None),
        "mi_bound_nats": getattr(result, "mi_bound", None),
        "log_ratio_nats": getattr(result, "log_ratio", None),
        "detail": detail,
    }
    json_path = out_dir / f"{problem}-{chash}.json"
    json_path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
    csv_path = out_dir / f"{problem}-{chash}.csv"
    csv_path.write_text(_csv_text([row], chash))
    manifest = {
        "command": "bound", "problem": problem, "config": dict(sorted(cfg.items())),
        "seed": seed, "config_hash": chash,
        "versions": {"fanolab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": [json_path.name, csv_path.name],
    }
    (out_dir / f"manifest-{problem}-{chash}.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return json_path, csv_path


def _csv_text(rows: list[dict[str, str]], manifest_hash: str,
              columns=CSV_COLUMNS) -> str:
    lines = [f"# schema={CSV_SCHEMA} manifest={manifest_hash}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(row.get(c, "") for c in columns))
    return "\n".join(lines) + "\n"


# -- bound dispatch ----------------------------------------------------------


def _compute_bound(problem: str, p: dict, seed: int):
    if problem == "normal-mean":
        return normal_mean_bound(p["d"], p["sigma2"], p["n"], mode=p["mode"])
    if problem == "sparse-location":
        return sparse_location_bound(p["d"], p["s"], p["sigma2"], p["n"])
    if problem == "compressed-sensing":
        return compressed_sensing_bound(_design_matrix(p, seed), p["s"], p["sigma2"])
    if problem == "regression":
        return linear_regression_bound(_design_matrix(p, seed), p["sigma2"])
    if problem == "discrete-tail":
        profile = NeighborhoodProfile(t=p["t"], n_max=p["n_max"], n_min=p["n_min"])
        return fano_tail_lower_bound(p["card"], profile, p["mi"])
    given = [k for k in ("log_ratio", "r", "t", "d") if p[k] is not None]
    if given == ["log_ratio"]:
        log_ratio = p["log_ratio"]
    elif given == ["r", "t", "d"]:
        log_ratio = math.log(ball_volume_ratio_analytic(p["r"], p["t"], p["d"]))
    else:
        raise ConfigError(f"{problem} takes log_ratio, or all of r, t and d; "
                          f"got {', '.join(given) or 'none'}")
    return continuum_fano_bound(log_ratio, p["mi"])


def cmd_bound(args) -> int:
    cfg, seed = _params(args)
    result = _compute_bound(args.problem, _typed(cfg, BOUND_PROBLEMS[args.problem],
                                                 args.problem), seed)
    row = _bound_row(args.problem, result, cfg)
    json_path, csv_path = _write_bound_outputs(Path(args.out_dir), args.problem,
                                               cfg, seed, result, row)
    print(f"{row['pipeline']}: bound={_fmt(result.value)} valid={_fmt(result.valid)}")
    print(f"wrote {json_path} and {csv_path}")
    return 0 if result.valid else 3


# -- verify suites -----------------------------------------------------------


def _suite_prop1(seed: int, fault: bool, instances: int):
    worst = math.inf
    for i in range(instances):
        meta = stream(seed, VERIFY_STREAM + i)
        nv = int(meta.integers(2, 6))
        nx = int(meta.integers(2, 6))
        chain = random_chain(seed, (nv, nx, nv), stream_id=i)
        space = random_symmetric_space(seed, nv, stream_id=i)
        t = float(meta.uniform(0.0, 2.2))
        lhs, rhs = fano_inequality_sides(chain, space, t)
        slack = lhs - rhs - (0.1 if fault else 0.0)
        worst = min(worst, slack)
    ok = worst >= -1e-9
    lines = [f"check distance-fano-sides: {'PASS' if ok else 'FAIL'} "
             f"instances={instances} min_slack={worst!r}"]
    return lines, ok, worst


def _suite_decoder(seed: int, fault: bool, instances: int):
    worst = math.inf
    bump = 0.05 if fault else 0.0
    for i in range(instances):
        meta = stream(seed, VERIFY_STREAM + (1 << 20) + i)
        nv = int(meta.integers(2, 5))
        nx = int(meta.integers(2, 5))
        chain = random_chain(seed, (nv, nx, nv), stream_id=(1 << 20) + i,
                             uniform_prior=True)
        space = random_symmetric_space(seed, nv, stream_id=(1 << 20) + i)
        t = float(meta.uniform(0.0, 2.0))
        min_tail = enumerate_decoders_min_tail(chain.prior, chain.channel, space, t)
        mi = mutual_information_exact(chain.prior, chain.channel)
        prof = neighborhood_sizes(space, t)
        tail = fano_tail_lower_bound(nv, prof, mi)
        hvx = max(0.0, entropy(chain.prior) - mi)
        cond = fano_conditional_form(hvx, nv, prof)
        worst = min(worst, min_tail - (tail.value + bump), min_tail - (cond.value + bump))
    ok = worst >= -1e-12
    lines = [f"check decoder-domination: {'PASS' if ok else 'FAIL'} "
             f"instances={instances} worst_margin={worst!r}"]
    return lines, ok, worst


def _quad_hinge_log(d: int, n: int) -> float:
    """Adaptive quadrature of max(0, (d-1)/d - n*ln(1+t)/(2 d ln2)) on [0, inf)."""
    c = (d - 1) / d

    def f(t):
        return c - n * math.log1p(t) / (2 * d * LN2)

    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
    # locate the kink, then integrate on log-spaced panels up to it
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    edges = np.concatenate([[0.0], np.logspace(-6, math.log10(max(root, 1e-6)), 120)])
    edges = edges[edges <= root]
    edges = np.append(edges, root)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            val, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)
            total += val
    return total


def _suite_quadrature(seed: int, fault: bool):
    pairs = [(d, n) for d in (2, 3, 5, 9, 64) for n in (1, 10, 100, 1000)]
    worst = -math.inf
    floor_ok = True
    for d, n in pairs:
        closed = normal_mean_tail_integral(d, n) + (1e-6 if fault else 0.0)
        quad = _quad_hinge_log(d, n)
        rel = abs(closed - quad) / max(1.0, abs(closed))
        worst = max(worst, rel)
        if closed < normal_mean_tail_integral_floor(d, n):
            floor_ok = False
    g = stream(seed, VERIFY_STREAM + (2 << 20))
    hinge_worst = 0.0
    for _ in range(20):
        c1, c2 = float(g.uniform(0.0, 5.0)), float(g.uniform(0.1, 5.0))
        # integrand vanishes beyond its root c1/c2; integrate the smooth piece
        ref = 0.0
        if c1 > 0:
            ref, _ = integrate.quad(lambda t: c1 - c2 * t, 0.0, c1 / c2, limit=200)
        hinge_worst = max(hinge_worst, abs(hinge_integral(c1, c2) - ref))
    ok = worst <= 1e-8 and floor_ok and hinge_worst <= 1e-10
    lines = [
        f"check tail-integral-vs-quadrature: {'PASS' if worst <= 1e-8 else 'FAIL'} "
        f"pairs={len(pairs)} max_rel_err={worst!r}",
        f"check tail-integral-floor: {'PASS' if floor_ok else 'FAIL'}",
        f"check hinge-identity-vs-quadrature: {'PASS' if hinge_worst <= 1e-10 else 'FAIL'} "
        f"max_abs_err={hinge_worst!r}",
    ]
    return lines, ok, min(1e-8 - worst, 1e-10 - hinge_worst)


def _suite_volume(seed: int, fault: bool, seeds: int, points: int):
    lines = []
    ok = True
    worst_rel = 0.0
    for d in (2, 3, 5):
        space = l2_ball_space(d, 1.0)
        truth = ball_volume_ratio_analytic(1.0, 0.5, d) * (1.2 if fault else 1.0)
        fails = 0
        d_rel = 0.0
        for k in range(seeds):
            est = mc_volume_ratio(space, 0.5, centers=0, points=points, seed=seed + k)
            d_rel = max(d_rel, abs(est.ratio - truth) / truth)
            if abs(est.ratio - truth) > 0.03 * truth or \
                    not (est.ci[0] <= truth <= est.ci[1]):
                fails += 1
        worst_rel = max(worst_rel, d_rel)
        good = fails <= 3
        ok = ok and good
        lines.append(f"check volume-ratio-d{d}: {'PASS' if good else 'FAIL'} "
                     f"failures={fails}/{seeds} max_rel_err={d_rel!r}")
    return lines, ok, 0.03 - worst_rel


def _suite_grid(seed: int, fault: bool, level: int):
    lines = []
    square = box_space([0.0, 0.0], [1.0, 1.0], metric="linf")
    sq_ok = all(grid_partition_counts(square, 0.5, lv, seed=seed, centers=2).cell_count == 4**lv
                for lv in range(1, 5))
    lines.append(f"check unit-square-cells: {'PASS' if sq_ok else 'FAIL'}")

    disk = l2_ball_space(2, 1.0)
    errs = []
    area_err = math.inf
    for lv in range(max(1, level - 4), level + 1):
        gp = grid_partition_counts(disk, 0.5, lv, seed=seed, centers=4)
        errs.append(abs(gp.log_count_ratio() - math.log(4.0)))
        if lv == level:
            area = gp.cell_width**2 * gp.cell_count
            truth = math.pi * (1.05 if fault else 1.0)
            area_err = abs(area - truth) / truth
            ratio_err = errs[-1] / math.log(4.0)
    area_ok = area_err <= 0.02
    ratio_ok = ratio_err <= 0.05
    conv_ok = errs[-1] <= errs[0]
    lines.append(f"check disk-area-level{level}: {'PASS' if area_ok else 'FAIL'} "
                 f"rel_err={area_err!r}")
    lines.append(f"check log-ratio-level{level}: {'PASS' if ratio_ok else 'FAIL'} "
                 f"rel_err={ratio_err!r}")
    lines.append(f"check log-ratio-convergence: {'PASS' if conv_ok else 'FAIL'} "
                 f"errs={[repr(e) for e in errs]}")
    ok = sq_ok and area_ok and ratio_ok and conv_ok
    return lines, ok, 0.02 - area_err


def _suite_estimator(seed: int, fault: bool, reps_scale: float):
    inflate = 20.0 if fault else 1.0
    lines = []
    margins = []

    nm = normal_mean_bound(10, 1.0, 100, mode="integrated")
    cfg = ExperimentConfig(problem="normal-mean", estimator="mean",
                           reps=max(100, int(100_000 * reps_scale)), seed=seed,
                           d=10, n=100, sigma2=1.0, radius=1.0)
    rep = simulate_risk(cfg, (MatchedBound("normal-mean-integrated", "risk",
                                           inflate * nm.value),))
    audit = check_bounds(rep)
    margins.append(audit.worst_margin)
    lines.append(f"check normal-mean-risk: {'PASS' if audit.passed else 'FAIL'} "
                 f"risk={rep.risk_mean!r} bound={inflate * nm.value!r} "
                 f"margin={audit.worst_margin!r}")

    X = 3.0 * np.eye(9)
    reg = linear_regression_bound(X, 1.0)
    cfg = ExperimentConfig(problem="regression", estimator="ols",
                           reps=max(100, int(10_000 * reps_scale)), seed=seed,
                           d=9, sigma2=1.0, radius=1.0, design=X)
    rep = simulate_risk(cfg, (
        MatchedBound("regression-simplified", "risk", inflate * reg.value),
        MatchedBound("regression-exact", "risk", inflate * reg.extras["exact_value"]),
    ))
    audit = check_bounds(rep)
    margins.append(audit.worst_margin)
    lines.append(f"check regression-risk: {'PASS' if audit.passed else 'FAIL'} "
                 f"risk={rep.risk_mean!r} margin={audit.worst_margin!r}")

    sp = sparse_location_bound(32, 4, 1.0, 200)
    cfg = ExperimentConfig(problem="sparse-location", estimator="hard-threshold",
                           reps=max(100, int(10_000 * reps_scale)), seed=seed,
                           d=32, s=4, n=200, sigma2=1.0, eps=sp.eps)
    rep = simulate_risk(cfg, (MatchedBound("sparse-location", "risk",
                                           inflate * sp.value),))
    audit = check_bounds(rep)
    margins.append(audit.worst_margin)
    lines.append(f"check sparse-location-risk: {'PASS' if audit.passed else 'FAIL'} "
                 f"risk={rep.risk_mean!r} bound={inflate * sp.value!r} "
                 f"margin={audit.worst_margin!r}")

    # nonvacuous continuum tail at one radius: d=2, one sample, t chosen so
    # the channel information bound stays below the volume log-ratio
    t = math.sqrt((math.sqrt(2.0) - 1.0) / 4.0)
    mi_ub = 0.5 * math.log1p(4.0 * t * t)
    tail_bound = continuum_fano_bound(2 * LN2, mi_ub)
    cfg = ExperimentConfig(problem="normal-mean", estimator="mean",
                           reps=max(100, int(20_000 * reps_scale)), seed=seed,
                           d=2, n=1, sigma2=1.0, radius=2 * t, t_list=(t,))
    rep = simulate_risk(cfg, (MatchedBound("continuum-tail", "tail",
                                           inflate * tail_bound.value, t=t),))
    audit = check_bounds(rep)
    margins.append(audit.worst_margin)
    lines.append(f"check continuum-tail: {'PASS' if audit.passed else 'FAIL'} "
                 f"tail={rep.tails[0].p_hat!r} bound={inflate * tail_bound.value!r} "
                 f"margin={audit.worst_margin!r}")

    ok = all(m >= 0 for m in margins)
    return lines, ok, min(margins)


# Each suite's function, and the keys it takes as keyword arguments.
SUITES = {
    "prop1-exhaustive": (_suite_prop1, {"instances": Key(int, 1000, ">= 1")}),
    "decoder-oracle": (_suite_decoder, {"instances": Key(int, 200, ">= 1")}),
    "quadrature": (_suite_quadrature, {}),
    "volume": (_suite_volume, {"seeds": Key(int, 100, ">= 1"),
                               "points": Key(int, 10**6, ">= 1")}),
    "grid-partition": (_suite_grid, {"level": Key(int, 9, ">= 2")}),
    "estimator-risk": (_suite_estimator, {"reps_scale": Key(float, 1.0, "finite and > 0")}),
}


def cmd_verify(args) -> int:
    suite, keys = SUITES[args.suite]
    given, seed = _params(args)
    lines, ok, worst = suite(seed, args.inject_fault,
                             **_typed(given, keys, f"suite {args.suite}"))
    header = f"# fanolab verify suite={args.suite} seed={seed} schema={VERIFY_SCHEMA}"
    summary = (f"suite {args.suite}: {'PASS' if ok else 'FAIL'} "
               f"worst_margin={worst!r}")
    report = "\n".join([header] + lines + [summary]) + "\n"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"verify-{args.suite}-seed{seed}.txt").write_text(report)
    sys.stdout.write(report)
    return 0 if ok else 1


# -- table -------------------------------------------------------------------


def cmd_table(args) -> int:
    base, seed = _params(args)
    try:
        sweep_key, sweep_vals = args.sweep.split("=", 1)
    except ValueError:
        raise ConfigError(f"bad sweep spec {args.sweep!r}: expected key=v1,v2,...") from None
    sweep_key = sweep_key.strip().replace("-", "_")
    if args.with_risk is not None and args.with_risk < 1:
        raise ConfigError(f"--with-risk must be >= 1, got {args.with_risk}")
    rows = []
    for val in sweep_vals.split(","):
        cfg = dict(base)
        cfg[sweep_key] = val.strip()
        p = _typed(cfg, BOUND_PROBLEMS[args.problem], args.problem)
        result = _compute_bound(args.problem, p, seed)
        row = _bound_row(args.problem, result, cfg)
        if args.with_risk is not None:
            row.update(_risk_columns(args.problem, p, result, seed, args.with_risk))
        rows.append(row)
    chash = _config_hash("table", args.problem, dict(base, sweep=args.sweep), seed)
    columns = list(CSV_COLUMNS) + (["risk", "risk_ci_lo", "risk_ci_hi"]
                                   if args.with_risk is not None else [])
    text = _csv_text(rows, chash, columns)
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _risk_columns(problem: str, p: dict, result, seed: int, reps: int) -> dict[str, str]:
    if problem == "normal-mean":
        config = ExperimentConfig(problem="normal-mean", estimator="mean", reps=reps,
                                  seed=seed, d=p["d"], n=p["n"], sigma2=p["sigma2"],
                                  radius=1.0)
    elif problem == "sparse-location":
        config = ExperimentConfig(problem="sparse-location", estimator="hard-threshold",
                                  reps=reps, seed=seed, d=p["d"], s=p["s"], n=p["n"],
                                  sigma2=p["sigma2"], eps=result.eps or 0.0)
    elif problem in ("regression", "compressed-sensing"):
        X = _design_matrix(p, seed)
        config = ExperimentConfig(problem="regression", estimator="ols", reps=reps,
                                  seed=seed, d=X.shape[1], sigma2=p["sigma2"],
                                  radius=1.0, design=X)
    else:
        raise ConfigError(f"--with-risk is not supported for problem {problem!r}")
    rep = simulate_risk(config)
    return {"risk": repr(rep.risk_mean), "risk_ci_lo": repr(rep.risk_ci[0]),
            "risk_ci_hi": repr(rep.risk_ci[1])}


# -- entry point -------------------------------------------------------------


def _add_key_flags(parser: argparse.ArgumentParser,
                   tables: dict[str, dict[str, Key]]) -> None:
    """One flag per key of the tables, None unless given."""
    specs = {key: spec for keys in tables.values() for key, spec in keys.items()}
    for key, spec in specs.items():
        users = [name for name, keys in tables.items() if key in keys]
        parser.add_argument("--" + key.replace("_", "-"), type=spec.type,
                            choices=spec.domain if isinstance(spec.domain, tuple) else None,
                            help="used by " + ", ".join(users))
    parser.set_defaults(key_flags=tuple(specs))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fanolab",
                                description="Fano-type estimation lower bounds")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="compute one lower bound")
    b.add_argument("problem", choices=BOUND_PROBLEMS)
    b.add_argument("--config", help="flat key=value config file")
    b.add_argument("--out-dir", default="out")
    b.set_defaults(fn=cmd_bound)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--inject-fault", action="store_true",
                   help="corrupt the quantity under test to demonstrate detection")
    v.add_argument("--out-dir", default="out")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("table", help="sweep a parameter and emit CSV")
    t.add_argument("problem", choices=BOUND_PROBLEMS)
    t.add_argument("--sweep", required=True, help="key=v1,v2,...")
    t.add_argument("--config", help="flat key=value config file")
    t.add_argument("--with-risk", dest="with_risk", type=int,
                   help="attach empirical risk with this many replicates")
    t.add_argument("--out")
    t.set_defaults(fn=cmd_table)

    suite_keys = {name: keys for name, (_, keys) in SUITES.items()}
    for parser, tables in ((b, BOUND_PROBLEMS), (v, suite_keys), (t, BOUND_PROBLEMS)):
        _add_key_flags(parser, tables)
        parser.add_argument("--seed", type=int)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
