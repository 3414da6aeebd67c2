"""Command-line front end: bound computation, the verification suites of
fanolab.verify, sweeps.

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

numpy loads only on a path that takes arrays: a design (compressed-sensing,
regression), --with-risk and the verify suites. The bound and table
commands of normal-mean, sparse-location, discrete-tail and continuum-tail
compute on Python numbers and never load it; a bound's manifest records
numpy's version only when the run loaded it. No command loads scipy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from ._volume import EstimationError, ball_volume_ratio_analytic, continuum_fano_bound
from .discrete import NeighborhoodProfile, fano_tail_lower_bound
from .info import _DOMAINS, DomainError, _require
from .minimax import (
    compressed_sensing_bound,
    linear_regression_bound,
    normal_mean_bound,
    sparse_location_bound,
)
from .results import MinimaxBound

if TYPE_CHECKING:
    import numpy as np

CSV_SCHEMA = "fanolab-bound-v1"
CSV_COLUMNS = ("pipeline", "d", "s", "n", "sigma2", "t", "eps",
               "mi_bound_nats", "log_ratio_nats", "bound", "valid")
DEFAULT_SEED = 1234


class ConfigError(Exception):
    pass


# -- the parameter table -----------------------------------------------------

REQUIRED = "required"


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


_COUNT = Key(int, REQUIRED, "a whole number >= 1")
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
                       "d": Key(int, None, "a whole number >= 1"), "mi": _MI},
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
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    _require("an integer in [0, 2**64)", **{name: seed})
    return seed


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


def _design_matrix(p: dict, seed: int) -> np.ndarray | None:
    """The design of a problem that takes one, else None."""
    if "design" not in p:
        return None
    import numpy as np

    from .streams import DESIGN_STREAM

    kind, d, n = p["design"], p["d"], p["n"]
    if kind == "identity":
        if n != d:
            raise ConfigError("design=identity builds sqrt(n)*I and needs n == d")
        X = math.sqrt(n) * np.eye(d)
    elif kind == "gaussian":
        # An input definition, not a Monte Carlo stream: the Gaussian design is
        # the standard normals of Philox keyed by (seed, DESIGN_STREAM). Result
        # files and the benchmark's reference value depend on exactly this draw,
        # so it stays off stream() and its generator.
        key = np.array([seed, DESIGN_STREAM], dtype=np.uint64)
        X = np.random.Generator(np.random.Philox(key=key)).standard_normal((n, d))
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
    np = sys.modules.get("numpy")  # a numpy value exists only once numpy is loaded
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()  # Python values, element by element
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool):  # before int: bool is an int subclass
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, int):
        return int(obj)
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


def _recipe(problem: str, result) -> tuple:
    """(pipeline, t, eps, mi_bound, log_ratio) of a MinimaxBound or, read
    from its ingredients, of a tail BoundResult."""
    if isinstance(result, MinimaxBound):
        return result.pipeline, result.t, result.eps, result.mi_bound, result.log_ratio
    ing = result.ingredients
    return problem, ing.get("t"), None, ing.get("mi_bound"), ing.get("log_ratio")


def _bound_row(problem: str, result, cfg: dict[str, str]) -> dict[str, str]:
    pipeline, t, eps, mi, lr = _recipe(problem, result)
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
    pipeline, t, eps, mi, lr = _recipe(problem, result)
    payload = {
        "schema": CSV_SCHEMA,
        "manifest": chash,
        "pipeline": pipeline,
        "params": dict(sorted(cfg.items())),
        "seed": seed,
        "value": result.value,
        "valid": result.valid,
        "t": t,
        "eps": eps,
        "mi_bound_nats": mi,
        "log_ratio_nats": lr,
        "detail": detail,
    }
    json_path = out_dir / f"{problem}-{chash}.json"
    json_path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
    csv_path = out_dir / f"{problem}-{chash}.csv"
    csv_path.write_text(_csv_text([row], chash))
    manifest = {
        "command": "bound", "problem": problem, "config": dict(sorted(cfg.items())),
        "seed": seed, "config_hash": chash,
        "versions": {"fanolab": __version__},
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": [json_path.name, csv_path.name],
    }
    # numpy's version if the run loaded it; a manifest loads nothing of its own
    if "numpy" in sys.modules:
        manifest["versions"]["numpy"] = sys.modules["numpy"].__version__
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


def _compute_bound(problem: str, p: dict, design: np.ndarray | None):
    if problem == "normal-mean":
        return normal_mean_bound(p["d"], p["sigma2"], p["n"], mode=p["mode"])
    if problem == "sparse-location":
        return sparse_location_bound(p["d"], p["s"], p["sigma2"], p["n"])
    if problem == "compressed-sensing":
        return compressed_sensing_bound(design, p["s"], p["sigma2"])
    if problem == "regression":
        return linear_regression_bound(design, p["sigma2"])
    if problem == "discrete-tail":
        profile = NeighborhoodProfile(t=p["t"], n_max=p["n_max"], n_min=p["n_min"])
        return fano_tail_lower_bound(p["card"], profile, p["mi"])
    given = [k for k in ("log_ratio", "r", "t", "d") if p[k] is not None]
    if given == ["log_ratio"]:
        return continuum_fano_bound(p["log_ratio"], p["mi"])
    if given != ["r", "t", "d"]:
        raise ConfigError(f"{problem} takes log_ratio, or all of r, t and d; "
                          f"got {', '.join(given) or 'none'}")
    # an r/t beyond float64 gives an infinite log-ratio, which continuum_fano_bound refuses
    log_ratio = (math.inf if math.isinf(p["r"] / p["t"])
                 else math.log(ball_volume_ratio_analytic(p["r"], p["t"], p["d"])))
    result = continuum_fano_bound(log_ratio, p["mi"])
    # the bound is the tail at radius t; record t as the discrete tail does
    return replace(result, ingredients={**result.ingredients, "t": p["t"]})


def cmd_bound(args) -> int:
    cfg, seed = _params(args)
    p = _typed(cfg, BOUND_PROBLEMS[args.problem], args.problem)
    result = _compute_bound(args.problem, p, _design_matrix(p, seed))
    row = _bound_row(args.problem, result, cfg)
    json_path, csv_path = _write_bound_outputs(Path(args.out_dir), args.problem,
                                               cfg, seed, result, row)
    print(f"{row['pipeline']}: bound={_fmt(result.value)} valid={_fmt(result.valid)}")
    print(f"wrote {json_path} and {csv_path}")
    return 0 if result.valid else 3


# -- verify suites -----------------------------------------------------------


# The name of each suite's function in fanolab.verify, looked up when the
# suite runs, and the keys it takes as keyword arguments. Below level 6 the
# grid's disk area is more than 2% off on correct code.
SUITES = {
    "prop1-exhaustive": ("prop1_exhaustive", {"instances": Key(int, 1000, "a whole number >= 1")}),
    "decoder-oracle": ("decoder_oracle", {"instances": Key(int, 200, "a whole number >= 1")}),
    "quadrature": ("quadrature", {}),
    "volume": ("volume", {"seeds": Key(int, 100, "a whole number >= 1"),
                          "points": Key(int, 10**6, "a whole number >= 1")}),
    "grid-partition": ("grid_partition", {"level": Key(int, 9, "a whole number >= 6")}),
    "estimator-risk": ("estimator_risk", {"reps_scale": Key(float, 1.0, "finite and > 0")}),
}


def cmd_verify(args) -> int:
    from . import verify

    name, keys = SUITES[args.suite]
    given, seed = _params(args)
    checks = getattr(verify, name)(seed, args.inject_fault,
                                   **_typed(given, keys, f"suite {args.suite}"))
    report, ok = verify.report(args.suite, seed, checks)
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
        design = _design_matrix(p, seed)  # shared by the bound and its risk
        result = _compute_bound(args.problem, p, design)
        row = _bound_row(args.problem, result, cfg)
        if args.with_risk is not None:
            row.update(_risk_columns(args.problem, result, design, seed, args.with_risk))
        rows.append(row)
    chash = _config_hash("table", args.problem, dict(base, sweep=args.sweep), seed)
    columns = list(CSV_COLUMNS) + (["risk", "risk_ci_lo", "risk_ci_hi"]
                                   if args.with_risk is not None else [])
    text = _csv_text(rows, chash, columns)
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _risk_columns(problem: str, result, design: np.ndarray | None, seed: int,
                  reps: int) -> dict[str, str]:
    if not isinstance(result, MinimaxBound):
        raise ConfigError(f"--with-risk is not supported for problem {problem!r}")
    from .lab import audit_config, simulate_risk

    rep = simulate_risk(audit_config(result, reps, seed, design))
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
