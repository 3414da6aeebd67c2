"""CLI behavior: exit codes, output schemas, reproducibility."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolab import cli
from fanolab.cli import BOUND_PROBLEMS, SUITES, main

LN2 = math.log(2.0)


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=fanolab-bound-v1 manifest=")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return rows


def test_bound_normal_mean(tmp_path, capsys):
    code = run(["bound", "normal-mean", "--d", "10", "--n", "100", "--sigma2", "1",
                "--mode", "integrated", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.01403623040633889" in out
    js = json.loads(next(tmp_path.glob("normal-mean-*.json")).read_text())
    assert js["value"] == pytest.approx((81 * LN2 / 400) * 0.1, rel=1e-12)
    assert js["valid"] is True
    assert js["schema"] == "fanolab-bound-v1"
    assert js["manifest"]
    row = read_csv(next(tmp_path.glob("normal-mean-*.csv")))[0]
    assert row["pipeline"] == "normal-mean-integrated"
    assert float(row["bound"]) == pytest.approx(js["value"], rel=1e-15)


def test_bound_sparse_location_records_eps(tmp_path):
    code = run(["bound", "sparse-location", "--d", "32", "--s", "4", "--n", "200",
                "--sigma2", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    js = json.loads(next(tmp_path.glob("sparse-location-*.json")).read_text())
    assert js["eps"] > 0
    assert js["value"] > 0
    assert 0 < js["detail"]["implied_c"] <= 1


def test_bound_missing_key_exit2(tmp_path, capsys):
    code = run(["bound", "sparse-location", "--d", "32", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "s" in capsys.readouterr().err


def test_bound_normal_mean_reports_where_the_tail_integral_overflows(tmp_path):
    """The headline needs no tail integral, so one that overflows float64 no
    longer refuses a finite bound."""
    assert run(["bound", "normal-mean", "--d", "1000", "--n", "1",
                "--out-dir", str(tmp_path)]) == 0
    js = json.loads(next(tmp_path.glob("normal-mean-*.json")).read_text())
    assert js["value"] == pytest.approx(172.9, rel=1e-3)


def test_bound_normal_mean_simple_below_d4_exit2(tmp_path, capsys):
    code = run(["bound", "normal-mean", "--d", "3", "--n", "10", "--mode", "simple",
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert "d >= 4, got d=3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bound_invalid_flag_exit3(tmp_path):
    # card=2 with n_max=n_min=1 fails the side condition -> valid=False
    code = run(["bound", "discrete-tail", "--card", "2", "--n-max", "1",
                "--n-min", "1", "--t", "0", "--mi", "0", "--out-dir", str(tmp_path)])
    assert code == 3
    js = json.loads(next(tmp_path.glob("discrete-tail-*.json")).read_text())
    assert js["valid"] is False


def test_bound_continuum_tail(tmp_path):
    code = run(["bound", "continuum-tail", "--r", "2", "--t", "1", "--d", "2",
                "--mi", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    js = json.loads(next(tmp_path.glob("continuum-tail-*.json")).read_text())
    assert js["value"] == 0.5
    # the r/t/d route bounds the tail at radius t, and records it
    assert js["t"] == js["detail"]["t"] == 1.0
    assert read_csv(next(tmp_path.glob("continuum-tail-*.csv")))[0]["t"] == "1.0"


def test_bound_continuum_tail_log_ratio_route_has_no_t(tmp_path):
    assert run(["bound", "continuum-tail", "--log-ratio", "1.5", "--mi", "0.1",
                "--out-dir", str(tmp_path)]) == 0
    js = json.loads(next(tmp_path.glob("continuum-tail-*.json")).read_text())
    assert js["t"] is None and "t" not in js["detail"]


@pytest.mark.parametrize("argv", [
    ["normal-mean", "--d", "10", "--n", "100", "--mode", "simple"],
    ["sparse-location", "--d", "32", "--s", "4", "--n", "200"],
    ["compressed-sensing", "--d", "32", "--s", "4", "--n", "20", "--design", "gaussian"],
    ["regression", "--d", "9", "--n", "9"],
    ["discrete-tail", "--card", "6", "--n-max", "2", "--n-min", "2", "--t", "1", "--mi", "0.1"],
    ["continuum-tail", "--r", "2", "--t", "1", "--d", "2", "--mi", "0.1"],
], ids=lambda argv: argv[0])
def test_bound_json_agrees_with_csv(argv, tmp_path):
    """The result JSON carries the CSV row's values; a column the row leaves
    empty is null in the JSON."""
    assert run(["bound", *argv, "--out-dir", str(tmp_path)]) == 0
    js = json.loads(next(tmp_path.glob(f"{argv[0]}-*.json")).read_text())
    row = read_csv(next(tmp_path.glob(f"{argv[0]}-*.csv")))[0]
    assert row["pipeline"] == js["pipeline"]
    assert row["valid"] == ("true" if js["valid"] else "false")
    for column, key in [("t", "t"), ("eps", "eps"), ("mi_bound_nats", "mi_bound_nats"),
                        ("log_ratio_nats", "log_ratio_nats"), ("bound", "value")]:
        assert js[key] == (None if row[column] == "" else float(row[column])), column
    if argv[0].endswith("-tail"):
        assert js["mi_bound_nats"] == 0.1 and js["log_ratio_nats"] > 0


# SHA-256 of the JSON and the CSV that `bound` writes at seed 1, with the
# exit code. Repeat identity cannot show that a refactor kept the bytes;
# pinned digests can. The two normal-mean JSON digests were re-pinned when the
# extras that are not bounds (tail_integral, integral_route_value,
# mi_log_form, taylor_floor) left their detail.
BOUND_DIGESTS = {
    "normal-mean-simple": (
        ["normal-mean", "--d", "10", "--n", "100", "--mode", "simple"], 0,
        "aac0fa61707c9321edb081442473661bd7f9439536c525e2a4126830f26d369f",
        "43058d86c5525717cccd403a89da2a2155c67d03c45b004564e91c4ce010789d"),
    "normal-mean-integrated": (
        ["normal-mean", "--d", "10", "--n", "100", "--mode", "integrated"], 0,
        "13de16a5eeaedca0a0f448b5ab0f791372793b3a0a2557eb7075fdf53a92845b",
        "9219214ee8d3237bf91f3e26ac841868285d57eb1e0c6bb9ac8e7ec78d633128"),
    "sparse-location": (
        ["sparse-location", "--d", "32", "--s", "4", "--n", "200"], 0,
        "bacf90695d355f16e9235f20ddc328c26941c628c67c7e1ba95882299927bcda",
        "d41d39ef5268d023a531939490acd6d990435174e75622c98453a376de91138d"),
    "compressed-sensing": (
        ["compressed-sensing", "--d", "32", "--s", "4", "--n", "20", "--design", "gaussian"], 0,
        "a1c315318029704c20df8f395d626e77835dd265a8a0ba5344ec0c1df6ca568d",
        "09bdb736df8c3ee8f0b9fac91c1ed8dd5e9561183b9f8ef20a5a7495fa7bfc69"),
    "regression": (
        ["regression", "--d", "9", "--n", "9"], 0,
        "d13a364fefc8ae5d86e0876da4daebdca44ae8401e9c9853c8fc45dcdfe763a3",
        "4098f9f6820cceda9fb11d09e2e7bfc78076a0689cdd0ed677b3e8fbfff6a9b7"),
    "discrete-tail": (
        ["discrete-tail", "--card", "6", "--n-max", "2", "--n-min", "2", "--t", "1",
         "--mi", "0.1"], 0,
        "f9c893ddf99141b888b15c9bbeeac9aefb03b8db8c37e3d6274612ace2a74411",
        "9b35d1636d76a1cf8173e820b47a6ae07c6d5e836c1d79a1826342148612443d"),
    "discrete-tail-invalid": (
        ["discrete-tail", "--card", "2", "--n-max", "1", "--n-min", "1"], 3,
        "038d823e5afabf114b10d229f8531b04617efaf79c0fd9674d02493bab63d921",
        "653eed60db725ec2714f46a8abd37c5cbb5674c1b993e67876c735c8746c6535"),
    "continuum-tail-radii": (
        ["continuum-tail", "--r", "2", "--t", "1", "--d", "2", "--mi", "0.1"], 0,
        "dac0ec98edf92e5ff6a6dc3337b0e2dc088fee2d17253963616b74c6fafa39d5",
        "3537a95d83e8056d2f5dabf21632b79258cf321b27b7eec6ad0506837baedfec"),
    "continuum-tail-log-ratio": (
        ["continuum-tail", "--log-ratio", "1.5", "--mi", "0.1"], 0,
        "80d1dbc921afeed65d2fef71aedf9bb99d7c9bd5dc2dce10cb2e8da27e1d6efc",
        "0a31474ff0bbe5343bc066995b096379864596f80880ac1609d03a4285736682"),
}
# The same for the CSV of a plain table and of a --with-risk table.
TABLE_DIGESTS = {
    "plain": (["sparse-location", "--sweep", "d=16,32,64", "--s", "4", "--n", "200"],
              "c84b7ae0cf8d2ccd02674b2de4d05fb470d1159de7e8e087f955d0a9b7f4773b"),
    "with-risk": (["normal-mean", "--sweep", "n=50,100", "--d", "5", "--with-risk", "400"],
                  "ce17ac684d00c21454d6514d93bfc3ab46c4746d14a2db4bf49a6de2099a04df"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", BOUND_DIGESTS)
def test_bound_outputs_match_pinned_digests(case, tmp_path):
    argv, code, json_digest, csv_digest = BOUND_DIGESTS[case]
    assert run(["bound", *argv, "--seed", "1", "--out-dir", str(tmp_path)]) == code
    assert _sha256(next(tmp_path.glob(f"{argv[0]}-*.json"))) == json_digest
    assert _sha256(next(tmp_path.glob(f"{argv[0]}-*.csv"))) == csv_digest


@pytest.mark.parametrize("case", TABLE_DIGESTS)
def test_table_csv_matches_pinned_digest(case, tmp_path):
    argv, digest = TABLE_DIGESTS[case]
    assert run(["table", *argv, "--seed", "1", "--out", str(tmp_path / "t.csv")]) == 0
    assert _sha256(tmp_path / "t.csv") == digest


def test_bound_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# normal mean config\nd = 10\nn = 50\nsigma2 = 1\nmode = integrated\n")
    code = run(["bound", "normal-mean", "--config", str(cfg), "--n", "100",
                "--out-dir", str(tmp_path)])
    assert code == 0
    js = json.loads(next(tmp_path.glob("normal-mean-*.json")).read_text())
    assert js["params"]["n"] == "100"  # flag wins
    assert js["value"] == pytest.approx((81 * LN2 / 400) * 0.1, rel=1e-12)


def test_bound_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["bound", "sparse-location", "--d", "16", "--s", "2", "--n", "40",
                    "--out-dir", str(out)]) == 0
    ja, jb = (next(p.glob("*.json")).read_bytes() for p in (a, b))
    ca, cb = (next(p.glob("*.csv")).read_bytes() for p in (a, b))
    assert ja == jb
    assert ca == cb


def test_bound_regression_identity_design(tmp_path):
    code = run(["bound", "regression", "--d", "9", "--n", "9", "--sigma2", "1",
                "--design", "identity", "--out-dir", str(tmp_path)])
    assert code == 0
    js = json.loads(next(tmp_path.glob("regression-*.json")).read_text())
    assert js["value"] == pytest.approx(1 / 12, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 7, 2**64 - 1])
def test_gaussian_design_is_frozen_on_its_philox_rule(seed):
    """--design gaussian is an input, defined apart from the Monte Carlo
    streams: the standard normals of Philox keyed by (seed, 7 << 40)."""
    X = cli._design_matrix({"design": "gaussian", "d": 5, "n": 3, "scale": 1.0}, seed)
    key = np.array([seed, 7 << 40], dtype=np.uint64)
    assert np.array_equal(X, np.random.Generator(np.random.Philox(key=key))
                          .standard_normal((3, 5)))


def test_bound_regression_identity_needs_square(tmp_path, capsys):
    code = run(["bound", "regression", "--d", "9", "--n", "12",
                "--design", "identity", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "n == d" in capsys.readouterr().err


def test_table_normal_mean_inverse_n(capsys):
    code = run(["table", "normal-mean", "--sweep", "n=50,100,200", "--d", "10",
                "--sigma2", "1", "--mode", "integrated"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    vals = [float(r["bound"]) for r in rows]
    assert vals[0] / vals[1] == pytest.approx(2.0, rel=1e-12)
    assert vals[1] / vals[2] == pytest.approx(2.0, rel=1e-12)


def test_table_regression_inverse_c_squared(capsys):
    code = run(["table", "regression", "--sweep", "scale=1,2,4", "--d", "9",
                "--n", "9", "--design", "identity", "--sigma2", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    vals = [float(ln.split(",")[9]) for ln in lines[2:]]
    assert vals[0] / vals[1] == pytest.approx(4.0, rel=1e-12)
    assert vals[0] / vals[2] == pytest.approx(16.0, rel=1e-12)


def test_table_sparse_location_monotone_in_d(capsys):
    code = run(["table", "sparse-location", "--sweep", "d=16,32,64", "--s", "4",
                "--n", "200", "--sigma2", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    vals = [float(ln.split(",")[9]) for ln in lines[2:]]
    assert vals == sorted(vals)  # grows with log(d/s)


@pytest.mark.parametrize("argv", [
    ["bound", "sparse-location", "--d", "32", "--s", "4", "--n", "200"],
    ["bound", "compressed-sensing", "--d", "16", "--s", "4", "--n", "8",
     "--design", "gaussian"],
    ["table", "sparse-location", "--sweep", "d=16,32", "--s", "4", "--n", "200"],
], ids=["bound-sparse-location", "bound-compressed-sensing", "table-sparse-location"])
def test_sparse_commands_never_materialize_the_space(argv, tmp_path, monkeypatch):
    """The sparse bound path counts neighborhoods in closed form: brute-force
    enumeration serves the tests and user-built spaces only. The enumeration
    functions are replaced in fanolab.discrete and wherever a fanolab module
    imported them by name."""
    def refuse(*args, **kwargs):
        raise AssertionError("brute-force enumeration reached the bound path")

    import fanolab.minimax  # noqa: F401  the bound path's modules, loaded to be patched

    for name, module in list(sys.modules.items()):
        if name == "fanolab" or name.startswith("fanolab."):
            for attr in ("sparse_sign_space", "neighborhood_sizes"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    out = ["--out-dir", str(tmp_path)] if argv[0] == "bound" else []
    assert run(argv + out) == 0


def test_table_with_risk(capsys):
    code = run(["table", "normal-mean", "--sweep", "n=50,100", "--d", "5",
                "--sigma2", "1", "--mode", "integrated", "--with-risk", "400",
                "--seed", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[1].split(",")
    assert header[-4:] == ["risk", "risk_ci_lo", "risk_ci_hi", "risk_margin"]
    for ln in lines[2:]:
        row = dict(zip(header, ln.split(",")))
        assert float(row["bound"]) <= float(row["risk_ci_hi"])
        margin = float(row["risk_margin"])
        assert margin == float(row["risk_ci_hi"]) - float(row["bound"])
        assert margin >= 0


def test_table_with_risk_exits_1_when_a_bound_tops_its_risk(tmp_path, monkeypatch, capsys):
    """A bound inflated 20-fold, as estimator-risk's --inject-fault inflates
    it, sits above the simulated risk: each row shows a negative risk_margin,
    the CSV is still written, and the table exits 1 as a failed verify does.
    The command reads the bound from fanolab.minimax when it runs."""
    from fanolab import minimax

    bound = minimax.normal_mean_bound

    def inflated(*args, **kwargs):
        result = bound(*args, **kwargs)
        return replace(result, value=20.0 * result.value)

    monkeypatch.setattr(minimax, "normal_mean_bound", inflated)
    code = run(["table", "normal-mean", "--sweep", "n=50,100", "--d", "5",
                "--sigma2", "1", "--mode", "integrated", "--with-risk", "400",
                "--seed", "3", "--out", str(tmp_path / "t.csv")])
    assert code == 1
    rows = read_csv(tmp_path / "t.csv")
    assert len(rows) == 2
    assert all(float(row["risk_margin"]) < 0 for row in rows)


@pytest.mark.parametrize("argv", [
    ["discrete-tail", "--sweep", "mi=0,0.1", "--card", "6", "--n-max", "2", "--n-min", "2"],
    ["continuum-tail", "--sweep", "mi=0,0.1", "--log-ratio", "2"],
], ids=lambda argv: argv[0])
def test_table_with_risk_refuses_a_tail_problem(argv, tmp_path, capsys):
    """No estimator audits a tail bound: the audit table refuses its
    pipeline, and no CSV is written."""
    out = tmp_path / "t.csv"
    assert run(["table", *argv, "--with-risk", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no estimator audits pipeline {argv[0]!r}\n"
    assert not out.exists()


def test_table_hash_covers_with_risk(capsys):
    """The header hash changes with the replicate count of --with-risk, and a
    table without --with-risk keeps the hash of a config without the count."""
    argv = ["table", "regression", "--sweep", "sigma2=1", "--d", "9", "--n", "9",
            "--design", "identity", "--seed", "1"]
    heads = []
    for risk in ([], ["--with-risk", "2000"], ["--with-risk", "4000"]):
        assert run(argv + risk) == 0
        heads.append(capsys.readouterr().out.splitlines()[0])
    assert heads[0] == "# schema=fanolab-bound-v1 manifest=ddd8f092e863ecbd"
    assert len(set(heads)) == 3
    assert run(["table", "sparse-location", "--sweep", "d=16,32,64", "--s", "4",
                "--n", "200", "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith(
        "# schema=fanolab-bound-v1 manifest=29301a1e013af6fc\n")


def test_table_with_risk_builds_each_design_once(tmp_path, monkeypatch, capsys):
    """The bound and the risk of a row share one design: a CSV design is
    read once per row, not once for each."""
    path = tmp_path / "X.csv"
    path.write_text("\n".join(",".join(str(3.0 * (i == j)) for j in range(3))
                              for i in range(3)) + "\n")
    reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: reads.append(a) or loadtxt(*a, **k))
    assert run(["table", "regression", "--sweep", "sigma2=1,2", "--d", "3", "--n", "3",
                "--design", str(path), "--with-risk", "200", "--seed", "3"]) == 0
    assert len(reads) == 2
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_verify_unknown_suite_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "bogus-suite"])
    assert exc.value.code == 2


def test_verify_quadrature_report(tmp_path, capsys):
    code = run(["verify", "quadrature", "--seed", "5", "--out-dir", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "verify-quadrature-seed5.txt").read_text()
    assert "suite quadrature: PASS" in report
    assert report == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["prop1-exhaustive", "--instances", "50"],
    ["decoder-oracle", "--instances", "50"],
    ["quadrature"],
    ["volume", "--seeds", "3", "--points", "50000"],
    ["grid-partition", "--level", "6"],
    ["estimator-risk", "--reps-scale", "0.01"],
], ids=lambda argv: argv[0])
def test_verify_every_suite_detects_its_injected_fault(argv, tmp_path):
    """Every suite catches its injected fault: a check fails, so does the
    suite, and the exit code is 1. At --seeds 3 every volume run misses the
    corrupted truth, which the volume rule must not forgive."""
    code = run(["verify", *argv, "--seed", "5", "--inject-fault", "--out-dir", str(tmp_path)])
    lines = (tmp_path / f"verify-{argv[0]}-seed5.txt").read_text().splitlines()
    assert code == 1
    assert any(ln.startswith("check ") and ": FAIL" in ln for ln in lines)
    assert lines[-1].startswith(f"suite {argv[0]}: FAIL worst_margin=")


def test_verify_reports_byte_identical(tmp_path):
    suites = [
        (["verify", "prop1-exhaustive", "--seed", "9", "--instances", "60"], 0),
        (["verify", "decoder-oracle", "--seed", "9", "--instances", "30"], 0),
        (["verify", "volume", "--seed", "9", "--seeds", "3", "--points", "50000"], 0),
    ]
    for argv, want in suites:
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(argv + ["--out-dir", str(out)]) == want
        name = f"verify-{argv[1]}-seed9.txt"
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_verify_grid_smallest_level_sweeps_five_levels(tmp_path, capsys):
    """Level 6 is the smallest level whose disk area is within 2% on
    correct code; the convergence check compares levels 2 to 6."""
    assert run(["verify", "grid-partition", "--seed", "1", "--level", "6",
                "--out-dir", str(tmp_path)]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("check log-ratio-convergence:"))
    assert len(ast.literal_eval(line.split("errs=", 1)[1])) == 5


def test_verify_runs_the_suite_bound_in_fanolab_verify_now(tmp_path, monkeypatch):
    """A suite is looked up by name when it runs, so a function rebound in
    fanolab.verify (as a tracer does) is the one that runs."""
    from fanolab import verify

    calls = []

    def stub(seed, fault):
        calls.append(seed)
        return [verify.Check("stub", True, margin=1.0)]

    monkeypatch.setattr(verify, "quadrature", stub)
    assert run(["verify", "quadrature", "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    assert calls == [4]


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FANOLAB_SEED", "777")
    code = run(["verify", "decoder-oracle", "--instances", "20",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert "seed=777" in capsys.readouterr().out


def _never(*args, **kwargs):
    raise AssertionError("the work ran before its output location was checked")


def test_bound_refuses_its_out_dir_before_computing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_compute_bound", _never)
    (tmp_path / "a-file").write_text("")
    out_dir = tmp_path / "a-file" / "sub"
    assert run(["bound", "normal-mean", "--d", "4", "--n", "10",
                "--out-dir", str(out_dir)]) == 2
    assert str(out_dir) in capsys.readouterr().err


def test_verify_refuses_its_out_dir_before_the_suite(tmp_path, monkeypatch, capsys):
    from fanolab import verify

    monkeypatch.setattr(verify, "quadrature", _never)
    (tmp_path / "a-file").write_text("")
    assert run(["verify", "quadrature", "--out-dir", str(tmp_path / "a-file")]) == 2
    assert str(tmp_path / "a-file") in capsys.readouterr().err


def test_verify_volume_refuses_seeds_past_the_last_seed_before_any_estimate(
        tmp_path, monkeypatch, capsys):
    """Run k takes seed + k: three runs from 2**64 - 2 are refused naming
    seeds, before the first estimate, and not as a seed the user never gave."""
    from fanolab import continuum

    monkeypatch.setattr(continuum, "mc_volume_ratios", _never)
    assert run(["verify", "volume", "--seeds", "3", "--points", "1000",
                "--seed", str(2**64 - 2), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "seeds=3" in err
    assert str(2**64) not in err
    assert not (tmp_path / f"verify-volume-seed{2**64 - 2}.txt").exists()


def test_verify_volume_runs_up_to_the_last_seed(tmp_path, monkeypatch):
    """Two runs from 2**64 - 2 take the last two stream seeds, in one call
    per dimension."""
    from fanolab import continuum

    calls = []
    real = continuum.mc_volume_ratios

    def record(space, t, *, points, seeds):
        calls.append(list(seeds))
        return real(space, t, points=points, seeds=seeds)

    monkeypatch.setattr(continuum, "mc_volume_ratios", record)
    assert run(["verify", "volume", "--seeds", "2", "--points", "1000",
                "--seed", str(2**64 - 2), "--out-dir", str(tmp_path)]) in (0, 1)
    assert calls == [[2**64 - 2, 2**64 - 1]] * 3


def test_verify_grid_refuses_a_level_past_the_budget_before_any_level(
        tmp_path, monkeypatch, capsys):
    """The disk at the given level is counted first, so a level past the
    grid budget is refused naming it, with no coarser level counted."""
    from fanolab import continuum

    levels = []
    real = continuum.grid_partition_counts

    def record(space, t, level):
        levels.append(level)
        return real(space, t, level)

    monkeypatch.setattr(continuum, "grid_partition_counts", record)
    assert run(["verify", "grid-partition", "--level", "13", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "level=13" in err and "268435456 grid cells" in err
    assert levels == [13]


@pytest.mark.parametrize("where", ["no-such-dir/t.csv", "a-file/t.csv", "a-dir"])
def test_table_refuses_its_out_before_the_sweep(where, tmp_path, monkeypatch, capsys):
    """An --out that cannot take the CSV is refused, naming it, before the
    first bound; nothing is created."""
    monkeypatch.setattr(cli, "_compute_bound", _never)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / where
    assert run(["table", "regression", "--sweep", "sigma2=1,2,3", "--d", "9", "--n", "9",
                "--with-risk", "3000000", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


# -- the checked parameter table ----------------------------------------------

_A_FILE = __file__
_NO_DIR = str(Path(__file__).with_name("no-such-dir"))
REFUSED = [
    # (argv, the key, path or variable the error must name)
    (["bound", "sparse-location", "--d", "32", "--s", "4", "--n", "200", "--t", "7"], "t"),
    (["bound", "normal-mean", "--d", "4", "--n", "10", "--scale", "2"], "scale"),
    (["table", "normal-mean", "--sweep", "seed=1,2", "--d", "5", "--n", "10"], "seed"),
    (["table", "normal-mean", "--sweep", "sigmaa2=1,2", "--d", "5", "--n", "10"], "sigmaa2"),
    (["table", "normal-mean", "--sweep", "n=10,nan", "--d", "5"], "n"),
    (["table", "normal-mean", "--sweep", "n=10", "--d", "5", "--with-risk", "0"],
     "with-risk"),
    (["verify", "prop1-exhaustive", "--instances", "-5"], "instances"),
    (["verify", "decoder-oracle", "--instances", "0"], "instances"),
    (["verify", "volume", "--seeds", "-1", "--points", "10"], "seeds"),
    (["verify", "estimator-risk", "--reps-scale", "-1"], "reps_scale"),
    (["verify", "grid-partition", "--level", "-3"], "level"),
    (["verify", "quadrature", "--level", "4"], "level"),
    (["bound", "discrete-tail", "--card", "6", "--n-max", "2", "--n-min", "2",
      "--mi", "nan"], "mi"),
    (["bound", "discrete-tail", "--card", "6", "--n-max", "0", "--n-min", "0"], "n_max"),
    (["bound", "discrete-tail", "--card", "6", "--n-max", "9", "--n-min", "1"], "n_max"),
    (["bound", "normal-mean", "--d", "4", "--n", "10", "--sigma2", "inf"], "sigma2"),
    # finite inputs whose bound overflows, or underflows into 0 * inf
    (["bound", "normal-mean", "--d", "10", "--n", "1", "--sigma2", "1.7e308"], "bound value"),
    (["bound", "sparse-location", "--d", "8", "--s", "2", "--n", "5", "--sigma2", "1e-310"],
     "bound value"),
    (["bound", "regression", "--d", "9", "--n", "9", "--scale", "inf"], "scale"),
    (["bound", "continuum-tail", "--log-ratio", "2", "--r", "3"], "log_ratio"),
    (["bound", "continuum-tail", "--r", "1e300", "--t", "0.25", "--d", "12"], "r/t"),
    # a full-rank design whose squared norm underflows to 0
    (["bound", "regression", "--d", "2", "--n", "2", "--scale", "1e-310"], "||X||_F^2"),
    # a level too coarse for the disk-area check, and a d whose (d - 1)^2 overflows
    (["verify", "grid-partition", "--level", "5"], "level"),
    (["bound", "normal-mean", "--d", "1" + "0" * 200, "--n", "1"], "d is too large"),
    # a replicate count that numpy cannot size an array by
    (["table", "sparse-location", "--sweep", "d=16", "--s", "4", "--n", "200",
      "--with-risk", "1" + "0" * 30], "reps"),
    # seeds outside the 64-bit seed word of a stream's key
    (["bound", "normal-mean", "--d", "4", "--n", "10", "--seed", "-1"], "seed"),
    (["verify", "quadrature", "--seed", str(2**64)], "seed"),
    # counts past their work budget: sampled points and replicates
    (["verify", "volume", "--seeds", "1" + "0" * 400, "--points", "10"], "seeds"),
    (["verify", "volume", "--points", "1000000000000000"], "points"),
    (["table", "regression", "--sweep", "d=9", "--n", "9", "--with-risk", "1000000000000000"],
     "reps"),
    (["verify", "estimator-risk", "--reps-scale", "1e12"], "reps:"),
    # output locations that cannot be written: a missing directory, a path
    # under a file, and a file where the output directory should be
    (["table", "normal-mean", "--sweep", "n=10", "--d", "5", "--out", _NO_DIR + "/t.csv"],
     "no-such-dir/t.csv"),
    (["bound", "normal-mean", "--d", "4", "--n", "10", "--out-dir", _A_FILE + "/sub"],
     "test_cli.py/sub"),
    (["verify", "quadrature", "--out-dir", _A_FILE], "test_cli.py"),
]


@pytest.mark.parametrize("argv,name", REFUSED)
def test_out_of_domain_input_exits_2_naming_the_key(argv, name, tmp_path, capsys):
    out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "table" else \
        ["--out-dir", str(tmp_path)]
    assert run(argv + (out if out[0] not in argv else [])) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err


BIG = "1" + "0" * 400  # an integer beyond float64
# Refusals the library words in full: their text is kept as it reads.
WORDED = [
    (["bound", "discrete-tail", "--card", "1", "--n-max", "2", "--n-min", "1"],
     "need card >= 2"),
    (["bound", "normal-mean", "--d", "1", "--n", "10"], "need d >= 2"),
    (["bound", "discrete-tail", "--card", "6", "--n-max", "2", "--n-min", "-1"],
     "need 0 <= n_min <= n_max, got -1, 2"),
    (["bound", "continuum-tail", "--log-ratio", "2", "--mi", "-1"],
     "mutual information mi must be finite and >= 0, got -1.0"),
    (["bound", "continuum-tail", "--r", "2", "--t", "1e-310", "--d", "2"],
     "log_ratio must be finite"),
    (["bound", "discrete-tail", "--card", "6", "--n-max", BIG, "--n-min", "1"],
     f"neighborhood size n_max={BIG} exceeds card=6"),
    (["bound", "continuum-tail", "--r", "2", "--t", "1", "--d", BIG],
     f"(r/t)^d overflows float64 at r=2.0, t=1.0, d={BIG}"),
    (["bound", "sparse-location", "--d", "8", "--s", str(2**63), "--n", "5"],
     f"need 1 <= s <= d/2 so that log(d/s) > 0; got s={2**63}, d=8"),
]


@pytest.mark.parametrize("argv,text", WORDED,
                         ids=["card", "d", "n_min", "mi", "t", "n_max", "big-d", "s"])
def test_refusal_keeps_its_wording(argv, text, tmp_path, capsys):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


@pytest.mark.parametrize("key", ["d", "n"])
def test_sparse_location_takes_counts_beyond_int64(key, tmp_path, capsys):
    counts = {"d": "8", "s": "2", "n": "5", key: str(10**30)}
    argv = ["bound", "sparse-location"] + [x for k, v in counts.items() for x in (f"--{k}", v)]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert "valid=true" in capsys.readouterr().out


def test_config_file_unknown_key_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 10\nn = 100\nsigmaa2 = 4\n")
    assert run(["bound", "normal-mean", "--config", str(cfg),
                "--out-dir", str(tmp_path)]) == 2
    assert "sigmaa2" in capsys.readouterr().err


def test_config_file_value_out_of_domain_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 10\nn = 0\n")
    assert run(["bound", "normal-mean", "--config", str(cfg),
                "--out-dir", str(tmp_path)]) == 2
    assert "key n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bound", "normal-mean", "--d", "4", "--n", "10"],
    ["verify", "quadrature"],
    ["table", "normal-mean", "--sweep", "n=10", "--d", "4"],
])
def test_bad_env_seed_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FANOLAB_SEED", "abc")
    out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "table" else \
        ["--out-dir", str(tmp_path)]
    assert run(argv + out) == 2
    assert "FANOLAB_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["-1", str(2**64)])
def test_env_seed_outside_64_bits_exits_2(env, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FANOLAB_SEED", env)
    assert run(["bound", "normal-mean", "--d", "4", "--n", "10", "--out-dir", str(tmp_path)]) == 2
    assert "FANOLAB_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--design"])
def test_missing_file_exits_2_naming_the_path(flag, tmp_path, capsys):
    missing = str(tmp_path / "no-such-file.csv")
    assert run(["bound", "regression", "--d", "3", "--n", "3", flag, missing,
                "--out-dir", str(tmp_path)]) == 2
    assert missing in capsys.readouterr().err


def test_bound_stores_given_values_only(tmp_path):
    """Defaults are filled in for the computation but not stored: result
    file names and params stay those of the keys given."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 10\nn = 100\n")
    assert run(["bound", "normal-mean", "--config", str(cfg), "--sigma2", "1",
                "--out-dir", str(tmp_path)]) == 0
    js = json.loads(next(tmp_path.glob("normal-mean-*.json")).read_text())
    assert js["params"] == {"d": "10", "n": "100", "sigma2": "1.0"}


# -- property: no input escapes as a traceback -----------------------------------

_PLAUSIBLE = {"mode": ["simple", "integrated"], "design": ["identity", "gaussian"]}
_INTS = ["1", "2", "3", "4", "6", "8", "12"]
_FLOATS = ["0.5", "1", "2", "2.5"]
_INT_KEYS = {k for keys in BOUND_PROBLEMS.values() for k, spec in keys.items()
             if spec.type is int}
_HOSTILE = ["-3", "-1", "0", "1e-310", "1e-300", "1e300", "1.7e308", "nan", "inf", "-inf",
            "abc", "", "/no/such/design.csv", "simple"]
_FOREIGN = sorted({k for keys in BOUND_PROBLEMS.values() for k in keys}
                  | {"sigmaa2", "eps_grid", "seed"})
_SUITE_KEYS = {name: keys for name, (_, keys) in SUITES.items()}
# Small values only, so that every suite that runs finishes in milliseconds.
_SMALL = ["-1", "0", "1", "2", "3", "nan", "abc"]


def _value(draw, key):
    """Mostly a plausible value for the key (sizes up to 12), sometimes a hostile one."""
    plausible = _PLAUSIBLE.get(key, _INTS if key in _INT_KEYS else _FLOATS)
    return draw(st.sampled_from(plausible * (60 // len(plausible)) + _HOSTILE))


def _flag(key):
    return "--" + key.replace("_", "-")


@st.composite
def _argv(draw):
    """(argv, config text or None, FANOLAB_SEED or None) for bound, table or verify."""
    command = draw(st.sampled_from(["bound", "table", "verify"]))
    config = None
    if command == "verify":
        suite = draw(st.sampled_from(sorted(SUITES)))
        argv = ["verify", suite]
        for key in _SUITE_KEYS[suite]:
            # estimator-risk runs for seconds at any valid scale: give it none
            vals = ["-1", "0", "nan", "inf", "abc"] if suite == "estimator-risk" else _SMALL
            argv += [_flag(key), draw(st.sampled_from(vals))]
        foreign = [k for keys in _SUITE_KEYS.values() for k in keys
                   if k not in _SUITE_KEYS[suite]]
        for key in draw(st.lists(st.sampled_from(foreign), max_size=1)):
            argv += [_flag(key), draw(st.sampled_from(_SMALL))]
    else:
        problem = draw(st.sampled_from(sorted(BOUND_PROBLEMS)))
        argv, lines = [command, problem], []
        keys = [k for k in BOUND_PROBLEMS[problem] if draw(st.sampled_from([1, 1, 1, 0]))]
        keys += draw(st.lists(st.sampled_from(_FOREIGN), max_size=1))
        for key in keys:
            if draw(st.booleans()):
                lines.append(f"{key} = {_value(draw, key)}")
            elif key != "seed":
                argv += [_flag(key), _value(draw, key)]
        if command == "table":
            key = draw(st.sampled_from(list(BOUND_PROBLEMS[problem]) * 3 + _FOREIGN))
            vals = [_value(draw, key) for _ in range(draw(st.integers(1, 3)))]
            argv += ["--sweep", f"{key}={','.join(vals)}"]
            if draw(st.booleans()):
                argv += ["--with-risk", draw(st.sampled_from(_SMALL))]
        if lines or draw(st.booleans()):
            junk = draw(st.sampled_from([[]] * 5 + [["no equals sign"]]))
            config = "\n".join(lines + junk) + "\n"
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["1", "5", "-1"] * 3 + _SMALL))]
    env = draw(st.sampled_from([None] * 3 + ["7", "abc", ""]))
    return argv, config, env


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_argv())
def test_cli_never_escapes_with_a_traceback(case):
    argv, config, env = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"FANOLAB_SEED": env} if env is not None else {}), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if env is None:
            os.environ.pop("FANOLAB_SEED", None)
        if config is not None:
            Path(tmp, "run.cfg").write_text(config)
            argv = argv + ["--config", str(Path(tmp, "run.cfg"))]
        argv = argv + (["--out", str(Path(tmp, "t.csv"))] if argv[0] == "table"
                       else ["--out-dir", tmp])
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed flag
            code = exc.code
            assert code == 2
        # verify may also report a failed check (1); only bound exits 3
        assert code in ({0, 1, 2} if argv[0] == "verify" else
                        {0, 2, 3} if argv[0] == "bound" else {0, 2})
