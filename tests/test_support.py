"""Streams, intervals, accumulation, and the result records."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fanolab
from fanolab.info import DomainError
from fanolab.results import BoundResult, MinimaxBound
from fanolab.stats import clopper_pearson, mean_ci, pairwise_sum
from fanolab.streams import stream


def test_stream_keyed_determinism():
    a = stream(42, 7).standard_normal(16)
    b = stream(42, 7).standard_normal(16)
    assert np.array_equal(a, b)
    c = stream(42, 8).standard_normal(16)
    d = stream(43, 7).standard_normal(16)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_order_independent():
    """Substreams are independent objects: consuming one never shifts another."""
    g1 = stream(5, 1)
    _ = g1.standard_normal(1000)
    fresh = stream(5, 2).standard_normal(4)
    assert np.array_equal(fresh, stream(5, 2).standard_normal(4))


def test_stream_negative_and_huge_ids():
    """A stream is SFC64 seeded by the SeedSequence of (seed, stream_id mod 2**64)."""
    for stream_id, word in ((-1, 2**64 - 1), (2**70 + 3, 3)):
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence([1, word])))
        assert np.array_equal(stream(1, stream_id).random(8), want.random(8))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0])
def test_stream_refuses_seeds_outside_the_key_word(seed):
    """A seed is one 64-bit word of a stream's key: none is wrapped onto another."""
    with pytest.raises(DomainError, match=r"\bseed\b"):
        stream(seed)


def test_stream_accepts_every_64_bit_seed():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert stream(seed).random() == stream(int(seed)).random()


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = clopper_pearson(100, 100)
    assert 0.9 < lo < 1 and hi == 1.0
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)
    assert clopper_pearson(np.int64(3), np.int64(10)) == clopper_pearson(3, 10)


def test_clopper_pearson_contains_p_hat():
    for k, n in [(1, 10), (5, 10), (250, 1000), (999, 1000)]:
        lo, hi = clopper_pearson(k, n, 0.99)
        assert lo <= k / n <= hi


def test_clopper_pearson_coverage_exact_small_n():
    """Exhaustive coverage check at n=12, p=0.37: at least nominal."""
    from scipy import stats as st

    n, p, conf = 12, 0.37, 0.95
    covered = 0.0
    for k in range(n + 1):
        lo, hi = clopper_pearson(k, n, conf)
        if lo <= p <= hi:
            covered += st.binom.pmf(k, n, p)
    assert covered >= conf


def test_mean_ci_basic():
    m, (lo, hi) = mean_ci(np.array([1.0, 2.0, 3.0, 4.0]))
    assert m == 2.5
    assert lo < 2.5 < hi


def test_mean_ci_degenerate():
    m, ci = mean_ci(np.array([7.0]))
    assert m == 7.0
    assert ci == (0.0, math.inf)


CONFIDENCES = (0.9, 0.95, 0.99, 0.995, 0.999)
# (k, n, confidence) of every interval that `verify volume --seeds 10` and
# `verify estimator-risk` compute at seed 1
SUITE_CALLS = [(k, 10**6, 0.995) for k in (
    163654, 163974, 164027, 164128, 164132, 164232, 164352, 164508, 164584,
    164614, 164623, 164632, 164751, 164753, 164800, 164851, 164857, 164960,
    164968, 165246, 522947, 523020, 523115, 523182, 523199, 523322, 523333,
    523403, 523418, 523441, 523466, 523573, 523647, 523764, 523967, 524025,
    524027, 524054, 524178, 784762, 784818, 784941, 784949, 785042, 785137,
    785168, 785170, 785301, 785357, 785376, 785434, 785471, 785539, 785663,
    785668, 785741, 785753, 785859, 786289)] + [(18986, 20000, 0.99)]


def _interval_cases():
    g = np.random.Generator(np.random.Philox(key=14))
    cases = list(SUITE_CALLS)
    for conf in CONFIDENCES:
        cases += [(k, n, conf) for n in range(1, 61) for k in range(n + 1)]
        for n in (4096, 10**6, 2 * 10**6):
            ks = {0, 1, n - 1, n} | set(g.integers(0, n + 1, size=200).tolist())
            cases += [(k, n, conf) for k in sorted(ks)]
    return cases


def test_clopper_pearson_is_bit_identical_to_beta_ppf():
    """betaincinv gives the same bits as the scipy.stats.beta.ppf route it
    replaced, so no interval, and no report built from one, moves."""
    from scipy import stats as st

    cases = _interval_cases()
    k, n, conf = (np.array(col) for col in zip(*cases))
    alpha = 1.0 - conf
    with np.errstate(invalid="ignore"):
        lo = np.where(k == 0, 0.0, st.beta.ppf(alpha / 2, k, n - k + 1))
        hi = np.where(k == n, 1.0, st.beta.ppf(1 - alpha / 2, k + 1, n - k))
    got = np.array([clopper_pearson(*case) for case in cases])
    assert np.array_equal(got[:, 0], lo) and np.array_equal(got[:, 1], hi)


@pytest.mark.parametrize("conf", CONFIDENCES)
def test_mean_ci_is_bit_identical_to_norm_ppf(conf):
    from scipy import stats as st

    g = np.random.Generator(np.random.Philox(key=14))
    for values in ([-1.0, 1.0], g.standard_normal(7), g.exponential(size=20000)):
        values = np.asarray(values)
        m = float(values.mean())
        half = (float(st.norm.ppf(0.5 + conf / 2)) * float(values.std(ddof=1))
                / math.sqrt(values.size))
        assert mean_ci(values, conf) == (m, (m - half, m + half))


def _run_fresh(code: str) -> None:
    """Runs code in a fresh interpreter that imports this checkout's fanolab."""
    src = str(Path(fanolab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_out_until_an_interval_is_needed():
    """import fanolab and fanolab.cli load no scipy module; the intervals
    then load scipy.special only, never scipy.stats."""
    _run_fresh("""
import sys
import fanolab, fanolab.cli
assert not [m for m in sys.modules if m.startswith("scipy")], sorted(sys.modules)
from fanolab.stats import clopper_pearson, mean_ci
clopper_pearson(3, 10)
mean_ci([1.0, 2.0, 4.0])
assert "scipy.special" in sys.modules
assert not [m for m in sys.modules if m.startswith(("scipy.stats", "scipy.integrate"))]
""")


def test_oracle_verify_suites_load_no_scipy(tmp_path):
    """The prop1-exhaustive, decoder-oracle and quadrature suites check
    against enumeration and a numpy Gauss-Legendre rule, so they load no
    scipy module."""
    _run_fresh(f"""
import sys
from fanolab import cli
for argv in (["prop1-exhaustive", "--instances", "100"],
             ["decoder-oracle", "--instances", "50"],
             ["quadrature"]):
    assert cli.main(["verify", *argv, "--out-dir", {str(tmp_path)!r}]) == 0, argv
assert not [m for m in sys.modules if m.startswith("scipy")], sorted(sys.modules)
""")


# The commands whose bound is a closed form on Python numbers, and the two whose
# pipeline takes a design matrix.
SCALAR_COMMANDS = [
    ["bound", "normal-mean", "--d", "10", "--n", "100"],
    ["bound", "sparse-location", "--d", "32", "--s", "4", "--n", "200"],
    ["bound", "discrete-tail", "--card", "6", "--n-max", "2", "--n-min", "2", "--t", "1",
     "--mi", "0"],
    ["bound", "continuum-tail", "--r", "2", "--t", "1", "--d", "2", "--mi", "0"],
    ["table", "sparse-location", "--sweep", "d=16,32,64", "--s", "4", "--n", "200"],
]
DESIGN_COMMANDS = [
    ["bound", "compressed-sensing", "--d", "32", "--s", "4", "--n", "20", "--design", "gaussian"],
    ["bound", "regression", "--d", "9", "--n", "9", "--design", "identity"],
]


def test_bound_runs_load_no_scipy(tmp_path):
    """No bound pipeline calls scipy, so a bound run, its manifest included,
    loads no scipy module. Each manifest records the versions of what the run
    had loaded: fanolab alone after the scalar bounds, and numpy too once a
    design pipeline has run."""
    bounds = [argv[1:] for argv in SCALAR_COMMANDS + DESIGN_COMMANDS if argv[0] == "bound"]
    _run_fresh(f"""
import json, pathlib, sys
from fanolab import cli
out = pathlib.Path({str(tmp_path)!r})
for argv in {bounds!r}:
    assert cli.main(["bound", *argv, "--out-dir", str(out)]) == 0, argv
assert not [m for m in sys.modules if m.startswith("scipy")], sorted(sys.modules)
manifests = [json.loads(m.read_text()) for m in out.glob("manifest-*.json")]
assert len(manifests) == 6
for m in manifests:
    design = m["problem"] in ("compressed-sensing", "regression")
    assert sorted(m["versions"]) == ["fanolab", "numpy"] if design else ["fanolab"], m
""")


def test_import_and_scalar_commands_load_no_numpy(tmp_path):
    """import fanolab, import fanolab.cli and the five scalar commands leave
    numpy unloaded."""
    _run_fresh(f"""
import sys
import fanolab
assert "numpy" not in sys.modules
from fanolab import cli
assert "numpy" not in sys.modules
for argv in {SCALAR_COMMANDS!r}:
    out = ["--out-dir", {str(tmp_path)!r}] if argv[0] == "bound" \
        else ["--out", {str(tmp_path / "table.csv")!r}]
    assert cli.main(argv + out) == 0, argv
    assert "numpy" not in sys.modules, argv
""")


@pytest.mark.parametrize("argv", DESIGN_COMMANDS, ids=lambda argv: argv[1])
def test_design_commands_load_numpy(argv, tmp_path):
    _run_fresh(f"""
import sys
from fanolab import cli
assert "numpy" not in sys.modules
assert cli.main({argv!r} + ["--out-dir", {str(tmp_path)!r}]) == 0
assert "numpy" in sys.modules
""")


def test_package_attributes_load_on_first_use():
    """Each name of __all__ is the object its module exports, dir() lists
    them all, and an unknown name is refused by name."""
    for module in fanolab._MODULES:
        mod = getattr(fanolab, module)
        for name in mod.__all__:
            assert getattr(fanolab, name) is getattr(mod, name), name
    assert set(fanolab.__all__) <= set(dir(fanolab))
    with pytest.raises(AttributeError, match="no_such_name"):
        fanolab.no_such_name


def test_star_import_in_a_fresh_process():
    _run_fresh("""
from fanolab import *
import fanolab
names = dict(globals())
assert all(names[n] is getattr(fanolab, n) for n in fanolab.__all__)
assert "normal_mean_bound" in names and "mc_volume_ratio" in names
""")


def test_pairwise_sum_matches_fsum():
    g = np.random.Generator(np.random.Philox(key=1))
    vals = (g.random(1001) * 1e6 - 5e5).tolist()
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-12)
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.5]) == 3.5


def test_pairwise_sum_deterministic_order():
    vals = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert pairwise_sum(vals) == pairwise_sum(list(vals))


def test_bound_result_rejects_negative():
    with pytest.raises(ValueError):
        BoundResult(value=-0.1, valid=True)
    with pytest.raises(ValueError):
        MinimaxBound(value=-1e-9, pipeline="x")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_bound_records_reject_non_finite_value(value):
    """An overflowed formula (say, sigma2 near the float maximum) is refused,
    not reported as a valid infinite bound."""
    with pytest.raises(DomainError, match="finite"):
        BoundResult(value=value, valid=True)
    with pytest.raises(DomainError, match="finite"):
        MinimaxBound(value=value, pipeline="x")


def test_result_records_are_frozen_with_readonly_maps():
    res = BoundResult(value=0.5, valid=True, ingredients={"a": 1})
    with pytest.raises(Exception):
        res.ingredients["a"] = 2
    with pytest.raises(Exception):
        res.value = 1.0
