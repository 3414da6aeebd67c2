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
from fanolab.results import MinimaxBound
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


def _tail_newton_step(k: int, n: int, conf: float, side: int, x: float) -> float:
    """The Newton correction, in mpmath, that would move x onto the lower
    (side 0) or upper (side 1) endpoint: in the count k or, for the upper
    endpoint, in the mirrored count n - k, P(X >= k; n, p) = (1 - conf)/2,
    with the tail summed term by term."""
    import mpmath as mp

    with mp.workdps(30):
        a = (1 - mp.mpf(conf)) / 2
        k, p = (k, mp.mpf(x)) if side == 0 else (n - k, 1 - mp.mpf(x))
        term = mp.exp(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
                      + k * mp.log(p) + (n - k) * mp.log1p(-p))
        slope = k * term / p  # d/dp P(X >= k)
        tail, j = mp.mpf(0), k
        while j <= n and term > tail * mp.mpf(10) ** -30:
            tail += term
            term *= mp.mpf(n - j) / (j + 1) * p / (1 - p)
            j += 1
        step = (a - tail) / slope
        return float(step if side == 0 else -step)


def test_clopper_pearson_matches_beta_ppf():
    """Every endpoint lies within 1e-13 relative of scipy.stats.beta.ppf or,
    where beta.ppf is farther off than that (its upper endpoints at k <= 3
    and n >= 10**6 and some at n >= 10**6 and confidence <= 0.95), within
    1e-13 of the root that a Newton step in mpmath finds from it."""
    from scipy import stats as st

    cases = _interval_cases() + [(k, 3 * 10**6, conf) for conf in CONFIDENCES
                                 for k in (0, 1, 2, 3, 1_500_000, 3 * 10**6 - 1, 3 * 10**6)]
    k, n, conf = (np.array(col) for col in zip(*cases))
    alpha = 1.0 - conf
    with np.errstate(invalid="ignore"):
        want = np.stack([np.where(k == 0, 0.0, st.beta.ppf(alpha / 2, k, n - k + 1)),
                         np.where(k == n, 1.0, st.beta.ppf(1 - alpha / 2, k + 1, n - k))], 1)
    got = np.array([clopper_pearson(*case) for case in cases])
    off = np.argwhere(np.abs(got - want) > 1e-13 * want)
    for i, side in off:
        step = _tail_newton_step(*cases[i], side, got[i, side])
        assert abs(step) <= 1e-13 * got[i, side], (cases[i], side, got[i, side], step)


def _ulps(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


def test_suite_intervals_match_beta_ppf_to_4_ulp():
    """The endpoints that verify volume and verify estimator-risk compute lie
    within 4 ulp of scipy.stats.beta.ppf, and the one a report prints, the
    estimator-risk tail's, is bit-equal to it."""
    from scipy import stats as st

    for k, n, conf in SUITE_CALLS:
        alpha = 1.0 - conf
        lo, hi = clopper_pearson(k, n, conf)
        assert _ulps(lo, st.beta.ppf(alpha / 2, k, n - k + 1)) <= 4, (k, n, conf)
        assert _ulps(hi, st.beta.ppf(1 - alpha / 2, k + 1, n - k)) <= 4, (k, n, conf)
    assert clopper_pearson(18986, 20000, 0.99) == (st.beta.ppf(0.005, 18986, 1015),
                                                   st.beta.ppf(0.995, 18987, 1014))


@pytest.mark.parametrize("conf", CONFIDENCES)
def test_edge_endpoints_match_their_closed_forms(conf):
    """With a = (1 - conf)/2, the endpoints whose tail equation has a closed
    form: q**n = a at k = 0, p**n = a at k = n, 1 - q**n = a at k = 1 and
    1 - p**n = a at k = n - 1, each to 4 ulp."""
    a = (1.0 - conf) / 2
    for n in [*range(1, 61), 4096, 10**6, 3 * 10**6, 2**53, 2**63]:
        forms = [(clopper_pearson(0, n, conf)[1], -math.expm1(math.log(a) / n)),
                 (clopper_pearson(n, n, conf)[0], math.exp(math.log(a) / n)),
                 (clopper_pearson(1, n, conf)[0], -math.expm1(math.log1p(-a) / n)),
                 (clopper_pearson(n - 1, n, conf)[1], math.exp(math.log1p(-a) / n))]
        for got, want in forms:
            assert _ulps(got, want) <= 4, (n, got, want)


def test_interval_size_limit_is_the_stated_rule():
    """An interval is refused, naming n, once n reaches 2**512 or the variance
    k(n - k)/n passes 10**10, and answered up to there."""
    n = 4 * 10**10  # k(n - k)/n = 10**10 at k = n/2
    lo, hi = clopper_pearson(n // 2, n)
    assert 0.4999 < lo < 0.5 < hi < 0.5001
    assert 0.0 < clopper_pearson(7, 2**512 - 1)[1] < 1e-150
    for k, n in ((n // 2 + 2, n + 4), (7, 2**512)):
        with pytest.raises(DomainError, match=r"\bn\b.*too large"):
            clopper_pearson(k, n)


def test_intervals_at_a_confidence_next_to_one():
    """At a confidence 2**-53 below 1, where 1/2 + confidence/2 rounds to 1,
    the normal quantile is inf and each tail equation still has its root."""
    conf = 1.0 - 2.0**-53
    assert mean_ci([1.0, 2.0], conf) == (1.5, (-math.inf, math.inf))
    a = (1.0 - conf) / 2
    lo, hi = clopper_pearson(3, 10, conf)
    pmf = [[math.comb(10, j) * p**j * (1 - p) ** (10 - j) for j in range(11)] for p in (lo, hi)]
    assert math.fsum(pmf[0][3:]) == pytest.approx(a, rel=1e-12)
    assert math.fsum(pmf[1][:4]) == pytest.approx(a, rel=1e-12)


def test_suite_endpoints_take_few_tail_evaluations(monkeypatch):
    """Each endpoint of SUITE_CALLS takes at most 8 evaluations of the log
    tail, and at most 5 on average, so a Newton iteration that slid into a
    slower fallback fails here."""
    from fanolab import stats

    calls = []
    log_tail = stats._log_tail
    monkeypatch.setattr(stats, "_log_tail", lambda *args: calls.append(args) or log_tail(*args))
    counts = []
    for k, n, conf in SUITE_CALLS:
        for side in (0, 1):
            calls.clear()
            stats._tail_root(k if side == 0 else n - k, n, (1.0 - conf) / 2)
            counts.append(len(calls))
    assert max(counts) <= 8 and sum(counts) <= 5 * len(counts), counts


@pytest.mark.parametrize("conf", CONFIDENCES)
def test_mean_ci_is_bit_identical_to_norm_ppf(conf):
    """The interval is the one norm.ppf's quantile gives, to the bit at 0.99,
    the lab's confidence, and with a quantile within 1 ulp of it at the others."""
    from scipy import stats as st

    z = float(st.norm.ppf(0.5 + conf / 2))
    quantiles = [z] if conf == 0.99 else [math.nextafter(z, 0.0), z, math.nextafter(z, 4.0)]
    g = np.random.Generator(np.random.Philox(key=14))
    for values in ([-1.0, 1.0], g.standard_normal(7), g.exponential(size=20000)):
        values = np.asarray(values)
        m = float(values.mean())
        halves = [q * float(values.std(ddof=1)) / math.sqrt(values.size) for q in quantiles]
        assert mean_ci(values, conf) in [(m, (m - half, m + half)) for half in halves]


def _run_fresh(code: str) -> None:
    """Runs code in a fresh interpreter that imports this checkout's fanolab."""
    src = str(Path(fanolab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_out_until_an_interval_is_needed():
    """import fanolab and fanolab.cli load no scipy module, and computing the
    intervals loads none either: they are computed in the library."""
    _run_fresh("""
import sys
import fanolab, fanolab.cli
assert not [m for m in sys.modules if m.startswith("scipy")], sorted(sys.modules)
from fanolab.stats import clopper_pearson, mean_ci
clopper_pearson(3, 10)
mean_ci([1.0, 2.0, 4.0])
assert not [m for m in sys.modules if m.startswith("scipy")], sorted(sys.modules)
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


# One command of each kind, at small sizes: a scalar bound, a design bound, a
# table with simulated risk, and every verify suite.
RUNTIME_COMMANDS = [
    ["bound", "normal-mean", "--d", "10", "--n", "100"],
    ["bound", "compressed-sensing", "--d", "32", "--s", "4", "--n", "20", "--design", "gaussian"],
    ["table", "regression", "--sweep", "sigma2=1,2", "--d", "9", "--n", "9",
     "--design", "identity", "--with-risk", "200"],
    ["verify", "prop1-exhaustive", "--instances", "100"],
    ["verify", "decoder-oracle", "--instances", "50"],
    ["verify", "quadrature"],
    ["verify", "volume", "--seeds", "2", "--points", "20000"],
    ["verify", "grid-partition", "--level", "6"],
    ["verify", "estimator-risk", "--reps-scale", "0.01"],
]


def _run_commands(out: Path, refuse_scipy: bool) -> dict[str, bytes]:
    """Runs RUNTIME_COMMANDS at seed 1 in a fresh interpreter, where a
    sys.meta_path finder refuses every scipy import if refuse_scipy, and
    returns the result files they wrote, manifests aside."""
    _run_fresh(f"""
import pathlib, sys
if {refuse_scipy!r}:
    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ModuleNotFoundError(f"{{name}} is refused", name=name)
    sys.meta_path.insert(0, RefuseScipy())
    try:
        import scipy.special
    except ModuleNotFoundError:
        pass
    else:
        raise AssertionError("the finder let scipy in")
from fanolab import cli
out = pathlib.Path({str(out)!r})
for i, argv in enumerate({RUNTIME_COMMANDS!r}):
    dest = ["--out", str(out / f"table-{{i}}.csv")] if argv[0] == "table" else ["--out-dir", str(out)]
    assert cli.main(argv + ["--seed", "1"] + dest) == 0, argv
assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"], sorted(sys.modules)
""")
    return {f.name: f.read_bytes() for f in out.iterdir() if not f.name.startswith("manifest-")}


def test_commands_run_with_scipy_unimportable(tmp_path):
    """No command imports scipy: with every scipy import refused, one command
    of each kind exits 0 and writes the same bytes as with scipy importable."""
    (tmp_path / "refused").mkdir()
    (tmp_path / "importable").mkdir()
    refused = _run_commands(tmp_path / "refused", refuse_scipy=True)
    # each bound writes a JSON and a CSV, a table its CSV, a suite its report
    assert len(refused) == len(RUNTIME_COMMANDS) + sum(a[0] == "bound" for a in RUNTIME_COMMANDS)
    assert refused == _run_commands(tmp_path / "importable", refuse_scipy=False)


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


def test_cli_import_and_help_load_argparse_alone():
    """import fanolab.cli loads no library module and none of dataclasses,
    json, hashlib or numpy; --help, for the program and each command, exits
    0 without loading a library module either."""
    _run_fresh("""
import sys
before = set(sys.modules)
import fanolab.cli
loaded = set(sys.modules) - before
assert not [m for m in loaded if m.startswith("fanolab.") and m != "fanolab.cli"], sorted(loaded)
assert not loaded & {"dataclasses", "json", "hashlib", "numpy"}, sorted(loaded)
for argv in (["--help"], ["bound", "--help"], ["verify", "--help"], ["table", "--help"]):
    try:
        fanolab.cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    else:
        raise AssertionError(f"{argv} did not exit")
loaded = set(sys.modules) - before
assert not [m for m in loaded if m.startswith("fanolab.") and m != "fanolab.cli"], sorted(loaded)
""")


def test_oracle_and_risk_suites_load_no_continuum(tmp_path):
    """The suites that sample no volume and build no grid leave fanolab.continuum
    and its worker threads (concurrent.futures) unloaded."""
    _run_fresh(f"""
import sys
before = set(sys.modules)
from fanolab import cli
for argv in (["prop1-exhaustive", "--instances", "100"],
             ["decoder-oracle", "--instances", "50"],
             ["quadrature"],
             ["estimator-risk", "--reps-scale", "0.01"]):
    assert cli.main(["verify", *argv, "--seed", "1", "--out-dir", {str(tmp_path)!r}]) == 0, argv
    loaded = set(sys.modules) - before
    assert not loaded & {{"fanolab.continuum", "concurrent.futures"}}, (argv, sorted(loaded))
""")


def test_volume_suite_loads_continuum_and_no_thread_pool(tmp_path):
    """verify volume samples through fanolab.continuum, whose chunks run in
    forked worker processes: neither a thread pool (concurrent.futures) nor
    a queue of buffers is loaded."""
    _run_fresh(f"""
import sys
before = set(sys.modules)
from fanolab import cli
argv = ["verify", "volume", "--seeds", "2", "--points", "20000", "--seed", "1"]
assert cli.main(argv + ["--out-dir", {str(tmp_path)!r}]) == 0
loaded = set(sys.modules) - before
assert "fanolab.continuum" in loaded
assert not loaded & {{"concurrent.futures", "queue"}}, sorted(loaded)
""")


@pytest.mark.parametrize("argv", DESIGN_COMMANDS, ids=lambda argv: argv[1])
def test_design_commands_load_the_bound_module_before_numpy(argv, tmp_path):
    """A design command imports fanolab.minimax before the design imports
    numpy: sys.modules keeps insertion order, so the positions show the order."""
    _run_fresh(f"""
import sys
from fanolab import cli
assert cli.main({argv!r} + ["--out-dir", {str(tmp_path)!r}]) == 0
order = list(sys.modules)
assert order.index("fanolab.minimax") < order.index("numpy"), order
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
        MinimaxBound(value=-1e-9, pipeline="x")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_bound_records_reject_non_finite_value(value):
    """An overflowed formula (say, sigma2 near the float maximum) is refused,
    not reported as a valid infinite bound."""
    with pytest.raises(DomainError, match="finite"):
        MinimaxBound(value=value, pipeline="x")


def test_result_records_are_frozen_with_readonly_maps():
    res = MinimaxBound(value=0.5, pipeline="discrete-tail", extras={"a": 1})
    with pytest.raises(Exception):
        res.extras["a"] = 2
    with pytest.raises(Exception):
        res.value = 1.0
