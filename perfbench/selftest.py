"""Self-test of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

Covers the span self-time accounting, the tracer's span nesting, the
output checks, and a whole pass over a fake command list run against a
stand-in ``fanolab.cli`` (failures, exit codes and rerun identity).
"""

import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import tracer
import workloads

NAMES = ["cli.main", "lab.simulate_risk", "streams.stream", "stats.mean_ci"]
LAYERS = ["cli", "lab", "streams", "stats"]
# cli [0,10] > lab [1,7] > (streams [2,3], stats [5,6]); cli [11,12]; wall 13
SPANS = [[0, 0.0, 10.0, -1], [1, 1.0, 7.0, 0], [2, 2.0, 3.0, 1], [3, 5.0, 6.0, 1],
         [0, 11.0, 12.0, -1]]


class SpanArithmetic(unittest.TestCase):
    def test_self_times_and_unattributed_sum_to_wall(self):
        self_s, calls, incl, unattributed, covered = tracer.layer_times(NAMES, LAYERS, SPANS, 13.0)
        self.assertEqual(self_s, {"cli": 5.0, "lab": 4.0, "streams": 1.0, "stats": 1.0})
        self.assertEqual(unattributed, 2.0)
        self.assertEqual(covered, 11.0)
        self.assertEqual(sum(self_s.values()) + unattributed, 13.0)
        self.assertEqual(calls["cli.main"], 2)
        self.assertEqual(incl["lab.simulate_risk"], 6.0)

    def test_layer_metrics(self):
        m = tracer.layer_metrics(NAMES, LAYERS, SPANS, {}, 13.0)
        self.assertEqual(m["streams.stream_calls"], 1)
        self.assertEqual(m["streams.stream_us"], 1e6)
        self.assertEqual(m["stats.mean_ci_us"], 1e6)
        self.assertEqual(m["lab.self_s"], 4.0)
        self.assertEqual(m["cli.self_s"], 5.0)
        self.assertEqual(m["trace.coverage"], 11.0 / 13.0)
        self.assertEqual(m["info.us_per_call"], 0.0)  # no calls: reported as 0

    def test_exact_counts_of_a_span_slice(self):
        counts = {"lab.replicates": 7, "lab.time_s.tail": 0.5}
        exact = tracer.exact_counts(NAMES, SPANS[1:3], counts)
        self.assertEqual(exact["lab.replicates"], 7)
        self.assertEqual(exact["streams.stream_calls"], 1)
        self.assertEqual(exact["info.calls"], 0)
        self.assertNotIn("lab.time_s.tail", exact)

    def test_wrappers_record_nesting(self):
        tr = tracer.Tracer()
        inner = tr.wrap(lambda x: x + 1, "streams.stream", "streams")
        outer = tr.wrap(lambda x: inner(x) * 2, "lab.simulate_risk", "lab")
        self.assertEqual(outer(1), 4)
        self.assertEqual([s[3] for s in tr.spans], [-1, 0])
        wall = tr.spans[0][2] - tr.spans[0][1]
        self_s, *_ = tracer.layer_times(tr.names, tr.layers, tr.spans, wall)
        self.assertTrue(math.isclose(sum(self_s.values()), wall, rel_tol=1e-9))


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.dir)

    def bound(self, problem, value, valid=True):
        _write(self.dir / problem / f"{problem}-abc.json",
               json.dumps({"value": value, "valid": valid}))
        return checks.check_command(("bound", problem), 0, self.dir / problem, 1)

    def test_exact_bound_values(self):
        self.assertIsNone(self.bound("normal-mean", 0.01403623040633889))
        self.assertIsNone(self.bound("regression", 1 / 12))
        self.assertIsNotNone(self.bound("continuum-tail", 0.5000001))
        self.assertIsNotNone(self.bound("discrete-tail", 1 - math.log(2) / math.log(3), False))

    def test_sparse_bound_window(self):
        cmd = ("bound", "sparse-location", "--d", "32", "--s", "4", "--n", "200")
        ref = checks.sparse_reference("sparse-location", checks._params(cmd), 1)
        for value, ok in ((ref, True), (1.005 * ref, True), (0.99 * ref, False),
                          (1.02 * ref, False)):
            _write(self.dir / "s" / "sparse-location-x.json",
                   json.dumps({"value": value, "valid": True}))
            why = checks.check_command(cmd, 0, self.dir / "s", 1)
            self.assertEqual(why is None, ok, (value, why))

    def test_verify_report(self):
        good = "# header\ncheck a: PASS x=1\ncheck b: PASS\nsuite volume: PASS worst=1\n"
        _write(self.dir / "v" / "verify-volume-seed7.txt", good)
        self.assertIsNone(checks.check_command(("verify", "volume"), 0, self.dir / "v", 7))
        _write(self.dir / "v" / "verify-volume-seed7.txt", good.replace("b: PASS", "b: FAIL"))
        self.assertIn("check b", checks.check_command(("verify", "volume"), 0,
                                                      self.dir / "v", 7))
        why = checks.check_command(("verify", "volume"), 1, self.dir / "v", 7)
        self.assertIn("exit code 1", why)
        self.assertIn("check b", why)
        self.assertTrue(checks.is_wrong({"failure": why, "exit": 1}))

    def test_exit_codes(self):
        _write(self.dir / "b" / "regression-x.json", json.dumps({"value": 1 / 12, "valid": False}))
        why = checks.check_command(("bound", "regression"), 3, self.dir / "b", 1)
        self.assertIn("valid=False", why)
        self.assertTrue(checks.is_wrong({"failure": why, "exit": 3}))
        # Correct outputs with an unexpected exit code still fail, and are wrong.
        _write(self.dir / "b" / "regression-x.json", json.dumps({"value": 1 / 12, "valid": True}))
        why = checks.check_command(("bound", "regression"), 1, self.dir / "b", 1)
        self.assertEqual(why, "exit code 1, expected 0")
        self.assertTrue(checks.is_wrong({"failure": why, "exit": 1}))
        # A refused input is a failed command, not a wrong result.
        why = checks.check_command(("bound", "regression"), 2, self.dir / "b", 1)
        self.assertIn("exit code 2", why)
        self.assertFalse(checks.is_wrong({"failure": why, "exit": 2}))

    def test_table_risk_column(self):
        cmd = ("table", "normal-mean", "--sweep", "n=100", "--d", "10")
        head = "# schema\npipeline,bound,valid,risk_ci_hi\n"
        _write(self.dir / "t" / "table.csv", head + "nm,0.01403623040633889,true,0.02\n")
        self.assertIsNone(checks.check_command(cmd, 0, self.dir / "t", 1))
        _write(self.dir / "t" / "table.csv", head + "nm,0.01403623040633889,true,0.01\n")
        self.assertIn("risk_ci_hi", checks.check_command(cmd, 0, self.dir / "t", 1))

    def test_digest_ignores_manifests(self):
        d = self.dir / "dig"
        _write(d / "r.json", "1")
        first = checks.output_digest(d)
        _write(d / "manifest-r.json", "timestamp")
        self.assertEqual(checks.output_digest(d), first)
        _write(d / "r.json", "2")
        self.assertNotEqual(checks.output_digest(d), first)


FAKE_CLI = """
import sys
from pathlib import Path
args = sys.argv[1:]
out = Path(args[args.index("--out-dir") + 1])
seed = args[args.index("--seed") + 1]
if args[1] == "refused":
    sys.exit(2)
verdict = "FAIL" if args[1] == "bad" else "PASS"
(out / f"verify-{args[1]}-seed{seed}.txt").write_text(
    f"check c: {verdict} extra={EXTRA}\\nsuite {args[1]}: {verdict}\\n")
(out / "manifest-x.json").write_text(str(__import__("time").time()))
sys.exit(1 if verdict == "FAIL" else 0)
"""


class FakeCommandList(unittest.TestCase):
    def test_pass_counts_failures_and_checks_rerun_identity(self):
        root = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, root)
        cli = _write(root / "src" / "fanolab" / "cli.py", FAKE_CLI.replace("EXTRA", "1"))
        _write(root / "src" / "fanolab" / "__init__.py", "")
        fake = workloads.Workload(name="fake", throughput="x", items=1, commands=(
            ("verify", "good"), ("verify", "bad"), ("verify", "refused")))
        store = run.DigestStore(root / "digests.json", "k")
        saved = run.SRC
        run.SRC = root / "src"

        def one_pass(n):
            results = run.run_list(fake, 5, root / f"pass{n}")
            run.judge(fake, 5, root / f"pass{n}", results, store)
            return results

        try:
            results = one_pass(0)
            self.assertEqual([r["exit"] for r in results], [0, 1, 2])
            self.assertTrue(all(r["wall_s"] > 0 and r["rss_mb"] > 0 for r in results))
            self.assertIsNone(results[0]["failure"])
            self.assertIn("FAIL", results[1]["failure"])
            self.assertIn("exit code 2", results[2]["failure"])
            # A verify FAIL makes the run incorrect; a refused input only fails.
            self.assertEqual(run.verdict([[r] for r in results]), (False, 3, 2))
            self.assertEqual(run.verdict([[results[0]], [results[2]]]), (True, 2, 1))
            again = one_pass(1)
            self.assertIsNone(again[0]["failure"])  # same outputs again
            # A command fails if any of its runs failed.
            self.assertEqual(run.verdict([[results[0], again[0]], [results[2], again[2]]]),
                             (True, 2, 1))
            cli.write_text(FAKE_CLI.replace("EXTRA", "2"))
            self.assertIn("differ", one_pass(2)[0]["failure"])

            counted = run.run_list(fake, 5, root / "pass3")
            store = run.DigestStore(root / "counts.json", "k")
            for counts, ok in (({"info.calls": 3}, True), ({"info.calls": 3}, True),
                               ({"info.calls": 4}, False)):
                counted[0]["exact_counts"] = counts
                run.judge(fake, 5, root / "pass3", counted, store)
                self.assertEqual(counted[0]["failure"] is None, ok)
            self.assertIn("exact counts differ", counted[0]["failure"])
            self.assertTrue(checks.is_wrong(counted[0]))
        finally:
            run.SRC = saved


if __name__ == "__main__":
    sys.exit(unittest.main())
