"""Verify suites as check records: the one report formatter and the rules
that the suites apply."""

import pytest

from fanolab.verify import Check, report, volume


def test_report_lines_verdict_and_worst_margin():
    """The verdict is that every check passed, whatever the margins say; the
    worst margin is the smallest one carried, in check order."""
    checks = [Check("a", True, {"k": 3, "x": 0.5, "s": "1/3"}, 0.25),
              Check("b", False),
              Check("c", True, {"errs": "['0.1']"}, 0.125)]
    text, ok = report("demo", 7, checks)
    assert not ok
    assert text == ("# fanolab verify suite=demo seed=7 schema=fanolab-verify-v1\n"
                    "check a: PASS k=3 x=0.5 s=1/3\n"
                    "check b: FAIL\n"
                    "check c: PASS errs=['0.1']\n"
                    "suite demo: FAIL worst_margin=0.125\n")


def test_report_passes_when_every_check_passes():
    text, ok = report("demo", 1, [Check("a", True, {}, -0.5), Check("b", True)])
    assert ok and text.endswith("suite demo: PASS worst_margin=-0.5\n")


@pytest.mark.parametrize("seeds", [1, 2, 3])
def test_volume_never_forgives_every_run_failing(seeds):
    """Up to 3 failed runs pass, but not when they are all of the runs."""
    checks = volume(5, True, seeds=seeds, points=10_000)
    assert [c.fields["failures"] for c in checks] == [f"{seeds}/{seeds}"] * 3
    assert not any(c.ok for c in checks)
