"""The reach gate (``tests/reach.py``): its run on the product paths, and
its rules on small sources with given executed lines."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from reach import REASONS, evidence_errors, functions, judge

ROOT = Path(__file__).resolve().parents[1]

SOURCE = textwrap.dedent('''\
    def f(x):
        """Doc."""
        if x < 0:
            y = -x
            raise ValueError(x)
        try:
            y = 1 / x
        except ZeroDivisionError:
            y = 0
        return y

    class C:
        def g(self):
            return 1
''')
RUN = {3, 6, 7, 10}  # f with x > 0; C.g never called


def _judge(hits, reasons):
    return judge(functions(SOURCE, "m"), {"m": hits}, reasons)


def test_raise_ended_branches_and_except_bodies_are_refusals():
    problems, counts = _judge(RUN | {14}, {})
    assert problems == []
    assert counts == dict(statements=8, plain=0, refusals=3, listed=0)


def test_an_unreached_plain_statement_is_reported_with_its_line():
    problems, _ = _judge(RUN - {10}, {})
    assert problems == [
        "unlisted: m.f (line 1) leaves lines 10 unreached",
        "unlisted: m.C.g (line 13) leaves lines 14 unreached",
    ]


def test_a_listed_function_reached_fully_is_stale():
    problems, counts = _judge(RUN | {14}, {"m.C.g": "criterion 1"})
    assert problems == ["stale: m.C.g (line 13) is reached fully"]
    assert counts["listed"] == 1


def test_a_reason_must_name_a_function_and_cite_evidence():
    problems, _ = _judge(RUN | {14}, {"m.h": "the console entry point"})
    assert problems == ["unknown: m.h names no function in src/dibvp"]
    assert evidence_errors("public API") == [
        "cites no criterion, test, Direction or entry point"]
    assert evidence_errors("tests/test_reach.py::test_nothing_here") == [
        "names no test tests/test_reach.py::test_nothing_here"]
    assert evidence_errors(
        "tests/test_reach.py::test_a_listed_function_reached_fully_is_stale") == []
    assert all(evidence_errors(reason) == [] for reason in REASONS.values())


def test_the_product_paths_leave_no_unlisted_or_stale_function():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "tests/reach.py"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "; 0 problems (" in run.stdout
