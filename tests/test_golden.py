"""Golden reports: every CLI command's exit code and report bytes, pinned.

Each case runs one command in-process on a scheme file stored under
``tests/golden/schemes`` and compares the result with
``tests/golden/<scheme>.<case>.json``.  ``meta`` (wall clock) is dropped
and ``config.scheme`` is reduced to the file name, so the pinned bytes
are exactly the part of a report that the CLI promises to keep stable.
Grids are small so the whole file runs in a few seconds.

A change that means to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and commits them together with the change.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from dibvp.cli import run_command
from dibvp.core import SchemeDef, lax_wendroff, leap_frog, save_scheme, upwind

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMES = GOLDEN / "schemes"


def _system_upwind() -> SchemeDef:
    """Symmetric 2x2 system advected leftward (r = 1, p = 0)."""
    A = np.array([[0.5, 0.25], [0.25, 0.5]])
    return SchemeDef(
        N=2, r=1, p=0, q=0, s=0, lam=1.0,
        interior=np.stack([A, np.eye(2) - A])[:, None],
        boundary=np.zeros((1, 1, 2, 2, 2)),
        label="system-upwind",
    )


# name -> scheme that regenerate() writes to schemes/<name>.json
SCHEME_SOURCES = {
    "upwind": lambda: upwind(0.5, 1.0),
    "lw_extrap": lambda: lax_wendroff(1.0, 0.5, boundary="extrapolation"),
    "leapfrog": lambda: leap_frog(0.5, 1.0),
    "system": _system_upwind,
    "upwind_unstable": lambda: upwind(0.5, 2.4),
}

# case -> command line after "--scheme <file>"; grids kept small
COMMANDS = {
    "check-cauchy": ["check-cauchy", "--grid-ntheta", "64"],
    "check-glancing": ["check-glancing", "--grid-ntheta", "64"],
    "check-uklc": ["check-uklc", "--grid-ntheta", "16",
                   "--grid-radii", "0.1,0.001"],
    "classify-blocks": ["classify-blocks", "--z-angle", "0.7"],
    "sbp-decompose": ["sbp-decompose"],
    "simulate": ["simulate", "--n-max", "40", "--sites", "16", "--seed", "3"],
    "verify-thm1": ["verify", "--estimate", "thm1", "--t-end", "1",
                    "--grid-refinements", "0.1,0.05", "--grid-gammas", "0.1,1"],
    "verify-semigroup": ["verify", "--estimate", "semigroup", "--t-end", "1",
                         "--grid-refinements", "0.1,0.05"],
    "packet-experiment": ["packet-experiment", "--xi", "0.5", "--Ts", "1,2",
                          "--dts", "0.1"],
}

# leap-frog's thm1 run repeats the 256-point glancing scan (about 1 s);
# check-glancing and check-uklc already pin that scheme's symbol side
CASES = [
    (s, c) for s in SCHEME_SOURCES for c in COMMANDS
    if (s, c) != ("leapfrog", "verify-thm1")
]


def render(scheme_name: str, case: str) -> str:
    """Run one case and return its normalised outcome as JSON text."""
    path = SCHEMES / f"{scheme_name}.json"
    argv = [COMMANDS[case][0], "--scheme", str(path), *COMMANDS[case][1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    report = None
    if out.getvalue():
        report = json.loads(out.getvalue())
        del report["meta"]
        report["config"]["scheme"] = path.name
    outcome = {
        "exit": code,
        "report": report,
        "stderr": err.getvalue().replace(str(path), path.name),
    }
    return json.dumps(outcome, indent=2, sort_keys=True, allow_nan=False) + "\n"


def golden_path(scheme_name: str, case: str) -> Path:
    return GOLDEN / f"{scheme_name}.{case}.json"


@pytest.mark.parametrize("scheme_name,case", CASES,
                         ids=[f"{s}.{c}" for s, c in CASES])
def test_report_matches_golden(scheme_name, case):
    expected = golden_path(scheme_name, case).read_text()
    assert render(scheme_name, case) == expected


def regenerate() -> None:
    SCHEMES.mkdir(parents=True, exist_ok=True)
    for name, make in SCHEME_SOURCES.items():
        save_scheme(make(), SCHEMES / f"{name}.json")
    for scheme_name, case in CASES:
        golden_path(scheme_name, case).write_text(render(scheme_name, case))


if __name__ == "__main__":
    regenerate()
