"""Drive the command line front end and read its artifacts.

Schemes travel as JSON files; every command prints a schema-versioned
JSON report and can mirror it, plus CSV series, into an output
directory.  Exit code 1 flags a failed verdict, 2 a configuration error.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from dibvp.cli import run_command
from dibvp.core import leap_frog, save_scheme, upwind


def run_quiet(argv):
    # the CLI prints the full report to stdout; read it from the artifact
    with contextlib.redirect_stdout(io.StringIO()):
        return run_command(argv)


def main():
    with tempfile.TemporaryDirectory(prefix="dibvp-demo-") as tmp:
        work = Path(tmp)
        save_scheme(upwind(0.5, 1.0), work / "upwind.json")
        save_scheme(leap_frog(0.5, 1.0), work / "leapfrog.json")

        code = run_quiet([
            "check-cauchy", "--scheme", str(work / "upwind.json"),
            "--out", str(work / "cauchy"),
        ])
        report = json.loads((work / "cauchy" / "report.json").read_text())
        verdict = report["verdicts"][0]
        print(f"check-cauchy exit code {code}: {verdict['name']} ok={verdict['ok']}")
        print(f"  {verdict['detail']}")

        code = run_quiet([
            "check-glancing", "--scheme", str(work / "leapfrog.json"),
            "--out", str(work / "glancing"),
        ])
        rows = json.loads((work / "glancing" / "report.json").read_text())
        print(f"\ncheck-glancing exit code {code} "
              f"({len(rows['data']['glancing_points']['rows'])} flagged points)")
        print(f"artifacts: {sorted(p.name for p in (work / 'glancing').iterdir())}")


if __name__ == "__main__":
    main()
