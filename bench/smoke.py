"""Smoke check of the benchmark itself, at reduced size.

    python3 bench/smoke.py

Runs every workload on the small batch, untraced and traced, and asserts
that each run prints every metric ``BENCHMARK.json`` names, with its unit;
that ``correct`` is true; and that the only failed items are the known
check-uklc defect, which the small analyze batch must still show.  Then
runs the benchmark in a copy that holds only ``BENCHMARK.json`` and the
benchmark's own files, and asserts that it fails without a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_workload(spec: dict, workload: str, trace: int) -> str:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: unexpected failures\n{proc.stdout}"
    assert result["attempted"] >= 1

    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{workload}: metrics differ from BENCHMARK.json: {set(got) ^ set(units)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M), f"{name} not printed with its unit"

    failed_lines = [ln for ln in lines if ln.lstrip().startswith("failed x")]
    counted = sum(int(re.search(r"failed x(\d+)", ln).group(1)) for ln in failed_lines)
    assert counted == result["failed"], (counted, result["failed"])
    for ln in failed_lines:
        assert "check-uklc [known defect]" in ln and "exit 2" in ln, ln
    if workload == "analyze":
        assert result["failed"] > 0, "the known check-uklc defect no longer shows"
    return f"{workload} trace={trace}: {len(got)} metrics, " \
           f"{result['attempted']} items, {result['failed']} known failures"


def check_bare_copy() -> str:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "analyze", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert not proc.stdout.strip(), f"printed output without the program: {proc.stdout}"
    return f"bare copy: exit {proc.returncode}, no result"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            print(check_workload(spec, workload, trace), flush=True)
    print(check_bare_copy())
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
