"""dibvp benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing).  Each run

1. starts ``SETUP_SAMPLES`` fresh interpreters that import dibvp and build
   the workload's seeded inputs, and reports the median time to ready as
   ``setup_s``, each sample scaled by the speed probes taken just before
   and after it (``calibrate.py``);
2. starts one more fresh, single-threaded worker process that warms up,
   runs whole batches of the workload for ``--seconds`` and checks every
   item against a closed-form truth; its times are scaled the same way;
3. prints the machine block, the failures, every metric with its unit,
   and as the last line one JSON object: ``correct``, ``attempted``,
   ``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
   per-layer metrics with ``--trace 1``).

``correct`` is false when an item fails for any reason other than the
known check-uklc defect (``workloads._known_uklc_defect``); those items
count in ``failed`` too.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
from inputs import GENERATORS, SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)

# named kernels per module, reported as <module>.<fn>.calls and .self_s
KERNELS = {
    "cli": ("run_command",),
    "core": ("load_scheme", "apply_op"),
    "symbol": ("amplification_matrix", "von_neumann_check", "track_branches",
               "branch_derivative", "find_glancing"),
    "resolvent": ("resolvent_coeffs", "assemble_M", "spectral_split",
                  "kl_determinant", "uklc_scan", "classify_boundary_blocks"),
    "sbp": ("energy_decomposition", "cauchy_criterion_3pt", "boundary_energy_rate"),
    "sim": ("step_ibvp", "run_ibvp", "run_cauchy", "accumulate_norms"),
    "wavepacket": ("make_envelope", "packet_initial_data", "approx_solution",
                   "glancing_trace_experiment", "packet_error"),
}
COUNTERS = ("linalg.eig_calls", "linalg.eig_matrices", "linalg.schur_calls")


def per_layer_units() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in KERNELS.items():
        out += [(f"{mod}.calls", "count"), (f"{mod}.self_s", "s"), (f"{mod}.share", "1")]
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    out += [(name, "count") for name in COUNTERS]
    out.append(("trace.overhead_ratio", "1"))
    return out


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()[:12]
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0][:12]
            return "unknown"
        return ref[:12]
    except OSError:
        return "none (not a git checkout)"


def _child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_PINS:
        env[name] = "1"
    env.pop("DIBVP_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list, deadline: float):
    """Start a worker; return (seconds until its ``ready`` line, digest, rest of stdout)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not line.startswith("ready "):
        raise BenchError(f"worker {' '.join(args[:4])} exited with code {code}")
    return ready, line.split()[1], rest


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(setup: list, res: dict) -> dict:
    lat_ms = [t * 1e3 for t in res["latencies"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": res["wall_s"],
        "verdict_p50_ms": statistics.median(lat_ms),
        "verdict_p90_ms": _quantile(lat_ms, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
    }


def per_layer(trace: dict) -> dict:
    calls, self_s = trace["calls"], trace["self_s"]
    mod_self = {
        mod: sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        for mod in KERNELS
    }
    total = sum(mod_self.values()) or 1.0
    out = {}
    for mod, fns in KERNELS.items():
        out[f"{mod}.calls"] = sum(v for k, v in calls.items() if k.startswith(mod + "."))
        out[f"{mod}.self_s"] = mod_self[mod]
        out[f"{mod}.share"] = mod_self[mod] / total
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = calls.get(f"{mod}.{fn}", 0)
            out[f"{mod}.{fn}.self_s"] = self_s.get(f"{mod}.{fn}", 0.0)
    for name in COUNTERS:
        out[name] = trace["counters"].get(name, 0)
    out["trace.overhead_ratio"] = trace["overhead_ratio"]
    return out


def run(args) -> dict:
    if not (ROOT / "src" / "dibvp" / "__init__.py").is_file():
        raise BenchError(f"no dibvp sources under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--workdir", str(workdir)]
    try:
        setup, probes, digests = [], [calibrate.probe()], set()
        for _ in range(SETUP_SAMPLES):
            ready, digest, _ = _worker(common + ["--setup-only"], deadline)
            probes.append(calibrate.probe())
            setup.append(ready)
            digests.add(digest)
        _, digest, rest = _worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests.add(digest)
    if len(digests) != 1:
        raise BenchError(f"set-up processes built different inputs: {sorted(digests)}")
    res = json.loads(rest.strip().splitlines()[-1])
    res["setup_raw"] = setup
    res["setup"] = calibrate.scale(setup, probes)
    return res


def report(args, res: dict) -> dict:
    m = res["machine"]
    threads = ", ".join(f"{k}={v}" for k, v in m["threads"].items())
    unexpected = sum(f["count"] for f in res["failures"] if not f["known"])
    lines = [
        f"workload {args.workload}, seed {args.seed}, size {args.size}, "
        f"trace {args.trace}, {args.seconds:g} s per run",
        f"inputs digest {res['digest']}",
        f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
        f"scipy {m['scipy']}, blas {m['blas']}, {threads}, commit {_git_commit()}",
        f"batches {len(res['walls'])}, items attempted {res['attempted']}, "
        f"failed {res['failed']} ({unexpected} unexpected), "
        f"latency samples {len(res['latencies'])} (one per item, the median "
        f"of its scaled times over the batches), "
        f"set-up samples {len(res['setup'])}",
        f"speed probe median {res['probe_ms']:.4f} ms "
        f"(times are scaled to {calibrate.REF_S * 1e3:g} ms)",
        "batch busy times (s): " + ", ".join(f"{w:.4f}" for w in res["walls"]),
        "scaled batch times (s): " + ", ".join(f"{w:.4f}" for w in res["scaled_walls"]),
        "set-up times (s): " + ", ".join(f"{w:.4f}" for w in res["setup_raw"]),
        "scaled set-up times (s): " + ", ".join(f"{w:.4f}" for w in res["setup"]),
    ]
    for f in res["failures"]:
        tag = "known defect" if f["known"] else "UNEXPECTED"
        lines.append(f"  failed x{f['count']} {f['kind']} [{tag}]: {f['reason']}")
    if args.trace:
        metrics = per_layer(res["trace"])
        units = dict(per_layer_units())
        lines.append(f"spans {res['trace']['spans']} written to {res['trace']['spans_file']}")
    else:
        metrics = end_to_end(res["setup"], res)
        units = dict(END_TO_END)
        metrics["failed_ratio"] = res["failed"] / res["attempted"]
        units["failed_ratio"] = "1"
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    print("\n".join(lines))
    return {
        "correct": unexpected == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in (per_layer_units() if args.trace else END_TO_END)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'small' is the reduced batch used for smoke checks")
    args = parser.parse_args(argv)
    try:
        res = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
