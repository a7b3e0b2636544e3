"""One workload in one fresh process; ``run.py`` starts it.

Prints ``ready <digest>`` as soon as dibvp is imported and the seeded
inputs are built (``run.py`` times set-up up to that line), then, unless
``--setup-only``, warms up on the small batch, runs full batches until
``--seconds`` have passed and prints one JSON line with the figures.
Every step is timed on its own and scaled by the speed probe around it
(``calibrate.py``); a step's time is the median of its scaled times over
the batches.  With ``--trace 1`` the first half of the time is measured
untraced and the second half traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
# untraced runs repeat the batch at least this often, so that each step's
# median is taken over more than two samples
MIN_BATCHES = 3


def _machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")}
    threads.setdefault("DIBVP_THREADS", "unset")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "threads": threads,
    }


def _batches(run, prepared, seconds, make_rec, at_least: int):
    """Run whole batches for about ``seconds``, and at least ``at_least``:
    stop when the next batch would end further past ``seconds`` than the
    run is short of it."""
    recs = []
    start = time.perf_counter()
    while True:
        rec = make_rec()
        run(prepared, rec)
        rec.finish()
        recs.append(rec)
        elapsed = time.perf_counter() - start
        if len(recs) >= at_least and elapsed + 0.5 * elapsed / len(recs) >= seconds:
            return recs


def _scaled(rec) -> list:
    return calibrate.scale(rec.steps, rec.probes)


def _median_steps(rows) -> list:
    """Per position, the median time across batches (batches run the same
    steps on the same inputs)."""
    cols = list(zip(*rows))
    if any(len(row) != len(cols) for row in rows):
        raise RuntimeError("batches ran different steps")
    return [statistics.median(col) for col in cols]


def _batch_time(recs) -> float:
    """Time of one batch: the sum of its steps' median scaled times."""
    return sum(_median_steps([_scaled(rec) for rec in recs]))


def _summary(recs) -> dict:
    failures = {}
    for rec in recs:
        for f in rec.failures:
            key = (f["kind"], f["reason"], f["known"])
            failures[key] = failures.get(key, 0) + 1
    scaled = [_scaled(rec) for rec in recs]
    return {
        "wall_s": sum(_median_steps(scaled)),
        "walls": [rec.busy for rec in recs],
        "scaled_walls": [sum(times) for times in scaled],
        "probe_ms": statistics.median(p for rec in recs for p in rec.probes) * 1e3,
        # each item's latency is the median of its scaled times over the batches
        "latencies": _median_steps(
            [[times[i] for i in rec.item_steps] for rec, times in zip(recs, scaled)]),
        "attempted": sum(rec.attempted for rec in recs),
        "failed": sum(len(rec.failures) for rec in recs),
        "failures": [
            {"kind": k, "reason": r, "known": known, "count": n}
            for (k, r, known), n in sorted(failures.items())
        ],
    }


def _layer_figures(tracer, n_batches: int) -> dict:
    calls, self_s = tracer.self_times()
    return {
        "calls": {name: int(calls[i]) / n_batches for i, name in enumerate(tracer.names)},
        "self_s": {name: float(self_s[i]) / n_batches for i, name in enumerate(tracer.names)},
        "counters": {k: v / n_batches for k, v in tracer.counters.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import dibvp

    src = (ROOT / "src").resolve()
    if src not in Path(dibvp.__file__).resolve().parents:
        print(f"dibvp imported from {dibvp.__file__}, not from {src}", file=sys.stderr)
        return 2

    import inputs as gen
    import workloads

    prepare, run = workloads.WORKLOADS[args.workload]
    inputs = gen.make_inputs(args.workload, args.seed, args.size)
    prepared = prepare(inputs, args.workdir)
    digest = gen.digest(inputs)
    print("ready", digest, flush=True)
    if args.setup_only:
        return 0

    # untimed warm-up: lazy imports, table caches, first-touch allocations
    small = gen.make_inputs(args.workload, args.seed, "small")
    run(prepare(small, args.workdir), workloads.Recorder())

    result = {"digest": digest, "machine": _machine()}
    if not args.trace:
        recs = _batches(run, prepared, args.seconds,
                        lambda: workloads.Recorder(probe=calibrate.probe), MIN_BATCHES)
        result.update(_summary(recs))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import Tracer

        plain = _batches(run, prepared, args.seconds / 2,
                         lambda: workloads.Recorder(probe=calibrate.probe), 1)
        tracer = Tracer()
        tracer.install()
        tracer.on = True
        try:
            traced = _batches(run, prepared, args.seconds / 2,
                              lambda: workloads.Recorder(tracer, calibrate.probe), 1)
        finally:
            tracer.uninstall()
        result.update(_summary(plain + traced))
        result["trace"] = _layer_figures(tracer, len(traced))
        result["trace"]["overhead_ratio"] = _batch_time(traced) / _batch_time(plain)
        out = Path(args.workdir).parent / "trace"
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{args.workload}-{args.size}-seed{args.seed}.npz"
        tracer.write(path)
        result["trace"]["spans_file"] = str(path.relative_to(ROOT))
        result["trace"]["spans"] = len(tracer.span_start)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
