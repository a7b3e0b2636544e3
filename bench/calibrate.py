"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same code runs up to half as fast again for tens of
seconds at a time (a neighbour on the sibling hardware thread, or the
clock dropping), and that drift is larger than the changes the benchmark
is meant to show.  The benchmark therefore runs this kernel before every
timed step and after the last one, and reports each step's time scaled
to a machine on which the kernel takes ``REF_S``:

    scaled = measured * REF_S / kernel time around the step

The kernel is the benchmark's own fixed code, so a change to dibvp moves
the measured time and not the kernel.  Its mix (small dense
eigenproblems, short vector updates, an interpreter loop) is the mix the
workloads spend their time in.  It slows somewhat more than the
workloads in a slow period, so scaled times read a few percent low
there; unscaled they read 30-50% high.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel takes about this long when the host is quiet
REF_S = 1.0e-3
REPEATS = 3

# bound before any tracer wraps numpy.linalg, so probes are never counted
_eigvals = np.linalg.eigvals
_M = np.random.default_rng(0).standard_normal((4, 4))
_V = np.random.default_rng(1).standard_normal(4096)


def _kernel() -> float:
    s = 0.0
    for _ in range(40):
        s += float(_eigvals(_M).real[0])
    w = _V
    for _ in range(30):
        w = 0.5 * w + _V * 0.25
    for i in range(1500):
        s += i * 0.5
    return s + float(w[0])


def probe() -> float:
    """Fastest of ``REPEATS`` runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(times, probes) -> list:
    """Scale ``times[i]`` by the mean of the probes either side of it
    (``probes`` has one more entry than ``times``)."""
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} steps need {len(times) + 1} probes, got {len(probes)}")
    return [t * REF_S / (0.5 * (probes[i] + probes[i + 1])) for i, t in enumerate(times)]
