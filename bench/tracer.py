"""Outside-in tracing of dibvp: spans around its public functions.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` replaces every
public function of the seven dibvp modules with a timing wrapper, at every
module binding that refers to it, so calls that one dibvp module makes
into another through a name it imported directly (``dibvp.sim.uklc_scan``,
``dibvp.cli.von_neumann_check``, ...) are attributed as well.  The
eigen-solvers and the Schur factorization are counted, not timed: their
time stays in the self time of the dibvp function that called them.

Spans (name, start, end, parent) are kept in flat arrays and only turned
into per-name totals, or written to disk, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("cli", "core", "symbol", "resolvent", "sbp", "sim", "wavepacket")

# (module path, attribute, counter prefix); an input of shape (..., n, n)
# counts as prod(...) matrices, so batching shows as calls falling while
# matrices hold
COUNTED = (
    ("numpy.linalg", "eig", "linalg.eig"),
    ("numpy.linalg", "eigvals", "linalg.eig"),
    ("scipy.linalg", "eig", "linalg.eig"),
    ("scipy.linalg", "schur", "linalg.schur"),
)


def _matrices(a) -> int:
    shape = getattr(a, "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= int(n)
    return count


class Tracer:
    """Span recorder with an on/off switch.

    While ``on`` is false the wrappers pass straight through, so checks
    the benchmark runs on dibvp's outputs are neither timed nor counted.
    """

    def __init__(self):
        self.on = False
        self.names = []  # span name per name id
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {}
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, fn, name: str):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def counter(self, fn, prefix: str):
        calls, mats = prefix + "_calls", prefix + "_matrices"
        self.counters.setdefault(calls, 0)
        self.counters.setdefault(mats, 0)
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                counters[calls] += 1
                counters[mats] += _matrices(args[0] if args else kwargs.get("a"))
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap dibvp's public functions at every binding and count solvers."""
        import dibvp

        mods = [importlib.import_module(f"dibvp.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = self.span(obj, f"{short}.{name}")
        for owner in [dibvp, *mods]:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrapped:
                    self._patch(owner, attr, wrapped[id(obj)])
        for path, attr, prefix in COUNTED:
            owner = importlib.import_module(path)
            self._patch(owner, attr, self.counter(getattr(owner, attr), prefix))

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.on = False

    # -- results -------------------------------------------------------

    def self_times(self):
        """Per name id: (calls, self seconds); self = span minus its children."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=dur - child, minlength=n)
        return calls, self_s

    def write(self, path) -> None:
        """Write every span and the counters to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)]),
        )
