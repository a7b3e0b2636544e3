"""Time-domain solvers and empirical stability verifiers.

The half-line problem advances s+1 solution layers: interior points
j >= 1 by the multistep recursion

    U_j^{n+1} = sum_{sigma=0}^{s} (Q_sigma U^{n-sigma})_j + dt F_j^n,

and boundary points j = 1-r..0 by the boundary recursion

    U_j^{n+1} = sum_{sigma=-1}^{s} (B_{j,sigma} U^{n-sigma})_1 + g_j^{n+1},

whose sigma = -1 term reads the freshly computed interior layer.  The
right edge is handled by the exact shrinking-window method: each step
consumes p columns on the right, so allocating j_obs + n_steps * p
columns makes every reported value identical to the half-line solution;
no artificial outflow condition ever enters.  A whole-line run
(``run_cauchy``) steps the interior recursion alone on its window's cone.

Every run steps in ``_march_batch``: its levels pass through a ring of s+1
rows and a block of rows filling about BLOCK_BYTES, and each pass round
the ring, and what is left at the end, goes to the run's sink; it reads
the scheme's ``tap_table``, a whole-line run only its interior list, and
resolves the taps once per march.  A level is one ``_apply_taps`` call
for the interior, which writes the new row from its first tap and ends
with += +0.0, so every bit is that of a zero-filled row summed tap by
tap, plus one call for each boundary row with taps or g.
``run_ibvp``, ``run_cauchy`` and ``split_solution`` copy the blocks into an
``IBVPTrace``, one (n_max+1, L, N) array of levels, float64 for a real
scalar problem and complex128 otherwise.  The trace, strong-stability and
semigroup verifiers march their dt ladders through one engine,
``_ladder_sums``: it draws every entry's f, g and F from one seeded rng in
ladder order, marches all runs in one call, and reduces each block to the
per-level sums of |U_j^n|^2 the estimates read, holding no trace;
``accumulate_norms`` takes them of a trace's blocks.  A run reads dt only
to scale F, so with F = g = 0 and the same initial layers at every dt of a
fixed-lam ladder, the run to n levels is the first n + 1 levels of any
longer run, cut to its own width: such entries share one march and reduce
its prefixes, while an entry with g or F (the strong-stability ladder)
never shares.  Scalar runs of one scheme (a ladder's runs, a split's U and
W) march as the components of one vector: a 1x1 tap multiplies each entry
alone, columns marched for another run are zeros or exact half-line
values, and a run without g adds -0.0, so every level keeps its bits.
Whole-line runs of one window (a trace experiment's dts) share a march
the same way, on the longest run's cone.  Every run enters through
``_march``, which checks the runs in order.  Systems march alone.
"""

from __future__ import annotations

import operator
import os
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (GridSequence, RangeError, SchemeDef, SchemeError, _apply_taps,
                   _resolved_taps)
from .resolvent import ResolventError, uklc_scan
from .sbp import DecompositionError, boundary_energy_rate
from .symbol import find_glancing, von_neumann_check

DEFAULT_GAMMAS = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_REFINEMENTS = (0.1, 0.05, 0.025, 0.0125)
DEFAULT_T_END = 10.0
SLOPE_TOL = 0.1
#: decaying_data's amplitudes fall off like (1 + k)^-DATA_DECAY_POWER
DATA_DECAY_POWER = 1.0
#: levels are marched, handed over and compared in blocks of about this size
BLOCK_BYTES = 1 << 19
#: a run whose levels would take more bytes than the host's memory is refused
_MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class SimError(ValueError):
    """Raised for inconsistent solver inputs or exhausted windows."""


# ---------------------------------------------------------------------------
# full runs


@dataclass(frozen=True)
class IBVPTrace:
    """Levels U^0..U^{n_max} of a run on the columns offset..j_obs.

    ``levels`` is the trace, one read-only (n_max+1, L, N) array; U^n is
    zero outside its columns where ``zero_flags[n]`` is set.  Half-line
    runs start at offset 1-r, whole-line runs at their window's left end.
    ``layers`` views the levels as GridSequences, each built when read.

    ``levels`` is float64 when the run marched a real scalar problem (see
    ``_march_dtype``) and complex128 otherwise; ``layers`` are complex
    either way.
    """

    scheme: SchemeDef
    dt: float
    levels: np.ndarray
    offset: int
    zero_flags: tuple
    j_obs: int

    def __post_init__(self):
        self.levels.setflags(write=False)

    @property
    def layers(self) -> _Layers:
        return _Layers(self)

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1

    @property
    def dx(self) -> float:
        return self.dt / self.scheme.lam


class _Layers(Sequence):
    """The levels of a trace as GridSequences, each built when read."""

    def __init__(self, trace: IBVPTrace):
        self.trace = trace

    def __len__(self) -> int:
        return len(self.trace.levels)

    def __getitem__(self, n) -> GridSequence:
        n, t = operator.index(n), self.trace
        return GridSequence(t.offset, t.levels[n], implicit_zero=t.zero_flags[n])


def _real(values) -> bool:
    """Whether every imaginary part is +0.0 (no bit set), sign bit included."""
    return not np.count_nonzero(np.asarray(values, dtype=complex).imag.view(np.uint64))


def _march_dtype(scheme: SchemeDef, f_layers, g=None, F=None) -> type:
    """float for a real scalar problem, complex otherwise.

    With a real 1x1 tap c the complex product (a + 0i) c has real part a c,
    and each new row adds its products onto +0.0, so a real march gives
    every finite value the bits of the complex one.  The data's imaginary
    parts must be +0.0, since the initial levels are copied, not summed.
    Past an overflow both marches hold non-finite values at the same
    entries.  A matrix product rounds differently in real and complex
    arithmetic, so systems (N >= 2) march in complex.
    """
    real = (scheme.N == 1 and F is None and (g is None or _real(g))
            and all(_real(f.values) for f in f_layers))
    return float if real else complex


def _as_march(values: np.ndarray, dtype: type) -> np.ndarray:
    """``values`` as the march's dtype: a float march takes the real parts."""
    return values.real if dtype is float else values


def _zeros(shapes, n_max: int, dtype: type) -> list:
    """np.zeros of each shape; too large to hold, a SimError naming n_max."""
    try:
        return [np.zeros(shape, dtype=dtype) for shape in shapes]
    except MemoryError:
        size = np.dtype(dtype).itemsize * sum(np.prod(sh, dtype=float) for sh in shapes)
        raise SimError(
            f"horizon too large: n_max {n_max} over a {shapes[0][1]}-column "
            f"window needs {size:.3g} bytes"
        ) from None


def _auto_obs(scheme: SchemeDef, f_layers, n_max: int) -> int:
    """The j_obs holding a run's support, which spreads r columns a step."""
    jf = max((f.last for f in f_layers), default=0)
    return max(jf, 1 + scheme.q, 1) + n_max * scheme.r


def run_ibvp(
    scheme: SchemeDef,
    f_layers,
    n_max: int,
    j_obs: int | None = None,
    g=None,
    F=None,
    dt: float = 1.0,
) -> IBVPTrace:
    """Run the half-line problem up to level n_max.

    ``g`` holds the boundary rows g^n by level n, read for n >= s+1 (or
    is None); ``F`` maps a level n >= s to the interior
    source F^n as a GridSequence (or None).  When ``j_obs`` is omitted it
    is sized so the reported window contains the full support of the
    solution (data influence spreads at most r columns per step), and the
    output layers are marked finitely supported.
    """
    return _march(scheme, [(f_layers, n_max, j_obs, g, F, dt)])[0]


_Run = namedtuple("_Run", "f_layers n_max j_obs g F dt sink auto pad_to dtype")
_Cone = namedtuple("_Cone", "W0 W1 jmin Lmin")


def _check_run(scheme, f_layers, n_max, j_obs, g, F, dt, sink=None, whole_line=False) -> _Run:
    """A run's inputs checked as ``run_ibvp`` checks them, with its window,
    allocation edge and march dtype.  A run whose levels would take more
    bytes than the host's memory raises before anything is allocated.

    A whole-line run (``whole_line`` its march's window, see ``_march``)
    needs n_max >= 0 and finitely supported layers; its march sets its
    j_obs, and it has no allocation edge and no memory check."""
    s, line = scheme.s, whole_line is not False
    if n_max < (0 if line else s):
        raise SimError("n_max must be nonnegative" if line else f"n_max must be at least s = {s}")
    if len(f_layers) != s + 1:
        raise SimError(f"need {s + 1} initial layers, got {len(f_layers)}")
    for f in f_layers:
        if f.N != scheme.N:
            raise SimError(f"initial layer has {f.N} components, the scheme {scheme.N}")
    if line:
        if not all(f.implicit_zero for f in f_layers):
            raise SimError("whole-line initial layers must be finitely supported")
        return _Run(f_layers, n_max, None, None, None, dt, sink, whole_line is None, None,
                    _march_dtype(scheme, f_layers))
    r, p, q, lo, auto = scheme.r, scheme.p, scheme.q, 1 - scheme.r, j_obs is None
    if auto:
        j_obs = _auto_obs(scheme, f_layers, n_max)
    pad_to = j_obs + (n_max - s) * p
    for f in f_layers:
        if f.offset < lo:
            raise SimError(f"initial layer starts at {f.offset} < {lo}")
        if f.last > pad_to:
            raise SimError(f"initial layer extends past the allocation {pad_to}")
    if g is not None:
        if len(g) < n_max + 1:
            raise SimError(f"need {n_max + 1} rows of boundary data, got {len(g)}")
        width = int(np.prod(np.shape(g)[1:]))
        if width != r * scheme.N:
            raise SimError(f"boundary rows hold {width} values, need r N = {r * scheme.N}")
    # the edge shrinks by p a step, down to j_obs after the last one
    if n_max > s and j_obs <= q:
        edge = pad_to - max(0, (pad_to - 1 - q) // p) * p if p else pad_to
        raise SimError(f"window exhausted: right edge {edge} cannot support "
                       "another step")
    dtype = _march_dtype(scheme, f_layers, g, F)
    size = (n_max + 1.0) * (j_obs - lo + 1) * scheme.N * np.dtype(dtype).itemsize
    if size > _MEMORY_BYTES:
        raise SimError(f"horizon too large: n_max {n_max} over a {j_obs - lo + 1}-column "
                       f"window needs {size:.3g} bytes")
    return _Run(f_layers, n_max, j_obs, g, F, dt, sink, auto, pad_to, dtype)


def _march(scheme: SchemeDef, runs, whole_line=False) -> list:
    """``run_ibvp`` of each (f_layers, n_max, j_obs, g, F, dt[, sink]) in
    ``runs``; with ``whole_line``, ``run_cauchy`` of each (f_layers, n_max,
    None, None, None, dt) over that one window (Lmin, Rmax), or for None
    over the window holding every run's full support.

    A run with a sink hands it its levels (see ``_march_batch``) and gives
    None; a run without one gives its IBVPTrace.  The runs march in
    ``_batches``, a batch's scalar runs as the components of one run (see
    the module docstring).  Inputs are checked in run order, so the first
    bad run raises what its own march would, and then the window.

    A whole-line batch marches on its longest run's cone and a spare column
    a side where its data reach (cut to the cone, a one-column window would
    end on a one-row product, rounded unlike a block of rows); a column
    outside a run's data cone adds +0.0 products to +0.0, keeping bits.
    """
    lo, r, p, N = 1 - scheme.r, scheme.r, scheme.p, scheme.N
    checked = [_check_run(scheme, *run, whole_line=whole_line) for run in runs]
    levels, flags, window = {}, {}, whole_line
    if whole_line is not False:
        if window is None:
            reach = [(f, run.n_max) for run in checked for f in run.f_layers]
            window = (min(f.offset - n * p for f, n in reach),
                      max(f.last + n * r for f, n in reach))
        lo, Rmax = window  # the traces' offset and j_obs
        if Rmax < lo:
            raise SimError(f"empty observation window {window}")
    for i, run in enumerate(checked):
        if run.sink is None:
            j_obs = run.j_obs if whole_line is False else Rmax
            levels[i] = _zeros([(run.n_max + 1, j_obs - lo + 1, N)], run.n_max, run.dtype)[0]
            checked[i] = run._replace(j_obs=j_obs, sink=_copy_into(levels[i]))
    for part in _batches(scheme, [run.n_max for run in checked], [run.dtype for run in checked]):
        batch, cone = [checked[i] for i in part], None
        if whole_line is not False:
            layers, n_top = [f for run in batch for f in run.f_layers], batch[0].n_max
            jmin, jmax = min(f.offset for f in layers), max(f.last for f in layers)
            W0, W1 = lo - n_top * r, Rmax + n_top * p  # the longest run's cone
            cone = _Cone(max(min(W0, jmin), W0 - 1), min(max(W1, jmax), W1 + 1), jmin, lo)
        flags.update(zip(part, _march_batch(scheme, batch, cone)))
    return [
        # a whole-line run with n_max < s has s + 1 flags
        IBVPTrace(scheme, run.dt, levels[i], lo,
                  tuple(flags[i][: run.n_max + 1]) if run.auto else (False,) * (run.n_max + 1),
                  run.j_obs) if i in levels else None
        for i, run in enumerate(checked)
    ]


def _batches(scheme: SchemeDef, n_maxes, dtypes) -> list:
    """The runs' indices in marches: scalar runs of one march dtype march
    together, longest first, so the runs still marching are the leading
    components.  A system marches alone, as does a whole-line run with
    n_max < s, which ends before the first step hands the others level s."""
    batches = {}
    for i in sorted(range(len(n_maxes)), key=lambda i: -n_maxes[i]):
        alone = scheme.N > 1 or n_maxes[i] < scheme.s
        batches.setdefault((dtypes[i], i if alone else None), []).append(i)
    return list(batches.values())


def _march_batch(scheme: SchemeDef, batch, cone=None) -> list:
    """The package's one loop over time levels: march checked runs of one
    dtype, longest first, together; return their zero flags.

    A half-line step computes columns from j = 1 on, then the boundary
    rows.  Whole-line runs march on the buffer W0..W1 of ``cone`` = (W0,
    W1, jmin, Lmin), data from jmin on and window from Lmin on: a step has
    no boundary rows and starts at W0 + r or jmin - p a step, whichever is right.

    The taps are resolved once per march (``core._resolved_taps``): the
    interior's in one flat list, each boundary row's in another, a row
    without taps left out unless the batch has g.  A step is one
    ``_apply_taps`` call that writes the new row from its first tap, then
    one for each boundary row, adding onto the r boundary columns that a
    half-line step zeroes.  Entry sigma of row i of the source table,
    built with the ring and rebuilt when runs end, is the ring row of
    level n - sigma for the level n in row i, so entry -1 is the new row.

    Level n lives in row n mod D of a ring of D = s+1+B rows, B rows
    filling about BLOCK_BYTES, or the longest run's n_max - s levels if
    fewer.  Before a level wraps round to row 0, and before a run ends, the
    levels n0..n not yet handed over go to each marching run's sink as
    ``sink(slice(n0, n + 1), block, cols)``: the block is one
    (n + 1 - n0, L, N) view of the run's columns from its trace's offset to
    j_obs, valid until the sink returns; cols is None on the whole line,
    and on the half-line the block is zero past its first cols columns.
    """
    r, p, s, N = scheme.r, scheme.p, scheme.s, scheme.N
    lo, edge = (1 - r, max(run.pad_to for run in batch)) if cone is None else cone[:2]
    start = 0 if cone is None else cone.Lmin - lo  # the blocks' first column
    n_top, dtype = batch[0].n_max, batch[0].dtype
    comps = [slice(b * N, (b + 1) * N) for b in range(len(batch))]
    row_bytes = (edge - lo + 1) * len(batch) * N * np.dtype(dtype).itemsize
    depth = s + 1 + max(1, min(BLOCK_BYTES // row_bytes, n_top - s))
    ring, g_all = _zeros([(depth, edge - lo + 1, len(batch) * N),
                          (n_top + 1, r, len(batch) * N)], n_top, dtype)
    has_g = any(run.g is not None for run in batch)
    np.negative(g_all, out=g_all)  # -0.0, what a run without g adds
    flags = []
    for run, c in zip(batch, comps):
        if run.g is not None:
            rows = _as_march(np.asarray(run.g), dtype)[: run.n_max + 1]
            g_all[: run.n_max + 1, :, c] = rows.reshape(run.n_max + 1, r, N)
        for n, f in enumerate(run.f_layers):
            a = max(lo, f.offset)  # whole-line data outside the buffer are cut
            b = max(a, min(edge, f.last) + 1)
            ring[n, a - lo : b - lo, c] = _as_march(f.values[a - f.offset : b - f.offset], dtype)
        flags.append([f.implicit_zero for f in run.f_layers])
    interior = _resolved_taps(enumerate(scheme.tap_table[0]), dtype)
    boundary = [] if cone is not None else [
        (j, _resolved_taps(rows, dtype)) for j, rows in enumerate(scheme.tap_table[1])
        if rows or has_g]
    sources = [(b, run.F) for b, run in enumerate(batch) if run.F is not None]
    # columns past hi are zero: the data's support grows by r per step,
    # and F adds its own range; one hi serves every run.  A ring row past
    # its level's top columns is zero, or lies past every j_obs, so the
    # blocks hold each run's levels.  On the whole line hi starts at W0 - 1
    # for data left of the buffer, so no slice wraps.
    hi = max(0 if cone is None else lo - 1, *(f.last for run in batch for f in run.f_layers))
    k, F_rows, done, top, zero = len(batch), [], 0, hi, np.zeros((), dtype)
    # a step computes columns max(left, right)..top of the valid slice
    # left..edge; on the whole line the cone's edge left and the data's
    # edge right move, on the half-line both stay at j = 1
    left, right = (1, 1) if cone is None else (lo, cone.jmin)

    def row_table():
        views = list(ring)
        return [tuple(views[(i - sigma) % depth] for sigma in (*range(s + 1), -1))
                for i in range(depth)]

    def hand_over(n):
        # levels done..n, in ring rows done % depth.., to the marching runs
        nonlocal done
        for run, c in zip(batch[:k], comps):
            run.sink(slice(done, n + 1),
                     ring[done % depth : n % depth + 1, start : run.j_obs + 1 - lo, c],
                     top + 1 - lo if cone is None else None)
        done = n + 1

    table = row_table()
    for n in range(s, n_top):
        if batch[k - 1].n_max <= n:  # drop the runs that are done
            hand_over(n)
            k = sum(run.n_max > n for run in batch)
            ring, g_all = ring[..., : k * N].copy(), g_all[..., : k * N]
            table = row_table()
        if (n + 1) % depth == 0 and done <= n:  # level n + 1 wraps round
            hand_over(n)
        edge, hi = edge - p, hi + r
        if sources:
            F_rows = [(b, F(n)) for b, F in sources if b < k]
            for _, row in F_rows:
                if row is not None and row.N != N:
                    raise SimError(f"source row F^{n} has {row.N} components, the scheme {N}")
            hi = max([hi] + [row.last for _, row in F_rows if row is not None])
        if cone is not None:
            left, right = left + r, right - p
        first, top = max(left, right), min(edge, hi)
        # a lone row is widened to two inside the valid slice: numpy multiplies
        # one row by a different BLAS routine than a block of rows
        if first == top and left < edge:
            first, top = (first, top + 1) if top < edge else (first - 1, top)
        rows = table[n % depth]
        out = rows[-1]
        if cone is None:
            out[:r] = 0
        _apply_taps(out[first - lo : top + 1 - lo], rows, first - lo, interior, zero)
        for b, row in F_rows:
            if row is not None and max(1, row.offset) <= min(top, row.last):
                flo, fhi = max(1, row.offset), min(top, row.last)
                out[flo - lo : fhi + 1 - lo, comps[b]] += batch[b].dt * row.window(flo, fhi)
            flags[b].append(all(flags[b][-(s + 1):])
                            and (row is None or row.implicit_zero))
        # boundary rows j in [1-r, 0]; sigma = -1 reads the new interior values
        for j, taps in boundary:
            acc = out[j : j + 1]
            _apply_taps(acc, rows, r, taps)
            if has_g:
                acc += g_all[n + 1, j : j + 1]
    hand_over(n_top)
    for run, fl in zip(batch, flags):
        if run.F is None:  # a run without F keeps its data's support flag
            fl += [all(fl)] * (run.n_max - s)
    return flags


def _copy_into(levels: np.ndarray):
    """A sink copying each block's first cols columns (all for None) into
    ``levels``; the zero columns past the solution's support stay as they are."""
    def sink(index, block, cols):
        levels[index, :cols] = block[:, :cols]
    return sink


class _LevelReduction:
    """Per-level sums of one marched run, taken block by block as a sink.

    Entry i reads the run's first ``n_max + 1`` levels on its first
    ``cols`` columns (all of them for None), as its own run would hold
    them; ``reduce(sq, levels)`` maps such a block of levels and sq =
    |levels|^2 to a tuple of per-level arrays, and ``sums()[i]`` joins
    entry i's over the blocks.
    """

    def __init__(self, entries, reduce):
        self.entries, self.reduce = entries, reduce
        self.parts = [[] for _ in entries]

    def __call__(self, index, block, support):
        # the sums run over every column, zeros included, as a trace's do
        sq = _abs_sq(block)
        for (n_max, cols), parts in zip(self.entries, self.parts):
            m = n_max + 1 - index.start
            if m > 0:
                parts.append(self.reduce(sq[:m, :cols], block[:m, :cols]))

    def sums(self) -> list:
        return [tuple(map(np.concatenate, zip(*parts))) for parts in self.parts]


_Data = namedtuple("_Data", "f g F")


def _ladder_sums(scheme, refinements, t_end, seed, reduce,
                 f_gen=None, g_gen=None, F_gen=None) -> list:
    """(dt, data, sums) of the run at each dt, in ladder order: the
    verifiers' one march.

    ``data`` holds the run's initial layers f, boundary rows g and list of
    source rows F by level, g or F None for zero (a None row of F is a
    level without source).  Each generator is called as gen(scheme, dt,
    n_max, rng) on one rng seeded with ``seed``: f, g and then F at each
    dt in ladder order, before anything marches.  f defaults to the same
    decaying data at every dt, g and F to zero.  ``sums`` is the entry's
    run reduced by ``reduce`` (see ``_LevelReduction``).  Each entry is
    checked as its own run, in ladder order, so the first bad entry raises
    what its run would.  Entries with F = g = 0 and identical data reduce
    prefixes of one run, marched to their largest n_max; an entry with g
    or F marches its own run.  All runs march in one ``_march`` call.
    """
    if f_gen is None:
        # same data at every refinement so the slope is not fit noise
        f_gen = lambda sch, dt, n_max, rng: decaying_data(
            sch, n_sites=max(64, sch.r + sch.p + 1), seed=seed
        )
    rng = np.random.default_rng(seed)
    ladder = [(dt, int(round(t_end / dt))) for dt in refinements]
    data = [_Data(*(None if gen is None else gen(scheme, dt, n_max, rng)
                    for gen in (f_gen, g_gen, F_gen))) for dt, n_max in ladder]
    keys, entries = [], {}  # entries[key]: the first entry's run and every (n_max, cols)
    for i, ((dt, n_max), (f_layers, g, F)) in enumerate(zip(ladder, data)):
        F = None if F is None else F.__getitem__
        run = _check_run(scheme, f_layers, n_max, None, g, F, dt)
        keys.append(i if g is not None or F is not None else tuple(
            (f.offset, f.implicit_zero, f.values.shape, f.values.tobytes()) for f in f_layers))
        entries.setdefault(keys[-1], (run, []))[1].append((n_max, run.j_obs + scheme.r))
    sinks = {key: _LevelReduction(cuts, reduce) for key, (_, cuts) in entries.items()}
    _march(scheme, [(run.f_layers, max(cuts)[0], None, run.g, run.F, run.dt, sinks[key])
                    for key, (run, cuts) in entries.items()])
    sums = {key: iter(sink.sums()) for key, sink in sinks.items()}
    return [(dt, entry, next(sums[key])) for (dt, _), entry, key in zip(ladder, data, keys)]


def run_cauchy(
    scheme: SchemeDef, f_layers, n_max: int, window: tuple | None = None,
    dt: float = 1.0,
) -> IBVPTrace:
    """Run the whole-line recursion; exact on the observation window.

    Initial layers must be finitely supported.  ``window`` = (Lmin, Rmax)
    fixes the reported index range; the allocation extends it by n_max*r
    on the left and n_max*p on the right (its backward cone), which makes
    the reported values identical to the infinite-lattice solution; data
    outside the cone are neither copied nor marched.  The default window
    contains the full support of the solution through level n_max.  The
    run's blocks of levels (see ``_march_batch``) are copied into the trace.
    """
    return _march(scheme, [(f_layers, n_max, None, None, None, dt)], whole_line=window)[0]


# ---------------------------------------------------------------------------
# V/W splitting


@dataclass(frozen=True)
class SplitSolution:
    """U = V + W: Cauchy part, boundary-driven part, reconstructed source."""

    U: IBVPTrace
    V: IBVPTrace
    W: IBVPTrace
    g: np.ndarray  # (n_max+1, r, N); rows 0..s are zero
    max_mismatch: float


def reconstruct_boundary_source(
    scheme: SchemeDef, V: IBVPTrace, n_max: int
) -> np.ndarray:
    """g_j^n = -V_j^n + sum_{sigma=-1}^{s} (B_{j,sigma} V^{n-1-sigma})_1."""
    r, q, s, N = scheme.r, scheme.q, scheme.s, scheme.N
    if V.offset > 1 - r or V.j_obs < 1 + q:
        raise RangeError(f"V holds columns {V.offset}..{V.j_obs}; g reads {1 - r}..{1 + q}")
    one = 1 - V.offset  # the column of j = 1
    boundary = scheme.tap_table[1]
    g = np.zeros((n_max + 1, r, N), dtype=complex)
    if n_max <= s:
        return g
    # levels n > s in one product per tap, each a (1, N) row of its own;
    # jets[sigma] holds V^{n-1-sigma} on j = 1..1+q by ell, sigma = -1 last
    jets = [V.levels[s - sigma : n_max - sigma, one : one + q + 1].swapaxes(0, 1)[:, :, None]
            for sigma in (*range(s + 1), -1)]
    for k, rows in enumerate(boundary):
        acc = g[None, s + 1 :, k : k + 1]
        acc[0, :, 0] = -V.levels[s + 1 : n_max + 1, one + k - r]
        if rows:
            acc += 0.0  # -0.0 to +0.0, so 1x1 taps add as in a matmul
        _apply_taps(acc, jets, 0, _resolved_taps(rows, V.levels.dtype))
    return g


def _level_blocks(levels: np.ndarray) -> list:
    """Slices of about BLOCK_BYTES of ``levels``, in order, for the trace
    readers: a whole-trace temporary would be as large as the trace.  Each
    level's reductions read its own row, so no bit depends on the blocks."""
    step = max(1, BLOCK_BYTES // levels[0].nbytes)
    return [slice(i, i + step) for i in range(0, len(levels), step)]


def _max_level_mismatch(u, v, w, floor=np.inf) -> float:
    """max over levels n of max |u[n] - v[n] - w[n]|, taken over blocks of
    levels (see ``_level_blocks``).  As in a running max from 0.0, a level
    whose max is NaN is passed over.  A level whose mismatch exceeds 1e-12
    max(max |u[n]|, floor) raises, since rounding grows with the solution;
    the default floor raises for none."""
    maxima = []
    for b in _level_blocks(u):
        block = u[b]
        maxima.append(np.abs(block - v[b] - w[b]).max(axis=(1, 2)))
        size = np.fmax(np.abs(block).max(axis=(1, 2)), floor)
        bad = np.flatnonzero(maxima[-1] > 1e-12 * size)
        if bad.size:
            raise SimError(
                f"splitting identity violated: max |U-(V+W)| = {maxima[-1][bad[0]]:.3e} "
                f"at level {b.start + bad[0]}, against a scale of {size[bad[0]]:.3e}"
            )
    return float(np.fmax.reduce(np.concatenate(maxima), initial=0.0))


def split_solution(
    scheme: SchemeDef, f_layers, n_max: int, dt: float = 1.0
) -> SplitSolution:
    """Split the half-line solution into Cauchy and boundary components.

    V solves the whole-line problem with the initial layers extended by
    zero to j <= -r; W solves the half-line problem with zero initial
    layers and the reconstructed boundary source; U = V + W is asserted
    against a direct half-line run, to 1e-12 of each level's max |U| (or
    of max |f| and 1, when larger).
    """
    j_obs = _auto_obs(scheme, f_layers, n_max)
    V = run_cauchy(scheme, f_layers, n_max, window=(1 - scheme.r, j_obs), dt=dt)
    g = reconstruct_boundary_source(scheme, V, n_max)
    zero = [GridSequence.zeros(1 - scheme.r, 1, scheme.N, implicit_zero=True)
            for _ in range(scheme.s + 1)]
    # U and W march together after V
    U, W = _march(scheme, [(f_layers, n_max, None, None, None, dt),
                           (zero, n_max, j_obs, g, None, dt)])
    floor = max([1.0] + [float(np.max(np.abs(f.values))) for f in f_layers])
    mism = _max_level_mismatch(U.levels, V.levels, W.levels, floor)
    return SplitSolution(U=U, V=V, W=W, g=g, max_mismatch=mism)


# ---------------------------------------------------------------------------
# weighted norms


@dataclass(frozen=True)
class NormSeries:
    """Laplace-weighted accumulators of one run.

    interior = sum_n sum_{j>=1-r} dt dx e^{-2 gamma n dt} |U_j^n|^2,
    trace = sum_n sum_{j=1-r}^{P} dt e^{-2 gamma n dt} |U_j^n|^2, both over
    n >= n_start; sup_norm = sup_{n>=0} sum_j dx |U_j^n|^2.  Per-level
    contributions are kept so monotonicity is checkable.
    """

    gamma: float
    dt: float
    dx: float
    P: int
    n_start: int
    interior: float
    trace: float
    sup_norm: float
    interior_terms: np.ndarray
    trace_terms: np.ndarray
    level_mass: np.ndarray


def accumulate_norms(
    trace: IBVPTrace, gamma: float, P: int, n_start: int = 0
) -> NormSeries:
    """Weighted interior/trace/sup accumulators of a trace, read in blocks."""
    lo = 1 - trace.scheme.r
    _trace_cols(trace.scheme.r, P)
    start = max(lo, trace.offset)
    if start > lo and not all(trace.zero_flags):
        raise RangeError(
            f"window [{lo}, {min(P, trace.j_obs)}] outside stored range "
            f"[{trace.offset}, {trace.j_obs}]"
        )
    # a window ending left of 1-r has no trace columns: clamp the stop
    stop = max(min(P, trace.j_obs) - trace.offset + 1, 0)
    cols, levels = slice(start - trace.offset, stop), trace.levels
    sums = [_level_sums(_abs_sq(levels[b]), cols) for b in _level_blocks(levels)]
    sums = tuple(map(np.concatenate, zip(*sums)))
    return _weighted_norms(trace.dt, trace.dx, sums, gamma, P, n_start)


def _trace_cols(r: int, P: int) -> slice:
    """The trace columns 1-r..P of a half-line level's array."""
    if P < 1 - r:
        raise SimError(f"trace width P must be at least {1 - r}")
    return slice(0, P + r)


def _level_sums(sq: np.ndarray, cols: slice) -> tuple:
    """sum_j |U_j^n|^2 for each level n of sq = |U|^2, over all its columns
    and over ``cols``.  Neither depends on gamma, so a verifier takes them
    once per run and weights them for every gamma."""
    return sq.sum(axis=(1, 2)), sq[:, cols].sum(axis=(1, 2))


def _abs_sq(levels: np.ndarray) -> np.ndarray:
    """|levels|^2, one pass for a float trace: abs() ** 2's bits, NaN sign aside."""
    return np.square(levels) if levels.dtype == np.float64 else np.abs(levels) ** 2


def _weighted_norms(dt, dx, sums, gamma, P, n_start) -> NormSeries:
    if not gamma >= 0:  # NaN fails too
        raise SimError(f"gamma must be nonnegative, got {gamma}")
    mass_sums, trace_sums = sums
    w = np.exp(-2 * gamma * np.arange(len(mass_sums)) * dt)
    level_mass = dx * mass_sums
    interior_terms = dt * w * level_mass
    trace_terms = dt * w * trace_sums
    interior_terms[: max(n_start, 0)] = 0.0
    trace_terms[: max(n_start, 0)] = 0.0
    return NormSeries(
        gamma=gamma, dt=dt, dx=dx, P=P, n_start=n_start,
        interior=float(interior_terms.sum()),
        trace=float(trace_terms.sum()),
        sup_norm=float(level_mass.max()),
        interior_terms=interior_terms,
        trace_terms=trace_terms,
        level_mass=level_mass,
    )


# ---------------------------------------------------------------------------
# data generators


def decaying_data(scheme: SchemeDef, n_sites: int, seed: int = 0):
    """Seeded initial layers with |f_j| ~ (1 + j - (1-r))^{-DATA_DECAY_POWER}."""
    rng = np.random.default_rng(seed)
    lo = 1 - scheme.r
    idx = np.arange(n_sites)
    scale = (1.0 + idx) ** (-DATA_DECAY_POWER)
    layers = []
    for _ in range(scheme.s + 1):
        vals = rng.standard_normal((n_sites, scheme.N)) * scale[:, None]
        layers.append(GridSequence(lo, vals, implicit_zero=True))
    return tuple(layers)


def decaying_boundary_data(
    scheme: SchemeDef, n_max: int, dt: float, seed: int = 0
) -> np.ndarray:
    """Seeded boundary rows with amplitude (1 + n dt)^{-1}."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_max + 1, scheme.r, scheme.N))
    g *= (1.0 + np.arange(n_max + 1) * dt).reshape(-1, 1, 1) ** (-1.0)
    g[: scheme.s + 1] = 0.0
    return g


# ---------------------------------------------------------------------------
# hypothesis checks shared by the verifiers


def _hypothesis_report(scheme: SchemeDef) -> tuple:
    issues = []
    vn = von_neumann_check(scheme, n_theta=256)
    if not vn.ok:
        issues.append(f"power boundedness fails (radius {vn.max_radius:.4f})")
    gl = find_glancing(scheme, n_theta=256)
    if gl.has_glancing:
        issues.append("glancing modes present")
    try:
        scan = uklc_scan(scheme, radii=(1e-1, 1e-2, 1e-3, 1e-4), n_theta=24)
        if not scan.plausible:
            issues.append(f"determinant lower bound fails (min {scan.min_abs:.2e})")
    except ResolventError as exc:  # count mismatch etc.
        issues.append(f"determinant scan failed: {exc}")
    return tuple(issues)


# ---------------------------------------------------------------------------
# verifiers


@dataclass(frozen=True)
class EstimateReport:
    """Empirical LHS/RHS ratios over (dt, gamma) cells.

    ``ratios[i, k]`` is the ratio at dts[i], gammas[k]; ``slope`` is the
    log-log slope of the per-dt max ratio against 1/dt (positive means
    growth under refinement); bounded means slope <= 0.1.
    """

    kind: str
    dts: tuple
    gammas: tuple
    ratios: np.ndarray
    max_ratio: float
    slope: float
    bounded: bool
    hypotheses_met: bool
    issues: tuple
    vacuous: bool
    verdict: str


def _ratio_table(runs, gammas, entry) -> tuple:
    """(ratios, measured) over the entries of ``runs`` (see ``_ladder_sums``)
    and ``gammas``: entry(dt, data, sums) takes an entry's gamma-free terms
    once and gives its cell, and cell i, k is lhs / rhs of cell(gamma),
    measured where rhs > 0 and NaN elsewhere."""
    ratios = np.full((len(runs), len(gammas)), np.nan)
    measured = np.zeros(ratios.shape, dtype=bool)
    for i, run in enumerate(runs):
        cell = entry(*run)
        for k, gamma in enumerate(gammas):
            lhs, rhs = cell(gamma)
            if rhs > 0:
                measured[i, k], ratios[i, k] = True, lhs / rhs
    return ratios, measured


def _fit(name, dts, gammas, ratios, measured) -> tuple:
    """(slope, max, bounded, text) of a ratio table.

    The slope is the least-squares slope of log(per-dt max ratio) against
    log(1/dt), positive for growth under refinement; bounded means slope
    <= SLOPE_TOL.  A measured cell that is not finite (the norms
    overflowed) counts as growth, and the first is named by its dt and,
    unless ``gammas`` is None, its gamma; slope and max read finite cells.
    """
    blown = np.argwhere(measured & ~np.isfinite(ratios))
    finite = np.where(np.isfinite(ratios), ratios, np.nan)
    x, y = 1.0 / np.asarray(dts), np.fmax.reduce(finite, axis=1, initial=np.nan)
    good = (x > 0) & (y > 0)
    slope = float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0]) if good.sum() >= 2 else 0.0
    top = float(np.fmax.reduce(finite, axis=None, initial=np.nan))
    text = f"{name} {top:.3g}, slope {slope:+.3f}"
    if len(blown):
        i, k = blown[0]
        at = f"dt {dts[i]:g}" + ("" if gammas is None else f", gamma {gammas[k]:g}")
        return slope, top, False, f"non-finite {name} at {at}; max finite {text}"
    return slope, top, slope <= SLOPE_TOL, f"max {text}"


def _estimate_report(kind, dts, gammas, runs, entry, issues) -> EstimateReport:
    """Ratio table (see ``_ratio_table``), fit (see ``_fit``) and verdict."""
    ratios, measured = _ratio_table(runs, gammas, entry)
    vacuous = not measured.any()
    slope, max_ratio, bounded, fit = _fit("ratio", dts, gammas, ratios, measured)
    if vacuous:
        max_ratio, verdict = 0.0, f"{kind}: vacuous (zero data)"
    else:
        parts = ["hypotheses unmet (" + "; ".join(issues) + ")"] if issues else []
        parts.append(f"{'bounded' if bounded else 'growth observed'} ({fit})")
        verdict = f"{kind}: " + ", ".join(parts)
    return EstimateReport(
        kind=kind, dts=tuple(dts), gammas=tuple(gammas), ratios=ratios,
        max_ratio=max_ratio, slope=slope, bounded=bounded,
        hypotheses_met=not issues, issues=issues, vacuous=vacuous, verdict=verdict,
    )


def _trace_lhs(scheme, dt, sums, gamma, P, n_start) -> float:
    """gamma/(gamma dt + 1) * interior + trace_P over levels n >= n_start."""
    ns = _weighted_norms(dt, dt / scheme.lam, sums, gamma, P, n_start)
    return gamma / (gamma * dt + 1) * ns.interior + ns.trace


@np.errstate(all="ignore")
def verify_thm1(
    scheme: SchemeDef,
    f_generator=None,
    gammas=DEFAULT_GAMMAS,
    refinements=DEFAULT_REFINEMENTS,
    P: int = 3,
    t_end: float = DEFAULT_T_END,
    seed: int = 0,
) -> EstimateReport:
    """Trace estimate with nonzero initial data, F = g = 0.

    For each dt and gamma the ratio

        [gamma/(gamma dt + 1) * interior + trace_P] / [sum_n<=s dx |f^n|^2]

    is computed with sums over n >= 0; the verdict is bounded when the
    per-dt maximum shows no growth trend under dt refinement.  Refinements
    with the same data (the default) reduce prefixes of one march.
    """
    issues, cols = _hypothesis_report(scheme), _trace_cols(scheme.r, P)
    runs = _ladder_sums(scheme, refinements, t_end, seed,
                        lambda sq, levels: _level_sums(sq, cols), f_gen=f_generator)

    def entry(dt, data, sums):
        mass = sum(f.norm_sq(dt / scheme.lam) for f in data.f)
        return lambda gamma: (_trace_lhs(scheme, dt, sums, gamma, P, 0), mass)

    return _estimate_report("trace-estimate", refinements, gammas, runs, entry, issues)


@np.errstate(all="ignore")
def verify_strong_stability(
    scheme: SchemeDef,
    g_gen=None,
    F_gen=None,
    gammas=DEFAULT_GAMMAS,
    refinements=DEFAULT_REFINEMENTS,
    t_end: float = DEFAULT_T_END,
    seed: int = 0,
) -> EstimateReport:
    """Strong-stability ratios: zero initial layers, boundary/interior forcing.

    LHS sums run over n >= s+1 with the trace taken over j = 1-r..p; the
    RHS couples the interior source with weight e^{-2 gamma (n+1) dt} over
    n >= s and the boundary source over n >= s+1, whose rows past n_max
    are not read.  A None row of the interior source adds nothing, and
    with a source every gamma must be positive.
    """
    if F_gen is not None and not all(gamma > 0 for gamma in gammas):
        raise SimError("gamma must be positive when F is given: F's weight is "
                       "(gamma dt + 1)/gamma")
    if g_gen is None:
        g_gen = lambda sch, dt, n_max, rng: decaying_boundary_data(
            sch, n_max, dt, seed=seed
        )
    issues = _hypothesis_report(scheme)
    s, cols = scheme.s, _trace_cols(scheme.r, scheme.p)
    zero = [GridSequence.zeros(1 - scheme.r, 1, scheme.N, implicit_zero=True)
            for _ in range(s + 1)]
    runs = _ladder_sums(scheme, refinements, t_end, seed,
                        lambda sq, levels: _level_sums(sq, cols),
                        lambda *_: zero, g_gen, F_gen)

    def entry(dt, data, sums):
        n_max, dx = len(sums[0]) - 1, dt / scheme.lam
        gmass = None if data.g is None else np.sum(np.abs(data.g[: n_max + 1]) ** 2, axis=(1, 2))
        masses = [] if data.F is None else [
            0.0 if data.F[n] is None else data.F[n].norm_sq(dx) for n in range(s, n_max)]

        def cell(gamma):
            rhs = 0.0
            if gmass is not None:
                weights = np.exp(-2 * gamma * np.arange(n_max + 1) * dt)
                rhs += float(np.sum(dt * weights[s + 1 :] * gmass[s + 1 :]))
            for n, mass in enumerate(masses, start=s):
                rhs += (gamma * dt + 1) / gamma * dt * np.exp(-2 * gamma * (n + 1) * dt) * mass
            return _trace_lhs(scheme, dt, sums, gamma, scheme.p, s + 1), rhs

        return cell

    return _estimate_report("strong-stability", refinements, gammas, runs, entry, issues)


@dataclass(frozen=True)
class SemigroupReport:
    """sup-norm ratios C2 across refinements plus the energy cross-checks.

    ``step_violation`` is the largest value of
    (|U^{n+1}|^2 - |U^n|^2 - rate(trace)) / scale seen at any step (only
    for s = 0 schemes with a contractive symbol); ``chain_ok`` records the
    summed boundary-trace bound with the same rate constant.
    """

    dts: tuple
    C2: tuple
    slope: float
    bounded: bool
    uklc_plausible: bool
    consistent_with_uklc: bool
    step_violation: float | None
    chain_ok: bool | None
    verdict: str


@np.errstate(all="ignore")
def verify_semigroup(
    scheme: SchemeDef,
    f_generator=None,
    refinements=DEFAULT_REFINEMENTS,
    t_end: float = DEFAULT_T_END,
    seed: int = 0,
) -> SemigroupReport:
    """Semigroup ratio sup_n |U^n|^2 / |f|^2 across refinements, F = g = 0.

    For one-step schemes with a contractive symbol the per-step inequality
    sum_{j>=1}|U^{n+1}|^2 - sum_{j>=1}|U^n|^2 <= rate(boundary trace) is
    checked at every step of every run, and the summed version
    sup_n ||U^n||^2 <= ||f||^2 + C sum_n dt |trace|^2 is cross-checked.
    As in ``verify_thm1``, refinements with the same data share one march.
    """
    try:
        # marginal determinant zeros only show up close to the circle
        radii = tuple(10.0 ** -k for k in range(1, 8))
        uklc_plausible = uklc_scan(scheme, radii=radii, n_theta=24).plausible
    except ResolventError:
        uklc_plausible = False
    try:
        rate = boundary_energy_rate(scheme) if scheme.s == 0 else None
    except DecompositionError:
        rate = None

    r, w, N = scheme.r, scheme.r + scheme.p, scheme.N

    def reduce(sq, levels):
        sums = sq.sum(axis=(1, 2)), sq[:, r:].sum(axis=(1, 2))
        if rate is None:
            return sums
        # U^n on j = 1-r..p, zero past the stored window, as 1 x d rows:
        # their products keep rate.evaluate's bits
        jets = np.zeros((len(levels), w, N), dtype=complex)
        jets[:, : levels.shape[1]] = levels[:, :w]
        jets = jets.reshape(len(levels), 1, w * N)
        rates = (jets.conj() @ rate.matrix @ jets.transpose(0, 2, 1)).real[:, 0, 0]
        return sums + (rates, np.sum(np.abs(jets) ** 2, axis=(1, 2)))

    runs = _ladder_sums(scheme, refinements, t_end, seed, reduce, f_gen=f_generator)
    # one gamma-free column, whose unmeasured cells read 0.0
    C2, measured = _ratio_table(runs, (None,), lambda dt, data, sums: lambda _: (
        float((dt / scheme.lam * sums[0]).max()),
        sum(f.norm_sq(dt / scheme.lam) for f in data.f)))
    C2 = np.where(measured, C2, 0.0)
    step_violation = chain_ok = None
    for dt, _, (_, interior_mass, *steps) in runs:
        dx = dt / scheme.lam
        if rate is not None:
            rates, jets_sq = (x[:-1] for x in steps)  # the steps from n < n_max
            scale = max(float(interior_mass.max()), 1e-30)
            # fmax skips a NaN gap; max keeps a NaN step_violation
            step_violation = max(step_violation or 0.0, np.fmax.reduce(
                (np.diff(interior_mass) - rates) / scale, initial=-np.inf))
            traces_sq = 0.0
            for jet_sq in (dt * jets_sq).tolist():
                traces_sq += jet_sq  # in step order: a pairwise sum moves bits
            # telescoped: sup_n dx sum_{j>=1}|U^n|^2
            #   <= dx sum_{j>=1}|U^0|^2 + (C/lam) sum_n dt |trace|^2
            lhs_chain = float(interior_mass.max()) * dx
            rhs_chain = interior_mass[0] * dx + rate.constant / scheme.lam * traces_sq
            ok = lhs_chain <= rhs_chain * (1 + 1e-10) + 1e-12
            chain_ok = ok if chain_ok is None else (chain_ok and ok)

    slope, _, bounded, fit = _fit("C2", refinements, None, C2, measured)
    consistent = bounded == uklc_plausible
    verdict = (
        f"semigroup: {'bounded' if bounded else 'growth observed'} ({fit}); "
        f"determinant scan {'passes' if uklc_plausible else 'fails'}"
        f"{' — consistent' if consistent else ' — INCONSISTENT'}"
    )
    return SemigroupReport(
        dts=tuple(refinements), C2=tuple(C2[:, 0].tolist()), slope=slope, bounded=bounded,
        uklc_plausible=uklc_plausible, consistent_with_uklc=consistent,
        step_violation=step_violation, chain_ok=chain_ok, verdict=verdict,
    )
