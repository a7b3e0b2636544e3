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
no artificial outflow condition ever enters.

Each solver returns its run as an ``IBVPTrace``, one (n_max+1, L, N)
array of levels.  The module accumulates from it the Laplace-weighted norms
of the trace, strong-stability, and semigroup estimates, all sums of
|U_j^n|^2, and runs the corresponding empirical verifiers across
(gamma, dt) grids.  A run reads dt only to scale F, so with F = g = 0 and
the same initial layers at every dt of a fixed-lam ladder, the run to n
levels is the first n + 1 levels of any longer run, cut to its own width:
the trace and semigroup verifiers march such a ladder once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GridSequence, RangeError, SchemeDef, SchemeError, _apply_taps
from .resolvent import uklc_scan
from .sbp import DecompositionError, boundary_energy_rate
from .symbol import find_glancing, von_neumann_check

DEFAULT_GAMMAS = (1e-3, 1e-2, 1e-1, 1.0)
SLOPE_TOL = 0.1


class SimError(ValueError):
    """Raised for inconsistent solver inputs or exhausted windows."""


# ---------------------------------------------------------------------------
# half-line state and stepping


@dataclass(frozen=True)
class HalfLineState:
    """Solution layers U^{n-s}..U^n on j >= 1-r with a shrinking right edge.

    ``layers[k]`` holds U^{n-s+k}; all layers start at offset 1-r and the
    newest layer has the narrowest window.  ``dt`` scales interior sources.
    """

    scheme: SchemeDef
    n: int
    layers: tuple
    dt: float = 1.0

    @property
    def edge(self) -> int:
        """Right edge of the newest layer."""
        return self.layers[-1].last

    def top(self) -> GridSequence:
        """The newest layer U^n."""
        return self.layers[-1]


def initial_state(
    scheme: SchemeDef, f_layers, pad_to: int, dt: float = 1.0
) -> HalfLineState:
    """State at n = s from initial layers f^0..f^s, zero-padded to pad_to."""
    if len(f_layers) != scheme.s + 1:
        raise SimError(f"need {scheme.s + 1} initial layers, got {len(f_layers)}")
    lo = 1 - scheme.r
    layers = []
    for f in f_layers:
        if f.offset < lo:
            raise SimError(f"initial layer starts at {f.offset} < {lo}")
        if f.last > pad_to:
            raise SimError(f"initial layer extends past the allocation {pad_to}")
        values = np.zeros((pad_to - lo + 1, scheme.N), dtype=complex)
        values[f.offset - lo : f.last - lo + 1] = f.values
        layers.append(GridSequence(lo, values, implicit_zero=f.implicit_zero))
    return HalfLineState(scheme=scheme, n=scheme.s, layers=tuple(layers), dt=dt)


def step_ibvp(
    state: HalfLineState, g_row: np.ndarray | None = None,
    F_row: GridSequence | None = None,
) -> HalfLineState:
    """One step of the half-line recursion; the window shrinks by p.

    ``g_row`` is the boundary datum g^{n+1} for j = 1-r..0, shape (r, N);
    ``F_row`` the interior source F^n on j >= 1 (indices outside its
    stored range count as zero).
    """
    scheme = state.scheme
    lo = 1 - scheme.r
    edge = state.edge
    new_edge = edge - scheme.p
    if new_edge < max(1, 1 + scheme.q):
        raise SimError(
            f"window exhausted: right edge {edge} cannot support another step"
        )
    out = np.zeros((new_edge - lo + 1, scheme.N), dtype=complex)
    prev = [lay.window(lo, edge) for lay in state.layers]  # U^{n-s}..U^n
    _advance(_taps(scheme), out, prev, new_edge, g_row, F_row, state.dt)
    keep_zero = all(lay.implicit_zero for lay in state.layers) and (
        F_row is None or F_row.implicit_zero
    )
    new = GridSequence(lo, out, implicit_zero=keep_zero)
    return HalfLineState(
        scheme=scheme, n=state.n + 1, layers=state.layers[1:] + (new,),
        dt=state.dt,
    )


def _taps(scheme: SchemeDef) -> tuple:
    """The nonzero (ell, matrix) taps of the interior and boundary recursions.

    ``interior[sigma]`` lists the taps of Q_sigma; ``boundary[k]`` lists
    (sigma, taps) for boundary row j = k + 1 - r, sigma = -1..s, leaving
    out sigmas without a nonzero tap.  A run resolves them once.
    """
    r, p, q, s = scheme.r, scheme.p, scheme.q, scheme.s

    def nonzero(pairs):
        return [(ell, m) for ell, m in pairs if np.any(m)]

    interior = [
        nonzero((ell, scheme.A(ell, sigma)) for ell in range(-r, p + 1))
        for sigma in range(s + 1)
    ]
    boundary = []
    for j in range(1 - r, 1):
        rows = [
            (sigma, nonzero((ell, scheme.B(ell, j, sigma)) for ell in range(q + 1)))
            for sigma in range(-1, s + 1)
        ]
        boundary.append([(sigma, taps) for sigma, taps in rows if taps])
    return interior, boundary


def _advance(taps, out, prev, hi, g_row, F_row, dt) -> None:
    """Write U^{n+1} into ``out`` on columns 1-r..hi from prev = U^{n-s}..U^n.

    Every row starts at column 1-r.  Columns past ``hi`` are left as they
    are; the boundary rows read ``out`` up to column 1+q, so any of those
    past ``hi`` must already hold zeros.
    """
    interior, boundary = taps
    r, s = len(boundary), len(prev) - 1
    out[: r + hi] = 0
    for sigma, sigma_taps in enumerate(interior):
        _apply_taps(out[r : r + hi], prev[s - sigma], r, sigma_taps)
    if F_row is not None:
        flo = max(1, F_row.offset)
        fhi = min(hi, F_row.last)
        if flo <= fhi:
            out[flo - 1 + r : fhi + r] += dt * F_row.window(flo, fhi)

    # boundary rows j in [1-r, 0]; sigma = -1 reads the new interior values
    if g_row is not None:
        g_row = np.asarray(g_row, dtype=complex).reshape(r, out.shape[1])
    for k, rows in enumerate(boundary):
        acc = out[k : k + 1]
        for sigma, sigma_taps in rows:
            _apply_taps(acc, out if sigma == -1 else prev[s - sigma], r, sigma_taps)
        if g_row is not None:
            acc += g_row[k]


# ---------------------------------------------------------------------------
# full runs


@dataclass(frozen=True)
class IBVPTrace:
    """Levels U^0..U^{n_max} of a run on the columns offset..j_obs.

    ``levels`` is the trace, one read-only (n_max+1, L, N) array; U^n is
    zero outside its columns where ``zero_flags[n]`` is set.  Half-line
    runs start at offset 1-r, whole-line runs at their window's left end.
    ``sq``, where given, is |levels|^2, shared by the traces cut from one
    march.  ``layers``, one GridSequence per level, is built when read.
    """

    scheme: SchemeDef
    dt: float
    levels: np.ndarray
    offset: int
    zero_flags: tuple
    j_obs: int
    sq: np.ndarray | None = None

    def __post_init__(self):
        self.levels.setflags(write=False)

    @cached_property
    def layers(self) -> tuple:
        return tuple(
            GridSequence(self.offset, lev, implicit_zero=z)
            for lev, z in zip(self.levels, self.zero_flags)
        )

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1

    @property
    def dx(self) -> float:
        return self.dt / self.scheme.lam


def _zeros(shape: tuple, n_max: int) -> np.ndarray:
    """np.zeros for a run's arrays; a horizon too large to hold is a SimError."""
    try:
        return np.zeros(shape, dtype=complex)
    except MemoryError:
        size = 16.0 * np.prod(shape, dtype=float)
        raise SimError(
            f"horizon too large: n_max {n_max} over a {shape[1]}-column "
            f"window needs {size:.3g} bytes"
        ) from None


def _as_row_provider(data, n_max: int):
    if data is None:
        return lambda n: None
    if callable(data):
        return data
    arr = np.asarray(data, dtype=complex)
    if arr.shape[0] < n_max + 1:
        raise SimError(f"need {n_max + 1} rows of boundary data, got {arr.shape[0]}")
    return lambda n: arr[n]


def run_ibvp(
    scheme: SchemeDef,
    f_layers,
    n_max: int,
    j_obs: int | None = None,
    g=None,
    F=None,
    dt: float = 1.0,
    margin: int = 0,
) -> IBVPTrace:
    """Run the half-line problem up to level n_max.

    ``g`` maps a level n >= s+1 to the boundary rows g^n (or is an array
    indexed by level, or None); ``F`` maps a level n >= s to the interior
    source F^n as a GridSequence (or None).  When ``j_obs`` is omitted it
    is sized so the reported window contains the full support of the
    solution (data influence spreads at most r columns per step), and the
    output layers are marked finitely supported.
    """
    if n_max < scheme.s:
        raise SimError(f"n_max must be at least s = {scheme.s}")
    if len(f_layers) != scheme.s + 1:
        raise SimError(f"need {scheme.s + 1} initial layers, got {len(f_layers)}")
    r, p, q, s, N = scheme.r, scheme.p, scheme.q, scheme.s, scheme.N
    lo = 1 - r
    jf = max(f.last for f in f_layers)
    auto_obs = j_obs is None
    if auto_obs:
        j_obs = max(jf, 1 + q, 1) + n_max * r
    pad_to = j_obs + (n_max - s) * p + margin
    width = j_obs - lo + 1
    levels = _zeros((n_max + 1, width, N), n_max)
    state = initial_state(scheme, f_layers, pad_to, dt=dt)
    g_of = _as_row_provider(g, n_max)
    F_of = F if F is not None else (lambda n: None)

    # a ring of s+2 full-width rows: level n lives in row n % (s+2)
    ring = _zeros((s + 2, pad_to - lo + 1, N), n_max)
    for n, lay in enumerate(state.layers):
        ring[n] = lay.values
        levels[n] = lay.values[:width]
    zero_flags = [lay.implicit_zero for lay in state.layers]
    taps = _taps(scheme)
    edge = pad_to
    # columns past hi are zero: the data's support grows by r per step,
    # and F adds its own range
    hi = max(jf, 0)
    for n in range(s, n_max):
        edge -= p
        if edge < max(1, 1 + q):
            raise SimError(
                f"window exhausted: right edge {edge + p} cannot support "
                "another step"
            )
        g_row = g_of(n + 1)
        F_row = F_of(n)
        hi = min(edge, hi + r if F_row is None else max(hi + r, F_row.last))
        out = ring[(n + 1) % (s + 2)]
        prev = [ring[k % (s + 2)] for k in range(n - s, n + 1)]
        # numpy multiplies one row by a different BLAS routine than a block
        # of rows; two rows keep every value bit-identical to a full step
        _advance(taps, out, prev, max(hi, min(2, edge)), g_row, F_row, dt)
        levels[n + 1] = out[:width]
        zero_flags.append(
            all(zero_flags[-(s + 1):]) and (F_row is None or F_row.implicit_zero)
        )
    return IBVPTrace(
        scheme, dt, levels, lo, tuple(auto_obs and z for z in zero_flags), j_obs
    )


def _ladder_traces(scheme, f_generator, refinements, t_end, seed):
    """(dt, f_layers, trace) of the F = g = 0 run at each dt, in ladder order.

    Data are built first (the seeded rng is drawn as in a loop over dt);
    entries with identical data read prefixes of one march to their largest
    n_max, and each raises the SimError its own run would, in ladder order.
    """
    if f_generator is None:
        # same data at every refinement so the slope is not fit noise
        f_generator = lambda sch, dt, n_max, rng: decaying_data(
            sch, n_sites=max(64, sch.r + sch.p + 1), seed=seed
        )
    rng = np.random.default_rng(seed)
    ladder = [(dt, int(round(t_end / dt))) for dt in refinements]
    data = [f_generator(scheme, dt, n, rng) for dt, n in ladder]
    keys = [tuple((f.offset, f.implicit_zero, f.values.shape, f.values.tobytes())
                  for f in layers) for layers in data]
    marched = {}
    for (dt, n_max), f_layers, key in zip(ladder, data, keys):
        if key not in marched and n_max >= scheme.s:
            n_long = max(n for (_, n), k in zip(ladder, keys) if k == key)
            try:
                run = run_ibvp(scheme, f_layers, n_long)
                marched[key] = run, np.abs(run.levels) ** 2
            except SimError:
                pass  # a longer run's error: this entry's own run decides
        run, sq = marched.get(key, (None, None))
        if run is None or n_max < scheme.s:
            run = run_ibvp(scheme, f_layers, n_max)
            sq = np.abs(run.levels) ** 2
        j_obs = run.j_obs - (run.n_max - n_max) * scheme.r
        cut = np.s_[: n_max + 1, : j_obs + scheme.r]
        yield dt, f_layers, IBVPTrace(
            scheme, dt, run.levels[cut], run.offset, run.zero_flags[: n_max + 1],
            j_obs, sq=sq[cut],
        )


def run_cauchy(
    scheme: SchemeDef, f_layers, n_max: int, window: tuple | None = None,
    dt: float = 1.0,
) -> IBVPTrace:
    """Run the whole-line recursion; exact on the observation window.

    Initial layers must be finitely supported.  ``window`` = (Lmin, Rmax)
    fixes the reported index range; the allocation extends it by n_max*r
    on the left and n_max*p on the right, which makes the reported values
    identical to the infinite-lattice solution.  The default window
    contains the full support of the solution through level n_max.
    """
    if len(f_layers) != scheme.s + 1:
        raise SimError(f"need {scheme.s + 1} initial layers, got {len(f_layers)}")
    if not all(f.implicit_zero for f in f_layers):
        raise SimError("whole-line initial layers must be finitely supported")
    jmin = min(f.offset for f in f_layers)
    jmax = max(f.last for f in f_layers)
    auto = window is None
    if auto:
        window = (jmin - n_max * scheme.p, jmax + n_max * scheme.r)
    Lmin, Rmax = window
    if Rmax < Lmin:
        raise SimError(f"empty observation window {window}")
    W0 = min(Lmin - n_max * scheme.r, jmin)
    W1 = max(Rmax + n_max * scheme.p, jmax)

    r, p, s, N = scheme.r, scheme.p, scheme.s, scheme.N
    levels = _zeros((n_max + 1, Rmax - Lmin + 1, N), n_max)
    ring = _zeros((s + 2, W1 - W0 + 1, N), n_max)
    crop = slice(Lmin - W0, Rmax - W0 + 1)
    for n, f in enumerate(f_layers):
        ring[n] = f.window(W0, W1)
        if n <= n_max:
            levels[n] = ring[n][crop]
    interior = _taps(scheme)[0]
    lo_k, hi_k = 0, W1 - W0  # currently valid slice of the buffer
    a, b = jmin - W0, jmax - W0  # the solution's support
    for n in range(s, n_max):
        lo_k += r
        hi_k -= p
        a -= p
        b += r
        # the observation window stays inside the valid slice, and the
        # solution is zero outside its support, so only their overlap is
        # computed; one row is widened to two as in run_ibvp
        c0, c1 = max(lo_k, a), min(hi_k, b)
        if c0 == c1 and lo_k < hi_k:
            c0, c1 = (c0, c1 + 1) if c1 < hi_k else (c0 - 1, c1)
        out = ring[(n + 1) % (s + 2)]
        out[c0 : c1 + 1] = 0
        for sigma, sigma_taps in enumerate(interior):
            _apply_taps(out[c0 : c1 + 1], ring[(n - sigma) % (s + 2)], c0, sigma_taps)
        levels[n + 1] = out[crop]
    return IBVPTrace(scheme, dt, levels, Lmin, (auto,) * (n_max + 1), Rmax)


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
    boundary = _taps(scheme)[1]
    g = np.zeros((n_max + 1, r, N), dtype=complex)
    for n in range(s + 1, n_max + 1):
        for k, rows in enumerate(boundary):
            g[n, k] = -V.layers[n].get(k + 1 - r)
            if rows:
                g[n, k] += 0.0  # -0.0 to +0.0, so 1x1 taps add as in a matmul
            for sigma, sigma_taps in rows:
                jet = V.layers[n - 1 - sigma].window(1, 1 + q)
                _apply_taps(g[n, k : k + 1], jet, 0, sigma_taps)
    return g


def split_solution(
    scheme: SchemeDef, f_layers, n_max: int, dt: float = 1.0
) -> SplitSolution:
    """Split the half-line solution into Cauchy and boundary components.

    V solves the whole-line problem with the initial layers extended by
    zero to j <= -r; W solves the half-line problem with zero initial
    layers and the reconstructed boundary source; U = V + W is asserted
    against a direct half-line run (1e-12 pointwise).
    """
    U = run_ibvp(scheme, f_layers, n_max, dt=dt)
    V = run_cauchy(
        scheme, f_layers, n_max, window=(1 - scheme.r, U.j_obs), dt=dt
    )
    g = reconstruct_boundary_source(scheme, V, n_max)
    zero = [
        GridSequence.zeros(1 - scheme.r, 1, scheme.N, implicit_zero=True)
        for _ in range(scheme.s + 1)
    ]
    W = run_ibvp(scheme, zero, n_max, j_obs=U.j_obs, g=g, dt=dt)
    mism = 0.0
    # level by level: a whole-trace difference would hold three more traces
    for u, v, w in zip(U.levels, V.levels, W.levels):
        mism = max(mism, float(np.max(np.abs(u - v - w))))
    scale = max(
        (float(np.max(np.abs(f.values))) for f in f_layers), default=1.0
    )
    if mism > 1e-12 * max(scale, 1.0):
        raise SimError(f"splitting identity violated: max |U-(V+W)| = {mism:.3e}")
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
    """Weighted interior/trace/sup accumulators of a solution trace."""
    return _weighted_norms(trace, _level_sums(trace, P), gamma, P, n_start)


def _level_sums(trace: IBVPTrace, P: int) -> tuple:
    """sum_j |U_j^n|^2 for each level n, over the stored values and over
    1-r <= j <= P.  Neither depends on gamma, so a verifier takes them once
    per trace and weights them for every gamma."""
    lo = 1 - trace.scheme.r
    if P < lo:
        raise SimError(f"trace width P must be at least {lo}")
    start = max(lo, trace.offset)
    if start > lo and not all(trace.zero_flags):
        raise RangeError(
            f"window [{lo}, {min(P, trace.j_obs)}] outside stored range "
            f"[{trace.offset}, {trace.j_obs}]"
        )
    sq = np.abs(trace.levels) ** 2 if trace.sq is None else trace.sq
    # a window ending left of 1-r has no trace columns: clamp the stop
    stop = max(min(P, trace.j_obs) - trace.offset + 1, 0)
    return sq.sum(axis=(1, 2)), sq[:, start - trace.offset : stop].sum(axis=(1, 2))


def _weighted_norms(trace, sums, gamma, P, n_start) -> NormSeries:
    if gamma < 0:
        raise SimError("gamma must be nonnegative")
    dt, dx = trace.dt, trace.dx
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


def _log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    good = (np.asarray(x) > 0) & (np.asarray(y) > 0) & np.isfinite(y)
    if good.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(np.asarray(x)[good]),
                            np.log(np.asarray(y)[good]), 1)[0])


# ---------------------------------------------------------------------------
# data generators


def decaying_data(
    scheme: SchemeDef, n_sites: int, seed: int = 0, power: float = 1.0
):
    """Seeded initial layers with |f_j| ~ (1 + j - (1-r))^{-power}."""
    rng = np.random.default_rng(seed)
    lo = 1 - scheme.r
    idx = np.arange(n_sites)
    scale = (1.0 + idx) ** (-power)
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
        scan = uklc_scan(
            scheme, radii=(1e-1, 1e-2, 1e-3, 1e-4), n_theta=24,
            check_symbol=False,
        )
        if not scan.plausible:
            issues.append(f"determinant lower bound fails (min {scan.min_abs:.2e})")
    except Exception as exc:  # count mismatch etc.
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


def _estimate_report(kind, dts, gammas, ratios, measured, issues) -> EstimateReport:
    """Fit and verdict of a ratio table; ``measured`` marks cells with data.

    A measured cell that is not finite (the norms overflowed) counts as
    growth and is named in the verdict; the fit uses the finite cells.
    """
    vacuous = not measured.any()
    blown = np.argwhere(measured & ~np.isfinite(ratios))
    finite = np.where(np.isfinite(ratios), ratios, np.nan)
    per_dt = np.fmax.reduce(finite, axis=1) if not vacuous else np.zeros(len(dts))
    slope = _log_slope(1.0 / np.asarray(dts), per_dt)
    bounded = slope <= SLOPE_TOL and not len(blown)
    max_ratio = float(np.fmax.reduce(finite, axis=None)) if not vacuous else 0.0
    if vacuous:
        verdict = f"{kind}: vacuous (zero data)"
    else:
        parts = []
        if issues:
            parts.append("hypotheses unmet (" + "; ".join(issues) + ")")
        fit = f"max ratio {max_ratio:.3g}, slope {slope:+.3f}"
        if len(blown):
            i, k = blown[0]
            fit = (f"non-finite ratio at dt {dts[i]:g}, gamma {gammas[k]:g}; "
                   f"max finite ratio {max_ratio:.3g}, slope {slope:+.3f}")
        parts.append(f"{'bounded' if bounded else 'growth observed'} ({fit})")
        verdict = f"{kind}: " + ", ".join(parts)
    return EstimateReport(
        kind=kind, dts=tuple(dts), gammas=tuple(gammas), ratios=ratios,
        max_ratio=max_ratio, slope=slope, bounded=bounded,
        hypotheses_met=not issues, issues=issues, vacuous=vacuous,
        verdict=verdict,
    )


@np.errstate(all="ignore")
def verify_thm1(
    scheme: SchemeDef,
    f_generator=None,
    gammas=DEFAULT_GAMMAS,
    refinements=(0.1, 0.05, 0.025, 0.0125),
    P: int = 3,
    t_end: float = 10.0,
    seed: int = 0,
) -> EstimateReport:
    """Trace estimate with nonzero initial data, F = g = 0.

    For each dt and gamma the ratio

        [gamma/(gamma dt + 1) * interior + trace_P] / [sum_n<=s dx |f^n|^2]

    is computed with sums over n >= 0; the verdict is bounded when the
    per-dt maximum shows no growth trend under dt refinement.  Refinements
    with the same data (the default) read prefixes of one march.
    """
    issues = _hypothesis_report(scheme)
    ratios = np.zeros((len(refinements), len(gammas)))
    measured = np.zeros(ratios.shape, dtype=bool)
    runs = _ladder_traces(scheme, f_generator, refinements, t_end, seed)
    for i, (dt, f_layers, trace) in enumerate(runs):
        dx = dt / scheme.lam
        rhs = sum(f.norm_sq(dx) for f in f_layers)
        sums = _level_sums(trace, P)
        for k, gamma in enumerate(gammas):
            ns = _weighted_norms(trace, sums, gamma, P, 0)
            lhs = gamma / (gamma * dt + 1) * ns.interior + ns.trace
            measured[i, k] = rhs > 0
            ratios[i, k] = lhs / rhs if rhs > 0 else np.nan
    return _estimate_report(
        "trace-estimate", refinements, gammas, ratios, measured, issues
    )


@np.errstate(all="ignore")
def verify_strong_stability(
    scheme: SchemeDef,
    g_gen=None,
    F_gen=None,
    gammas=DEFAULT_GAMMAS,
    refinements=(0.1, 0.05, 0.025, 0.0125),
    t_end: float = 10.0,
    seed: int = 0,
) -> EstimateReport:
    """Strong-stability ratios: zero initial layers, boundary/interior forcing.

    LHS sums run over n >= s+1 with the trace taken over j = 1-r..p; the
    RHS couples the interior source with weight e^{-2 gamma (n+1) dt} over
    n >= s and the boundary source over n >= s+1.
    """
    if g_gen is None:
        g_gen = lambda sch, dt, n_max, rng: decaying_boundary_data(
            sch, n_max, dt, seed=seed
        )
    issues = _hypothesis_report(scheme)
    rng = np.random.default_rng(seed)
    s = scheme.s
    ratios = np.zeros((len(refinements), len(gammas)))
    measured = np.zeros(ratios.shape, dtype=bool)
    for i, dt in enumerate(refinements):
        n_max = int(round(t_end / dt))
        g = g_gen(scheme, dt, n_max, rng) if g_gen is not None else None
        F_rows = F_gen(scheme, dt, n_max, rng) if F_gen is not None else None
        zero = [
            GridSequence.zeros(1 - scheme.r, 1, scheme.N, implicit_zero=True)
            for _ in range(s + 1)
        ]
        trace = run_ibvp(
            scheme, zero, n_max, g=g,
            F=(None if F_rows is None else (lambda n: F_rows[n])), dt=dt,
        )
        dx = dt / scheme.lam
        sums = _level_sums(trace, scheme.p)
        gmass = None if g is None else np.sum(np.abs(g) ** 2, axis=(1, 2))
        Fmass = [] if F_rows is None else [
            F_rows[n].norm_sq(dx) for n in range(s, n_max)]
        for k, gamma in enumerate(gammas):
            ns = _weighted_norms(trace, sums, gamma, scheme.p, s + 1)
            lhs = gamma / (gamma * dt + 1) * ns.interior + ns.trace
            weights = np.exp(-2 * gamma * np.arange(n_max + 1) * dt)
            rhs = 0.0
            if g is not None:
                rhs += float(np.sum(dt * weights[s + 1 :] * gmass[s + 1 :]))
            for n, mass in enumerate(Fmass, start=s):
                decay = np.exp(-2 * gamma * (n + 1) * dt)
                rhs += (gamma * dt + 1) / gamma * dt * decay * mass
            measured[i, k] = rhs > 0
            ratios[i, k] = lhs / rhs if rhs > 0 else np.nan
    return _estimate_report(
        "strong-stability", refinements, gammas, ratios, measured, issues
    )


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
    refinements=(0.1, 0.05, 0.025, 0.0125),
    t_end: float = 10.0,
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
        scan = uklc_scan(
            scheme, radii=tuple(10.0 ** -k for k in range(1, 8)),
            n_theta=24, check_symbol=False,
        )
        uklc_plausible = scan.plausible
    except Exception:
        uklc_plausible = False
    rate = None
    if scheme.s == 0:
        try:
            rate = boundary_energy_rate(scheme)
        except DecompositionError:
            rate = None

    C2 = []
    step_violation = None
    chain_ok = None
    for dt, f_layers, trace in _ladder_traces(
        scheme, f_generator, refinements, t_end, seed
    ):
        dx = trace.dx
        rhs = sum(f.norm_sq(dx) for f in f_layers)
        ns = accumulate_norms(trace, 0.0, scheme.p)
        C2.append(ns.sup_norm / rhs if rhs > 0 else 0.0)
        if rate is not None:
            levels, w = trace.levels, scheme.r + scheme.p
            interior_mass = trace.sq[:, scheme.r :].sum(axis=(1, 2))
            scale = max(float(interior_mass.max()), 1e-30)
            # U^n on j = 1-r..p for n < n_max, zero past the stored window,
            # as 1 x d rows: their products keep rate.evaluate's bits
            jets = np.zeros((trace.n_max, w, scheme.N), dtype=complex)
            jets[:, : levels.shape[1]] = levels[:-1, :w]
            jets = jets.reshape(trace.n_max, 1, w * scheme.N)
            rates = (jets.conj() @ rate.matrix @ jets.transpose(0, 2, 1)).real[:, 0, 0]
            # fmax skips a NaN gap; max keeps a NaN step_violation
            step_violation = max(step_violation or 0.0, np.fmax.reduce(
                (np.diff(interior_mass) - rates) / scale, initial=-np.inf))
            traces_sq = 0.0
            for jet_sq in (dt * np.sum(np.abs(jets) ** 2, axis=(1, 2))).tolist():
                traces_sq += jet_sq  # in step order: a pairwise sum moves bits
            # telescoped: sup_n dx sum_{j>=1}|U^n|^2
            #   <= dx sum_{j>=1}|U^0|^2 + (C/lam) sum_n dt |trace|^2
            lhs_chain = float(interior_mass.max()) * dx
            rhs_chain = interior_mass[0] * dx + rate.constant / scheme.lam * traces_sq
            ok = lhs_chain <= rhs_chain * (1 + 1e-10) + 1e-12
            chain_ok = ok if chain_ok is None else (chain_ok and ok)

    slope = _log_slope(1.0 / np.asarray(refinements), np.asarray(C2))
    # a C2 that overflowed counts as growth; the fit uses the finite ones
    blown = [dt for dt, c in zip(refinements, C2) if not np.isfinite(c)]
    bounded = slope <= SLOPE_TOL and not blown
    consistent = bounded == uklc_plausible
    max_c2 = max((c for c in C2 if np.isfinite(c)), default=np.nan)
    fit = f"max C2 {max_c2:.3g}, slope {slope:+.3f}"
    if blown:
        fit = (f"non-finite C2 at dt {blown[0]:g}; "
               f"max finite C2 {max_c2:.3g}, slope {slope:+.3f}")
    verdict = (
        f"semigroup: {'bounded' if bounded else 'growth observed'} ({fit}); "
        f"determinant scan {'passes' if uklc_plausible else 'fails'}"
        f"{' — consistent' if consistent else ' — INCONSISTENT'}"
    )
    return SemigroupReport(
        dts=tuple(refinements), C2=tuple(C2), slope=slope, bounded=bounded,
        uklc_plausible=uklc_plausible, consistent_with_uklc=consistent,
        step_violation=step_violation, chain_ok=chain_ok, verdict=verdict,
    )
