"""Oscillatory wave packets and the geometric-optics comparison.

A packet is a fast oscillation e^{i j xi_bar} at a fixed grid frequency
modulated by a smooth envelope a(j dx) whose Fourier transform is a
compactly supported bump; sampling the envelope at finer grids keeps the
carrier fixed in grid units while the physical profile is refined.  The
multistep recursion is viewed through its stacked one-step form: the
state W_j^n = (V_j^{n+s}, ..., V_j^n) evolves by the amplification
matrix, whose near-unit-circle eigenvalue branches carry phase
e^{i n omega_p} and transport envelopes at the group velocities.  The
module builds band-limited envelopes, polarized packet data, the
frozen-coefficient approximate solution, measured error scaling, and
the boundary-trace growth experiment separating zero-group-velocity
carriers from transported ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import BRANCH_COND_MAX, GridSequence, SchemeDef, _clusters, _eig_derivs
from .sim import _march, run_cauchy
from .symbol import _amplification_stack, _velocity

UNIT_BRANCH_TOL = 1e-8
ENVELOPE_TOL = 1e-10


class WavepacketError(ValueError):
    """Raised for unusable envelopes, branches, or packet data."""


# ---------------------------------------------------------------------------
# band-limited envelope


def _bump(t: np.ndarray) -> np.ndarray:
    """C-infinity bump exp(-1/(1-t^2)) on (-1, 1), zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _grid_sum(x0: float, dx: float, count: int, nodes, coef) -> np.ndarray:
    """sum_n coef[n] e^{i x nodes[n]} at x = x0 + k dx, k = 0..count-1.

    k = B q + m, B = ceil(sqrt(count)) splits e^{i x nu} into e^{i (x0 + B q
    dx) nu} (Q x n) times e^{i m dx nu} (n x B): (Q + B) n exponentials.
    """
    B = int(np.ceil(np.sqrt(count))) or 1
    outer = np.exp(1j * np.multiply.outer(x0 + dx * np.arange(0, count, B), nodes))
    inner = np.exp(1j * np.multiply.outer(nodes, dx * np.arange(B)))
    return (outer @ (inner * coef[:, None])).ravel()[:count]


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """numpy's n-node Gauss-Legendre rule on [-1, 1], built once per n and
    kept read-only; ``make_envelope`` asks only for 16, 32, ..., 8192 nodes."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@dataclass(frozen=True)
class Envelope:
    """Smooth envelope with Fourier transform supported in [-d0/2, d0/2].

    Values come from a Gauss-Legendre quadrature of the inverse Fourier
    integral whose node count was doubled until the values on the
    certification grid moved by at most ENVELOPE_TOL; ``x_certified`` is the
    half-width of that grid and ``quad_error`` the last observed change.
    ``_grids`` holds the read-only samples on the certified window, at most
    one array per dx, taken when ``packet_initial_data`` first reads them.
    """

    delta0: float
    nodes: np.ndarray
    weights: np.ndarray
    x_certified: float
    quad_error: float
    _grids: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def fourier(self, xi) -> np.ndarray:
        """The transform profile: a bump supported on |xi| <= delta0/2."""
        return _bump(2.0 * np.asarray(xi, dtype=float) / self.delta0)

    def __call__(self, x):
        """a(x) = (1/2 pi) integral of fourier(xi) e^{i x xi} d xi."""
        x = np.asarray(x, dtype=float)
        phases = np.exp(1j * np.multiply.outer(x, self.nodes))
        vals = phases @ (self.weights * self.fourier(self.nodes)) / (2 * np.pi)
        return vals if vals.shape else complex(vals)

    def on_grid(self, x0: float, dx: float, count: int) -> np.ndarray:
        """a(x0 + k dx) for k = 0..count-1, from one blocked product."""
        coef = self.weights * self.fourier(self.nodes) / (2 * np.pi)
        return _grid_sum(x0, dx, count, self.nodes, coef)

    @property
    def value_at_zero(self) -> float:
        return float(np.real(self(0.0)))

    @property
    def norm_l2_sq(self) -> float:
        """L2 norm squared of a, via the transform (Plancherel)."""
        f = self.fourier(self.nodes)
        return float(np.sum(self.weights * np.abs(f) ** 2)) / (2 * np.pi)


def make_envelope(delta0: float, x_max: float | None = None) -> Envelope:
    """Build the band-limited envelope of spectral half-width delta0/2.

    Quadrature nodes are doubled from 16 until values on [0, x_max] change
    by at most ENVELOPE_TOL, and 8192 nodes is the last rule tried; the
    default certification range scales like 1/delta0 so the envelope tail
    at the range edge sits below the quadrature error.  Each rule is built
    once per process (``_gauss_legendre``) and shared by every envelope.
    A delta0 or x_max that is not finite and positive is refused before
    any rule is built.
    """
    if not (np.isfinite(delta0) and delta0 > 0):
        raise WavepacketError(
            f"spectral width delta0 must be finite and positive, got {delta0}")
    if x_max is None:
        x_max = 160.0 / delta0
    if not (np.isfinite(x_max) and x_max > 0):
        raise WavepacketError(
            f"certification range x_max must be finite and positive, got {x_max}")
    half = delta0 / 2.0

    def values(n: int) -> np.ndarray:
        t, w = _gauss_legendre(n)
        nodes, weights = half * t, half * w
        coef = weights * _bump(t) / (2 * np.pi)
        return _grid_sum(0.0, x_max / 256, 257, nodes, coef), nodes, weights

    prev, nodes, weights = values(16)
    n = 16
    while n < 8192:
        n *= 2
        cur, nodes, weights = values(n)
        err = float(np.max(np.abs(cur - prev)))
        if err <= ENVELOPE_TOL:
            return Envelope(
                delta0=float(delta0), nodes=nodes, weights=weights,
                x_certified=float(x_max), quad_error=err,
            )
        prev = cur
    raise WavepacketError(
        f"quadrature not converged to {ENVELOPE_TOL} with 8192 nodes on [0, {x_max}]"
    )


# ---------------------------------------------------------------------------
# packet specification


@dataclass(frozen=True)
class PacketSpec:
    """Carrier frequency, branch data, envelope, and amplitude vector.

    ``omegas[k]`` is the frequency of branch k (real for unit-modulus
    eigenvalues, positive imaginary part for decaying ones) and
    ``projectors[k]`` its rank-one spectral projector; ``branch`` indexes
    the carrier branch.  ``velocities[k]`` holds the group velocity of
    each unit-modulus branch (NaN for decaying ones).  ``amplitude`` is
    the stacked-state vector in C^{N(s+1)}; ``polarized`` records whether
    it lies in the span of the unit-modulus branch directions.
    """

    scheme: SchemeDef
    xi_bar: float
    branch: int
    envelope: Envelope
    amplitude: np.ndarray
    eigenvalues: tuple
    omegas: tuple
    velocities: tuple
    projectors: tuple
    polarized: bool
    sharp_residual: float

    @property
    def z_bar(self) -> complex:
        return self.eigenvalues[self.branch]

    @property
    def omega(self) -> complex:
        return self.omegas[self.branch]

    @property
    def velocity(self) -> float:
        return self.velocities[self.branch]

    @property
    def unimodular(self) -> tuple:
        """Indices of the unit-modulus branches."""
        return tuple(
            k for k, mu in enumerate(self.eigenvalues)
            if abs(abs(mu) - 1.0) <= UNIT_BRANCH_TOL
        )


def make_packet(
    scheme: SchemeDef,
    xi_bar: float,
    envelope: Envelope,
    branch: int = 0,
    amplitude: np.ndarray | None = None,
) -> PacketSpec:
    """Diagonalize the stacked one-step matrix at the carrier frequency.

    Branches are ordered by decreasing modulus, then increasing argument,
    so unit-modulus branches come first.  The default amplitude is the
    unit right eigenvector of the selected branch, which satisfies both
    polarization conditions; an explicit amplitude is accepted as long as
    the branch eigenvalues are simple.  A carrier frequency that is not
    finite is refused.
    """
    if not np.isfinite(xi_bar):
        raise WavepacketError(f"carrier frequency xi_bar must be finite, got {xi_bar}")
    # one eigen-solve: the branches, their vectors and exact theta-derivatives
    amp, damp = _amplification_stack(scheme, [np.exp(1j * xi_bar)], derivative=True)
    (mus,), (derivs,), (conds,), (right,), (right_inv,) = _eig_derivs(amp, damp)
    d = len(mus)
    if len(_clusters(mus)) < d:
        raise WavepacketError(
            "repeated branch eigenvalue; spectral projectors are not defined"
        )
    if not np.all(conds <= BRANCH_COND_MAX):
        raise WavepacketError("nearly defective branch eigenvalue")
    if not 0 <= branch < d:
        raise WavepacketError(f"branch index {branch} out of range [0, {d})")
    # quantize the modulus so float noise cannot flip the ordering of
    # branches that share |mu| (ties fall to increasing argument)
    order = np.lexsort(
        (np.mod(np.angle(mus), 2 * np.pi), -np.round(np.abs(mus), 6))
    )
    mus, derivs, right, left = mus[order], derivs[order], right[:, order], right_inv[order]

    unimod = np.abs(np.abs(mus) - 1.0) <= UNIT_BRANCH_TOL
    projectors = []
    omegas = []
    velocities = []
    for k in range(d):
        # the rows of right^{-1} are left eigenvectors with y^H x = 1
        projectors.append(np.outer(right[:, k], left[k]))
        omega = complex(np.angle(mus[k]) - 1j * np.log(abs(mus[k])))
        omegas.append(complex(omega.real) if unimod[k] else omega)
        velocities.append(
            _velocity(scheme, complex(mus[k]), derivs[k]) if unimod[k]
            else float("nan")
        )

    if amplitude is None:
        vec = right[:, branch]
        peak = int(np.argmax(np.abs(vec)))
        vec = vec * (np.abs(vec[peak]) / vec[peak])
        amplitude = vec / np.linalg.norm(vec)
    else:
        amplitude = np.asarray(amplitude, dtype=complex).reshape(d)

    proj_sum = sum((projectors[k] for k in np.flatnonzero(unimod)),
                   np.zeros((d, d), dtype=complex))
    sharp = amplitude - proj_sum @ amplitude
    residual = float(np.linalg.norm(sharp))
    return PacketSpec(
        scheme=scheme, xi_bar=float(xi_bar), branch=int(branch),
        envelope=envelope, amplitude=amplitude,
        eigenvalues=tuple(complex(m) for m in mus),
        omegas=tuple(omegas), velocities=tuple(velocities),
        projectors=tuple(projectors),
        polarized=bool(residual <= 1e-8 * np.linalg.norm(amplitude)),
        sharp_residual=residual,
    )


# ---------------------------------------------------------------------------
# packet data and the approximate solution


def packet_initial_data(spec: PacketSpec, dx: float):
    """Sample the stacked packet into the s+1 initial layers.

    The stacked state at level 0 is W_j^0 = e^{i j xi_bar} amplitude
    a(j dx); block b of the amplitude is layer s-b.  The data span the
    envelope's certified window, j = -J..J with J = floor(x_certified/dx),
    and are cut at its edge: the default window (x_certified = 160/delta0)
    ends where |a| is still about 1.9e-5 of its peak, and past it the
    quadrature error was never certified.  The samples are taken once per
    dx and then reused.  A dx that is not finite and positive is refused.
    """
    if not (np.isfinite(dx) and dx > 0):
        raise WavepacketError(f"grid step must be finite and positive, got {dx}")
    scheme, envelope = spec.scheme, spec.envelope
    N, s = scheme.N, scheme.s
    half = int(np.floor(envelope.x_certified / dx))
    j = np.arange(-half, half + 1)
    env = envelope._grids.get(dx)
    if env is None:
        env = envelope.on_grid(-half * dx, dx, j.size)
        env.setflags(write=False)
        envelope._grids[dx] = env
    carrier = np.exp(1j * j * spec.xi_bar) * env
    layers = []
    for sigma in range(s + 1):
        block = spec.amplitude[(s - sigma) * N : (s - sigma + 1) * N]
        layers.append(
            GridSequence(
                int(j[0]), np.outer(carrier, block), implicit_zero=True
            )
        )
    return tuple(layers)


def approx_solution(
    spec: PacketSpec, dx: float, n: int, j_min: int, j_max: int
) -> GridSequence:
    """Geometric-optics state on [j_min, j_max] at level n.

    Sums e^{i(n omega_p + j xi_bar)} P_p amplitude a(j dx - n dt v_p)
    over the unit-modulus branches; dt = lam dx.  Decaying branches
    belong to the uniformly power-bounded remainder and are omitted, so
    the spec must be polarized for the comparison to be meaningful.
    """
    if not spec.polarized:
        raise WavepacketError(
            "amplitude has a component off the unit-modulus branches "
            f"(residual {spec.sharp_residual:.3e}); no slow-envelope ansatz"
        )
    scheme = spec.scheme
    dt = scheme.lam * dx
    j = np.arange(j_min, j_max + 1)
    d = scheme.N * (scheme.s + 1)
    out = np.zeros((j.size, d), dtype=complex)
    carrier = np.exp(1j * j * spec.xi_bar)
    for k in spec.unimodular:
        direction = spec.projectors[k] @ spec.amplitude
        if np.max(np.abs(direction)) < 1e-15:
            continue
        x0 = j_min * dx - n * dt * spec.velocities[k]
        env = spec.envelope.on_grid(x0, dx, j.size)
        phase = np.exp(1j * n * spec.omegas[k])
        out += np.outer(phase * carrier * env, direction)
    return GridSequence(int(j_min), out)


def stacked_state(trace, n: int, j_min: int, j_max: int) -> np.ndarray:
    """Stack levels n+s .. n of a solution trace into (L, N(s+1)) rows."""
    s = trace.scheme.s
    if n + s > trace.n_max:
        raise WavepacketError(
            f"stacked state at level {n} needs levels up to {n + s}, "
            f"trace has {trace.n_max}"
        )
    return np.hstack([trace.layers[n + s - b].window(j_min, j_max) for b in range(s + 1)])


# ---------------------------------------------------------------------------
# error measurement


@dataclass(frozen=True)
class PacketErrorReport:
    """Sup-norm gap between the exact and geometric-optics evolutions.

    ``sup_errors[k]`` is sup_j of the stacked-state vector norm of the
    difference at level ``n_list[k]``; ``fitted_constant`` is the largest
    value of error^2 / (dx (1 + T^2)) over the levels, the constant of
    the dispersive error bound err^2 <= C dx (1 + T^2).  That bound is an
    upper bound and fixes no rate: for smooth band-limited envelopes the
    measured error is first order in dx.
    """

    dx: float
    n_list: tuple
    times: tuple
    sup_errors: tuple
    fitted_constant: float


def packet_error(spec: PacketSpec, n_list, dx: float) -> PacketErrorReport:
    """Measure sup_j |exact - ansatz| at the requested levels.

    The reported errors obey the upper bound err^2 <= C dx (1 + T^2);
    for smooth band-limited data the measured rate is first order in dx,
    since the ansatz moves the envelope rigidly and misses its O(dx)
    spreading by the branch's second derivative (diffusion for upwind).
    The packet data are ``packet_initial_data``'s: cut at the envelope's
    certified window, where |a| is about 1.9e-5 of its peak.  Levels must
    be nonnegative integers.
    """
    scheme = spec.scheme
    n_list = tuple(n_list)
    if not n_list:
        raise WavepacketError("n_list is empty: no levels to measure")
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0
               for n in n_list):
        raise WavepacketError(f"levels must be nonnegative integers, got {n_list}")
    n_list = tuple(int(n) for n in n_list)
    n_top = max(n_list) + scheme.s
    layers = packet_initial_data(spec, dx)
    trace = run_cauchy(scheme, layers, n_max=n_top, dt=scheme.lam * dx)
    dt = scheme.lam * dx
    sups = []
    consts = []
    for n in n_list:
        # evaluation window: support of the exact stacked state at level n
        # (levels up to n+s spread by n steps from the data; outside it
        # only the truncated envelope tail would contribute)
        j_lo = layers[0].offset - n * scheme.p
        j_hi = layers[0].last + n * scheme.r
        exact = stacked_state(trace, n, j_lo, j_hi)
        ansatz = approx_solution(spec, dx, n, j_lo, j_hi).values
        gap = float(np.max(np.linalg.norm(exact - ansatz, axis=1)))
        sups.append(gap)
        T = n * dt
        consts.append(gap**2 / (dx * (1.0 + T**2)))
    return PacketErrorReport(
        dx=float(dx), n_list=n_list,
        times=tuple(n * dt for n in n_list),
        sup_errors=tuple(sups),
        fitted_constant=float(max(consts)),
    )


# ---------------------------------------------------------------------------
# trace growth experiment


@dataclass(frozen=True)
class TraceGrowthReport:
    """Boundary-trace sums of the whole-line packet evolution.

    ``trace_sums[i, k]`` is sum_{n <= T_k/dt_i} dt |W_0^n|^2 for the
    stacked state at j = 0.  For a zero-group-velocity carrier the sums
    grow linearly in T with slope ``reference`` = |amplitude * a(0)|^2
    (``slopes``/``r_squared`` hold the per-dt linear fits); for a
    transported carrier they saturate, and ``mass_ratios`` (trace sum
    over initial mass) stays flat as T doubles.
    """

    dts: tuple
    Ts: tuple
    trace_sums: np.ndarray
    slopes: tuple
    intercepts: tuple
    r_squared: tuple
    reference: float
    mass_ratios: np.ndarray
    velocity: float


def glancing_trace_experiment(spec: PacketSpec, T_list, dt_list) -> TraceGrowthReport:
    """Accumulate dt |W_0^n|^2 over n <= T/dt for each (dt, T) cell.

    The packet data are ``packet_initial_data``'s: cut at the envelope's
    certified window, where |a| is about 1.9e-5 of its peak.  Horizons
    must be finite and nonnegative, at least two of them distinct, and
    time steps finite and positive; others are refused before any march.
    """
    Ts = tuple(float(T) for T in T_list)
    dts = tuple(float(dt) for dt in dt_list)
    if not all(np.isfinite(T) and T >= 0 for T in Ts):
        raise WavepacketError(f"horizons must be finite and nonnegative, got {Ts}")
    if len(set(Ts)) < 2:
        raise WavepacketError(f"need at least two distinct horizons for a linear fit, got {Ts}")
    if not dts:
        raise WavepacketError("dt_list is empty: no time steps to run")
    if not all(np.isfinite(dt) and dt > 0 for dt in dts):
        raise WavepacketError(f"time steps must be finite and positive, got {dts}")
    scheme = spec.scheme
    s = scheme.s
    sums = np.zeros((len(dts), len(Ts)))
    ratios = np.zeros_like(sums)
    slopes, intercepts, rsq = [], [], []
    # floor(T / dt), taking 0.3 / 0.1 = 2.9999999999999996 as 3
    lasts = [np.floor(np.array(Ts) / dt * (1 + 4 * np.finfo(float).eps)).astype(int)
             for dt in dts]
    runs = [(packet_initial_data(spec, dt / scheme.lam), int(last.max()) + s,
             None, None, None, dt) for dt, last in zip(dts, lasts)]
    # every dt's run over the one column j = 0, in one march
    traces = _march(scheme, runs, whole_line=(0, 0))
    for i, ((layers, n_top, *_, dt), last, trace) in enumerate(zip(runs, lasts, traces)):
        dx = dt / scheme.lam
        mass = sum(lay.norm_sq(dx) for lay in layers)
        col = trace.levels[:, 0]
        w0 = np.hstack([col[s - b : n_top + 1 - b] for b in range(s + 1)])
        level_sq = np.sum(np.abs(w0) ** 2, axis=1)
        cumulative = dt * np.cumsum(level_sq)
        sums[i] = cumulative[last]
        ratios[i] = sums[i] / mass if mass > 0 else 0.0
        coeffs = np.polyfit(Ts, sums[i], 1)
        fit = np.polyval(coeffs, Ts)
        ss_res = float(np.sum((sums[i] - fit) ** 2))
        ss_tot = float(np.sum((sums[i] - np.mean(sums[i])) ** 2))
        slopes.append(float(coeffs[0]))
        intercepts.append(float(coeffs[1]))
        rsq.append(1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)
    reference = float(
        np.linalg.norm(spec.amplitude) ** 2 * spec.envelope.value_at_zero**2
    )
    return TraceGrowthReport(
        dts=dts, Ts=Ts, trace_sums=sums,
        slopes=tuple(slopes), intercepts=tuple(intercepts),
        r_squared=tuple(rsq), reference=reference, mass_ratios=ratios,
        velocity=spec.velocity,
    )
