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

from dataclasses import dataclass

import numpy as np

from .core import GridSequence, SchemeDef
from .sim import run_cauchy
from .symbol import amplification_matrix, group_velocity

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


@dataclass(frozen=True)
class Envelope:
    """Smooth envelope with Fourier transform supported in [-d0/2, d0/2].

    Values come from a Gauss-Legendre quadrature of the inverse Fourier
    integral whose node count was doubled until the values on the
    certification grid moved by less than ``tol``; ``x_certified`` is the
    half-width of that grid and ``quad_error`` the last observed change.
    """

    delta0: float
    nodes: np.ndarray
    weights: np.ndarray
    x_certified: float
    quad_error: float
    tol: float

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


def make_envelope(
    delta0: float, x_max: float | None = None, tol: float = ENVELOPE_TOL
) -> Envelope:
    """Build the band-limited envelope of spectral half-width delta0/2.

    Quadrature nodes are doubled until values on [0, x_max] change by at
    most ``tol``; the default certification range scales like 1/delta0 so
    the envelope tail at the range edge sits below the quadrature error.
    """
    if delta0 <= 0:
        raise WavepacketError(f"spectral width must be positive, got {delta0}")
    if x_max is None:
        x_max = 160.0 / delta0
    half = delta0 / 2.0

    def values(n: int) -> np.ndarray:
        t, w = np.polynomial.legendre.leggauss(n)
        nodes, weights = half * t, half * w
        coef = weights * _bump(t) / (2 * np.pi)
        return _grid_sum(0.0, x_max / 256, 257, nodes, coef), nodes, weights

    prev, nodes, weights = values(16)
    n = 16
    while n <= 8192:
        n *= 2
        cur, nodes, weights = values(n)
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol:
            return Envelope(
                delta0=float(delta0), nodes=nodes, weights=weights,
                x_certified=float(x_max), quad_error=err, tol=tol,
            )
        prev = cur
    raise WavepacketError(
        f"quadrature not converged to {tol} with 8192 nodes on [0, {x_max}]"
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
    the branch eigenvalues are simple.
    """
    kappa = np.exp(1j * xi_bar)
    A = amplification_matrix(scheme, kappa)
    d = A.shape[0]
    mus, right = np.linalg.eig(A)
    # quantize the modulus so float noise cannot flip the ordering of
    # branches that share |mu| (ties fall to increasing argument)
    order = np.lexsort(
        (np.mod(np.angle(mus), 2 * np.pi), -np.round(np.abs(mus), 6))
    )
    mus = mus[order]
    right = right[:, order]
    if np.min(np.abs(np.subtract.outer(mus, mus))
              + np.eye(d) * 10.0) < 1e-8:
        raise WavepacketError(
            "repeated branch eigenvalue; spectral projectors are not defined"
        )
    if not 0 <= branch < d:
        raise WavepacketError(f"branch index {branch} out of range [0, {d})")
    # the eigenvalues are simple, so the rows of right^{-1} are the left
    # eigenvectors; unit columns make vdot(left, right) the reciprocal
    # eigenvalue condition number
    left = np.linalg.inv(right).conj().T
    left /= np.linalg.norm(left, axis=0)

    projectors = []
    omegas = []
    velocities = []
    for k in range(d):
        denom = np.vdot(left[:, k], right[:, k])
        if abs(denom) < 1e-12:
            raise WavepacketError("nearly defective branch eigenvalue")
        projectors.append(np.outer(right[:, k], np.conj(left[:, k])) / denom)
        unimod = abs(abs(mus[k]) - 1.0) <= UNIT_BRANCH_TOL
        omega = complex(np.angle(mus[k]) - 1j * np.log(abs(mus[k])))
        omegas.append(complex(omega.real) if unimod else omega)
        velocities.append(
            group_velocity(scheme, xi_bar, complex(mus[k])) if unimod
            else float("nan")
        )

    if amplitude is None:
        vec = right[:, branch]
        peak = int(np.argmax(np.abs(vec)))
        vec = vec * (np.abs(vec[peak]) / vec[peak])
        amplitude = vec / np.linalg.norm(vec)
    else:
        amplitude = np.asarray(amplitude, dtype=complex).reshape(d)

    proj_sum = sum(
        projectors[k] for k in range(d)
        if abs(abs(mus[k]) - 1.0) <= UNIT_BRANCH_TOL
    )
    if isinstance(proj_sum, int):
        proj_sum = np.zeros((d, d), dtype=complex)
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


def packet_initial_data(
    spec: PacketSpec,
    dx: float,
    j_min: int | None = None,
    j_max: int | None = None,
    tail_tol: float = 1e-12,
):
    """Sample the stacked packet into the s+1 initial layers.

    The stacked state at level 0 is W_j^0 = e^{i j xi_bar} amplitude
    a(j dx); block b of the amplitude is layer s-b.  The default range
    covers the envelope's certified window, trimmed where the envelope
    magnitude falls below ``tail_tol`` times its peak (the truncation
    tolerance of the finitely supported data).
    """
    if dx <= 0:
        raise WavepacketError(f"grid step must be positive, got {dx}")
    scheme = spec.scheme
    N, s = scheme.N, scheme.s
    if j_min is None:
        j_min = -int(np.floor(spec.envelope.x_certified / dx))
    if j_max is None:
        j_max = int(np.floor(spec.envelope.x_certified / dx))
    if j_max < j_min:
        raise WavepacketError(f"empty index range: j_min {j_min} > j_max {j_max}")
    j = np.arange(j_min, j_max + 1)
    env = spec.envelope.on_grid(j_min * dx, dx, j.size)
    keep = np.abs(env) > tail_tol * np.max(np.abs(env))
    if not np.any(keep):
        raise WavepacketError("envelope vanishes on the requested range")
    lo, hi = int(np.argmax(keep)), int(len(keep) - np.argmax(keep[::-1]) - 1)
    j = j[lo : hi + 1]
    carrier = np.exp(1j * j * spec.xi_bar) * env[lo : hi + 1]
    layers = []
    for sigma in range(s + 1):
        block = spec.amplitude[(s - sigma) * N : (s - sigma + 1) * N]
        layers.append(
            GridSequence(
                int(j[0]), np.outer(carrier, block), implicit_zero=True
            )
        )
    return tuple(layers)


def spectral_concentration(spec: PacketSpec, dx: float, oversample: int = 8):
    """Fraction of the data's discrete spectral mass inside the carrier band.

    The lattice transform of the sampled packet lives within
    |theta - xi_bar| <= delta0 dx / 2 modulo 2 pi; the returned fraction
    is the in-band share of the total, computed from a zero-padded FFT
    of the stacked initial data.
    """
    layers = packet_initial_data(spec, dx)
    s = spec.scheme.s
    stacked = np.hstack([layers[s - b].values for b in range(s + 1)])
    m = 1
    while m < oversample * stacked.shape[0]:
        m *= 2
    spectrum = np.fft.fft(stacked, n=m, axis=0)
    mass = np.sum(np.abs(spectrum) ** 2, axis=1)
    theta = 2 * np.pi * np.arange(m) / m
    gap = np.angle(np.exp(1j * (theta - spec.xi_bar)))
    band = np.abs(gap) <= spec.envelope.delta0 * dx / 2.0
    total = float(np.sum(mass))
    if total == 0.0:
        raise WavepacketError("zero packet data")
    return float(np.sum(mass[band])) / total


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
    blocks = [
        trace.layers[n + s - b].window(j_min, j_max) for b in range(s + 1)
    ]
    return np.hstack(blocks)


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


def packet_error(
    spec: PacketSpec, n_list, dx: float, tail_tol: float = 1e-12
) -> PacketErrorReport:
    """Measure sup_j |exact - ansatz| at the requested levels.

    The reported errors obey the upper bound err^2 <= C dx (1 + T^2);
    for smooth band-limited data the measured rate is first order in dx,
    since the ansatz moves the envelope rigidly and misses its O(dx)
    spreading by the branch's second derivative (diffusion for upwind).
    """
    scheme = spec.scheme
    n_list = tuple(int(n) for n in n_list)
    if not n_list:
        raise WavepacketError("n_list is empty: no levels to measure")
    if any(n < 0 for n in n_list):
        raise WavepacketError("levels must be nonnegative")
    n_top = max(n_list) + scheme.s
    layers = packet_initial_data(spec, dx, tail_tol=tail_tol)
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


def glancing_trace_experiment(
    spec: PacketSpec, T_list, dt_list, tail_tol: float = 1e-12
) -> TraceGrowthReport:
    """Accumulate dt |W_0^n|^2 over n <= T/dt for each (dt, T) cell."""
    Ts = tuple(float(T) for T in T_list)
    dts = tuple(float(dt) for dt in dt_list)
    if len(Ts) < 2:
        raise WavepacketError("need at least two horizons for a linear fit")
    if not dts:
        raise WavepacketError("dt_list is empty: no time steps to run")
    scheme = spec.scheme
    s = scheme.s
    sums = np.zeros((len(dts), len(Ts)))
    ratios = np.zeros_like(sums)
    slopes, intercepts, rsq = [], [], []
    for i, dt in enumerate(dts):
        dx = dt / scheme.lam
        layers = packet_initial_data(spec, dx, tail_tol=tail_tol)
        mass = sum(lay.norm_sq(dx) for lay in layers)
        n_top = int(np.floor(max(Ts) / dt)) + s
        trace = run_cauchy(
            scheme, layers, n_max=n_top, window=(0, 0), dt=dt
        )
        col = trace.levels[:, 0]  # window (0, 0): the one column is j = 0
        w0 = np.hstack([col[s - b : n_top + 1 - b] for b in range(s + 1)])
        level_sq = np.sum(np.abs(w0) ** 2, axis=1)
        cumulative = dt * np.cumsum(level_sq)
        for k, T in enumerate(Ts):
            sums[i, k] = cumulative[int(np.floor(T / dt))]
            ratios[i, k] = sums[i, k] / mass if mass > 0 else 0.0
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
