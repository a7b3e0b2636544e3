"""Fourier symbol analysis of the interior scheme.

For a multistep stencil the Fourier transform turns one time step into
multiplication by the block companion amplification matrix

    amp(kappa) = [ Qhat_0(kappa)  Qhat_1(kappa) ... Qhat_s(kappa) ]
                 [      I              0        ...      0        ]
                 [      0              I        ...      0        ]

of size N(s+1), where Qhat_sigma(kappa) = sum_l kappa^l A[l, sigma] and
kappa = e^{i theta} runs over the unit circle.  This module provides

* the von Neumann spectral radius check and a matrix power bound probe,
* continuous-in-theta tracking of the N(s+1) eigenvalue branches, with
  assignment-ambiguity resolution by interval bisection,
* numerical branch derivatives (Richardson-extrapolated) and the group
  velocity of a unimodular branch,
* detection of glancing modes: unimodular branch points where the branch
  derivative vanishes, so the group velocity is zero.

Conventions: a branch value zeta on the unit circle is written
zeta = e^{i omega}; a wave mode zeta^n kappa^j then carries the phase
n omega + j theta and travels with group velocity -omega'(theta)/lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize_scalar

from .core import SchemeDef, _laurent

#: spectral radius may exceed 1 by at most this much (rounding slack)
VON_NEUMANN_TOL = 1e-10
#: |zeta| must be within this of 1 for a refined glancing point
GLANCING_UNIT_TOL = 1e-6
#: |d zeta / d theta| below this counts as a vanishing branch derivative
GLANCING_DERIV_TOL = 1e-6
#: imaginary part allowed when reading off a real frequency derivative
OMEGA_IMAG_TOL = 1e-8


class SymbolError(ValueError):
    """Raised when a symbol-side computation is ill-posed."""


def _amplification_stack(scheme: SchemeDef, kappas) -> np.ndarray:
    """amp(kappa) for each kappa in ``kappas``, stacked on the first axis."""
    N, s = scheme.N, scheme.s
    # row block of each A[ell, .]: [A[ell, 0] A[ell, 1] ... A[ell, s]]
    rows = scheme.interior.transpose(0, 2, 1, 3).reshape(-1, N, N * (s + 1))
    amp = np.zeros((len(kappas), N * (s + 1), N * (s + 1)), dtype=complex)
    amp[:, :N, :] = _laurent(rows, range(-scheme.r, scheme.p + 1), kappas)
    if s:
        amp[:, N:, :-N] = np.eye(N * s)
    return amp


def amplification_matrix(scheme: SchemeDef, kappa: complex) -> np.ndarray:
    """Block companion matrix advancing (U^n, ..., U^{n-s}) one step."""
    return _amplification_stack(scheme, [kappa])[0]


# ---------------------------------------------------------------------------
# von Neumann condition and power bounds


@dataclass(frozen=True)
class VonNeumannReport:
    ok: bool
    max_radius: float
    worst_theta: float
    n_theta: int
    tol: float
    radii: np.ndarray = field(default=None, repr=False, compare=False)


def von_neumann_check(
    scheme: SchemeDef, n_theta: int = 512, tol: float = VON_NEUMANN_TOL
) -> VonNeumannReport:
    """Sample the spectral radius of amp(e^{i theta}) over the circle.

    All n_theta amplification matrices go to one stacked eigenvalue
    call; ``radii`` holds the sampled spectral radius at each theta.
    """
    if n_theta < 1:
        raise SymbolError(f"need at least one theta sample, got {n_theta}")
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    amp = _amplification_stack(scheme, np.exp(1j * thetas))
    radii = np.abs(np.linalg.eigvals(amp)).max(axis=1)
    worst = int(np.argmax(radii))
    return VonNeumannReport(
        ok=bool(radii[worst] <= 1 + tol),
        max_radius=float(radii[worst]),
        worst_theta=float(thetas[worst]),
        n_theta=n_theta,
        tol=tol,
        radii=radii,
    )


@dataclass(frozen=True)
class PowerBoundReport:
    max_norm: float
    at_power: int
    at_theta: float
    diverged: bool
    n_powers: int
    n_theta: int


def power_bound_estimate(
    scheme: SchemeDef, n_powers: int = 128, n_theta: int = 96, cap: float = 1e12
) -> PowerBoundReport:
    """sup over sampled theta and n <= n_powers of ||amp(e^{i theta})^n||_2.

    Bounded output indicates a power-bounded symbol family (strong
    stability of the pure Cauchy evolution); hitting ``cap`` stops early
    and flags divergence.
    """
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    mats = _amplification_stack(scheme, np.exp(1j * thetas))
    cur = mats.copy()
    best, at_n, at_t = 1.0, 0, 0.0
    diverged = False
    for n in range(1, n_powers + 1):
        norms = np.linalg.matrix_norm(cur, ord=2)
        k = int(np.argmax(norms))
        if norms[k] > best:
            best, at_n, at_t = float(norms[k]), n, float(thetas[k])
        if norms[k] > cap:
            diverged = True
            break
        if n < n_powers:
            cur = mats @ cur
    return PowerBoundReport(
        max_norm=best,
        at_power=at_n,
        at_theta=at_t,
        diverged=diverged,
        n_powers=n_powers,
        n_theta=n_theta,
    )


# ---------------------------------------------------------------------------
# branch tracking


@dataclass(frozen=True)
class BranchTracks:
    """Eigenvalue branches of amp(e^{i theta}) ordered continuously.

    ``values[k, b]`` is branch b at ``thetas[k]``.  Branch order at the
    first theta is by descending real part, then descending imaginary
    part.  ``ambiguous`` lists thetas where continuation remained
    ambiguous at maximal bisection depth (true branch crossings).
    """

    thetas: np.ndarray
    values: np.ndarray
    ambiguous: tuple


def _eigs(scheme: SchemeDef, theta: float) -> np.ndarray:
    return np.linalg.eigvals(amplification_matrix(scheme, np.exp(1j * theta)))


def _assign(prev: np.ndarray, new: np.ndarray):
    """Match new eigenvalues to previous branch order.

    Returns (ordered_new, ambiguous): ambiguous is True when some
    transposition of genuinely distinct values changes the total
    matching cost by less than 1e-10.
    """
    B = len(prev)
    cost = np.abs(new[:, None] - prev[None, :])
    rows, cols = linear_sum_assignment(cost)
    order = np.empty(B, dtype=int)
    order[cols] = rows
    ambiguous = False
    for j1 in range(B):
        for j2 in range(j1 + 1, B):
            i1, i2 = order[j1], order[j2]
            delta = cost[i1, j2] + cost[i2, j1] - cost[i1, j1] - cost[i2, j2]
            if delta < 1e-10 and abs(new[i1] - new[i2]) > 1e-12:
                ambiguous = True
    return new[order], ambiguous


def _continue_branches(
    scheme: SchemeDef,
    theta_a: float,
    vals_a: np.ndarray,
    theta_b: float,
    depth: int,
    max_depth: int,
    records: list,
) -> np.ndarray:
    vals_b, ambiguous = _assign(vals_a, _eigs(scheme, theta_b))
    if not ambiguous:
        return vals_b
    if depth >= max_depth:
        records.append(theta_b)
        return vals_b
    theta_m = 0.5 * (theta_a + theta_b)
    vals_m = _continue_branches(
        scheme, theta_a, vals_a, theta_m, depth + 1, max_depth, records
    )
    return _continue_branches(
        scheme, theta_m, vals_m, theta_b, depth + 1, max_depth, records
    )


def track_branches(
    scheme: SchemeDef,
    n_theta: int = 512,
    theta_min: float = 0.0,
    theta_max: float = 2 * np.pi,
    max_depth: int = 20,
) -> BranchTracks:
    """Track all eigenvalue branches over [theta_min, theta_max]."""
    if n_theta < 2:
        raise SymbolError("need at least two sample points")
    thetas = np.linspace(theta_min, theta_max, n_theta)
    first = _eigs(scheme, thetas[0])
    first = first[np.lexsort((-first.imag, -first.real))]
    values = np.empty((n_theta, len(first)), dtype=complex)
    values[0] = first
    records: list = []
    for k in range(1, n_theta):
        values[k] = _continue_branches(
            scheme, thetas[k - 1], values[k - 1], thetas[k], 0, max_depth, records
        )
    return BranchTracks(thetas=thetas, values=values, ambiguous=tuple(records))


# ---------------------------------------------------------------------------
# branch derivatives and group velocity


def _nearest_eig(scheme: SchemeDef, theta: float, ref: complex) -> complex:
    e = _eigs(scheme, theta)
    return complex(e[np.argmin(np.abs(e - ref))])


def branch_derivative(
    scheme: SchemeDef, theta: float, zeta: complex, h: float = 1e-4
):
    """d zeta / d theta of the branch through (theta, zeta).

    Centered differences at steps h and h/2 with Richardson extrapolation;
    returns (derivative, error_estimate).  ``zeta`` must be the branch
    value at theta (used to select the branch at the sample points), and
    must be separated from the other branches by more than a few |h| times
    the local branch speed.
    """
    z0 = _nearest_eig(scheme, theta, zeta)
    if abs(z0 - zeta) > 1e-6:
        raise SymbolError(
            f"zeta {zeta} is not an eigenvalue at theta {theta} (nearest {z0})"
        )

    def fd(step: float) -> complex:
        zp = _nearest_eig(scheme, theta + step, z0)
        zm = _nearest_eig(scheme, theta - step, z0)
        return (zp - zm) / (2 * step)

    d1 = fd(h)
    d2 = fd(h / 2)
    deriv = (4 * d2 - d1) / 3
    return deriv, abs(d2 - d1) / 3


def frequency_derivative(
    scheme: SchemeDef, theta: float, zeta: complex, h: float = 1e-4
) -> float:
    """omega'(theta) for a unimodular branch zeta = e^{i omega}."""
    if abs(abs(zeta) - 1) > GLANCING_UNIT_TOL:
        raise SymbolError(f"|zeta| = {abs(zeta):.8f}; branch is not unimodular")
    deriv, _ = branch_derivative(scheme, theta, zeta, h)
    val = deriv / (1j * zeta)
    if abs(val.imag) > OMEGA_IMAG_TOL:
        raise SymbolError(
            f"frequency derivative has imaginary part {val.imag:.3e}; "
            "the branch leaves the unit circle"
        )
    return float(val.real)


def group_velocity(
    scheme: SchemeDef, theta: float, zeta: complex, h: float = 1e-4
) -> float:
    """Group velocity -omega'(theta)/lam of a unimodular branch."""
    return -frequency_derivative(scheme, theta, zeta, h) / scheme.lam


# ---------------------------------------------------------------------------
# glancing points


@dataclass(frozen=True)
class GlancingPoint:
    branch: int
    theta: float
    kappa: complex
    zeta: complex
    abs_deriv: float
    deriv_err: float


@dataclass(frozen=True)
class GlancingReport:
    """Outcome of the glancing-mode scan.

    ``points`` holds refined locations where a unimodular branch has
    vanishing derivative (zero group velocity).  ``min_abs_deriv`` is the
    smallest |d zeta/d theta| seen anywhere on the unimodular part of the
    spectrum (refined values where refinement ran, coarse grid values
    otherwise), so a clean margin shows up as a large value.
    """

    points: tuple
    min_abs_deriv: float
    has_glancing: bool
    n_theta: int
    unit_tol: float
    deriv_tol: float
    ambiguous_thetas: tuple = field(default_factory=tuple)


def find_glancing(
    scheme: SchemeDef,
    n_theta: int = 512,
    candidate_deriv: float = 0.1,
    candidate_unit: float = 1e-3,
    unit_tol: float = GLANCING_UNIT_TOL,
    deriv_tol: float = GLANCING_DERIV_TOL,
) -> GlancingReport:
    """Locate unimodular branch points with zero branch derivative.

    Coarse pass: track branches on a grid extended slightly past one full
    period, flag grid points with 1 - |zeta| <= candidate_unit and a
    centered-difference |d zeta/d theta| < candidate_deriv.  Each flagged
    point is refined by minimizing |d zeta/d theta| over the surrounding
    grid cell; it is reported as glancing when the minimiser is unimodular
    within unit_tol and its derivative magnitude is below deriv_tol.
    """
    dtheta = 2 * np.pi / n_theta
    track = track_branches(
        scheme,
        n_theta=n_theta + 5,
        theta_min=-2 * dtheta,
        theta_max=2 * np.pi + 2 * dtheta,
    )
    thetas, vals = track.thetas, track.values
    n_branches = vals.shape[1]

    min_abs = np.inf
    points = []
    for b in range(n_branches):
        branch = vals[:, b]
        deriv = np.empty_like(branch)
        deriv[1:-1] = (branch[2:] - branch[:-2]) / (2 * dtheta)
        deriv[0] = deriv[1]
        deriv[-1] = deriv[-2]
        for k in range(1, len(thetas) - 1):
            th = thetas[k]
            if not (0.0 <= th < 2 * np.pi):
                continue
            if 1 - abs(branch[k]) > candidate_unit:
                continue
            min_abs = min(min_abs, abs(deriv[k]))
            if abs(deriv[k]) >= candidate_deriv:
                continue
            # refine within the surrounding cell
            ref = complex(branch[k])

            def obj(t: float) -> float:
                d, _ = branch_derivative(scheme, t, _nearest_eig(scheme, t, ref))
                return abs(d)

            res = minimize_scalar(
                obj,
                bounds=(th - dtheta, th + dtheta),
                method="bounded",
                options={"xatol": 1e-12},
            )
            t_star = float(res.x)
            z_star = _nearest_eig(scheme, t_star, ref)
            d_star, d_err = branch_derivative(scheme, t_star, z_star)
            min_abs = min(min_abs, abs(d_star))
            if abs(abs(z_star) - 1) <= unit_tol and abs(d_star) <= deriv_tol:
                points.append(
                    GlancingPoint(
                        branch=b,
                        theta=t_star % (2 * np.pi),
                        kappa=complex(np.exp(1j * t_star)),
                        zeta=z_star,
                        abs_deriv=float(abs(d_star)),
                        deriv_err=float(d_err),
                    )
                )

    # merge refinements of the same point from adjacent cells
    merged: list = []
    for pt in sorted(points, key=lambda p: p.abs_deriv):
        dup = any(
            q.branch == pt.branch
            and (
                abs(q.theta - pt.theta) < 10 * dtheta
                or abs(abs(q.theta - pt.theta) - 2 * np.pi) < 10 * dtheta
            )
            for q in merged
        )
        if not dup:
            merged.append(pt)
    merged.sort(key=lambda p: (p.branch, p.theta))
    return GlancingReport(
        points=tuple(merged),
        min_abs_deriv=float(min_abs),
        has_glancing=bool(merged),
        n_theta=n_theta,
        unit_tol=unit_tol,
        deriv_tol=deriv_tol,
        ambiguous_thetas=track.ambiguous,
    )
