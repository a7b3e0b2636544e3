"""Fourier symbol analysis of the interior scheme.

For a multistep stencil the Fourier transform turns one time step into
multiplication by the block companion amplification matrix

    amp(kappa) = [ Qhat_0(kappa)  Qhat_1(kappa) ... Qhat_s(kappa) ]
                 [      I              0        ...      0        ]
                 [      0              I        ...      0        ]

of size N(s+1), where Qhat_sigma(kappa) = sum_l kappa^l A[l, sigma] and
kappa = e^{i theta} runs over the unit circle.  This module provides

* the von Neumann spectral radius check,
* continuous-in-theta tracking of the N(s+1) eigenvalue branches from one
  stacked eigen-solve, with assignment-ambiguity resolution by interval
  bisection,
* exact branch derivatives, y^H (d amp / d theta) x / y^H x at a simple
  eigenvalue (Wilkinson 1965) and a cluster block at a repeated one
  (core._eig_derivs), with d amp / d theta = sum_l i l kappa^l A[l, .] in
  the top block row, and the group velocity of a unimodular branch,
* detection of glancing modes: unimodular branch points where the branch
  derivative vanishes, so the group velocity is zero (Trefethen 1984).

Conventions: a branch value zeta on the unit circle is written
zeta = e^{i omega}; a wave mode zeta^n kappa^j then carries the phase
n omega + j theta and travels with group velocity -omega'(theta)/lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (BRANCH_COND_MAX, SchemeDef, _continue_path, _eig_derivs, _eigvals,
                   _laurent)

#: spectral radius may exceed 1 by at most this much (rounding slack)
VON_NEUMANN_TOL = 1e-10
#: |zeta| must be within this of 1 for a refined glancing point
GLANCING_UNIT_TOL = 1e-6
#: |d zeta / d theta| below this counts as a vanishing branch derivative
GLANCING_DERIV_TOL = 1e-6
#: find_glancing refines grid points with |1 - |zeta|| <= CANDIDATE_UNIT
#: and grid minima of |d zeta / d theta| below CANDIDATE_DERIV
CANDIDATE_UNIT = 1e-3
CANDIDATE_DERIV = 0.1
#: imaginary part allowed when reading off a real frequency derivative
OMEGA_IMAG_TOL = 1e-8


class SymbolError(ValueError):
    """Raised when a symbol-side computation is ill-posed."""


def _amplification_stack(scheme: SchemeDef, kappas, derivative: bool = False):
    """amp(kappa) for each kappa in ``kappas``, stacked on the first axis.

    With ``derivative`` the pair (amp, d amp / d theta) is returned, where
    kappa = e^{i theta}: the derivative's top block row is
    sum_ell i ell kappa^ell [A[ell, 0] ... A[ell, s]] and the rest is zero.
    Both rows come from one Laurent evaluation.
    """
    N, s = scheme.N, scheme.s
    ells = range(-scheme.r, scheme.p + 1)
    # row block of each A[ell, .]: [A[ell, 0] A[ell, 1] ... A[ell, s]]
    rows = scheme.interior.transpose(0, 2, 1, 3).reshape(-1, N, N * (s + 1))
    if derivative:
        rows = np.stack([rows, 1j * np.array(ells)[:, None, None] * rows], axis=1)
    top = _laurent(rows, ells, kappas)
    amp = np.zeros((len(kappas), N * (s + 1), N * (s + 1)), dtype=complex)
    amp[:, :N, :] = top[:, 0] if derivative else top
    if s:
        amp[:, N:, :-N] = np.eye(N * s)
    if not derivative:
        return amp
    damp = np.zeros_like(amp)
    damp[:, :N, :] = top[:, 1]
    return amp, damp


def amplification_matrix(scheme: SchemeDef, kappa: complex) -> np.ndarray:
    """Block companion matrix advancing (U^n, ..., U^{n-s}) one step."""
    return _amplification_stack(scheme, [kappa])[0]


# ---------------------------------------------------------------------------
# von Neumann condition


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
    call, which for a scalar one-step scheme reads the 1x1 symbols off
    their entries without LAPACK (``core._eigvals``: each entry 0 or in
    xGEEV's unscaled range, so the bits are LAPACK's); ``radii`` holds the
    sampled spectral radius at each theta.
    """
    if n_theta < 1:
        raise SymbolError(f"need at least one theta sample, got {n_theta}")
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    amp = _amplification_stack(scheme, np.exp(1j * thetas))
    radii = np.abs(_eigvals(amp)).max(axis=1)
    worst = int(np.argmax(radii))
    return VonNeumannReport(
        ok=bool(radii[worst] <= 1 + tol),
        max_radius=float(radii[worst]),
        worst_theta=float(thetas[worst]),
        n_theta=n_theta,
        tol=tol,
        radii=radii,
    )


# ---------------------------------------------------------------------------
# exact branch derivatives


def _branch_point(scheme: SchemeDef, theta: float, ref: complex):
    """(zeta, d zeta / d theta, cond, rounding bound) of the eigenvalue nearest ref.

    The bound is the first-order perturbation estimate
    eps cond(zeta) ||d amp / d theta||_2 of the derivative's rounding error.
    """
    amp, damp = _amplification_stack(scheme, [np.exp(1j * theta)], derivative=True)
    vals, derivs, conds, _, _ = _eig_derivs(amp, damp)
    i = int(np.argmin(np.abs(vals[0] - ref)))
    err = np.finfo(float).eps * conds[0, i] * np.linalg.norm(damp[0], 2)
    return complex(vals[0, i]), complex(derivs[0, i]), float(conds[0, i]), float(err)


def _velocity(scheme: SchemeDef, zeta: complex, deriv: complex) -> float:
    """-omega'(theta)/lam of a unimodular branch, with omega' = zeta' / (i zeta)."""
    val = complex(deriv) / (1j * zeta)
    if abs(val.imag) > OMEGA_IMAG_TOL:
        raise SymbolError(
            f"frequency derivative has imaginary part {val.imag:.3e}; "
            "the branch leaves the unit circle"
        )
    return -float(val.real) / scheme.lam


def group_velocity(scheme: SchemeDef, theta: float, zeta: complex) -> float:
    """Group velocity -omega'(theta)/lam of a unimodular branch zeta = e^{i omega}.

    ``zeta`` must be the branch value at theta; omega' comes from the
    exact branch derivative (see ``core._eig_derivs``).
    """
    if abs(abs(zeta) - 1) > GLANCING_UNIT_TOL:
        raise SymbolError(f"|zeta| = {abs(zeta):.8f}; branch is not unimodular")
    z0, deriv, _, _ = _branch_point(scheme, theta, zeta)
    if abs(z0 - zeta) > 1e-6:
        raise SymbolError(
            f"zeta {zeta} is not an eigenvalue at theta {theta} (nearest {z0})"
        )
    return _velocity(scheme, zeta, deriv)


# ---------------------------------------------------------------------------
# branch tracking


@dataclass(frozen=True)
class BranchTracks:
    """Eigenvalue branches of amp(e^{i theta}) ordered continuously.

    ``values[k, b]`` is branch b at ``thetas[k]``, ``derivs[k, b]`` its
    exact theta-derivative and ``conds[k, b]`` the derivative's condition
    number (see ``core._eig_derivs``; NaN where the eigenvectors are singular
    and large at defective collisions).  Branch order at the
    first theta is by descending real part, then descending imaginary
    part.  ``ambiguous`` lists thetas where continuation remained
    ambiguous at maximal bisection depth (true branch crossings).
    """

    thetas: np.ndarray
    values: np.ndarray
    ambiguous: tuple
    derivs: np.ndarray = field(repr=False, compare=False)
    conds: np.ndarray = field(repr=False, compare=False)


def track_branches(
    scheme: SchemeDef,
    n_theta: int = 512,
    theta_min: float = 0.0,
    theta_max: float = 2 * np.pi,
) -> BranchTracks:
    """Track all eigenvalue branches over [theta_min, theta_max].

    One stacked eigen-solve covers the grid, and ``core._continue_path``
    orders it into branches: between neighbouring thetas each previous
    value takes its nearest new value where that is a clear permutation,
    and the other steps go to the exact matcher and interval bisection,
    whose unresolved steps at depth ``core.BRANCH_MAX_DEPTH`` are recorded
    in ``ambiguous``.  A scalar one-step scheme has one branch: its 1x1
    symbols are read off their entries where LAPACK would return those
    bits (``core._eig``), with derivative d amp / d theta and cond 1, and
    it needs no continuation.
    """
    if n_theta < 2:
        raise SymbolError("need at least two sample points")
    thetas = np.linspace(theta_min, theta_max, n_theta)
    amp, damp = _amplification_stack(scheme, np.exp(1j * thetas), derivative=True)
    eigs, derivs, conds, _, _ = _eig_derivs(amp, damp)
    order, ambiguous = _continue_path(
        thetas,
        eigs,
        np.lexsort((-eigs[0].imag, -eigs[0].real)),
        lambda t: _eigvals(amplification_matrix(scheme, np.exp(1j * t))),
    )

    def ordered(a):
        return np.take_along_axis(a, order, axis=1)

    return BranchTracks(
        thetas=thetas,
        values=ordered(eigs),
        ambiguous=ambiguous,
        derivs=ordered(derivs),
        conds=ordered(conds),
    )


# ---------------------------------------------------------------------------
# glancing points

#: a grid minimum of |d zeta/d theta| must undercut both neighbours by this
#: relative margin, so a constant speed (upwind) starts no search on noise
_MIN_DIP = 1e-9
_GOLDEN = (np.sqrt(5.0) - 1) / 2


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
    spectrum (refined values where refinement ran, exact grid values
    otherwise, leaving out defective branch collisions), so a clean
    margin shows up as a large value.  ``deriv_err`` of a point bounds the
    rounding error of its exact derivative.
    """

    points: tuple
    min_abs_deriv: float
    has_glancing: bool
    n_theta: int
    ambiguous_thetas: tuple = field(default_factory=tuple)


def _sign_change_root(f, a: float, b: float, xatol: float = 1e-14) -> None:
    """Drive f to zero inside [a, b] where f(a) f(b) <= 0 (Illinois secant).

    A secant step that leaves the bracket is replaced by bisection; one
    that lands within xatol of an end stops the search, since that end is
    then the zero to within xatol (the zero can sit on a grid node).
    """
    fa, fb = f(a), f(b)
    for _ in range(60):
        if fa == 0 or fb == 0 or abs(b - a) <= xatol:
            return
        t = b - fb * (b - a) / (fb - fa)
        if min(abs(t - a), abs(t - b)) <= xatol:
            return
        if not min(a, b) < t < max(a, b):
            t = 0.5 * (a + b)
        ft = f(t)
        if (ft < 0) != (fb < 0):
            a, fa = b, fb
        else:
            fa /= 2
        b, fb = t, ft


def _golden_min(f, a: float, b: float, xatol: float = 1e-12) -> None:
    """Golden-section search for a minimum of f >= 0 on [a, b]."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol and min(fc, fd) > 0:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)


def find_glancing(scheme: SchemeDef, n_theta: int = 512) -> GlancingReport:
    """Locate unimodular branch points with zero branch derivative.

    Coarse pass: track branches with their exact derivatives on a grid
    extended slightly past one full period and keep the grid points with
    |1 - |zeta|| <= CANDIDATE_UNIT and a well-conditioned derivative (the
    growing branches of a von Neumann-unstable scheme are not searched).
    A cell where omega' = zeta'/(i zeta) changes sign is refined by a
    bracketed secant on omega'; a grid local minimum of |d zeta/d theta|
    below CANDIDATE_DERIV without such a sign change is refined by
    golden-section search over its two cells.  Each evaluation is one
    exact derivative at one theta, and the best one is kept; it is
    reported as glancing when it is unimodular within GLANCING_UNIT_TOL
    and its derivative magnitude is below GLANCING_DERIV_TOL.
    """
    dtheta = 2 * np.pi / n_theta
    track = track_branches(
        scheme,
        n_theta=n_theta + 5,
        theta_min=-2 * dtheta,
        theta_max=2 * np.pi + 2 * dtheta,
    )
    thetas, vals, derivs = track.thetas, track.values, track.derivs
    with np.errstate(divide="ignore", invalid="ignore"):
        usable = (
            (np.abs(1 - np.abs(vals)) <= CANDIDATE_UNIT)
            & np.isfinite(derivs)
            & (track.conds <= BRANCH_COND_MAX)
        )
        speed = np.where(usable, np.abs(derivs), np.inf)
        omega = np.where(usable, (derivs / (1j * vals)).real, np.nan)
    inside = np.flatnonzero((thetas >= 0.0) & (thetas < 2 * np.pi))
    min_abs = float(speed[inside].min(initial=np.inf))
    # omega' changes sign on [thetas[k], thetas[k+1]]; NaN compares False,
    # and a zero on a node is a grid minimum of |zeta'|
    crossing = omega[:-1] * omega[1:] < 0
    dip = speed * (1 + _MIN_DIP)
    local_min = (
        (speed[1:-1] < CANDIDATE_DERIV)
        & (dip[1:-1] < speed[:-2])
        & (dip[1:-1] < speed[2:])
        & ~crossing[:-1]
    )

    points = []
    for k, b in zip(*np.nonzero(crossing[inside] | local_min[inside - 1])):
        k = inside[k]
        evals: list = []

        def branch_at(t: float):
            ref = np.interp(t, thetas, vals[:, b].real) + 1j * np.interp(
                t, thetas, vals[:, b].imag
            )
            evals.append((t,) + _branch_point(scheme, t, ref))
            return evals[-1][1:3]

        def omega_at(t: float) -> float:
            z, d = branch_at(t)
            return (d / (1j * z)).real

        if crossing[k, b]:
            _sign_change_root(omega_at, thetas[k], thetas[k + 1])
        else:
            _golden_min(lambda t: abs(branch_at(t)[1]), thetas[k - 1], thetas[k + 1])
        trusted = [e for e in evals if e[3] <= BRANCH_COND_MAX]
        if not trusted:
            continue
        t_star, z_star, d_star, _, d_err = min(trusted, key=lambda e: abs(e[2]))
        min_abs = min(min_abs, abs(d_star))
        if (
            abs(abs(z_star) - 1) <= GLANCING_UNIT_TOL
            and abs(d_star) <= GLANCING_DERIV_TOL
        ):
            points.append(
                GlancingPoint(
                    branch=int(b),
                    theta=t_star % (2 * np.pi),
                    kappa=complex(np.exp(1j * t_star)),
                    zeta=z_star,
                    abs_deriv=float(abs(d_star)),
                    deriv_err=d_err,
                )
            )

    # merge refinements of the same point from adjacent cells, or under
    # both labels of branches that meet there
    merged: list = []
    for pt in sorted(points, key=lambda p: p.abs_deriv):
        dup = any(
            (q.branch == pt.branch or abs(q.zeta - pt.zeta) <= GLANCING_UNIT_TOL)
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
        ambiguous_thetas=track.ambiguous,
    )
