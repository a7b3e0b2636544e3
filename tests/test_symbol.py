"""Tests for the Fourier symbol analysis."""

import numpy as np
import pytest

from dibvp.core import SchemeDef, lax_friedrichs, lax_wendroff, leap_frog, upwind
from dibvp.symbol import (
    SymbolError,
    amplification_matrix,
    branch_derivative,
    find_glancing,
    frequency_derivative,
    group_velocity,
    power_bound_estimate,
    track_branches,
    von_neumann_check,
)


# ---------------------------------------------------------------------------
# amplification matrix


def test_amplification_upwind_at_minus_one():
    amp = amplification_matrix(upwind(1.0, 0.5), -1.0)
    assert amp.shape == (1, 1)
    assert amp[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_amplification_leap_frog_at_i():
    amp = amplification_matrix(leap_frog(1.0, 0.5), 1j)
    assert np.allclose(amp, [[-1j, 1.0], [1.0, 0.0]])
    eig = np.linalg.eigvals(amp)
    expect = np.array([(-1j + np.sqrt(3)) / 2, (-1j - np.sqrt(3)) / 2])
    assert np.allclose(sorted(eig, key=lambda z: z.real), sorted(expect, key=lambda z: z.real))
    assert np.allclose(np.abs(eig), 1.0)


def test_amplification_top_blocks_sum_to_identity_at_one():
    for scheme in [upwind(1.0, 0.3), leap_frog(1.0, 0.4)]:
        N = scheme.N
        top = amplification_matrix(scheme, 1.0)[:N]
        total = top.reshape(N, scheme.s + 1, N).sum(axis=1)
        assert np.allclose(total, np.eye(N), atol=1e-14)


# ---------------------------------------------------------------------------
# von Neumann


@pytest.mark.parametrize(
    "scheme",
    [upwind(1.0, 0.5), upwind(1.0, 1.0), lax_friedrichs(1.0, 0.9),
     lax_wendroff(1.0, 0.8), leap_frog(1.0, 0.5)],
    ids=["upwind", "upwind-edge", "lax-friedrichs", "lax-wendroff", "leap-frog"],
)
def test_von_neumann_stable_fixtures(scheme):
    rep = von_neumann_check(scheme)
    assert rep.ok
    assert rep.max_radius <= 1 + 1e-10


def test_von_neumann_flags_unstable():
    rep = von_neumann_check(upwind(1.0, 1.2))
    assert not rep.ok
    # radius at theta = pi is |1 - 2*nu| = 1.4
    assert rep.max_radius == pytest.approx(1.4, abs=1e-6)
    assert rep.worst_theta == pytest.approx(np.pi, abs=0.05)


def _random_system(seed):
    """Two-unknown, three-level scheme with r = 2, p = 1 (symbol only)."""
    rng = np.random.default_rng(seed)
    return SchemeDef(
        N=2, r=2, p=1, q=0, s=2, lam=1.0,
        interior=rng.normal(scale=0.3, size=(4, 3, 2, 2)),
        boundary=np.zeros((1, 2, 4, 2, 2)),
    )


@pytest.mark.parametrize(
    "scheme",
    [upwind(1.0, 1.0), leap_frog(1.0, 0.7), lax_wendroff(1.0, 1.1),
     _random_system(0), _random_system(1)],
    ids=["upwind-edge", "leap-frog", "lax-wendroff-unstable", "system-0",
         "system-1"],
)
def test_von_neumann_batch_matches_pointwise_eigensolves(scheme):
    # the stacked assembly and eigenvalue call must reproduce the
    # block-by-block companion matrix and one eigvals call per theta
    # exactly, and report the first theta that attains the largest radius
    def companion(kappa):
        # top block row sum_ell kappa^ell [A[ell, 0] ... A[ell, s]]
        top = np.zeros((scheme.N, scheme.N * (scheme.s + 1)), dtype=complex)
        for ell in range(-scheme.r, scheme.p + 1):
            top += kappa**ell * np.hstack(scheme.interior[ell + scheme.r])
        return np.vstack([top, np.eye(top.shape[1] - scheme.N, top.shape[1])])

    rep = von_neumann_check(scheme, n_theta=96)
    thetas = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
    radii = []
    for t in thetas:
        amp = companion(np.exp(1j * t))
        assert np.array_equal(amplification_matrix(scheme, np.exp(1j * t)), amp)
        radii.append(np.abs(np.linalg.eigvals(amp)).max())
    assert np.array_equal(rep.radii, radii)
    k = int(np.argmax(radii))
    assert rep.max_radius == radii[k]
    assert rep.worst_theta == thetas[k]
    assert rep.ok == (radii[k] <= 1 + rep.tol)


def test_von_neumann_rejects_empty_grid():
    with pytest.raises(SymbolError):
        von_neumann_check(upwind(1.0, 0.5), n_theta=0)


def test_von_neumann_leap_frog_whole_circle_unimodular():
    track = track_branches(leap_frog(1.0, 0.5), n_theta=128)
    assert np.abs(np.abs(track.values) - 1).max() < 1e-12


# ---------------------------------------------------------------------------
# power bounds


def test_power_bound_strictly_stable_scheme_is_tight():
    rep = power_bound_estimate(upwind(1.0, 0.5), n_powers=64)
    assert rep.max_norm <= 1 + 1e-12
    assert not rep.diverged


def test_power_bound_leap_frog_bounded_inside_cfl():
    rep = power_bound_estimate(leap_frog(1.0, 0.5), n_powers=200)
    assert not rep.diverged
    assert rep.max_norm < 5.0


def test_power_bound_detects_weak_growth_at_cfl_edge():
    # defective double eigenvalue at theta = pi/2 gives linear-in-n growth
    rep = power_bound_estimate(leap_frog(1.0, 1.0), n_powers=400, n_theta=64)
    assert rep.max_norm > 10.0


# ---------------------------------------------------------------------------
# branch tracking


def test_track_branches_leap_frog_product_and_continuity():
    scheme = leap_frog(1.0, 0.5)
    track = track_branches(scheme, n_theta=256)
    prod = track.values[:, 0] * track.values[:, 1]
    # det of the companion matrix is -1 for every theta
    assert np.abs(prod + 1).max() < 1e-10
    steps = np.abs(np.diff(track.values, axis=0)).max()
    assert steps < 0.1  # no branch swaps along the track
    # branch 0 starts at +1 (sorted by descending real part)
    assert track.values[0, 0] == pytest.approx(1.0)
    assert track.values[0, 1] == pytest.approx(-1.0)


def test_track_branches_matches_closed_form():
    nu = 0.5
    scheme = leap_frog(1.0, nu)
    track = track_branches(scheme, n_theta=181)
    xi = track.thetas
    root = np.sqrt(1 - nu**2 * np.sin(xi) ** 2)
    plus = -1j * nu * np.sin(xi) + root
    minus = -1j * nu * np.sin(xi) - root
    assert np.abs(track.values[:, 0] - plus).max() < 1e-10
    assert np.abs(track.values[:, 1] - minus).max() < 1e-10


def test_track_branches_scalar_scheme():
    nu = 0.4
    track = track_branches(upwind(1.0, nu), n_theta=64)
    expect = 1 - nu + nu * np.exp(-1j * track.thetas)
    assert np.abs(track.values[:, 0] - expect).max() < 1e-12


# ---------------------------------------------------------------------------
# derivatives and group velocity


def test_branch_derivative_upwind_closed_form():
    nu = 0.4
    scheme = upwind(1.0, nu)
    for theta in [0.0, 0.7, 2.0]:
        zeta = 1 - nu + nu * np.exp(-1j * theta)
        d, err = branch_derivative(scheme, theta, zeta)
        assert abs(d - (-1j * nu * np.exp(-1j * theta))) < 1e-9
        assert err < 1e-8


def test_branch_derivative_rejects_off_branch_value():
    with pytest.raises(SymbolError):
        branch_derivative(upwind(1.0, 0.4), 0.5, 0.2 + 0.9j)


def test_group_velocity_recovers_transport_speed():
    a, lam = 0.5, 1.0
    # upwind at theta = 0: exact transport speed a
    assert group_velocity(upwind(lam, a), 0.0, 1.0 + 0j) == pytest.approx(a, abs=1e-8)
    # leap-frog: branch through +1 moves right, branch through -1 moves left
    assert group_velocity(leap_frog(lam, a), 0.0, 1.0 + 0j) == pytest.approx(
        a, abs=1e-8
    )
    assert group_velocity(leap_frog(lam, a), 0.0, -1.0 + 0j) == pytest.approx(
        -a, abs=1e-8
    )


def test_frequency_derivative_needs_unimodular_branch():
    nu = 0.4
    theta = 2.0
    zeta = 1 - nu + nu * np.exp(-1j * theta)  # strictly inside the circle
    with pytest.raises(SymbolError):
        frequency_derivative(upwind(1.0, nu), theta, zeta)


# ---------------------------------------------------------------------------
# glancing points


def test_find_glancing_leap_frog():
    nu = 0.5
    rep = find_glancing(leap_frog(1.0, nu))
    assert rep.has_glancing
    kappas = sorted({complex(round(p.kappa.real, 3), round(p.kappa.imag, 3)) for p in rep.points}, key=lambda z: z.imag)
    assert kappas == [complex(0, -1), complex(0, 1)]
    assert rep.min_abs_deriv < 1e-8
    # the branch through +1 glances at kappa = i with zeta = e^{-i arcsin(nu)}
    candidates = [p.zeta for p in rep.points if abs(p.kappa - 1j) < 1e-6]
    expect = np.exp(-1j * np.arcsin(nu))
    assert any(abs(z - expect) < 1e-6 for z in candidates)
    # group velocity vanishes there
    v = group_velocity(leap_frog(1.0, nu), np.pi / 2, expect)
    assert abs(v) < 1e-6


@pytest.mark.parametrize(
    "scheme",
    [upwind(1.0, 0.5), lax_friedrichs(1.0, 0.7), lax_wendroff(1.0, 0.8)],
    ids=["upwind", "lax-friedrichs", "lax-wendroff"],
)
def test_no_glancing_for_dissipative_fixtures(scheme):
    rep = find_glancing(scheme)
    assert not rep.has_glancing
    assert rep.points == ()
    assert rep.min_abs_deriv > 0.1
