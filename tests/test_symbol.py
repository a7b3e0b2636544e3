"""Tests for the Fourier symbol analysis."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dibvp
from dibvp.core import SchemeDef, _eig_derivs, lax_friedrichs, lax_wendroff, leap_frog, upwind
from dibvp.symbol import (
    BRANCH_COND_MAX,
    SymbolError,
    _amplification_stack,
    _branch_point,
    amplification_matrix,
    find_glancing,
    group_velocity,
    track_branches,
    von_neumann_check,
)
from populations import random_scheme, schemes


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


@pytest.mark.parametrize(
    "scheme",
    [upwind(1.0, 1.0), leap_frog(1.0, 0.7), lax_wendroff(1.0, 1.1),
     # two-unknown, three-level schemes with r = 2, p = 1 (symbol only)
     *(random_scheme(seed, 2, 2, 1, 0, 2, scale=0.3) for seed in (0, 1))],
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
        z, d, _, err = _branch_point(scheme, theta, zeta)
        assert abs(z - zeta) < 1e-12
        assert abs(d - (-1j * nu * np.exp(-1j * theta))) < 1e-9
        assert err < 1e-8


def test_branch_derivative_rejects_off_branch_value():
    # unimodular, but not an eigenvalue of amp(e^{0.5 i})
    with pytest.raises(SymbolError, match="not an eigenvalue"):
        group_velocity(upwind(1.0, 0.4), 0.5, np.exp(2j))


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
    with pytest.raises(SymbolError, match="not unimodular"):
        group_velocity(upwind(1.0, nu), theta, zeta)


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


def test_find_glancing_leap_frog_points_sit_on_the_quarter_circle():
    # pi/2 is a grid node when 4 divides n_theta (64, 512) and falls inside
    # a cell otherwise (510, 513); the refined zeros agree either way
    scheme = leap_frog(1.0, 0.7)
    for n_theta in (64, 510, 512, 513):
        rep = find_glancing(scheme, n_theta=n_theta)
        assert len(rep.points) == 4
        for pt in rep.points:
            target = np.pi / 2 if pt.theta < np.pi else 3 * np.pi / 2
            assert abs(pt.theta - target) <= 1e-12
            assert pt.abs_deriv < 1e-15
            assert pt.deriv_err < 1e-15


def test_find_glancing_refines_touching_and_crossing_zeros():
    # zeta^2 = 1 - 2 i nu g(theta) zeta with g' = (cos - 1/2)^2 (2/3 + cos):
    # omega' touches zero at theta = +/-pi/3 (golden-section search on
    # |zeta'|, as no grid cell changes sign) and crosses it where
    # cos theta = -2/3 (secant); both branches glance at all four
    nu = 0.5
    interior = np.zeros((7, 2, 1, 1))
    interior[3, 1] = 1.0
    for m, b in ((1, 1 / 3), (2, -1 / 12), (3, 1 / 12)):
        interior[3 + m, 0], interior[3 - m, 0] = -nu * b, nu * b
    scheme = SchemeDef(N=1, r=3, p=3, q=0, s=1, lam=1.0, interior=interior,
                       boundary=np.zeros((1, 3, 3, 1, 1)))
    rep = find_glancing(scheme)
    touch, cross = np.pi / 3, np.arccos(-2 / 3)
    expect = [touch, cross, 2 * np.pi - cross, 2 * np.pi - touch]
    for b in (0, 1):
        thetas = [pt.theta for pt in rep.points if pt.branch == b]
        assert np.allclose(thetas, expect, rtol=0, atol=1e-7)
    assert all(pt.abs_deriv < 1e-12 for pt in rep.points)


def test_find_glancing_leaves_out_branch_collisions():
    # at the CFL edge the branches e^{-i theta} and -e^{i theta} cross at
    # theta = pi/2 through a Jordan block, where d amp / d theta = 0; the
    # ill-conditioned samples there are not glancing points, and every
    # trusted sample has |d zeta / d theta| = 1; pi/2 is a grid node at
    # n_theta = 512 and is reached by refinement otherwise
    for n_theta in (512, 510, 513):
        rep = find_glancing(leap_frog(1.0, 1.0), n_theta=n_theta)
        assert not rep.has_glancing
        assert rep.min_abs_deriv == pytest.approx(1.0, abs=1e-9)
    _, _, cond, _ = _branch_point(leap_frog(1.0, 1.0), np.pi / 2, -1j)
    assert cond > BRANCH_COND_MAX


@pytest.mark.parametrize("n_theta", [64, 512])
def test_find_glancing_skips_growing_branches(monkeypatch, n_theta):
    # unstable leap-frog (nu = 1.5) has a purely imaginary branch pair with
    # |zeta| up to 2.6 and omega' at rounding level; only the unimodular
    # part is searched, where the smallest |zeta'| is lambda at theta = 0
    calls = []
    monkeypatch.setattr(dibvp.symbol, "_branch_point",
                        lambda *a: calls.append(1) or _branch_point(*a))
    rep = find_glancing(leap_frog(1.5, 1.0), n_theta=n_theta)
    assert rep.points == ()
    assert not rep.has_glancing
    assert rep.min_abs_deriv == pytest.approx(1.5, rel=1e-9)
    assert len(calls) <= 20


def _lax_friedrichs_system(A, nu=0.5):
    interior = np.stack([(np.eye(2) + nu * A) / 2, np.zeros((2, 2)),
                         (np.eye(2) - nu * A) / 2])[:, None]
    return SchemeDef(N=2, r=1, p=1, q=0, s=0, lam=1.0, interior=interior,
                     boundary=np.zeros((1, 1, 2, 2, 2)))


def test_find_glancing_leaves_out_repeated_eigenvalue_at_theta_zero():
    # Lax-Friedrichs for u_t + A u_x = 0 with A = [[0, 1], [1, 0]]: amp(1) = I,
    # so eig's basis at theta = 0 is arbitrary; the repeated eigenvalue's
    # cluster block gives the branch speeds -i nu (+/-1) whatever the basis
    scheme = _lax_friedrichs_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    track = track_branches(scheme, n_theta=64)
    assert np.all(track.conds[0] <= BRANCH_COND_MAX)
    speeds = track.derivs[0][np.argsort(track.derivs[0].imag)]
    assert np.abs(speeds - [-0.5j, 0.5j]).max() < 1e-15
    rep = find_glancing(scheme)
    assert not rep.has_glancing
    assert rep.min_abs_deriv == pytest.approx(0.5, rel=1e-3)


def test_find_glancing_zero_speed_through_repeated_eigenvalue():
    # A = diag(0, 1): the zero-speed component has zeta = cos theta, which
    # glances at theta = 0 and pi, where it meets the other component's
    # branch; each point is reported once, whichever label reaches it
    rep = find_glancing(_lax_friedrichs_system(np.diag([0.0, 1.0])))
    assert rep.has_glancing
    near = [
        [abs((pt.theta - t + np.pi) % (2 * np.pi) - np.pi) < 1e-12 for t in (0.0, np.pi)]
        for pt in rep.points
    ]
    assert sorted(near) == [[False, True], [True, False]]
    assert all(pt.abs_deriv < 1e-12 for pt in rep.points)


def test_find_glancing_leap_frog_makes_few_eigensolves(monkeypatch):
    calls = []
    for name in ("eig", "eigvals"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k),
        )
    rep = find_glancing(leap_frog(1.0, 0.7))
    assert len(rep.points) == 4
    assert len(calls) <= 100


def test_import_loads_no_scipy():
    src = str(Path(dibvp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dibvp; print([m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')])"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# properties over random consistent stencils (N <= 2, r, p <= 2, s <= 2)


def _nearest_eig(scheme, theta, ref):
    e = np.linalg.eigvals(amplification_matrix(scheme, np.exp(1j * theta)))
    return e[np.argmin(np.abs(e - ref))]


def _richardson_derivative(scheme, theta, zeta, h_max):
    """Centered differences at steps h and h/2, Richardson-extrapolated.

    The step is the one of h_max, h_max/10, ... whose estimate agrees best
    with the next smaller step's; h_max must keep the branch nearest to
    its own value, and too small a step drowns in rounding.
    """

    def fd(step):
        zp = _nearest_eig(scheme, theta + step, zeta)
        zm = _nearest_eig(scheme, theta - step, zeta)
        return (zp - zm) / (2 * step)

    est = [(4 * fd(h / 2) - fd(h)) / 3 for h in h_max * 10.0 ** -np.arange(6)]
    k = int(np.argmin(np.abs(np.diff(est))))
    return est[k + 1]


@settings(max_examples=60)
@given(schemes(consistent=True), st.floats(0.0, 2 * np.pi))
def test_exact_derivative_matches_richardson_oracle(scheme, theta):
    zetas = np.linalg.eig(amplification_matrix(scheme, np.exp(1j * theta)))[0]
    points = [_branch_point(scheme, theta, zeta) for zeta in zetas]
    speed = max(1.0, max(abs(d) for _, d, _, _ in points))
    for i, (z, exact, cond, _) in enumerate(points):
        zeta = zetas[i]
        assert z == zeta
        gap = np.delete(np.abs(zetas - zeta), i).min(initial=1.0)
        if not (cond < 1e6 and gap >= 1e-3 * speed):
            continue  # a collision; a double-precision oracle cannot resolve it
        oracle = _richardson_derivative(
            scheme, theta, zeta, min(1e-3, 0.1 * gap / speed)
        )
        assert abs(exact - oracle) <= 1e-7 * max(abs(exact), 1.0)


def _per_theta_track(scheme, thetas):
    """One eigen-solve per theta; least-cost matching by trying every order."""
    vals = [np.linalg.eig(amplification_matrix(scheme, np.exp(1j * t)))[0]
            for t in thetas]
    out = [vals[0][np.lexsort((-vals[0].imag, -vals[0].real))]]
    orders = [list(o) for o in itertools.permutations(range(len(vals[0])))]
    cols = np.arange(len(vals[0]))
    for v in vals[1:]:
        cost = np.abs(v[:, None] - out[-1][None, :])
        out.append(v[min(orders, key=lambda o: cost[o, cols].sum())])
    return np.array(out)


@settings(max_examples=30)
@given(schemes(consistent=True))
def test_stacked_tracking_matches_per_theta_tracking(scheme):
    track = track_branches(scheme, n_theta=48)
    if track.ambiguous:
        return  # a true crossing: the bisection continues past the grid
    ref = _per_theta_track(scheme, track.thetas)
    assert np.abs(track.values - ref).max() <= 1e-13
    for k, theta in enumerate(track.thetas):
        for b, zeta in enumerate(track.values[k]):
            _, deriv, cond, _ = _branch_point(scheme, theta, zeta)
            if cond < BRANCH_COND_MAX:
                assert abs(track.derivs[k, b] - deriv) <= 1e-13 * max(abs(deriv), 1.0)


@settings(max_examples=400)
@given(schemes(N=(2, 2), taps="nonnegative", parts=True))
def test_repeated_eigenvalue_derivatives_are_the_components(case):
    # at theta = 0 both components' principal roots equal 1 (consistency),
    # so the pair has a double semisimple eigenvalue 1 there; its cluster
    # derivatives are the components' own, in whatever basis eig returns
    pair, parts = case
    vals, derivs, conds, _, _ = _eig_derivs(*_amplification_stack(pair, [1.0], derivative=True))
    at_one = np.flatnonzero(np.abs(vals[0] - 1) <= 1e-7)
    assert len(at_one) == 2
    assert np.all(conds[0, at_one] <= BRANCH_COND_MAX)
    got = derivs[0, at_one]
    want = np.array([_branch_point(part, 0.0, 1.0)[1] for part in parts])
    # unordered: the real parts are at rounding level, so no sort pairs them
    tol = 1e-12 * np.maximum(1.0, np.abs(want))
    assert any(np.all(np.abs(g - want) <= tol) for g in (got, got[::-1]))
