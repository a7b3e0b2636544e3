"""Tests for the resolvent-side analysis."""

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dibvp.core import (
    BRANCH_COND_MAX,
    SchemeDef,
    _resolvent_stack,
    lax_friedrichs,
    lax_wendroff,
    leap_frog,
    load_scheme,
    save_scheme,
    upwind,
    validate_scheme,
)
from dibvp.cli import run_command
from dibvp.resolvent import (
    _companion_at,
    _split_stack,
    ResolventError,
    CompanionMatrix,
    EigenvalueBranch,
    arg_total_variation,
    assemble_M,
    classify_boundary_blocks,
    kl_boundary_matrix,
    kl_determinant,
    spectral_split,
    uklc_scan,
)
from dibvp.symbol import von_neumann_check
from populations import lax_wendroff_system, random_scheme, schemes

RNG = np.random.default_rng(20240811)


def upwind2(nu: float) -> SchemeDef:
    """Second order upwind scheme (r = 2, p = 0), stable for nu <= 2."""
    interior = np.zeros((3, 1, 1, 1))
    interior[0, 0, 0, 0] = (nu * nu - nu) / 2
    interior[1, 0, 0, 0] = nu * (2 - nu)
    interior[2, 0, 0, 0] = 1 - 1.5 * nu + nu * nu / 2
    return SchemeDef(
        N=2 - 1, r=2, p=0, q=0, s=0, lam=1.0,
        interior=interior,
        boundary=np.zeros((1, 2, 2, 1, 1)),
        label="second-order-upwind",
    )


def system_upwind() -> SchemeDef:
    """Symmetric 2x2 system advected leftward (r = 1, p = 0)."""
    A = np.array([[0.5, 0.25], [0.25, 0.5]])
    interior = np.stack([A, np.eye(2) - A])[:, None]
    return SchemeDef(
        N=2, r=1, p=0, q=0, s=0, lam=1.0,
        interior=interior,
        boundary=np.zeros((1, 1, 2, 2, 2)),
        label="system-upwind",
    )


def random_annulus_z(rng, n):
    radii = 1 + rng.uniform(1e-3, 2.0, n)
    angles = rng.uniform(0, 2 * np.pi, n)
    return radii * np.exp(1j * angles)


# ---------------------------------------------------------------------------
# resolvent coefficients


def _coeffs(scheme, z):
    """RA_l(z) as ``A(l)`` and RB_{l,j}(z) as ``B(l, j)`` at one z."""
    RA, RB = _resolvent_stack(scheme, [z])
    r = scheme.r
    return SimpleNamespace(
        A_blocks=RA[0], B_blocks=RB[0],
        A=lambda ell: RA[0, ell + r], B=lambda ell, j: RB[0, ell, j - (1 - r)],
    )


def test_coeffs_upwind_at_two():
    c = _coeffs(upwind(1.0, 0.5), 2.0)
    assert c.A(0)[0, 0] == pytest.approx(0.75)
    assert c.A(-1)[0, 0] == pytest.approx(-0.25)


def test_coeffs_leap_frog_at_two():
    c = _coeffs(leap_frog(1.0, 0.5), 2.0)
    assert c.A(1)[0, 0] == pytest.approx(0.25)
    assert c.A(0)[0, 0] == pytest.approx(0.75)
    assert c.A(-1)[0, 0] == pytest.approx(-0.25)


def test_coeffs_large_z_limit():
    # z -> infinity kills every z^{-sigma-1} term, leaving delta_{l0} I
    for scheme in [upwind(1.0, 0.5), leap_frog(1.0, 0.5), lax_wendroff(1.0, 0.8)]:
        c = _coeffs(scheme, 1e12)
        for ell in range(-scheme.r, scheme.p + 1):
            expect = np.eye(scheme.N) if ell == 0 else np.zeros((scheme.N,) * 2)
            assert np.allclose(c.A(ell), expect, atol=1e-11)


def test_coeffs_boundary_blocks():
    c = _coeffs(upwind(1.0, 0.5), 1.7)
    assert np.all(c.B(0, 0) == 0)  # dirichlet rows carry no coupling
    c = _coeffs(lax_wendroff(1.0, 0.5, boundary="extrapolation"), 1.7)
    # U_0^{n+1} = U_1^{n+1} transforms to W_0 = W_1 independently of z
    assert np.allclose(c.B(0, 0), np.eye(1))


def test_coeffs_reject_zero():
    with pytest.raises(ResolventError, match="singular at z = 0"):
        assemble_M(upwind(1.0, 0.5), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.5, np.nan)])
def test_coeffs_reject_a_non_finite_z(bad):
    # refused before the coefficients reach LAPACK, which cannot converge
    scheme = leap_frog(1.0, 0.5)
    with pytest.raises(ResolventError, match="need a finite z, got z = "):
        kl_determinant(scheme, bad)
    with pytest.raises(ResolventError, match="need a finite z"):
        spectral_split(assemble_M(scheme, bad), scheme)
    if np.isreal(bad):
        # the scan grid's own product (1 + inf) * e^{i 0} = inf + nan i
        # warns before _companion refuses it
        with pytest.raises(ResolventError, match="need a finite z"), np.errstate(invalid="ignore"):
            uklc_scan(scheme, radii=(1e-2, bad), n_theta=8)


@pytest.mark.parametrize(
    "scheme",
    [random_scheme(3, 2, 1, 1, 2, 2, scale=0.3, boundary="random"),
     random_scheme(4, 2, 1, 2, 0, 2, scale=0.3, boundary="random")],
    ids=["q-at-least-p", "q-below-p"],
)
def test_stacked_laurent_matches_pointwise_bits(scheme):
    # every z is the same bit for bit in a stack, alone, and as the
    # recursion delta_{l0} I - z^{-1} A[l,0] - z^{-2} A[l,1] - ... written out
    from dibvp.core import _laurent

    zs = [2.0, 1.3 - 0.4j, *random_annulus_z(np.random.default_rng(5), 6)]
    RA, RB = _resolvent_stack(scheme, zs)
    for i, z in enumerate(zs):
        c = _coeffs(scheme, z)
        assert RA[i].tobytes() == c.A_blocks.tobytes()
        assert RB[i].tobytes() == c.B_blocks.tobytes()
        for ell in range(-scheme.r, scheme.p + 1):
            expect = np.eye(2, dtype=complex) if ell == 0 else np.zeros((2, 2), complex)
            for sigma in range(scheme.s + 1):
                expect = expect - z ** (-sigma - 1) * scheme.A(ell, sigma)
            assert c.A(ell).tobytes() == expect.tobytes()
        for ell in range(scheme.q + 1):
            expect = np.zeros((2, 2), dtype=complex)
            for sigma in range(-1, scheme.s + 1):
                expect += z ** (-sigma - 1) * scheme.B(ell, 0, sigma)
            assert c.B(ell, 0).tobytes() == expect.tobytes()
    exps = range(-scheme.r, scheme.p + 1)
    stacked = _laurent(scheme.interior, exps, zs)
    for i, z in enumerate(zs):
        assert stacked[i].tobytes() == _laurent(scheme.interior, exps, [z])[0].tobytes()


# ---------------------------------------------------------------------------
# companion matrix


def test_companion_upwind_values():
    assert assemble_M(upwind(1.0, 0.5), 2.0).M[0, 0] == pytest.approx(1 / 3)
    assert assemble_M(upwind(1.0, 0.5), 1.5).M[0, 0] == pytest.approx(1 / 2)


def test_companion_leap_frog_matches_quadratic():
    # interior recursion at z reads mu^2 + (z - 1/z)/nu mu - 1 = 0
    nu = 0.5
    for z in [2.0, 1.3 * np.exp(0.8j), 1.05 * np.exp(-2.0j)]:
        M = assemble_M(leap_frog(1.0, nu), z).M
        assert M.shape == (2, 2)
        eig = np.sort_complex(np.linalg.eigvals(M))
        expect = np.sort_complex(np.roots([1, (z - 1 / z) / nu, -1]))
        assert np.allclose(eig, expect, atol=1e-12)


def test_companion_row_identity():
    # each eigenpair gives a geometric solution W_j = mu^j x of the recursion
    for scheme in [lax_wendroff(1.0, 0.5), leap_frog(1.0, 0.5), system_upwind()]:
        for z in random_annulus_z(RNG, 4):
            c = _coeffs(scheme, z)
            M = assemble_M(scheme, z).M
            vals, vecs = np.linalg.eig(M)
            N = scheme.N
            for mu, v in zip(vals, vecs.T):
                x = v[-N:]  # bottom block holds the lowest shift
                res = sum(
                    c.A(ell) @ x * mu ** (ell + scheme.r)
                    for ell in range(-scheme.r, scheme.p + 1)
                )
                assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(v)


def test_companion_no_zero_eigenvalues():
    for scheme in [upwind(1.0, 0.5), lax_wendroff(1.0, 0.8), leap_frog(1.0, 0.5)]:
        for z in random_annulus_z(RNG, 8):
            eig = np.linalg.eigvals(assemble_M(scheme, z).M)
            assert np.min(np.abs(eig)) > 1e-12


# ---------------------------------------------------------------------------
# spectral splitting


@pytest.mark.parametrize(
    "scheme,n_stable,n_unstable",
    [
        (upwind(1.0, 0.5), 1, 0),
        (lax_friedrichs(1.0, 0.7), 1, 1),
        (lax_wendroff(1.0, 0.8), 1, 1),
        (leap_frog(1.0, 0.5), 1, 1),
        (upwind2(0.5), 2, 0),
        (system_upwind(), 2, 0),
    ],
    ids=["upwind", "lax-friedrichs", "lax-wendroff", "leap-frog",
         "second-order-upwind", "system"],
)
def test_split_counts(scheme, n_stable, n_unstable):
    for z in random_annulus_z(RNG, 40):
        sp = spectral_split(assemble_M(scheme, z), scheme)
        assert sp.counts_ok
        assert (sp.n_stable, sp.n_unstable) == (n_stable, n_unstable)
        assert sp.unit_gap > 0
        assert sp.invariance_residual <= 1e-12


# A = [[1, 1], [0, 1]] makes M(z)'s stable eigenvector block rank
# deficient at every z, so its E^s takes the sign function; M^H's stable
# block mostly passes the rank test, with min|R_kk| / max|R_kk| near 5e-8,
# and then E^u is good only to about eps ||M|| / 5e-8
JORDAN_SYSTEM = lax_wendroff_system(np.array([[1.0, 1.0], [0.0, 1.0]]))


def _split_paths(monkeypatch):
    """(scheme or None, invariance tolerance) for an eigenvector split, the
    Jordan block's own fallback, and a fallback forced on both M and M^H by
    BASIS_RCOND_MIN = inf (patched last, undone at teardown); each path's
    sign-function calls are checked once its body has run."""
    import dibvp.resolvent as res

    calls = []
    sign_basis = res._sign_basis
    monkeypatch.setattr(res, "_sign_basis", lambda M, k: calls.append(len(M)) or sign_basis(M, k))
    yield None, 1e-10
    assert calls == []
    yield JORDAN_SYSTEM, 1e-6
    assert calls and set(calls) <= {1, 2}  # one call per split, on its rows that fall back
    calls.clear()
    monkeypatch.setattr(res, "BASIS_RCOND_MIN", np.inf)
    yield None, 1e-10
    assert calls and set(calls) == {2}


def test_split_projectors(monkeypatch):
    for scheme, tol in _split_paths(monkeypatch):
        scheme = scheme or leap_frog(1.0, 0.5)
        for z in random_annulus_z(RNG, 10):
            sp = spectral_split(assemble_M(scheme, z), scheme)
            eye = np.eye(sp.proj_s.shape[0])
            assert np.linalg.norm(sp.proj_s @ sp.proj_s - sp.proj_s) <= 1e-10
            assert np.linalg.norm(sp.proj_u @ sp.proj_u - sp.proj_u) <= 1e-10
            assert np.linalg.norm(sp.proj_s + sp.proj_u - eye) <= 1e-10
            # projectors commute with M and reproduce the invariant subspaces
            M = assemble_M(scheme, z).M
            assert np.linalg.norm(sp.proj_s @ M - M @ sp.proj_s) <= tol


def test_split_orthonormal_bases(monkeypatch):
    for scheme, _ in _split_paths(monkeypatch):
        scheme = scheme or lax_wendroff(1.0, 0.6)
        sp = spectral_split(assemble_M(scheme, 1.4 + 0.3j), scheme)
        for V in (sp.V_s, sp.V_u):
            assert np.allclose(V.conj().T @ V, np.eye(V.shape[1]), atol=1e-13)
        # the two bases together span the whole state space
        assert np.linalg.matrix_rank(np.hstack([sp.V_s, sp.V_u])) == len(sp.proj_s)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent / "golden"
                                         / "schemes").glob("*.json")), ids=lambda p: p.stem)
def test_split_basis_gives_the_scan_determinant_bit_for_bit(path):
    # spectral_split is a one-z view of the scan's split: its V_s is the
    # basis kl_determinant reads
    scheme = load_scheme(path)
    for z in (3.0, 4.0 * np.exp(0.7j), 5.0 * np.exp(-2.1j)):
        V_s = spectral_split(assemble_M(scheme, z), scheme).V_s
        B = kl_boundary_matrix(scheme, z)
        assert kl_determinant(scheme, z) == abs(np.linalg.det(B @ V_s))


def test_split_rejects_z_too_close_to_circle():
    scheme = upwind(1.0, 0.5)
    for z in [1.0, 1 + 1e-9, np.exp(0.5j)]:
        with pytest.raises(ResolventError):
            spectral_split(assemble_M(scheme, z), scheme)


def test_split_rejects_unresolved_eigenvalue():
    scheme = lax_wendroff(1.0, 0.5)
    fake = CompanionMatrix(z=2.0, M=np.diag([1 + 1e-12, 2.0]).astype(complex))
    with pytest.raises(ResolventError):
        spectral_split(fake, scheme)


def test_split_count_mismatch_is_diagnostic():
    scheme = lax_wendroff(1.0, 0.5)  # expects (1, 1)
    fake = CompanionMatrix(z=2.0, M=np.diag([0.5, 0.6]).astype(complex))
    sp = spectral_split(fake, scheme)
    assert not sp.counts_ok
    assert "expected (1 stable, 1 unstable)" in sp.message


# ---------------------------------------------------------------------------
# Lopatinskii determinant


def test_kl_upwind_dirichlet_is_one():
    scheme = upwind(1.0, 0.5)
    assert kl_boundary_matrix(scheme, 2.0) == pytest.approx(np.ones((1, 1)))
    for z in [1.2, 2.0, 1 + 1e-6, (1 + 1e-3) * np.exp(0.7j)]:
        assert kl_determinant(scheme, z) == pytest.approx(1.0, abs=1e-12)


def test_kl_dirichlet_exact_for_wide_and_system_stencils():
    # dirichlet rows select complete state blocks; orthonormal stable bases
    # then give |Delta| = |det of a unitary| = 1
    for scheme in [upwind2(0.5), system_upwind()]:
        for z in [1.3, 2.2, (1 + 1e-4) * np.exp(1.9j)]:
            assert kl_determinant(scheme, z) == pytest.approx(1.0, abs=1e-12)


def test_kl_zero_rows():
    scheme = upwind(1.0, 0.5)
    assert kl_determinant(scheme, 2.0, b_eff=np.zeros((1, 1))) == 0.0


def test_kl_lax_wendroff_extrapolation_closed_form():
    # boundary row [-1, 1] against stable vector (mu, 1)/sqrt(1+|mu|^2)
    scheme = lax_wendroff(1.0, 0.5, boundary="extrapolation")
    for z in [1.2, 1.5 * np.exp(0.4j), 1.05 * np.exp(-1.1j)]:
        eig = np.linalg.eigvals(assemble_M(scheme, z).M)
        mu_s = eig[np.abs(eig) < 1][0]
        expect = abs(1 - mu_s) / np.sqrt(1 + abs(mu_s) ** 2)
        assert kl_determinant(scheme, z) == pytest.approx(expect, abs=1e-12)


def test_kl_basis_independence():
    scheme = upwind2(0.5)
    z = 1.7 * np.exp(0.9j)
    sp = spectral_split(assemble_M(scheme, z), scheme)
    B = kl_boundary_matrix(scheme, z)
    d0 = abs(np.linalg.det(B @ sp.V_s))
    for _ in range(5):
        raw = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        Q = np.linalg.qr(raw)[0]
        d1 = abs(np.linalg.det(B @ (sp.V_s @ Q)))
        assert abs(d0 - d1) <= 1e-10


def test_kl_rejects_bad_shape():
    with pytest.raises(ResolventError):
        kl_determinant(upwind(1.0, 0.5), 2.0, b_eff=np.zeros((2, 2)))


@pytest.mark.parametrize(
    "scheme",
    [upwind(1.0, 0.5), lax_wendroff(1.0, 0.5, boundary="extrapolation"),
     random_scheme(3, 2, 1, 1, 2, 2, scale=0.3, boundary="random")],
    ids=["q-equals-p", "q-below-p", "q-above-p"],
)
def test_determinant_builds_coefficients_and_M_once_per_z(scheme, monkeypatch):
    import dibvp.resolvent as res

    calls = {"coeffs": 0, "M": 0}

    def counted(name, key):
        real = getattr(res, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(res, name, wrapper)

    counted("_resolvent_stack", "coeffs")
    counted("_companion", "M")
    kl_determinant(scheme, 1.3 + 0.2j)
    assert calls == {"coeffs": 1, "M": 1}
    calls.update(coeffs=0, M=0)
    # the scan builds the coefficients and the companion stack once for
    # its whole 2 x 8 grid
    uklc_scan(scheme, radii=(0.3, 0.6), n_theta=8)
    assert calls == {"coeffs": 1, "M": 1}


def _leap_frog_pair_singular_at(z_star: float) -> SchemeDef:
    """Two decoupled leap-frog components; the second's RA_p vanishes at z_star."""
    lf = leap_frog(1.0, 0.5).interior[..., 0, 0]
    interior = np.zeros((3, 2, 2, 2))
    interior[..., 0, 0] = interior[..., 1, 1] = lf
    interior[2, 1, 1, 1] = 0.5 * z_star  # RA_p = z^-2 (0.5 z - 0.5 z_star)
    return SchemeDef(N=2, r=1, p=1, q=0, s=1, lam=1.0, interior=interior,
                     boundary=np.zeros((1, 1, 3, 2, 2)))


def _characteristic_upwind(q: int = 0) -> SchemeDef:
    """Upwind at nu = 0.5 declared with p = 1 and A[+1] = 0: RA_p(z) = 0."""
    interior = np.array([0.5, 0.5, 0.0]).reshape(3, 1, 1, 1)
    return SchemeDef(N=1, r=1, p=1, q=q, s=0, lam=1.0, interior=interior,
                     boundary=np.zeros((q + 1, 1, 2, 1, 1)))


def test_companion_readers_refuse_a_singular_leading_block():
    scheme = _characteristic_upwind()
    with pytest.raises(ResolventError, match=r"^leading coefficient RA_p\(\(1\.1\+0j\)\) is "):
        assemble_M(scheme, 1.1 + 0j)
    with pytest.raises(ResolventError, match=r"^leading coefficient RA_p\(1\.0\) is "):
        classify_boundary_blocks(scheme, 1.0)
    # the boundary rows read M(z) only when q >= p
    assert kl_boundary_matrix(scheme, 1.1).shape == (1, 2)
    with pytest.raises(ResolventError, match="numerically singular"):
        kl_boundary_matrix(_characteristic_upwind(q=1), 1.1)


@pytest.mark.parametrize(
    "scheme,radii,b_eff,expect",
    [(upwind(0.5, 2.4), (0.1, 0.001), None, "got (0, 1)"),
     (upwind(0.5, 2.4), (0.1, 0.001), np.zeros((2, 2)), "boundary matrix shape"),
     (_leap_frog_pair_singular_at(1.001), (0.1, 0.001), None, "got (1, 3)"),
     (_leap_frog_pair_singular_at(1.001), (0.001,), None, "numerically singular")],
    ids=["counts", "shape-before-counts", "counts-before-singular", "singular"],
)
def test_scan_raises_the_per_z_error_of_the_first_failing_z(scheme, radii, b_eff, expect):
    # the stacked scan raises what a per-z loop in grid order raises first
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    first = None
    for z in [(1 + d) * np.exp(1j * t) for d in radii for t in thetas]:
        try:
            kl_determinant(scheme, z, b_eff)
        except ResolventError as exc:
            first = exc
            break
    assert expect in str(first)
    with pytest.raises(type(first)) as caught:
        uklc_scan(scheme, radii=radii, n_theta=16, b_eff=b_eff)
    assert str(caught.value) == str(first)


# ---------------------------------------------------------------------------
# UKLC scan


def test_uklc_upwind_dirichlet():
    scan = uklc_scan(upwind(1.0, 0.5), n_theta=32)
    assert scan.plausible
    assert scan.min_abs == pytest.approx(1.0, abs=1e-10)
    # the scan reads the resolvent only; check-uklc adds the symbol's warnings
    assert not hasattr(scan, "warnings")
    assert np.allclose(scan.per_radius_min, 1.0, atol=1e-10)


def test_uklc_zero_rows_fails():
    scan = uklc_scan(
        upwind(1.0, 0.5), radii=(1e-1, 1e-3), n_theta=8,
        b_eff=np.zeros((1, 1)),
    )
    assert not scan.plausible
    assert scan.values.max() == 0.0


@pytest.mark.parametrize("grid", [{"radii": ()}, {"n_theta": 0}])
def test_uklc_scan_names_an_empty_grid(grid):
    with pytest.raises(ResolventError, match="empty scan grid"):
        uklc_scan(upwind(1.0, 0.5), **grid)


def test_uklc_extrapolation_degenerates_toward_circle():
    # |Delta| ~ |1 - mu_s(z)| vanishes as z -> 1: verdict flips once the
    # scan radii go deep enough
    scheme = lax_wendroff(1.0, 0.5, boundary="extrapolation")
    scan = uklc_scan(scheme, radii=(1e-1, 1e-3, 1e-5, 1e-7), n_theta=32)
    assert not scan.plausible
    mins = np.asarray(scan.per_radius_min)
    assert np.all(np.diff(mins) < 0)
    # decay is first order in the offset from the circle
    assert mins[-1] == pytest.approx(1e-2 * mins[-2], rel=0.05)


def test_uklc_glancing_warning_propagates(tmp_path, capsys):
    scheme = leap_frog(1.0, 0.5)
    scan = uklc_scan(scheme, radii=(1e-1, 1e-3), n_theta=16)
    assert scan.plausible  # dirichlet leap-frog passes the determinant test
    # check-uklc attaches the glancing modes to that verdict as a warning
    path = tmp_path / "leapfrog.json"
    save_scheme(scheme, path)
    code = run_command(["check-uklc", "--scheme", str(path),
                        "--grid-radii", "0.1,0.001", "--grid-ntheta", "16"])
    (v,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert code == 0 and v["ok"] is True
    assert "; glancing modes present (theta=" in v["detail"]


# ---------------------------------------------------------------------------
# classification on the unit circle


def test_classify_upwind_at_one():
    cl = classify_boundary_blocks(upwind(1.0, 0.5), 1.0)
    (block,) = cl.blocks
    assert block.kind == "crossing"
    assert block.mu == pytest.approx(1.0, abs=1e-12)
    # radial drift of the root of mu = nu/(z - (1-nu)) at z = 1 is -1/nu
    assert block.drift == pytest.approx(-2.0, abs=1e-6)
    assert cl.counts["crossing"] == 1


def test_classify_upwind_at_minus_one():
    cl = classify_boundary_blocks(upwind(1.0, 0.5), -1.0)
    (block,) = cl.blocks
    assert block.kind == "contracting"
    assert block.mu == pytest.approx(-1 / 3, abs=1e-12)


def test_classify_lax_friedrichs_at_one():
    cl = classify_boundary_blocks(lax_friedrichs(1.0, 0.5), 1.0)
    kinds = {round(b.mu.real, 6): b for b in cl.blocks}
    assert kinds[3.0].kind == "expanding"
    assert kinds[1.0].kind == "crossing"
    assert kinds[1.0].drift == pytest.approx(-2.0, abs=1e-6)
    assert cl.counts == {
        "expanding": 1, "contracting": 0, "crossing": 1, "glancing": 0,
    }


def test_classify_leap_frog_glancing_point():
    # double spatial root mu = i at z = e^{-i pi/6}: branch-point behavior,
    # detected through the defective block's eigenvector condition number
    z_bar = np.exp(-1j * np.pi / 6)
    cl = classify_boundary_blocks(leap_frog(1.0, 0.5), z_bar)
    (block,) = cl.blocks
    assert block.multiplicity == 2
    assert abs(block.mu - 1j) < 1e-6
    assert block.kind == "glancing"
    assert not block.cond <= BRANCH_COND_MAX
    assert block.drift is None


def _richardson_drift(scheme, z_bar, mu, gap):
    """Lambda = (d kappa / d tau) conj(mu) by centred differences at h and
    h/2 combined by Richardson extrapolation, following kappa by nearest
    value; h keeps kappa's move within 1e-3 of its gap to the others and
    of its own size |mu|, and h itself at most 1e-3."""
    def slope(step):
        zs = [z_bar * np.exp(step), z_bar * np.exp(-step)]
        plus, minus = (v[np.argmin(np.abs(v - mu))]
                       for v in np.linalg.eigvals(_companion_at(scheme, zs)[0]))
        return (plus - minus) / (2 * step)

    h = 1e-3 * min(1.0, min(gap, abs(mu)) / abs(slope(1e-7)))
    return (4 * slope(h / 2) - slope(h)) / 3 * np.conj(mu)


# a lone eigenvalue (gap inf) with drift -153.5: bounded by the gap alone,
# h = 1e-3 moved kappa by 0.15 and Richardson read -153.463
_STEEP_UPWIND = SchemeDef(1, 1, 0, 0, 0, 1.0, np.array([0.0065153, 0.9934847]).reshape(2, 1, 1, 1),
                          np.zeros((1, 1, 2, 1, 1)))


@settings(max_examples=60)
@given(schemes(taps="nonnegative"), st.sampled_from([1.0, -1.0]))
@example(_STEEP_UPWIND, 1.0)
def test_exact_drifts_match_richardson_oracle(scheme, z_bar):
    assume(validate_scheme(scheme).ok)
    cl = classify_boundary_blocks(scheme, z_bar)
    eigs = np.linalg.eigvals(assemble_M(scheme, z_bar).M)
    for block in cl.blocks:
        if block.cond is None or block.multiplicity > 1 or not block.cond <= 1e3:
            continue
        # a simple, well separated unimodular eigenvalue
        gap = np.sort(np.append(np.abs(eigs - block.mu), np.inf))[1]
        if gap < 1e-2:
            continue
        lam = _richardson_drift(scheme, z_bar, block.mu, gap)
        assert abs(block.drift - lam.real) <= 1e-6 * abs(lam)


@settings(max_examples=100)
@given(schemes(taps="nonnegative"), st.lists(st.floats(0, 2 * np.pi), min_size=1, max_size=4))
def test_split_counts_hold_outside_the_unit_circle(scheme, angles):
    # for a von Neumann stable, noncharacteristic scheme M(z) has N r
    # eigenvalues inside the unit disk and N p outside at every |z| > 1
    assume(validate_scheme(scheme).ok and von_neumann_check(scheme).ok)
    zs = [rho * np.exp(1j * a) for rho in (1.5, 2.0, 3.0) for a in angles]
    expect = (scheme.N * scheme.r, scheme.N * scheme.p)
    assert not _split_stack(zs, _companion_at(scheme, zs)[0], expect)[1].any()


def test_classify_rejects_off_circle():
    with pytest.raises(ResolventError):
        classify_boundary_blocks(upwind(1.0, 0.5), 1.2)


def test_classify_counts_cover_spectrum():
    for scheme in [lax_wendroff(1.0, 0.8), leap_frog(1.0, 0.5)]:
        for z_bar in [1.0, -1.0, np.exp(0.83j)]:
            cl = classify_boundary_blocks(scheme, z_bar)
            assert sum(cl.counts.values()) == scheme.N * (scheme.p + scheme.r)


# ---------------------------------------------------------------------------
# argument total variation


def test_tv_pure_transport_oracle():
    # f(tau) = tau, w = 0: v = arg(gamma + i theta) sweeps 2 arctan(eps/gamma)
    rep = arg_total_variation(
        lambda tau: tau, gamma_grid=(1e-4,), w_grid=np.array([0.0]), eps=0.1
    )
    assert rep.tv[0, 0] == pytest.approx(2 * np.arctan(0.1 / 1e-4), abs=1e-10)
    assert not rep.capped and rep.skipped == ()


def test_tv_far_w_below_pi():
    # a point far off the curve subtends less than a half turn
    sup_f = abs(1e-4 + 0.1j)
    rep = arg_total_variation(
        lambda tau: tau, gamma_grid=(1e-4,),
        w_grid=np.array([3 * sup_f, -3 * sup_f]), eps=0.1,
    )
    assert np.all(rep.tv < np.pi)


def test_tv_touch_is_skipped_and_flagged():
    # f = i theta passes through i w exactly for w = 0
    rep = arg_total_variation(
        lambda tau: 1j * tau.imag, gamma_grid=(1e-4,),
        w_grid=np.array([0.0, 0.047]), eps=0.1,
    )
    assert rep.skipped == ((1e-4, 0.0),)
    assert np.isnan(rep.tv[0, 0])
    # the near-touched sample keeps its ~pi variation and reports the cap
    assert rep.tv[0, 1] == pytest.approx(np.pi, abs=0.05)
    assert rep.capped


def test_tv_default_w_grid_shape():
    rep = arg_total_variation(
        EigenvalueBranch(upwind(1.0, 0.5), 1.0, 1.0),
        gamma_grid=(1e-2, 1e-3), eps=0.1,
    )
    assert rep.ws.shape == (41,)
    assert rep.tv.shape == (2, 41)
    assert rep.sup_at[0] in (1e-2, 1e-3)


def test_branch_curve_matches_upwind_closed_form():
    # mu(z) = nu/(z - (1-nu)): f(tau) = -log((e^tau - (1-nu))/nu)
    nu = 0.5
    branch = EigenvalueBranch(upwind(1.0, nu), 1.0, 1.0)
    thetas = np.linspace(-0.1, 0.1, 257)
    for gamma in (1e-2, 1e-4):
        f = branch.curve(gamma, thetas)
        tau = gamma + 1j * thetas
        expect = -np.log((np.exp(tau) - (1 - nu)) / nu)
        assert np.max(np.abs(f - expect)) <= 1e-10


def test_branch_curve_continuous_at_glancing_point():
    # the tracked log never hops branches even though the eigenvalues
    # nearly collide at theta = 0
    z_bar = np.exp(-1j * np.pi / 6)
    branch = EigenvalueBranch(leap_frog(1.0, 0.5), z_bar, 1j)
    f = branch.curve(1e-4, np.linspace(-0.1, 0.1, 2049))
    steps = np.abs(np.diff(f))
    assert steps.max() < 0.2
    assert np.min(np.abs(f)) < 0.05  # passes near the base point


def _per_node_branch(branch, gamma, thetas):
    """mu along z_bar e^{gamma + i theta} by brute force, or None at a near tie.

    One eigen-solve per path point and least-cost matching by trying every
    order: the radial walk, the reference-node sweeps both ways from
    theta = 0, then each grid point from its nearest node.  A step whose
    nearest values are no permutation, or whose two best orders cost
    nearly the same, is one the continuation may bisect: None.
    """
    def eigs(tau):
        return np.linalg.eigvals(assemble_M(branch.scheme, branch.z_bar * np.exp(tau)).M)

    base = eigs(0.0)
    b = int(np.argmin(np.abs(base - branch.mu_bar)))
    n = len(base)
    orders = [list(o) for o in itertools.permutations(range(n))]
    cols = np.arange(n)

    def step(prev, tau):
        vals = eigs(tau)
        cost = np.abs(vals[:, None] - prev[None, :])
        totals = sorted((cost[o, cols].sum(), k) for k, o in enumerate(orders))
        if len(set(np.argmin(cost, axis=0))) < n or totals[1][0] - totals[0][0] < 1e-9:
            raise LookupError
        return vals[orders[totals[0][1]]]

    t_max = float(np.abs(thetas).max())
    pos = [gamma / 4]
    while pos[-1] < t_max:
        pos.append(pos[-1] * 1.25)
    pos[-1] = t_max
    try:
        walk = base
        for k in range(12, -1, -1):
            walk = step(walk, gamma / 2**k)
        nodes = {0.0: walk}
        for side in (1, -1):
            vals = walk
            for t in pos:
                vals = nodes[side * t] = step(vals, gamma + 1j * side * t)
        node_th = np.array(sorted(nodes))
        return np.array([
            step(nodes[node_th[np.argmin(np.abs(node_th - t))]], gamma + 1j * t)[b]
            for t in thetas
        ])
    except LookupError:
        return None


@st.composite
def _base_points(draw, population):
    """A scheme of ``population``, a point z_bar on the circle and an
    eigenvalue mu_bar of M(z_bar)."""
    scheme = draw(population)
    z_bar = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    mus = np.linalg.eigvals(assemble_M(scheme, z_bar).M)
    return scheme, z_bar, mus[draw(st.integers(0, len(mus) - 1))]


@settings(max_examples=30)
@given(_base_points(schemes(r=(1, 3), p=(0, 3), companion=4)), st.sampled_from([1e-2, 1e-3]))
def test_branch_curve_matches_per_node_least_cost_oracle(case, gamma):
    scheme, z_bar, mu_bar = case
    branch = EigenvalueBranch(scheme, z_bar, mu_bar)
    thetas = np.linspace(-0.1, 0.1, 33)
    ref = _per_node_branch(branch, gamma, thetas)
    if ref is None:
        return  # a near tie: the continuation bisects past the oracle's step
    mu = branch.mu_bar * np.exp(branch.curve(gamma, thetas))
    assert np.abs(mu - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_unit_circle_sweeps_build_one_companion_stack_each(monkeypatch):
    import dibvp.resolvent as res

    sizes = []
    real = res._companion

    def counted(scheme, RA, *args):
        sizes.append(len(RA))
        return real(scheme, RA, *args)

    monkeypatch.setattr(res, "_companion", counted)
    z_bar = np.exp(-1j * np.pi / 6)
    branch = EigenvalueBranch(leap_frog(1.0, 0.5), z_bar, 1j)
    branch.curve(1e-4, np.linspace(-0.1, 0.1, 257))
    # the base point, the 13-step radial walk, the reference nodes, the grid
    assert len(sizes) == 4 and sizes[:2] == [1, 13] and sizes[3] == 257
    sizes.clear()
    classify_boundary_blocks(leap_frog(1.0, 0.5), z_bar)
    # M(z_bar) and its exact tau-derivative, together
    assert sizes == [1]


def test_branch_rejects_bad_inputs():
    scheme = upwind(1.0, 0.5)
    with pytest.raises(ResolventError):
        EigenvalueBranch(scheme, 1.2, 1.0)  # base off the circle
    with pytest.raises(ResolventError):
        EigenvalueBranch(scheme, 1.0, 0.5)  # not an eigenvalue
    branch = EigenvalueBranch(scheme, 1.0, 1.0)
    with pytest.raises(ResolventError):
        branch.curve(-1e-3, np.linspace(-0.1, 0.1, 9))


def test_tv_third_type_branches_stay_bounded():
    # transversally crossing branches keep the variation far below 6 pi
    for scheme, z_bar, mu in [
        (upwind(1.0, 0.5), 1.0, 1.0),
        (lax_friedrichs(1.0, 0.5), 1.0, 1.0),
    ]:
        rep = arg_total_variation(
            EigenvalueBranch(scheme, z_bar, mu),
            gamma_grid=(1e-2, 1e-4), eps=0.1,
        )
        assert rep.sup <= 6 * np.pi + 0.1
        assert not rep.capped


def test_tv_glancing_branch_grows_toward_circle():
    z_bar = np.exp(-1j * np.pi / 6)
    branch = EigenvalueBranch(leap_frog(1.0, 0.5), z_bar, 1j)
    rep = arg_total_variation(branch, gamma_grid=(1e-2, 1e-4), eps=0.1)
    assert rep.per_gamma_sup[1] > rep.per_gamma_sup[0] + 0.5


def test_tv_all_skipped_raises():
    with pytest.raises(ResolventError):
        arg_total_variation(
            lambda tau: 1j * tau.imag, gamma_grid=(1e-4,),
            w_grid=np.array([0.0]), eps=0.1,
        )
