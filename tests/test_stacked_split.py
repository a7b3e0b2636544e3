"""The stacked stable-subspace split against an ordered-Schur reference.

``schur_determinant`` is the per-z split the package used before its
numpy-only stacked pass: an ordered complex Schur form of M(z), whose
leading columns are an orthonormal basis of E^s(z).  It needs scipy, so
this module is skipped where scipy is not installed.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings

import dibvp.resolvent as res
from dibvp.core import SchemeDef, _boundary_array
from dibvp.resolvent import (
    ResolventError,
    assemble_M,
    kl_boundary_matrix,
    uklc_scan,
)
from dibvp.symbol import von_neumann_check
from populations import schemes

scipy_linalg = pytest.importorskip("scipy.linalg")


def schur_determinant(scheme: SchemeDef, z: complex) -> tuple:
    """|Delta(z)| from the ordered complex Schur basis of E^s(z), and the
    scale ||M(z)|| ||B_eff(z)|| of its rounding error.

    A backward-stable split moves the basis by about eps ||M||, and the
    boundary rows turn that into a relative change of |Delta| of about
    eps ||M|| ||B_eff|| (times the conditioning of B_eff V_s).
    """
    M, B = assemble_M(scheme, z).M, kl_boundary_matrix(scheme, z)
    _, Z, ns = scipy_linalg.schur(M, output="complex", sort=lambda mu: abs(mu) < 1)
    scale = np.linalg.norm(M, 2) * np.linalg.norm(B, 2)
    return float(abs(np.linalg.det(B @ Z[:, :ns]))), float(scale)


def _oracle(scheme: SchemeDef, scan) -> tuple:
    """schur_determinant at every sample of ``scan``, as two flat arrays."""
    zs = [(1 + d) * np.exp(1j * t) for d in scan.radii for t in scan.thetas]
    ref, scale = np.array([schur_determinant(scheme, z) for z in zs]).T
    return ref, scale


def lax_wendroff_system(A: np.ndarray, lam: float = 0.5) -> SchemeDef:
    """Lax-Wendroff for u_t + A u_x = 0 with the inflow row U_0 = U_1."""
    L = lam * A
    L2 = L @ L
    return SchemeDef(
        N=2, r=1, p=1, q=0, s=0, lam=lam,
        interior=np.stack([(L + L2) / 2, np.eye(2) - L2, (L2 - L) / 2])[:, None],
        boundary=_boundary_array(1, 0, 0, 2, "extrapolation"),
        label="lax-wendroff-system",
    )


def _radii_outside_symbol(scheme: SchemeDef) -> tuple:
    """Offsets delta whose circles |z| = 1 + delta lie outside the sampled
    spectrum of the symbol, so the split counts are (N r, N p) there."""
    base = 1.02 * max(1.0, von_neumann_check(scheme, n_theta=256).max_radius)
    return tuple(base * (1 + d) - 1 for d in (1e-3, 1e-1, 1.0))


@settings(max_examples=60)
@given(schemes(q=(0, 2), consistent=True, boundary="random"))
def test_stacked_determinant_matches_schur_oracle(scheme):
    try:
        scan = uklc_scan(scheme, radii=_radii_outside_symbol(scheme), n_theta=12)
    except ResolventError:
        assume(False)  # RA_p singular on the grid, or an unsampled symbol peak
    ref, scale = _oracle(scheme, scan)
    got = scan.values.ravel()
    # 1e-9 relative where eps ||M|| ||B_eff|| is small; the bound grows
    # with it beyond ||M|| ||B_eff|| = 1e3 (near-singular RA_p draws)
    tol = 1e-9 * np.maximum(1.0, scale / 1e3)
    big = ref > 1e-8
    assert np.all(np.abs(got - ref)[big] <= tol[big] * ref[big])
    assert np.all(got[~big] <= 1e-8 * (1 + tol[~big]))
    # the sign-function split agrees with the eigenvector split
    with mock.patch.object(res, "BASIS_RCOND_MIN", np.inf):
        forced = uklc_scan(scheme, radii=scan.radii, n_theta=12)
    assert forced.fallbacks == got.size
    assert np.all(np.abs(forced.values.ravel() - got) <= tol * np.maximum(got, 1e-8))


def test_jordan_block_takes_the_sign_function_split():
    # A = [[1, 1], [0, 1]] gives M(z) a double stable eigenvalue with one
    # eigenvector: the eigenvector block is rank deficient at every z
    scheme = lax_wendroff_system(np.array([[1.0, 1.0], [0.0, 1.0]]))
    scan = uklc_scan(scheme)
    assert scan.fallbacks > 0
    ref, _ = _oracle(scheme, scan)
    assert np.all(np.abs(scan.values.ravel() - ref) <= 1e-8 * ref)


def test_diagonalizable_system_needs_no_fallback():
    scheme = lax_wendroff_system(np.array([[1.0, 0.5], [0.5, -0.5]]))
    scan = uklc_scan(scheme, radii=(1e-1, 1e-3), n_theta=16)
    assert scan.fallbacks == 0
    ref, _ = _oracle(scheme, scan)
    assert np.all(np.abs(scan.values.ravel() - ref) <= 1e-12 * np.maximum(ref, 1))
