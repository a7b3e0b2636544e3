"""Resolvent-side analysis of the half-line scheme.

After a z-transform in time, a solution U_j^n = z^n W_j of the
homogeneous scheme satisfies a spatial recursion with coefficients

    RA_l(z) = delta_{l0} I - sum_sigma z^{-sigma-1} A[l, sigma],
    RB_{l,j}(z) = sum_{sigma=-1}^{s} z^{-sigma-1} B[l, j, sigma],

an interior relation sum_l RA_l(z) W_{j+l} = 0 (j >= 1) and boundary
relations W_j = sum_l RB_{l,j}(z) W_{1+l} (1-r <= j <= 0).  Stacking
consecutive values into states Wvec_j = (W_{j+p-1}, ..., W_{j-r}) turns
the interior relation into a one-step recursion Wvec_{j+1} = M(z) Wvec_j
with a block companion matrix M(z).

For |z| > 1 the matrix M(z) has exactly N r eigenvalues inside the unit
disk and N p outside; square-summable solutions live in the stable
invariant subspace.  The boundary relations restricted to that subspace
give a square matrix whose determinant modulus |Delta(z)| is the
Lopatinskii determinant: the uniform Kreiss-Lopatinskii condition (UKLC)
asks for a positive lower bound as |z| decreases to 1.

The module also classifies the eigenvalues of M(z) at a unit-modulus
point (expanding / contracting / crossing the circle transversally /
glancing) and implements a total-variation-of-argument diagnostic along
eigenvalue branch curves z = z_bar e^{gamma + i theta}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (BRANCH_COND_MAX, SchemeDef, _clusters, _continue_path, _eig, _eig_derivs,
                   _eigvals, _resolvent_stack)

DEFAULT_RADII = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
KL_TOL = 1e-6
#: the spectral split needs |z| > 1 + SPLIT_MARGIN
SPLIT_MARGIN = 1e-8
#: an eigenvalue of M(z) this close to the unit circle has no side
UNIT_TOL = 1e-10
#: RA_p(z) with a larger condition number counts as singular
RA_COND_MAX = 1e12


class ResolventError(ValueError):
    """Raised when a resolvent-side computation is ill-posed at this z."""


class SplitCountError(ResolventError):
    """M(z) has not N r stable and N p unstable eigenvalues at some |z| > 1.

    Either the counts differ or an eigenvalue kappa sits on the unit
    circle, which makes z an eigenvalue of the symbol at a unimodular
    kappa.  The scheme breaks the analysis' hypotheses (for instance it is
    von Neumann unstable), so no determinant exists there.
    """


# ---------------------------------------------------------------------------
# coefficients and companion matrix


@dataclass(frozen=True)
class CompanionMatrix:
    """Block companion matrix of the spatial recursion at z."""

    z: complex
    M: np.ndarray


def _singular_error(z) -> ResolventError:
    return ResolventError(f"leading coefficient RA_p({z}) is numerically singular")


def _companion(scheme: SchemeDef, zs, derivative: bool = False):
    """(M, RB, singular[, dM]) at the points ``zs``, each finite and nonzero.

    M(z) and RB[i, l, j - (1-r)] = RB_{l,j}(z_i) are stacked on the first
    axis, and ``singular`` flags where RA_p(z_i) is numerically singular
    (condition number above RA_COND_MAX): there M is built with the
    identity in its place, so the stack stays finite.  With ``derivative``
    dM/dtau along z = z_bar e^tau comes last: its top row blocks are
    -RA_p^{-1} (dRA_l + dRA_p top_l), with top_l = -RA_p^{-1} RA_l and
    dRA = z dRA/dz.
    """
    if (np.asarray(zs) == 0).any():
        raise ResolventError("resolvent coefficients are singular at z = 0")
    if not np.isfinite(zs).all():
        bad = np.asarray(zs)[~np.isfinite(zs)][0]
        raise ResolventError(f"resolvent coefficients need a finite z, got z = {bad}")
    RA, RB, *deriv = _resolvent_stack(scheme, zs, derivative)
    r, p, N = scheme.r, scheme.p, scheme.N
    K, dim = RA.shape[0], N * (p + r)
    Ap = RA[:, p + r]
    singular = np.linalg.cond(Ap) > RA_COND_MAX
    ApInv = np.linalg.inv(np.where(singular[:, None, None], np.eye(N), Ap))
    M = np.zeros((K, dim, dim), dtype=complex)
    # top row blocks -RA_p^{-1} RA_l multiply (W_{j+p-1}, ..., W_{j-r})
    top = -ApInv[:, None] @ RA[:, p + r - 1 :: -1]
    M[:, :N] = top.transpose(0, 2, 1, 3).reshape(K, N, dim)
    if p + r > 1:
        M[:, N:, :-N] = np.eye(N * (p + r - 1))
    if not derivative:
        return M, RB, singular
    (dRA,) = deriv
    dM = np.zeros_like(M)
    dtop = -ApInv[:, None] @ (dRA[:, p + r - 1 :: -1] + dRA[:, p + r, None] @ top)
    dM[:, :N] = dtop.transpose(0, 2, 1, 3).reshape(K, N, dim)
    return M, RB, singular, dM


def _companion_at(scheme: SchemeDef, zs, derivative: bool = False) -> tuple:
    """``_companion`` without its flags, (M, RB[, dM]); raises at the first
    z whose RA_p is singular."""
    M, RB, singular, *dM = _companion(scheme, zs, derivative)
    if singular.any():
        raise _singular_error(zs[int(np.argmax(singular))])
    return (M, RB, *dM)


def assemble_M(scheme: SchemeDef, z: complex) -> CompanionMatrix:
    """Build M(z) of size N(p+r): top block row -RA_p^{-1}(RA_{p-1}..RA_{-r}),
    identity on the subdiagonal.  Raises ResolventError where RA_p(z) has a
    condition number above RA_COND_MAX."""
    return CompanionMatrix(z=z, M=_companion_at(scheme, [z])[0][0])


# ---------------------------------------------------------------------------
# spectral splitting

# a stable eigenvector block whose QR factor has min|R_kk| / max|R_kk| below
# this is too close to rank deficient to span E^s; the sign function is used
BASIS_RCOND_MIN = 1e-8


@dataclass(frozen=True)
class SpectralSplit:
    """Stable/unstable invariant subspaces of M(z) for |z| > 1.

    ``V_s`` and ``V_u`` have orthonormal columns spanning the invariant
    subspaces (see ``spectral_split``); ``proj_s``/``proj_u`` are the
    spectral projectors built from them.  ``counts_ok`` records whether the
    dimensions match (N r, N p).
    """

    z: complex
    eigenvalues: np.ndarray
    V_s: np.ndarray
    V_u: np.ndarray
    proj_s: np.ndarray
    proj_u: np.ndarray
    n_stable: int
    n_unstable: int
    counts_ok: bool
    unit_gap: float
    invariance_residual: float
    message: str = ""


def _split_error(z, eigs, check: int, expect) -> ResolventError:
    """The error of split check ``check`` (a column of _split_stack's failures) at z."""
    if check == 0:
        return ResolventError(
            f"spectral split needs |z| > 1 + {SPLIT_MARGIN:g}, got |z| = {abs(z):.12f}"
        )
    if check == 1:
        return SplitCountError(
            f"eigenvalue within {UNIT_TOL:g} of the unit circle at |z| = "
            f"{abs(z):.12f}; splitting is not numerically resolved"
        )
    ns, nu = int(np.sum(np.abs(eigs) < 1)), int(np.sum(np.abs(eigs) > 1))
    return SplitCountError(
        f"expected ({expect[0]} stable, {expect[1]} unstable), "
        f"got ({ns}, {nu}); scheme assumptions violated at z = {z}"
    )


def _sign_basis(M: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal bases of the k-dimensional stable invariant subspaces of
    the stacked M, by the matrix sign function.

    The Cayley transform (M + I)(M - I)^{-1} sends the inside of the unit
    disk to the left half-plane; its sign S comes from the scaled Newton
    iteration S <- (g S + (g S)^{-1}) / 2 with g = |det S|^{-1/n} (Higham,
    Functions of Matrices, ch. 5).  (I - S)/2 projects onto E^s along E^u,
    and its first k left singular vectors span its range.
    """
    n = M.shape[-1]
    eye = np.eye(n)
    S = np.linalg.solve(M - eye, M + eye)
    for _ in range(100):
        g = np.abs(np.linalg.det(S))[:, None, None] ** (-1 / n)
        new = 0.5 * (g * S + np.linalg.inv(S) / g)
        change = np.linalg.norm(new - S, axis=(1, 2)) / np.linalg.norm(new, axis=(1, 2))
        S = new
        if change.max() <= 1e-10:
            break
    return np.linalg.svd((eye - S) / 2)[0][..., :k]


def _split_stack(zs, M: np.ndarray, expect) -> tuple:
    """(eigs, failures, V_s, fallback): the split of each stacked M(z_i).

    ``failures`` is the (K, 3) table of the split checks each z fails, in
    the order they are raised: |z| too close to 1, an eigenvalue on the
    circle, counts other than ``expect``.  V_s holds orthonormal bases of
    E^s as wide as the largest stable count: the QR of the stable
    eigenvectors, or the sign-function basis (``fallback``) where their
    block is ill-conditioned and z passes the first two checks.
    """
    eigs, vecs = _eig(M)
    mod = np.abs(eigs)
    counts = np.stack([(mod < 1).sum(-1), (mod > 1).sum(-1)], axis=-1)
    failures = np.column_stack([
        np.abs(np.asarray(zs)) <= 1 + SPLIT_MARGIN,
        np.abs(mod - 1).min(-1) < UNIT_TOL,
        np.any(counts != expect, axis=-1),
    ])
    cols = np.argsort(mod, axis=-1)[:, : counts[:, 0].max()]
    V_s, R = np.linalg.qr(np.take_along_axis(vecs, cols[:, None, :], axis=2))
    rdiag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    fallback = rdiag.min(-1, initial=np.inf) < BASIS_RCOND_MIN * rdiag.max(-1, initial=0)
    fallback &= ~failures[:, :2].any(-1)
    if fallback.any():
        V_s[fallback] = _sign_basis(M[fallback], V_s.shape[-1])
    return eigs, failures, V_s, fallback


def spectral_split(companion: CompanionMatrix, scheme: SchemeDef) -> SpectralSplit:
    """Split the spectrum of M(z) across the unit circle.

    Requires |z| > 1 + SPLIT_MARGIN.  An eigenvalue within UNIT_TOL of the
    unit circle cannot be assigned a side and raises SplitCountError; a
    count different from (N r, N p) is reported in ``counts_ok``/``message``
    rather than raised, since it indicates an assumption violation of the
    scheme, not a numerical failure.  The scan's split of the stack
    [M, M^H] gives V_s and the stable basis W of M^H, which M's left stable
    eigenvectors span: E^u is W's orthogonal complement, and
    proj_s = V_s (W^H V_s)^{-1} W^H.
    """
    z, M = companion.z, companion.M
    expect = (scheme.N * scheme.r, scheme.N * scheme.p)
    eigs, fails, (V_s, W), _ = _split_stack([z, z], np.stack([M, M.conj().T]), expect)
    if fails[0, :2].any():
        raise _split_error(z, eigs[0], int(np.argmax(fails[0])), expect)
    ns = V_s.shape[1]
    V_u = np.linalg.svd(W)[0][:, ns:]
    proj_s = V_s @ np.linalg.solve(W.conj().T @ V_s, W.conj().T)
    res = 0.0
    for V in (V_s, V_u):
        if V.shape[1]:
            MV = M @ V
            res = max(res, float(np.linalg.norm(MV - V @ (V.conj().T @ MV), 2)))
    return SpectralSplit(
        z=z,
        eigenvalues=eigs[0],
        V_s=V_s,
        V_u=V_u,
        proj_s=proj_s,
        proj_u=np.eye(len(M)) - proj_s,
        n_stable=ns,
        n_unstable=len(M) - ns,
        counts_ok=not fails[0, 2],
        unit_gap=float(np.min(np.abs(np.abs(eigs[0]) - 1))),
        invariance_residual=res,
        message=str(_split_error(z, eigs[0], 2, expect)) if fails[0, 2] else "",
    )


# ---------------------------------------------------------------------------
# Lopatinskii determinant


def kl_boundary_matrix(scheme: SchemeDef, z: complex) -> np.ndarray:
    """Effective boundary rows acting on the state Wvec_1 = (W_p, ..., W_{1-r}).

    Row j (for j = 0 down to 1-r) encodes W_j - sum_l RB_{l,j}(z) W_{1+l} = 0.
    W_i with i <= p is a block of Wvec_1 (column block p - i); W_{1+l} with
    l >= p is extracted by iterating the companion matrix:
    W_{1+l} = E_top M(z)^{l+1-p} Wvec_1.
    """
    companion = _companion_at if scheme.q >= scheme.p else _companion
    M, RB = companion(scheme, [z])[:2]
    return _boundary_rows(scheme, RB, M)[0]


def _boundary_rows(scheme: SchemeDef, RB: np.ndarray, M: np.ndarray):
    """kl_boundary_matrix for each stacked RB[i, l, j-(1-r)] = RB_{l,j}(z_i);
    the stacked M(z_i) is read if q >= p."""
    r, p, q, N = scheme.r, scheme.p, scheme.q, scheme.N
    dim = N * (p + r)

    def selector(i: int) -> np.ndarray:
        out = np.zeros((N, dim), dtype=complex)
        c = p - i
        out[:, c * N : (c + 1) * N] = np.eye(N)
        return out

    powers = None
    if q >= p:
        powers = [np.broadcast_to(np.eye(dim, dtype=complex), M.shape)]
        for _ in range(q + 1 - p):
            powers.append(M @ powers[-1])

    def extract(i: int) -> np.ndarray:
        # matrix X with W_i = X @ Wvec_1 on homogeneous interior solutions
        if i <= p:
            return selector(i)
        return powers[i - p][:, :N]  # top block of M^{i-p}

    rows = []
    for j in range(0, -r, -1):
        row = np.repeat(selector(j)[None], len(RB), axis=0)
        for ell in range(q + 1):
            row -= RB[:, ell, j - (1 - r)] @ extract(1 + ell)
        rows.append(row)
    return np.concatenate(rows, axis=1)


def _lopatinskii(scheme: SchemeDef, zs, b_eff=None) -> tuple:
    """|Delta(z)| for every z in ``zs`` in one stacked pass, and the number
    of z whose stable basis came from the sign function.

    Raises the error of the first z in order that fails a check, taking
    its checks in order: RA_p singular, the split checks, the shape of
    ``b_eff``.
    """
    r, p, N = scheme.r, scheme.p, scheme.N
    expect, dim = (N * r, N * p), N * (p + r)
    M, RB, singular = _companion(scheme, zs)
    eigs, split, V_s, fallback = _split_stack(zs, M, expect)
    B = None if b_eff is None else np.asarray(b_eff)
    bad_shape = B is not None and B.shape != (expect[0], dim)
    fails = np.column_stack([singular, split, np.full(len(zs), bad_shape)])
    if fails.any():
        i = int(np.argmax(fails.any(axis=1)))
        check = int(np.argmax(fails[i]))
        if check == 0:
            raise _singular_error(zs[i])
        if check == 4:
            raise ResolventError(
                f"boundary matrix shape {B.shape} incompatible with "
                f"state dimension {dim}"
            )
        raise _split_error(zs[i], eigs[i], check - 1, expect)
    if B is None:
        B = _boundary_rows(scheme, RB, M)
    return np.abs(np.linalg.det(B @ V_s)), int(fallback.sum())


def kl_determinant(
    scheme: SchemeDef, z: complex, b_eff: np.ndarray | None = None
) -> float:
    """|Delta(z)| = |det(B_eff(z) V_s(z))| with an orthonormal stable basis.

    The modulus is independent of the basis choice.  ``b_eff`` overrides
    the assembled boundary rows (shape N r x N(p+r)); rows of zeros give
    |Delta| = 0 identically.
    """
    return float(_lopatinskii(scheme, [z], b_eff)[0][0])


@dataclass(frozen=True)
class KLScan:
    """|Delta| sampled on circles z = (1+delta) e^{i theta}.

    ``fallbacks`` counts the samples whose stable basis came from the sign
    function because their eigenvector block was ill-conditioned.
    """

    radii: tuple
    thetas: np.ndarray
    values: np.ndarray  # (len(radii), len(thetas))
    min_abs: float
    argmin: tuple  # (delta, theta)
    per_radius_min: tuple
    tol: float
    plausible: bool
    fallbacks: int = 0


def uklc_scan(
    scheme: SchemeDef,
    radii: tuple = DEFAULT_RADII,
    n_theta: int = 64,
    tol_kl: float = KL_TOL,
    b_eff: np.ndarray | None = None,
) -> KLScan:
    """Scan |Delta| toward the unit circle and issue a verdict.

    The verdict "plausible" means min |Delta| >= tol_kl over all samples.
    ``per_radius_min`` exposes the trend as delta decreases.  The scan reads
    the resolvent only: the symbol-side hypotheses (von Neumann, no
    glancing modes) are separate checks.
    """
    if len(radii) == 0 or n_theta < 1:
        raise ResolventError(f"empty scan grid: {len(radii)} radii x {n_theta} angles")
    if not np.isfinite(radii).all():
        raise ResolventError(f"the scan needs finite radii, got {tuple(radii)}")
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    zs = ((1 + np.asarray(radii, dtype=float))[:, None] * np.exp(1j * thetas)).ravel()
    values, fallbacks = _lopatinskii(scheme, zs, b_eff)
    values = values.reshape(len(radii), len(thetas))
    flat = int(np.argmin(values))
    i0, k0 = divmod(flat, len(thetas))
    return KLScan(
        radii=tuple(radii),
        thetas=thetas,
        values=values,
        min_abs=float(values.min()),
        argmin=(radii[i0], float(thetas[k0])),
        per_radius_min=tuple(float(v) for v in values.min(axis=1)),
        tol=tol_kl,
        plausible=bool(values.min() >= tol_kl),
        fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# classification of M(z_bar) eigenvalues on the unit circle


@dataclass(frozen=True)
class BoundaryBlock:
    """One eigenvalue cluster of M(z_bar) with its circle-crossing type.

    kind: "expanding" (|mu| > 1), "contracting" (|mu| < 1), "crossing"
    (unimodular, moving radially as |z| grows; ``drift`` > 0 means
    outward), or "glancing" (unimodular with no resolved radial motion:
    a defective block, whose ``drift`` is None, or vanishing drift).
    ``cond`` is the unimodular block's eigenvector condition number.
    """

    mu: complex
    multiplicity: int
    kind: str
    drift: float | None
    cond: float | None


@dataclass(frozen=True)
class BlockClassification:
    z_bar: complex
    blocks: tuple
    counts: dict


# classify_boundary_blocks' tolerances (see its docstring)
UNIMODULAR_BAND = 1e-6
DRIFT_TOL = 1e-6


def classify_boundary_blocks(scheme: SchemeDef, z_bar: complex) -> BlockClassification:
    """Classify eigenvalues of M(z_bar) for unit-modulus z_bar.

    Each cluster of ``core._eig_derivs`` (M, dM/dtau) is one block,
    unimodular when its mean mu is within UNIMODULAR_BAND of the circle.
    Its radial drifts along z = z_bar e^tau are Lambda = (d kappa / d tau)
    conj(mu); Re Lambda > 0 means leaving the unit disk as |z| grows.  The
    block is glancing when its cond is not at most BRANCH_COND_MAX (a
    defective block, a branch point: no drift) or its drift of least
    |Re Lambda| has |Re Lambda| <= DRIFT_TOL (tangent to the circle).
    """
    if abs(abs(z_bar) - 1) > 1e-12:
        raise ResolventError("classification point must be on the unit circle")
    M, _, dM = _companion_at(scheme, [z_bar], derivative=True)
    (eigs,), (derivs,), (conds,), _, _ = _eig_derivs(M, dM)

    blocks = []
    counts = {"expanding": 0, "contracting": 0, "crossing": 0, "glancing": 0}
    for cl in _clusters(eigs):
        mu = complex(np.mean(eigs[cl]))
        drift = cond = None
        if abs(mu) > 1 + UNIMODULAR_BAND:
            kind = "expanding"
        elif abs(mu) < 1 - UNIMODULAR_BAND:
            kind = "contracting"
        else:
            cond, kind = float(conds[cl[0]]), "glancing"
            if cond <= BRANCH_COND_MAX:
                lams = derivs[cl] * np.conj(mu)
                drift = float(lams.real[np.argmin(np.abs(lams.real))])
                kind = "crossing" if abs(drift) > DRIFT_TOL else kind
        counts[kind] += len(cl)
        blocks.append(BoundaryBlock(mu, len(cl), kind, drift, cond))
    return BlockClassification(z_bar=z_bar, blocks=tuple(blocks), counts=counts)


# ---------------------------------------------------------------------------
# total variation of the argument along branch curves


class EigenvalueBranch:
    """Continuously tracked eigenvalue branch mu(z) of M(z) near z_bar.

    ``curve(gamma, thetas)`` returns f(gamma + i theta) = log(mu / mu_bar)
    along z = z_bar e^{gamma + i theta}, with mu the branch through the
    eigenvalue of M(z_bar) nearest mu_bar.  ``core._continue_path`` carries
    all eigenvalues of M along a radial walk from z_bar to z_bar e^gamma
    with geometrically growing steps, then both ways through reference
    nodes spaced finely enough (relative to the distance from the branch
    point) that continuation cannot hop branches, and from its nearest
    node to each grid point.  The logarithm's imaginary part is
    accumulated along the path, so f is continuous across the cut.
    """

    def __init__(self, scheme: SchemeDef, z_bar: complex, mu_bar: complex):
        if abs(abs(z_bar) - 1) > 1e-12:
            raise ResolventError("branch base point must be on the unit circle")
        self.scheme = scheme
        self.z_bar = z_bar
        self.mu_bar = complex(mu_bar)
        self.base_eigs = _eigvals(assemble_M(scheme, z_bar).M)
        self.index = int(np.argmin(np.abs(self.base_eigs - self.mu_bar)))
        if abs(self.base_eigs[self.index] - self.mu_bar) > 1e-6:
            raise ResolventError(
                f"mu_bar {mu_bar} is not an eigenvalue of M(z_bar)"
            )

    def _eigs_at(self, taus) -> np.ndarray:
        zs = self.z_bar * np.exp(np.asarray(taus))
        return _eigvals(_companion_at(self.scheme, zs)[0])

    def curve(self, gamma: float, thetas: np.ndarray) -> np.ndarray:
        """f(gamma + i theta) on the given theta grid (must include range 0)."""
        if gamma <= 0:
            raise ResolventError("gamma must be positive")
        thetas = np.asarray(thetas, dtype=float)
        t_max = float(np.abs(thetas).max())
        # reference nodes: geometric spacing away from theta = 0
        nodes = []
        t = gamma / 4
        while t < t_max:
            nodes.append(t)
            t *= 1.25
        nodes.append(t_max)
        pos = np.array(nodes)
        # path points, one companion stack per sweep: z_bar, the radial walk,
        # the nodes on either side of theta = 0 (each side starting at the
        # walk's end), and the grid (each point from its nearest node)
        radial = [gamma / 2**k for k in range(12, -1, -1)]
        sweeps = (radial, gamma + 1j * np.concatenate([pos, -pos]), gamma + 1j * thetas)
        taus = np.concatenate([[0.0], *sweeps])
        eigs = np.concatenate([[self.base_eigs], *map(self._eigs_at, sweeps)])
        R, P = len(radial), len(pos)
        parent = np.arange(-1, len(taus) - 1)
        parent[[R + 1, R + 1 + P]] = R
        node_th = np.concatenate([-pos[::-1], [0.0], pos])
        node_row = np.r_[R + 2 * P : R + P : -1, R, R + 1 : R + 1 + P]
        ref = np.clip(np.searchsorted(node_th, thetas), 1, len(node_th) - 1)
        ref -= np.abs(thetas - node_th[ref - 1]) <= np.abs(node_th[ref] - thetas)
        parent[R + 1 + 2 * P :] = node_row[ref]
        first = np.arange(len(self.base_eigs))
        order, _ = _continue_path(
            taus, eigs, first, lambda t: self._eigs_at([t])[0], parent
        )
        mu = eigs[np.arange(len(taus)), order[:, self.index]]
        mu[0] = self.mu_bar  # the walk's first step starts from mu_bar
        steps = np.log(mu[1:] / mu[parent[1:]])
        logs = np.zeros(R + 1 + 2 * P, dtype=complex)  # the walk and the nodes
        for k in range(1, len(logs)):
            logs[k] = logs[parent[k]] + steps[k - 1]
        return logs[parent[len(logs) :]] + steps[len(logs) - 1 :]


@dataclass(frozen=True)
class ArgTVReport:
    """Total variation of theta -> arg(f(gamma + i theta) - i w).

    ``tv[i, j]`` is the variation for gamma = gammas[i], w = ws[j]; NaN
    marks skipped samples (curve within 1e-14 of i w).  ``per_gamma_sup``
    shows the trend as gamma decreases.
    """

    gammas: tuple
    ws: np.ndarray
    tv: np.ndarray
    sup: float
    sup_at: tuple
    per_gamma_sup: tuple
    eps: float
    skipped: tuple
    capped: bool


def _tv_for_curve(f: np.ndarray, w: float):
    """(total variation of arg(f - i w), max single increment, touched)."""
    g = f - 1j * w
    if np.min(np.abs(g)) < 1e-14:
        return np.nan, 0.0, True
    v = np.angle(g)
    d = np.diff(v)
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return float(np.sum(np.abs(d))), float(np.abs(d).max()), False


#: the gamma grid of arg_total_variation, its first theta grid, and the
#: size a theta grid may not exceed
TV_GAMMAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
TV_NTHETA0 = 257
TV_MAX_POINTS = 2**17 + 1


def arg_total_variation(
    branch,
    gamma_grid: tuple = TV_GAMMAS,
    w_grid: np.ndarray | None = None,
    eps: float = 0.1,
) -> ArgTVReport:
    """Sup over (gamma, w) of the argument variation along branch curves.

    ``branch`` is an EigenvalueBranch or any callable tau -> f(tau).  For
    each gamma a theta grid over [-eps, eps] of TV_NTHETA0 points is
    doubled until every increment of arg(f - i w) is below pi/4 (or
    TV_MAX_POINTS is hit).
    When ``w_grid`` is omitted it is built from the first gamma's curve:
    41 points spanning three times the curve's imaginary range.
    """
    evaluate = (
        branch.curve
        if hasattr(branch, "curve")
        else lambda gamma, thetas: np.asarray(
            [branch(gamma + 1j * t) for t in thetas]
        )
    )

    curves: dict = {}

    def curve_at(gamma: float, n: int) -> np.ndarray:
        key = (gamma, n)
        if key not in curves:
            curves[key] = evaluate(gamma, np.linspace(-eps, eps, n))
        return curves[key]

    if w_grid is None:
        f0 = curve_at(gamma_grid[0], TV_NTHETA0)
        lo, hi = float(f0.imag.min()), float(f0.imag.max())
        span = max(hi - lo, 1e-12)
        mid = 0.5 * (lo + hi)
        w_grid = np.linspace(mid - 1.5 * span, mid + 1.5 * span, 41)
    else:
        w_grid = np.asarray(w_grid, dtype=float)

    tv = np.full((len(gamma_grid), len(w_grid)), np.nan)
    skipped = []
    capped = False
    for i, gamma in enumerate(gamma_grid):
        for j, w in enumerate(w_grid):
            n = TV_NTHETA0
            while True:
                total, max_inc, touched = _tv_for_curve(curve_at(gamma, n), w)
                if touched:
                    skipped.append((gamma, float(w)))
                    break
                if max_inc < np.pi / 4:
                    tv[i, j] = total
                    break
                if 2 * n - 1 > TV_MAX_POINTS:
                    tv[i, j] = total
                    capped = True
                    break
                n = 2 * n - 1
    if np.all(np.isnan(tv)):
        raise ResolventError("all (gamma, w) samples were skipped")
    flat = int(np.nanargmax(tv))
    i0, j0 = divmod(flat, len(w_grid))
    per_gamma = tuple(
        float(np.nanmax(tv[i])) if not np.all(np.isnan(tv[i])) else float("nan")
        for i in range(len(gamma_grid))
    )
    return ArgTVReport(
        gammas=tuple(gamma_grid),
        ws=w_grid,
        tv=tv,
        sup=float(np.nanmax(tv)),
        sup_at=(gamma_grid[i0], float(w_grid[j0])),
        per_gamma_sup=per_gamma,
        eps=eps,
        skipped=tuple(skipped),
        capped=capped,
    )
