"""Discrete summation-by-parts identities and energy decompositions.

Everything here is exact algebra on the forward difference D = T - I:

* a discrete Leibniz rule for D^k(u* A v),
* integration-by-parts decompositions of Re(u* A D^k u) (A symmetric)
  and u* A D^k u (A real skew, k >= 2),
* the consistent decomposition Q = I + T^{-r} sum_l A~_l D^l of a
  one-step operator,
* the induced energy identity for 2 U*(Q-I)U + |(Q-I)U|^2 in the
  canonical form

      T^{-r} [ D(q) + sum_l (D^l U)* S_l (D^l U)
                     + sum_l (D^l U)* S~_l (D^{l+1} U) ],

  whose coefficients give a sharp l2 stability criterion for scalar
  three-point schemes.

Rational coefficient tables are built once with ``fractions.Fraction``
and cached, so the alpha/beta constants are bit-identical across calls.
Each table is checked exactly, in ``Fraction``s, once per order, and an
energy decomposition is checked by comparing the coefficient (Gram)
matrices of both sides of its identity; no check samples sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (
    CONSISTENCY_TOL,
    GridSequence,
    SchemeDef,
    SchemeError,
    _laurent,
    apply_op,
    difference_power_taps,
    discrete_derivative,
)

#: absolute tolerance for the three-point stability criterion; d-values on
#: the boundary (within tol of 0) are classified stable
CRITERION_TOL = 1e-10
#: unit-circle points at which boundary_energy_rate samples the symbol
RATE_NXI = 512


class DecompositionError(ValueError):
    """The requested energy decomposition does not exist for this scheme."""


# ---------------------------------------------------------------------------
# Leibniz rule


@dataclass(frozen=True)
class LeibnizTable:
    """Coefficients of D^k(u* A v) = sum c[j1,j2] (D^{j1}u)* A (D^{j2}v).

    The sum runs over 0 <= j1, j2 <= k with j1 + j2 >= k and
    c[j1,j2] = k! / ((k-j1)! (k-j2)! (j1+j2-k)!), an integer.
    """

    k: int
    coeffs: dict


@lru_cache(maxsize=None)
def leibniz_table(k: int) -> LeibnizTable:
    if k < 0:
        raise ValueError("k must be nonnegative")
    coeffs = {}
    for j1 in range(k + 1):
        for j2 in range(k + 1):
            if j1 + j2 < k:
                continue
            c = math.factorial(k) // (
                math.factorial(k - j1) * math.factorial(k - j2) * math.factorial(j1 + j2 - k)
            )
            coeffs[(j1, j2)] = c
    return LeibnizTable(k, coeffs)


# ---------------------------------------------------------------------------
# jet rows and Gram matrices


def _jet_rows(l: int, base: int, lo: int, width: int, eye: np.ndarray) -> np.ndarray:
    """Matrix of D^l at grid point ``base`` on the stacked window u_lo, ...,
    u_{lo+width-1} (zero outside it), with entries of ``eye``'s type: the
    N x N identity as floats, or as an object array of Fractions."""
    N = len(eye)
    out = np.zeros((N, N * width), eye.dtype)
    for t, c in difference_power_taps(l).items():
        k = base + t - lo
        if 0 <= k < width:
            out[:, k * N : (k + 1) * N] += int(c) * eye  # int keeps Fractions exact
    return out


def _canonical_gram(Q_form, S, S_tilde, eye: np.ndarray) -> np.ndarray:
    """Gram matrix G, u* G u on the stacked window u = (u_0, ..., u_m), of the
    bracket D(q) + sum_l (D^l u)* S_l (D^l u) + sum_l (D^l u)* S~_l (D^{l+1} u)
    at base 0, with m = len(S) and q(x) = x* Q_form x on (u, ..., D^{m-1}u)."""
    m = len(S)
    rows = [[_jet_rows(l, base, 0, m + 1, eye) for l in range(m + 1)] for base in (0, 1)]
    jet0, jet1 = (np.vstack(r[:m]) for r in rows)
    G = jet1.T @ Q_form @ jet1 - jet0.T @ Q_form @ jet0
    for l, S_l in enumerate(S, start=1):
        G = G + rows[0][l].T @ S_l @ rows[0][l]
    for l, St_l in enumerate(S_tilde, start=1):
        G = G + rows[0][l].T @ St_l @ rows[0][l + 1]
    return G


# ---------------------------------------------------------------------------
# rational IBP tables
#
# Hermitian case (A symmetric / hermitian):
#     Re(u* A D^k u) = D(q) + sum_{j=1}^{k} alpha[j] (D^j u)* A (D^j u)
# with q(x_0..x_{k-1}) = sum_{i,j} C[i,j] x_i* A x_j, C symmetric rational.
#
# Skew case (A real skew, k >= 2):
#     u* A D^k u = D(q) + sum_{j=1}^{k-1} beta[j] (D^j u)* A (D^{j+1} u)
# with q = sum_{i<j} G[i,j] x_i* A x_j (G upper triangular rational).


def _check_table(kind: str, Q, coefficients):
    """Return the order-k table (Q, coefficients), k = len(Q), once checked.

    With A = 1 both sides are forms u* M u on u_0, ..., u_k, in Fractions.
    The hermitian identity holds for every hermitian A exactly when the
    symmetric part of M_lhs - M_rhs is zero, the skew one for every real
    skew A on real sequences exactly when its antisymmetric part is zero.
    """
    k = len(Q)
    one = np.array([[Fraction(1)]], dtype=object)
    coef = [c * one for c in coefficients]
    S, S_tilde = (coef, []) if kind == "hermitian" else ([0 * one] * k, coef)
    gap = _jet_rows(0, 0, 0, k + 1, one).T @ _jet_rows(k, 0, 0, k + 1, one)
    gap = gap - _canonical_gram(np.array(Q, dtype=object), S, S_tilde, one)
    if np.any(gap + gap.T if kind == "hermitian" else gap - gap.T):
        raise AssertionError(f"{kind} table of order {k} fails its identity")
    return Q, coefficients


@lru_cache(maxsize=None)
def _hermitian_tables(k: int):
    """Return (C, alpha) as nested tuples of Fractions for order k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    C = [[Fraction(0)] * k for _ in range(k)]
    alpha = [Fraction(0)] * (k + 1)  # alpha[1..k]

    # head: (1/2) D^{k-1}(u* A u) supplies the exact-difference part
    head = leibniz_table(k - 1)
    for (i, j), c in head.coeffs.items():
        C[i][j] += Fraction(c, 2)

    full = leibniz_table(k)
    for (j1, j2), c in full.coeffs.items():
        if j1 == j2:
            if j1 >= 1:
                alpha[j1] -= Fraction(c, 2)
            continue
        if j1 > j2:
            continue  # handled with its mirror
        if (j1, j2) == (0, k):
            continue  # that is the target term itself
        # c * 2Re((D^{j1}u)* A (D^{j2}u)) reduced by the order j2-j1 table
        Csub, asub = _hermitian_tables(j2 - j1)
        m = j2 - j1
        for a in range(m):
            for b in range(m):
                C[j1 + a][j1 + b] -= c * Csub[a][b]
        for t in range(1, m + 1):
            alpha[j1 + t] -= c * asub[t - 1]

    return _check_table("hermitian", tuple(tuple(row) for row in C), tuple(alpha[1:]))


@lru_cache(maxsize=None)
def _skew_tables(k: int):
    """Return (G, beta) as nested tuples of Fractions for order k >= 2."""
    if k < 2:
        raise ValueError("skew decomposition needs k >= 2")
    G = [[Fraction(0)] * k for _ in range(k)]
    beta = [Fraction(0)] * k  # beta[1..k-1]

    # u* A D^k u = D(u* A D^{k-1} u) - (Du)* A D^{k-1}u - (Du)* A D^k u
    G[0][k - 1] += Fraction(1)

    def absorb(shift: int, order: int, factor: Fraction):
        # factor * (D^shift u)* A D^{shift+order} u  ->  tables of given order
        if order == 0:
            return  # x* A x = 0 for skew A
        if order == 1:
            beta[shift] += factor
            return
        Gsub, bsub = _skew_tables(order)
        for a in range(order):
            for b in range(order):
                G[shift + a][shift + b] += factor * Gsub[a][b]
        for t in range(1, order):
            beta[shift + t] += factor * bsub[t - 1]

    absorb(1, k - 2, Fraction(-1))  # -(Du)* A D^{k-1} u
    absorb(1, k - 1, Fraction(-1))  # -(Du)* A D^{k} u

    return _check_table("skew", tuple(tuple(row) for row in G), tuple(beta[1:]))


@dataclass(frozen=True)
class IBPDecomposition:
    """Exact-difference decomposition of a difference monomial.

    ``kind`` is "hermitian" or "skew".  For the hermitian case

        Re(u* A D^k u) = D(q) + sum_j alpha[j-1] (D^j u)* A (D^j u),

    for the skew case

        u* A D^k u = D(q) + sum_j beta[j-1] (D^j u)* A (D^{j+1} u),

    where q(x) = x* Q_form x on x = (u, Du, ..., D^{k-1}u).
    """

    kind: str
    k: int
    A: np.ndarray
    Q_form: np.ndarray
    coefficients: np.ndarray  # alpha (length k) or beta (length k-1)

    def q_of(self, jet: np.ndarray) -> complex:
        """Evaluate the boundary form q on a stacked jet vector."""
        vec = np.asarray(jet, dtype=complex).reshape(-1)
        return complex(np.conj(vec) @ self.Q_form @ vec)


def _materialize_hermitian(A: np.ndarray, k: int) -> IBPDecomposition:
    C, alpha = (np.array(t, dtype=float) for t in _hermitian_tables(k))
    Q = np.kron(C, A) + 0.0  # + 0.0 clears the product's signed zeros
    Q = (Q + Q.conj().T) / 2  # C is symmetric, A hermitian; this only cleans rounding
    return IBPDecomposition("hermitian", k, A, Q, alpha)


def _materialize_skew(A: np.ndarray, k: int) -> IBPDecomposition:
    G, beta = (np.array(t, dtype=float) for t in _skew_tables(k))
    return IBPDecomposition("skew", k, A, np.kron((G - G.T) / 2, A) + 0.0, beta)


def _ibp_matrix(A) -> np.ndarray:
    """A as a finite square float64 or complex128 matrix."""
    A = np.atleast_2d(np.asarray(A))
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
        raise ValueError("A must be a finite square matrix")
    return A.astype(np.result_type(A, np.float64))


def ibp_hermitian(A: np.ndarray, k: int) -> IBPDecomposition:
    """Decompose Re(u* A D^k u) for symmetric/hermitian A.

    Returns q and the universal constants alpha[1..k]; the constants do
    not depend on A (alpha[1] = -1/2 for k = 1).  A complex hermitian A
    gives a complex hermitian ``Q_form``.
    """
    A = _ibp_matrix(A)
    if np.abs(A - A.conj().T).max() > 1e-12 * max(1.0, np.abs(A).max()):
        raise ValueError("A must be hermitian for the hermitian decomposition")
    return _materialize_hermitian(A, k)  # k < 1 raises ValueError


def ibp_skew(A: np.ndarray, k: int) -> IBPDecomposition:
    """Decompose u* A D^k u for real skew-symmetric A and k >= 2.

    beta[1] = -1 for k = 2.  Order k = 1 is genuinely irreducible and
    rejected.
    """
    A = _ibp_matrix(A)
    if np.any(np.imag(A)):
        raise ValueError("A must be real for the skew decomposition")
    A = np.real(A)
    if np.abs(A + A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
        raise ValueError("A must be skew-symmetric")
    if k < 2:
        raise DecompositionError(
            "u* A D u has no exact-difference decomposition for skew A; k >= 2 required"
        )
    return _materialize_skew(A, k)


# ---------------------------------------------------------------------------
# consistent decomposition of a one-step operator


def consistent_decomposition(scheme: SchemeDef) -> list:
    """Coefficients A~_1..A~_{p+r} with Q = I + T^{-r} sum_l A~_l D^l.

    Uses the binomial change of basis X^{r+l} - X^r = sum_m (C(r+l, m) -
    C(r, m)) (X-1)^m.  Requires a consistent one-step scheme (s = 0).
    """
    if scheme.s != 0:
        raise DecompositionError("not applicable: the energy method covers one-step "
                                 f"schemes only (s = {scheme.s})")
    res = np.abs(scheme.consistency_sum() - np.eye(scheme.N)).max()
    if res > CONSISTENCY_TOL:
        raise DecompositionError(f"scheme is not consistent (residual {res:.3e})")
    r, p, N = scheme.r, scheme.p, scheme.N
    return [
        sum((math.comb(r + ell, m) * scheme.A(ell, 0) for ell in range(-r, p + 1)),
            np.zeros((N, N))) - math.comb(r, m) * np.eye(N)
        for m in range(1, p + r + 1)
    ]


# ---------------------------------------------------------------------------
# energy decomposition


@dataclass(frozen=True)
class EnergyDecomposition:
    """Canonical energy identity of a one-step scheme.

    For U real and Q the interior operator,

        2 U*(Q-I)U + |(Q-I)U|^2
            = T^{-r} [ D(q) + sum_{l=1}^{m} (D^l U)* S[l-1] (D^l U)
                             + sum_{l=1}^{m-1} (D^l U)* S~[l-1] (D^{l+1} U) ]

    with m = p + r and q(x) = x* Q_form x on the jet (U, DU, ..., D^{m-1}U).
    For scalar schemes with m <= 2 the scalars d1 = S[0], d2 = S[1] feed the
    three-point stability criterion max(d1, d1 + 4 d2) <= 0.
    """

    scheme: SchemeDef
    A_tilde: tuple
    Q_form: np.ndarray
    S: tuple
    S_tilde: tuple
    d1: float | None
    d2: float | None

    @property
    def m(self) -> int:
        return self.scheme.p + self.scheme.r


def energy_decomposition(scheme: SchemeDef) -> EnergyDecomposition:
    """Reduce the one-step energy rate to the canonical difference form.

    The expansion of 2U*(Q-I)U + |(Q-I)U|^2 over difference monomials
    (D^i U)* M (D^j U) is reduced by placing the symmetric and skew parts'
    IBP decompositions (``_materialize_hermitian`` / ``_materialize_skew``)
    at jet offset i.  A nonsymmetric first-order coefficient A~_1 leaves an
    irreducible monomial U*(skew)(DU) and is rejected; scalar schemes never
    hit this.  The identity is checked on its Gram matrices over the window
    U_{j-r}, ..., U_{j+p}, whose symmetric parts must agree to within
    1e-10 max(1, max_l max|A~_l|)^2, since rounding grows like the
    coefficients squared.
    """
    tildes = consistent_decomposition(scheme)
    N, r, m = scheme.N, scheme.r, scheme.p + scheme.r

    # monomial accumulator: (i, j) -> coefficient of (D^i U)* . (D^j U)
    mono = {}
    # 2 U*(Q-I)U = 2 T^{-r} (T^r U)* sum_l A~_l D^l U, T^r = sum_t C(r,t) D^t
    for ell in range(1, m + 1):
        for t in range(r + 1):
            mono[t, ell] = mono.get((t, ell), 0) + 2 * math.comb(r, t) * tildes[ell - 1]
    # |(Q-I)U|^2 = T^{-r} sum_{l1,l2} (D^{l1}U)* A~_{l1}^T A~_{l2} (D^{l2}U)
    for l1 in range(1, m + 1):
        for l2 in range(1, m + 1):
            mono[l1, l2] = mono.get((l1, l2), 0) + tildes[l1 - 1].T @ tildes[l2 - 1]

    Q_form = np.zeros((N * m, N * m))
    S = [np.zeros((N, N)) for _ in range(m)]
    S_t = [np.zeros((N, N)) for _ in range(max(m - 1, 0))]

    for i in range(m + 1):
        for j in range(i, m + 1):
            if i == j:
                B = mono.get((i, i))
                if B is None:
                    continue
                S[i - 1] = S[i - 1] + (B + B.T) / 2  # skew part is null on real data
                continue
            B = mono.get((i, j), np.zeros((N, N))) + mono.get(
                (j, i), np.zeros((N, N))
            ).T
            if not np.any(B):
                continue
            # (D^i U)* B (D^j U) is the order j-i monomial of D^i U; its
            # boundary form fills the jet block i..j-1
            k = j - i
            block = slice(i * N, j * N)
            H, K = (B + B.T) / 2, (B - B.T) / 2
            if np.abs(H).max() > 0:
                ibp = _materialize_hermitian(H, k)
                Q_form[block, block] += ibp.Q_form
                for t, alpha in enumerate(ibp.coefficients):
                    S[i + t] = S[i + t] + alpha * H
            if np.abs(K).max() > 1e-14 * max(1.0, np.abs(B).max()):
                if k == 1:
                    if i == 0:
                        raise DecompositionError(
                            "first-order coefficient has a skew part; the "
                            "canonical energy form does not exist for this scheme"
                        )
                    S_t[i - 1] = S_t[i - 1] + K
                else:
                    ibp = _materialize_skew(K, k)
                    Q_form[block, block] += ibp.Q_form
                    for t, beta in enumerate(ibp.coefficients):
                        S_t[i + t] = S_t[i + t] + beta * K

    Q_form = (Q_form + Q_form.T) / 2

    d1 = d2 = None
    if N == 1 and m <= 2:
        d1 = float(S[0][0, 0])
        d2 = float(S[1][0, 0]) if m == 2 else 0.0

    dec = EnergyDecomposition(scheme=scheme, A_tilde=tuple(tildes), Q_form=Q_form,
                              S=tuple(S), S_tilde=tuple(S_t), d1=d1, d2=d2)
    gap = _gram_gap(dec)
    if not gap <= 1e-10 * np.abs(tildes).max(initial=1.0) ** 2:
        raise AssertionError(f"energy identity Gram gap {gap:.3e}")
    return dec


def _gram_gap(dec: EnergyDecomposition) -> float:
    """Largest entry of the gap between the Gram matrices of 2 U*(Q-I)U +
    |(Q-I)U|^2 at j and of the canonical bracket at j - r, both on the
    window U_{j-r}, ..., U_{j+p}; U is real, so only symmetric parts count."""
    eye = np.eye(dec.scheme.N)
    E = _jet_rows(0, dec.scheme.r, 0, dec.m + 1, eye)
    P = np.hstack(dec.scheme.interior[:, 0]) - E
    gap = 2 * E.T @ P + P.T @ P - _canonical_gram(dec.Q_form, dec.S, dec.S_tilde, eye)
    return float(np.abs(gap + gap.T).max()) / 2


def _form_terms(ds: list, lo: int, hi: int, S, S_tilde) -> np.ndarray:
    """sum_l (D^l u)* S[l-1] (D^l u) + (D^l u)* S_tilde[l-1] (D^{l+1} u) at
    each j in [lo, hi], ``ds[l]`` being D^l u."""
    out = np.zeros(hi - lo + 1, dtype=complex)
    for l, S_l in enumerate(S, start=1):
        dl = ds[l].window(lo, hi)
        out += np.einsum("ji,ik,jk->j", np.conj(dl), S_l, dl)
    for l, St_l in enumerate(S_tilde, start=1):
        out += np.einsum(
            "ji,ik,jk->j", np.conj(ds[l].window(lo, hi)), St_l, ds[l + 1].window(lo, hi)
        )
    return out


# ---------------------------------------------------------------------------
# three-point stability criterion


@dataclass(frozen=True)
class CauchyCriterion:
    d1: float
    d2: float
    stable: bool
    margin: float  # max(d1, d1 + 4 d2); stable iff margin <= tol


def cauchy_criterion_3pt(
    a_minus: float, a_zero: float, a_plus: float, lam: float = 1.0
) -> CauchyCriterion:
    """l2 stability of the scalar scheme a_- T^{-1} + a_0 + a_+ T on the line.

    The scheme is stable iff max(d1, d1 + 4 d2) <= 0 where d1, d2 come from
    the canonical energy identity; boundary cases within 1e-10 count as
    stable.  Requires consistency a_- + a_0 + a_+ = 1.  Summed over the
    line the identity reads |Qhat|^2 - 1 = d1 |kappa - 1|^2 + d2 |kappa - 1|^4,
    whose solution in closed form is d1 = (a_+ - a_-)^2 - a_- - a_+ and
    d2 = a_- a_+; ``lam`` does not enter.
    """
    if abs(a_minus + a_zero + a_plus - 1.0) > CONSISTENCY_TOL:
        raise DecompositionError("three-point coefficients must sum to 1")
    d1 = float((a_plus - a_minus) ** 2 - a_minus - a_plus)
    d2 = float(a_minus * a_plus)
    margin = max(d1, d1 + 4 * d2)
    return CauchyCriterion(d1=d1, d2=d2, stable=margin <= CRITERION_TOL, margin=margin)


# ---------------------------------------------------------------------------
# energy balance over one whole-line step


@dataclass(frozen=True)
class EnergyBalance:
    lhs: float
    rhs: float
    residual: float


def energy_balance_step(scheme: SchemeDef, u: GridSequence) -> EnergyBalance:
    """One Cauchy step on finitely supported data: sum|QU|^2 - sum|U|^2
    equals the summed S / S~ terms of the canonical identity (D(q)
    telescopes away)."""
    if not u.implicit_zero:
        raise SchemeError("energy balance needs a finitely supported sequence")
    dec = energy_decomposition(scheme)
    new = apply_op(scheme.interior_op(0), u)
    lhs = new.norm_sq() - u.norm_sq()
    ds = [discrete_derivative(u, k) for k in range(dec.m + 1)]
    lo = min(d.offset for d in ds)
    hi = max(d.last for d in ds)
    rhs = float(np.real(_form_terms(ds, lo, hi, dec.S, dec.S_tilde).sum()))
    return EnergyBalance(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


# ---------------------------------------------------------------------------
# boundary energy rate on the half-line


@dataclass(frozen=True)
class BoundaryEnergyRate:
    """Quadratic form bounding the half-line energy production per step.

    For any U in l2(j >= 1-r) and U' = QU on j >= 1,

        sum_{j>=1} |U'_j|^2 - sum_{j>=1} |U_j|^2 <= q_flat(U_{1-r}, ..., U_p),

    provided the whole-line operator is l2-stable (checked by sampling the
    symbol's 2-norm).  ``matrix`` is the symmetric form on the stacked
    trace vector; ``constant`` is its largest eigenvalue.
    """

    scheme: SchemeDef
    matrix: np.ndarray
    constant: float

    def evaluate(self, trace: np.ndarray) -> float:
        vec = np.asarray(trace, dtype=complex).reshape(-1)
        return float(np.real(np.conj(vec) @ self.matrix @ vec))


def boundary_energy_rate(scheme: SchemeDef) -> BoundaryEnergyRate:
    """Assemble q_flat from the canonical energy identity.

    q_flat collects (a) minus the telescoped boundary term q at the jet
    based at j = 1-r and (b) minus the S / S~ terms of the zero-extended
    sequence over the strip 1-p-2r <= j <= -r.  The symbol's norm must not
    exceed 1 at the RATE_NXI sampled points of the unit circle; that is
    checked before the decomposition is built.
    """
    return _boundary_rate(scheme, None)


def _boundary_rate(scheme: SchemeDef, dec) -> BoundaryEnergyRate:
    """``boundary_energy_rate`` from the decomposition ``dec``, or None to build it."""
    # whole-line l2 stability of the symbol is a precondition
    kappas = np.exp(1j * (2 * np.pi * np.arange(RATE_NXI) / RATE_NXI))
    sym = _laurent(scheme.interior[:, 0], range(-scheme.r, scheme.p + 1), kappas)
    worst = float(np.linalg.matrix_norm(sym, ord=2).max(initial=0.0))
    if worst > 1 + 1e-10:
        raise DecompositionError(
            f"whole-line operator norm {worst:.6f} exceeds 1; no energy bound"
        )
    if dec is None:
        dec = energy_decomposition(scheme)
    N, m, r, p = scheme.N, dec.m, scheme.r, scheme.p
    w = p + r  # number of trace points 1-r .. p
    eye = np.eye(N)
    M = np.zeros((N * w, N * w))

    # (a) -q(jet at 1-r)
    J = np.vstack([_jet_rows(l, 1 - r, 1 - r, w, eye) for l in range(m)])
    M -= J.T @ dec.Q_form @ J

    # (b) -(S and S~ sums) over 1-p-2r <= j <= -r of the zero-extension
    for j in range(1 - p - 2 * r, -r + 1):
        R = [_jet_rows(l, j, 1 - r, w, eye) for l in range(m + 1)]
        for l in range(1, m + 1):
            M -= R[l].T @ dec.S[l - 1] @ R[l]
        for l in range(1, m):
            cross = R[l].T @ dec.S_tilde[l - 1] @ R[l + 1]
            M -= (cross + cross.T) / 2
    M = (M + M.T) / 2
    return BoundaryEnergyRate(
        scheme=scheme, matrix=M, constant=float(np.linalg.eigvalsh(M)[-1])
    )
