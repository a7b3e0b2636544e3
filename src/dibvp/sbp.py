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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import GridSequence, SchemeDef, SchemeError, _laurent, discrete_derivative

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


def leibniz_check(k: int, u: GridSequence, v: GridSequence, A: np.ndarray) -> float:
    """Max residual of the Leibniz rule on concrete sequences (test hook)."""
    prod_vals = np.einsum("ji,ik,jk->j", np.conj(u.values), A, v.values)
    prod = GridSequence(u.offset, prod_vals[:, None])
    lhs = discrete_derivative(prod, k)
    table = leibniz_table(k)
    rhs_off, rhs_arr = None, None
    for (j1, j2), c in table.coeffs.items():
        du = discrete_derivative(u, j1)
        dv = discrete_derivative(v, j2)
        lo = max(du.offset, dv.offset)
        hi = min(du.last, dv.last)
        term = c * np.einsum(
            "ji,ik,jk->j",
            np.conj(du.values[lo - du.offset : hi - du.offset + 1]),
            A,
            dv.values[lo - dv.offset : hi - dv.offset + 1],
        )
        if rhs_arr is None:
            rhs_off, rhs_arr = lo, term
        else:
            lo2 = max(rhs_off, lo)
            hi2 = lo2 + min(len(rhs_arr) - (lo2 - rhs_off), len(term) - (lo2 - lo)) - 1
            rhs_arr = rhs_arr[lo2 - rhs_off : hi2 - rhs_off + 1] + term[
                lo2 - lo : hi2 - lo + 1
            ]
            rhs_off = lo2
    lo = max(lhs.offset, rhs_off)
    hi = min(lhs.last, rhs_off + len(rhs_arr) - 1)
    res = lhs.values[lo - lhs.offset : hi - lhs.offset + 1, 0] - rhs_arr[
        lo - rhs_off : hi - rhs_off + 1
    ]
    return float(np.abs(res).max())


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


@lru_cache(maxsize=None)
def _hermitian_tables(k: int):
    """Return (C, alpha) as nested tuples of Fractions for order k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return ((Fraction(1, 2),),), (Fraction(-1, 2),)

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

    return tuple(tuple(row) for row in C), tuple(alpha[1:])


@lru_cache(maxsize=None)
def _skew_tables(k: int):
    """Return (G, beta) as nested tuples of Fractions for order k >= 2."""
    if k < 2:
        raise ValueError("skew decomposition needs k >= 2")
    if k == 2:
        G = [[Fraction(0)] * 2 for _ in range(2)]
        G[0][1] = Fraction(1)
        return tuple(tuple(row) for row in G), (Fraction(-1),)

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

    return tuple(tuple(row) for row in G), tuple(beta[1:])


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
    N = A.shape[0]
    C, alpha = _hermitian_tables(k)
    Q = np.zeros((N * k, N * k))
    for i in range(k):
        for j in range(k):
            c = C[i][j]
            if c:
                Q[i * N : (i + 1) * N, j * N : (j + 1) * N] += float(c) * A
    Q = (Q + Q.T) / 2  # C is symmetric; this only cleans rounding
    return IBPDecomposition(
        "hermitian", k, A, Q, np.array([float(a) for a in alpha])
    )


def _materialize_skew(A: np.ndarray, k: int) -> IBPDecomposition:
    N = A.shape[0]
    G, beta = _skew_tables(k)
    Q = np.zeros((N * k, N * k))
    for i in range(k):
        for j in range(k):
            g = G[i][j]
            if g:
                Q[i * N : (i + 1) * N, j * N : (j + 1) * N] += float(g) / 2 * A
                Q[j * N : (j + 1) * N, i * N : (i + 1) * N] -= float(g) / 2 * A
    return IBPDecomposition("skew", k, A, Q, np.array([float(b) for b in beta]))


def _ibp_residual(dec: IBPDecomposition, rng: np.random.Generator, trials: int = 8) -> float:
    """Largest pointwise residual of the decomposition on random real sequences."""
    N = dec.A.shape[0]
    k = dec.k
    worst = 0.0
    for _ in range(trials):
        u = GridSequence(0, rng.standard_normal((k + 6, N)))
        ds = [discrete_derivative(u, j) for j in range(k + 1)]
        # common index range where everything below is defined
        lo, hi = 0, ds[k].last - 1  # one extra point for D(q)
        jets = np.stack(
            [ds[j].window(lo, hi + 1) for j in range(k)], axis=1
        )  # (L+1, k, N)
        qvals = np.einsum(
            "lim,imjn,ljn->l",
            np.conj(jets),
            dec.Q_form.reshape(k, N, k, N),
            jets,
        )
        dq = qvals[1:] - qvals[:-1]
        u0 = ds[0].window(lo, hi)
        dk = ds[k].window(lo, hi)
        if dec.kind == "hermitian":
            lhs = np.real(np.einsum("ji,ik,jk->j", np.conj(u0), dec.A, dk))
            rhs = dq.real.copy()
            for j in range(1, k + 1):
                dj = ds[j].window(lo, hi)
                rhs += dec.coefficients[j - 1] * np.real(
                    np.einsum("ji,ik,jk->j", np.conj(dj), dec.A, dj)
                )
            res = np.abs(lhs - rhs).max()
        else:
            lhs = np.einsum("ji,ik,jk->j", np.conj(u0), dec.A, dk)
            rhs = dq.astype(complex)
            for j in range(1, k):
                dj = ds[j].window(lo, hi)
                dj1 = ds[j + 1].window(lo, hi)
                rhs += dec.coefficients[j - 1] * np.einsum(
                    "ji,ik,jk->j", np.conj(dj), dec.A, dj1
                )
            res = np.abs(lhs - rhs).max()
        worst = max(worst, float(res))
    return worst


def ibp_hermitian(A: np.ndarray, k: int) -> IBPDecomposition:
    """Decompose Re(u* A D^k u) for symmetric/hermitian A.

    Returns q and the universal constants alpha[1..k]; the constants do
    not depend on A (alpha[1] = -1/2 for k = 1).  The identity is checked
    internally on a handful of random sequences before returning.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if np.abs(A - A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
        raise ValueError("A must be symmetric for the hermitian decomposition")
    if k < 1:
        raise ValueError("k must be >= 1")
    dec = _materialize_hermitian(A, k)
    res = _ibp_residual(dec, np.random.default_rng(1234))
    if res > 1e-10 * max(1.0, np.abs(A).max()):
        raise AssertionError(f"internal identity check failed (residual {res:.3e})")
    return dec


def ibp_skew(A: np.ndarray, k: int) -> IBPDecomposition:
    """Decompose u* A D^k u for real skew-symmetric A and k >= 2.

    beta[1] = -1 for k = 2.  Order k = 1 is genuinely irreducible and
    rejected.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if np.abs(A + A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
        raise ValueError("A must be skew-symmetric")
    if k < 2:
        raise DecompositionError(
            "u* A D u has no exact-difference decomposition for skew A; k >= 2 required"
        )
    dec = _materialize_skew(A, k)
    res = _ibp_residual(dec, np.random.default_rng(4321))
    if res > 1e-10 * max(1.0, np.abs(A).max()):
        raise AssertionError(f"internal identity check failed (residual {res:.3e})")
    return dec


# ---------------------------------------------------------------------------
# consistent decomposition of a one-step operator


def consistent_decomposition(scheme: SchemeDef) -> list:
    """Coefficients A~_1..A~_{p+r} with Q = I + T^{-r} sum_l A~_l D^l.

    Uses the binomial change of basis X^{r+l} - X^r = sum_m (C(r+l, m) -
    C(r, m)) (X-1)^m.  Requires a consistent one-step scheme (s = 0).
    """
    if scheme.s != 0:
        raise DecompositionError("consistent decomposition requires a one-step scheme")
    res = np.abs(scheme.consistency_sum() - np.eye(scheme.N)).max()
    if res > 1e-12:
        raise DecompositionError(f"scheme is not consistent (residual {res:.3e})")
    m_max = scheme.p + scheme.r
    tildes = []
    for m in range(1, m_max + 1):
        acc = np.zeros((scheme.N, scheme.N))
        for ell in range(-scheme.r, scheme.p + 1):
            acc = acc + math.comb(scheme.r + ell, m) * scheme.A(ell, 0)
        acc = acc - math.comb(scheme.r, m) * np.eye(scheme.N)
        tildes.append(acc)
    return tildes


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


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2


def _skew(M: np.ndarray) -> np.ndarray:
    return (M - M.T) / 2


def energy_decomposition(scheme: SchemeDef) -> EnergyDecomposition:
    """Reduce the one-step energy rate to the canonical difference form.

    The expansion of 2U*(Q-I)U + |(Q-I)U|^2 over difference monomials
    (D^i U)* M (D^j U) is reduced with the hermitian/skew tables.  A
    nonsymmetric first-order coefficient A~_1 leaves an irreducible
    monomial U*(skew)(DU) and is rejected; scalar schemes never hit this.
    """
    tildes = consistent_decomposition(scheme)
    N = scheme.N
    m = scheme.p + scheme.r
    r = scheme.r

    # monomial accumulator: (i, j) -> coefficient of (D^i U)* . (D^j U)
    mono = {}

    def add(i: int, j: int, M: np.ndarray):
        key = (i, j)
        mono[key] = mono.get(key, 0) + M

    # 2 U*(Q-I)U = 2 T^{-r} (T^r U)* sum_l A~_l D^l U, T^r = sum_t C(r,t) D^t
    for ell in range(1, m + 1):
        for t in range(r + 1):
            add(t, ell, 2 * math.comb(r, t) * tildes[ell - 1])
    # |(Q-I)U|^2 = T^{-r} sum_{l1,l2} (D^{l1}U)* A~_{l1}^T A~_{l2} (D^{l2}U)
    for l1 in range(1, m + 1):
        for l2 in range(1, m + 1):
            add(l1, l2, tildes[l1 - 1].T @ tildes[l2 - 1])

    Q_form = np.zeros((N * m, N * m))
    S = [np.zeros((N, N)) for _ in range(m)]
    S_t = [np.zeros((N, N)) for _ in range(max(m - 1, 0))]

    def q_add(i: int, j: int, M: np.ndarray):
        Q_form[i * N : (i + 1) * N, j * N : (j + 1) * N] += M

    for i in range(m + 1):
        for j in range(i, m + 1):
            if i == j:
                B = mono.get((i, i))
                if B is None:
                    continue
                if i == 0:
                    raise AssertionError("unexpected (0,0) monomial")
                S[i - 1] = S[i - 1] + _sym(B)  # skew part is null on real data
                continue
            B = mono.get((i, j), np.zeros((N, N))) + mono.get(
                (j, i), np.zeros((N, N))
            ).T
            if not np.any(B):
                continue
            k = j - i
            H, K = _sym(B), _skew(B)
            if np.abs(H).max() > 0:
                C, alpha = _hermitian_tables(k)
                for a in range(k):
                    for b in range(k):
                        if C[a][b]:
                            q_add(i + a, i + b, float(C[a][b]) * H)
                for t in range(1, k + 1):
                    S[i + t - 1] = S[i + t - 1] + float(alpha[t - 1]) * H
            if np.abs(K).max() > 1e-14 * max(1.0, np.abs(B).max()):
                if k == 1:
                    if i == 0:
                        raise DecompositionError(
                            "first-order coefficient has a skew part; the "
                            "canonical energy form does not exist for this scheme"
                        )
                    S_t[i - 1] = S_t[i - 1] + K
                else:
                    G, beta = _skew_tables(k)
                    for a in range(k):
                        for b in range(k):
                            if G[a][b]:
                                q_add(i + a, i + b, float(G[a][b]) / 2 * K)
                                q_add(i + b, i + a, -float(G[a][b]) / 2 * K)
                    for t in range(1, k):
                        S_t[i + t - 1] = S_t[i + t - 1] + float(beta[t - 1]) * K

    Q_form = (Q_form + Q_form.T) / 2

    d1 = d2 = None
    if N == 1 and m <= 2:
        d1 = float(S[0][0, 0])
        d2 = float(S[1][0, 0]) if m == 2 else 0.0

    dec = EnergyDecomposition(
        scheme=scheme,
        A_tilde=tuple(tildes),
        Q_form=Q_form,
        S=tuple(S),
        S_tilde=tuple(S_t),
        d1=d1,
        d2=d2,
    )
    res = _energy_identity_residual(dec, np.random.default_rng(99), trials=6)
    if res > 1e-10:
        raise AssertionError(f"energy identity residual {res:.3e}")
    return dec


def _canonical_rhs_pointwise(dec: EnergyDecomposition, u: GridSequence):
    """Evaluate the bracket [...] of the canonical form on a common range.

    Returns (offset, values) where values[j] is the bracket at base index
    offset + j: D(q)(jet_j) + sum_l (D^l U)_j* S_l (D^l U)_j + cross terms.
    """
    scheme = dec.scheme
    N, m = scheme.N, dec.m
    ds = [discrete_derivative(u, k) for k in range(m + 1)]
    lo = u.offset
    hi = ds[m].last - 1  # need jet at j and j+1
    L = hi - lo + 1
    if L <= 0:
        raise SchemeError("sequence too short for the energy identity")
    jets = np.stack([ds[k].window(lo, hi + 1) for k in range(m)], axis=1)
    qv = np.einsum(
        "lim,imjn,ljn->l", np.conj(jets), dec.Q_form.reshape(m, N, m, N), jets
    )
    out = (qv[1:] - qv[:-1]).astype(complex)
    for l in range(1, m + 1):
        dl = ds[l].window(lo, hi)
        out += np.einsum("ji,ik,jk->j", np.conj(dl), dec.S[l - 1], dl)
    for l in range(1, m):
        dl = ds[l].window(lo, hi)
        dl1 = ds[l + 1].window(lo, hi)
        out += np.einsum("ji,ik,jk->j", np.conj(dl), dec.S_tilde[l - 1], dl1)
    return lo, out


def _energy_identity_residual(
    dec: EnergyDecomposition, rng: np.random.Generator, trials: int = 6
) -> float:
    from .core import apply_op

    scheme = dec.scheme
    N, m, r = scheme.N, dec.m, scheme.r
    Q = scheme.interior_op(0)
    worst = 0.0
    for _ in range(trials):
        u = GridSequence(0, rng.standard_normal((m + 9, N)))
        quv = apply_op(Q, u)  # zero taps may widen the valid range
        lo_l = max(quv.offset, u.offset)
        hi_l = min(quv.last, u.last)
        uu = u.window(lo_l, hi_l)
        diff = quv.window(lo_l, hi_l) - uu
        lhs = 2 * np.real(np.einsum("ji,ji->j", np.conj(uu), diff)) + np.einsum(
            "ji,ji->j", np.conj(diff), diff
        ).real
        off_b, bracket = _canonical_rhs_pointwise(dec, u)
        # canonical rhs at j is bracket at j - r
        lo = max(lo_l, off_b + r)
        hi = min(hi_l, off_b + len(bracket) - 1 + r)
        res = lhs[lo - lo_l : hi - lo_l + 1] - np.real(
            bracket[lo - r - off_b : hi - r - off_b + 1]
        )
        worst = max(worst, float(np.abs(res).max()))
    return worst


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
    if abs(a_minus + a_zero + a_plus - 1.0) > 1e-12:
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
    from .core import apply_op

    Q = scheme.interior_op(0)
    new = apply_op(Q, u)
    lhs = new.norm_sq() - u.norm_sq()

    m = dec.m
    N = scheme.N
    ds = [discrete_derivative(u, k) for k in range(m + 1)]
    lo = min(d.offset for d in ds)
    hi = max(d.last for d in ds)
    rhs = 0.0
    for l in range(1, m + 1):
        dl = ds[l].window(lo, hi)
        rhs += float(
            np.real(np.einsum("ji,ik,jk->", np.conj(dl), dec.S[l - 1], dl))
        )
    for l in range(1, m):
        dl = ds[l].window(lo, hi)
        dl1 = ds[l + 1].window(lo, hi)
        rhs += float(
            np.real(np.einsum("ji,ik,jk->", np.conj(dl), dec.S_tilde[l - 1], dl1))
        )
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
    exceed 1 at the RATE_NXI sampled points of the unit circle.
    """
    # whole-line l2 stability of the symbol is a precondition
    kappas = [np.exp(2j * np.pi * t / RATE_NXI) for t in range(RATE_NXI)]
    sym = _laurent(scheme.interior[:, 0], range(-scheme.r, scheme.p + 1), kappas)
    worst = float(np.linalg.matrix_norm(sym, ord=2).max(initial=0.0))
    if worst > 1 + 1e-10:
        raise DecompositionError(
            f"whole-line operator norm {worst:.6f} exceeds 1; no energy bound"
        )
    dec = energy_decomposition(scheme)
    N, m, r, p = scheme.N, dec.m, scheme.r, scheme.p
    w = p + r  # number of trace points 1-r .. p
    dim = N * w

    def row_Dl(l: int, base_j: int) -> np.ndarray:
        """Matrix of D^l at base_j acting on the stacked trace (zero-extended)."""
        out = np.zeros((N, dim))
        for t, c in ((t, (-1) ** (l - t) * math.comb(l, t)) for t in range(l + 1)):
            j = base_j + t
            k = j - (1 - r)
            if 0 <= k < w:
                out[:, k * N : (k + 1) * N] += c * np.eye(N)
        return out

    M = np.zeros((dim, dim))

    # (a) -q(jet at 1-r)
    J = np.zeros((m * N, dim))
    for l in range(m):
        J[l * N : (l + 1) * N] = row_Dl(l, 1 - r)
    M -= J.T @ dec.Q_form @ J

    # (b) -(S and S~ sums) over 1-p-2r <= j <= -r of the zero-extension
    for j in range(1 - p - 2 * r, -r + 1):
        for l in range(1, m + 1):
            R = row_Dl(l, j)
            M -= R.T @ dec.S[l - 1] @ R
        for l in range(1, m):
            Rl = row_Dl(l, j)
            Rl1 = row_Dl(l + 1, j)
            cross = Rl.T @ dec.S_tilde[l - 1] @ Rl1
            M -= (cross + cross.T) / 2
    M = (M + M.T) / 2
    return BoundaryEnergyRate(
        scheme=scheme, matrix=M, constant=float(np.linalg.eigvalsh(M)[-1])
    )
