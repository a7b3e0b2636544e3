"""Pointwise oracles for the summation-by-parts identities.

``sbp`` checks its Leibniz tables exactly and its energy decompositions by
their Gram matrices; these oracles evaluate both sides of each identity on
concrete sequences instead, so a test can compare the two routes.
"""

import numpy as np

from dibvp.core import GridSequence, SchemeError, apply_op, discrete_derivative
from dibvp.sbp import EnergyDecomposition, _form_terms, leibniz_table


def leibniz_check(k: int, u: GridSequence, v: GridSequence, A: np.ndarray) -> float:
    """Max residual of the Leibniz rule on concrete sequences.

    Both sides are evaluated on [max offset, min last - k], where every
    difference of u, v and u* A v up to order k is defined.
    """
    lo, hi = max(u.offset, v.offset), min(u.last, v.last) - k

    def form(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("ji,ik,jk->j", np.conj(x), A, y)

    prod = GridSequence(lo, form(u.window(lo, hi + k), v.window(lo, hi + k)))
    lhs = discrete_derivative(prod, k).window(lo, hi)[:, 0]
    rhs = sum(
        c
        * form(
            discrete_derivative(u, j1).window(lo, hi),
            discrete_derivative(v, j2).window(lo, hi),
        )
        for (j1, j2), c in leibniz_table(k).coeffs.items()
    )
    return float(np.abs(lhs - rhs).max())


def canonical_form(u: GridSequence, Q_form: np.ndarray, S, S_tilde):
    """Evaluate D(q) + sum_l (D^l u)* S_l (D^l u) + sum_l (D^l u)* S~_l (D^{l+1} u).

    q(x) = x* Q_form x on the jet (u, Du, ..., D^{m-1}u) with m = len(S).
    Returns (offset, values), values[j] being the bracket at base index
    offset + j, over the range where D^m u is defined at j and j + 1.
    """
    m, N = len(S), u.N
    ds = [discrete_derivative(u, k) for k in range(m + 1)]
    lo, hi = u.offset, ds[m].last - 1  # need the jet at j and j+1
    if hi < lo:
        raise SchemeError("sequence too short for the energy identity")
    jets = np.stack([ds[k].window(lo, hi + 1) for k in range(m)], axis=1)
    qv = np.einsum("lim,imjn,ljn->l", np.conj(jets), Q_form.reshape(m, N, m, N), jets)
    return lo, qv[1:] - qv[:-1] + _form_terms(ds, lo, hi, S, S_tilde)


def energy_identity_residual(dec: EnergyDecomposition, rng, trials: int = 6) -> float:
    """Largest pointwise gap between 2 U*(Q-I)U + |(Q-I)U|^2 and the
    canonical form, shifted by T^{-r}, on random real sequences (the
    pointwise oracle for the Gram check in ``sbp.energy_decomposition``)."""
    scheme = dec.scheme
    N, m, r = scheme.N, dec.m, scheme.r
    Q = scheme.interior_op(0)
    worst = 0.0
    for _ in range(trials):
        u = GridSequence(0, rng.standard_normal((m + 9, N)))
        quv = apply_op(Q, u)  # zero taps may widen the valid range
        off, bracket = canonical_form(u, dec.Q_form, dec.S, dec.S_tilde)
        # the canonical rhs at j is the bracket at j - r
        lo = max(quv.offset, u.offset, off + r)
        hi = min(quv.last, u.last, off + len(bracket) - 1 + r)
        uu = u.window(lo, hi)
        diff = quv.window(lo, hi) - uu
        lhs = 2 * np.real(np.einsum("ji,ji->j", np.conj(uu), diff)) + np.einsum(
            "ji,ji->j", np.conj(diff), diff
        ).real
        res = lhs - np.real(bracket[lo - r - off : hi - r - off + 1])
        worst = max(worst, float(np.abs(res).max()))
    return worst
