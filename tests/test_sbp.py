"""Tests for the summation-by-parts and energy machinery."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from dibvp.core import (
    GridSequence,
    SchemeDef,
    SchemeError,
    apply_op,
    discrete_derivative,
    lax_friedrichs,
    lax_wendroff,
    leap_frog,
    three_point,
    upwind,
)
from dibvp.sbp import (
    BoundaryEnergyRate,
    CauchyCriterion,
    DecompositionError,
    boundary_energy_rate,
    cauchy_criterion_3pt,
    consistent_decomposition,
    energy_balance_step,
    energy_decomposition,
    ibp_hermitian,
    ibp_skew,
    leibniz_table,
    _check_table,
    _gram_gap,
    _hermitian_tables,
    _skew_tables,
)
from populations import random_scheme, schemes
from sbp_oracles import energy_identity_residual, leibniz_check

RNG = np.random.default_rng(2718)


# ---------------------------------------------------------------------------
# Leibniz rule


def test_leibniz_coefficients_k3():
    tab = leibniz_table(3)
    expect = {}
    for j1 in range(4):
        for j2 in range(4):
            if j1 + j2 >= 3:
                expect[(j1, j2)] = 6 // (
                    math.factorial(3 - j1)
                    * math.factorial(3 - j2)
                    * math.factorial(j1 + j2 - 3)
                )
    assert tab.coeffs == expect
    assert tab.coeffs[(1, 2)] == 3
    assert tab.coeffs[(2, 2)] == 6
    assert tab.coeffs[(0, 3)] == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_leibniz_identity_random(k):
    u = GridSequence(-2, RNG.standard_normal((k + 9, 2)) + 1j * RNG.standard_normal((k + 9, 2)))
    v = GridSequence(-2, RNG.standard_normal((k + 9, 2)) + 1j * RNG.standard_normal((k + 9, 2)))
    A = RNG.standard_normal((2, 2))
    assert leibniz_check(k, u, v, A) < 1e-12


# ---------------------------------------------------------------------------
# rational IBP tables


def test_hermitian_table_k1():
    C, alpha = _hermitian_tables(1)
    assert C == ((Fraction(1, 2),),)
    assert alpha == (Fraction(-1, 2),)


def test_hermitian_table_k2():
    C, alpha = _hermitian_tables(2)
    assert C == (
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(-1, 2)),
    )
    assert alpha == (Fraction(-1), Fraction(1, 2))


def test_skew_table_k2():
    G, beta = _skew_tables(2)
    assert G == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    assert beta == (Fraction(-1),)


def test_skew_table_k3():
    G, beta = _skew_tables(3)
    assert G[0][2] == 1 and G[1][2] == -1
    assert beta == (Fraction(-1), Fraction(1))


def test_hermitian_k2_table_from_linear_solve():
    # independently recover (C00, C01, C11, a1, a2) from
    #   u D^2 u = D(q) + a1 (Du)^2 + a2 (D^2 u)^2,  q = C00 u^2 + 2 C01 u Du + C11 (Du)^2
    rng = np.random.default_rng(7)
    rows, rhs = [], []
    for _ in range(6):
        u = rng.standard_normal(9)
        du = np.diff(u)
        d2u = np.diff(u, 2)
        for j in range(5):
            q_next = np.array(
                [u[j + 1] ** 2, 2 * u[j + 1] * du[j + 1], du[j + 1] ** 2]
            )
            q_here = np.array([u[j] ** 2, 2 * u[j] * du[j], du[j] ** 2])
            rows.append(np.concatenate([q_next - q_here, [du[j] ** 2, d2u[j] ** 2]]))
            rhs.append(u[j] * d2u[j])
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    assert np.linalg.matrix_rank(np.asarray(rows)) == 5  # decomposition is unique
    assert np.allclose(sol, [0.0, 0.5, -0.5, -1.0, 0.5], atol=1e-9)


def _eval_hermitian(dec, u):
    k = dec.k
    ds = [discrete_derivative(u, j) for j in range(k + 1)]
    lo, hi = u.offset, ds[k].last - 1
    worst = 0.0
    for j in range(lo, hi + 1):
        jet_here = np.concatenate([d.get(j) for d in ds[:k]])
        jet_next = np.concatenate([d.get(j + 1) for d in ds[:k]])
        lhs = np.real(np.conj(ds[0].get(j)) @ dec.A @ ds[k].get(j))
        rhs = np.real(dec.q_of(jet_next) - dec.q_of(jet_here))
        for t in range(1, k + 1):
            v = ds[t].get(j)
            rhs += dec.coefficients[t - 1] * np.real(np.conj(v) @ dec.A @ v)
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("N", [1, 3])
def test_ibp_hermitian_identity(k, N):
    A = RNG.standard_normal((N, N))
    A = A + A.T
    dec = ibp_hermitian(A, k)
    u = GridSequence(
        -1, RNG.standard_normal((k + 8, N)) + 1j * RNG.standard_normal((k + 8, N))
    )
    assert _eval_hermitian(dec, u) < 1e-12 * max(1.0, np.abs(A).max())


def test_ibp_alpha_independent_of_A():
    a1 = ibp_hermitian(np.eye(2), 3).coefficients
    a2 = ibp_hermitian(5.0 * np.ones((1, 1)), 3).coefficients
    assert a1.tolist() == a2.tolist()


def _eval_skew(dec, u):
    k = dec.k
    ds = [discrete_derivative(u, j) for j in range(k + 1)]
    lo, hi = u.offset, ds[k].last - 1
    worst = 0.0
    for j in range(lo, hi + 1):
        jet_here = np.concatenate([d.get(j) for d in ds[:k]])
        jet_next = np.concatenate([d.get(j + 1) for d in ds[:k]])
        lhs = np.conj(ds[0].get(j)) @ dec.A @ ds[k].get(j)
        rhs = dec.q_of(jet_next) - dec.q_of(jet_here)
        for t in range(1, k):
            rhs += dec.coefficients[t - 1] * (
                np.conj(ds[t].get(j)) @ dec.A @ ds[t + 1].get(j)
            )
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("N", [2, 4])
def test_ibp_skew_identity(k, N):
    A = RNG.standard_normal((N, N))
    A = A - A.T
    dec = ibp_skew(A, k)
    u = GridSequence(0, RNG.standard_normal((k + 8, N)))  # real sequences
    assert _eval_skew(dec, u) < 1e-12 * max(1.0, np.abs(A).max())


def test_ibp_skew_rejects_first_order():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DecompositionError):
        ibp_skew(A, 1)


def test_ibp_input_validation():
    with pytest.raises(ValueError):
        ibp_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]), 2)  # not symmetric
    with pytest.raises(ValueError):
        ibp_skew(np.eye(2), 2)  # not skew
    with pytest.raises(ValueError):
        ibp_hermitian(np.eye(2), 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ibp_hermitian_keeps_a_complex_hermitian_matrix(k):
    A = np.array([[1.0, 1j], [-1j, 2.0]])
    dec = ibp_hermitian(A, k)
    assert np.array_equal(dec.A, A)
    assert np.array_equal(dec.Q_form, dec.Q_form.conj().T)
    assert np.abs(dec.Q_form.imag).max() > 0
    u = GridSequence(
        -1, RNG.standard_normal((k + 8, 2)) + 1j * RNG.standard_normal((k + 8, 2))
    )
    assert _eval_hermitian(dec, u) < 1e-12 * max(1.0, np.abs(A).max())


@pytest.mark.parametrize("fn", [ibp_hermitian, ibp_skew], ids=["hermitian", "skew"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ibp_rejects_a_non_finite_matrix(fn, value):
    with pytest.raises(ValueError, match="finite"):
        fn([[value]], 2)
    with pytest.raises(ValueError, match="finite"):
        fn(np.array([[0.0, value], [-value, 0.0]]), 2)


def test_ibp_skew_rejects_a_non_real_matrix():
    with pytest.raises(ValueError, match="real"):
        ibp_skew(np.array([[0.0, 1j], [-1j, 0.0]]), 2)


# ---------------------------------------------------------------------------
# consistent decomposition


def test_consistent_decomposition_fixtures():
    lam, a = 1.0, 0.5
    tu = consistent_decomposition(upwind(lam, a))
    assert len(tu) == 1
    assert tu[0][0, 0] == pytest.approx(-lam * a, abs=1e-14)

    tf = consistent_decomposition(lax_friedrichs(lam, a))
    assert tf[0][0, 0] == pytest.approx(-lam * a, abs=1e-14)
    assert tf[1][0, 0] == pytest.approx((1 - lam * a) / 2, abs=1e-14)

    tw = consistent_decomposition(lax_wendroff(lam, a))
    assert tw[0][0, 0] == pytest.approx(-lam * a, abs=1e-14)
    assert tw[1][0, 0] == pytest.approx(lam * a * (lam * a - 1) / 2, abs=1e-14)


def test_consistent_decomposition_reconstructs_operator():
    # (Q u)_j = u_j + sum_m A~_m (D^m u)_{j-r} on finitely supported u
    rng = np.random.default_rng(5)
    for scheme in (lax_wendroff(0.8, 0.9), lax_friedrichs(0.8, 0.9), upwind(0.8, 0.9)):
        tildes = consistent_decomposition(scheme)
        Q, r = scheme.interior_op(0), scheme.r
        for _ in range(4):
            size = int(rng.integers(1, 12))
            u = GridSequence(int(rng.integers(-5, 5)), rng.standard_normal(size),
                             implicit_zero=True)
            lo, hi = u.offset - scheme.p - 1, u.last + r + 1
            expected = u.window(lo, hi)
            for m, At in enumerate(tildes, start=1):
                Dm = discrete_derivative(u, m)
                expected = expected + Dm.window(lo - r, hi - r) @ At.T
            got = apply_op(Q, u).window(lo, hi)
            assert np.allclose(got, expected, atol=1e-14)


def test_consistent_decomposition_rejects():
    with pytest.raises(DecompositionError):
        consistent_decomposition(leap_frog(0.5, 0.5))  # two-step
    bad = three_point(0.3, 0.3, 0.3)
    with pytest.raises(DecompositionError):
        consistent_decomposition(bad)  # inconsistent


# ---------------------------------------------------------------------------
# energy decomposition


def test_energy_d_values_upwind():
    nu = 0.4
    dec = energy_decomposition(upwind(1.0, nu))
    assert dec.d1 == pytest.approx(nu * (nu - 1), abs=1e-14)
    assert dec.d2 == pytest.approx(0.0, abs=1e-14)


def test_energy_d_values_lax_friedrichs():
    nu = 0.6
    dec = energy_decomposition(lax_friedrichs(1.0, nu))
    assert dec.d1 == pytest.approx(nu**2 - 1, abs=1e-14)
    assert dec.d2 == pytest.approx((1 - nu**2) / 4, abs=1e-14)


def test_energy_d_values_lax_wendroff():
    nu = 0.7
    dec = energy_decomposition(lax_wendroff(1.0, nu))
    assert dec.d1 == pytest.approx(0.0, abs=1e-14)
    assert dec.d2 == pytest.approx(-(nu**2) * (1 - nu**2) / 4, abs=1e-14)


def test_energy_matches_fourier_symbol():
    # |ghat(xi)|^2 - 1 = d1 s + d2 s^2 with s = |e^{i xi} - 1|^2
    rng = np.random.default_rng(11)
    xi = np.linspace(0, 2 * np.pi, 257)
    for _ in range(12):
        am, ap = rng.uniform(-0.8, 0.8, size=2)
        scheme = three_point(am, 1 - am - ap, ap)
        dec = energy_decomposition(scheme)
        ghat = am * np.exp(-1j * xi) + (1 - am - ap) + ap * np.exp(1j * xi)
        s = np.abs(np.exp(1j * xi) - 1) ** 2
        lhs = np.abs(ghat) ** 2 - 1
        assert np.abs(lhs - (dec.d1 * s + dec.d2 * s**2)).max() < 1e-12


def _symmetric_system():
    return random_scheme(5, 2, 1, 1, 0, 0, taps="symmetric", consistent=True)


def test_energy_decomposition_system_scheme():
    # symmetric coefficient matrices keep the first-order term reducible
    scheme = _symmetric_system()
    dec = energy_decomposition(scheme)  # internal residual check must pass
    assert dec.d1 is None
    assert len(dec.S) == 2 and len(dec.S_tilde) == 1


def test_energy_decomposition_rejects_skew_first_order():
    Am = np.array([[0.0, 0.3], [0.0, 0.0]])
    A0 = np.eye(2) - Am
    interior = np.stack([Am, A0, np.zeros((2, 2))])[:, None]
    scheme = SchemeDef(
        N=2, r=1, p=1, q=0, s=0, lam=1.0,
        interior=interior,
        boundary=np.zeros((1, 1, 2, 2, 2)),
    )
    with pytest.raises(DecompositionError):
        energy_decomposition(scheme)


@pytest.mark.parametrize(
    "scheme",
    [upwind(1.0, 0.5), lax_friedrichs(1.0, 0.7), lax_wendroff(1.0, 0.8)],
    ids=["upwind", "lax-friedrichs", "lax-wendroff"],
)
def test_energy_balance_whole_line(scheme):
    u = GridSequence(3, RNG.standard_normal((17, 1)), implicit_zero=True)
    bal = energy_balance_step(scheme, u)
    assert bal.residual < 1e-12


def test_energy_balance_needs_support():
    u = GridSequence(0, np.ones((5, 1)))
    with pytest.raises(SchemeError):
        energy_balance_step(upwind(1.0, 0.5), u)


# ---------------------------------------------------------------------------
# three-point criterion


def test_criterion_fixture_thresholds():
    assert cauchy_criterion_3pt(0.3, 0.7, 0.0).stable  # upwind nu=0.3
    assert cauchy_criterion_3pt(1.0, 0.0, 0.0).stable  # upwind nu=1 (edge)
    assert not cauchy_criterion_3pt(1.2, -0.2, 0.0).stable

    nu = 0.9
    assert cauchy_criterion_3pt((1 + nu) / 2, 0.0, (1 - nu) / 2).stable
    nu = 1.1
    assert not cauchy_criterion_3pt((1 + nu) / 2, 0.0, (1 - nu) / 2).stable

    nu = 0.95
    lw = (nu * (nu + 1) / 2, 1 - nu**2, nu * (nu - 1) / 2)
    assert cauchy_criterion_3pt(*lw).stable
    nu = 1.05
    lw = (nu * (nu + 1) / 2, 1 - nu**2, nu * (nu - 1) / 2)
    assert not cauchy_criterion_3pt(*lw).stable


def test_criterion_agrees_with_symbol_modulus():
    rng = np.random.default_rng(23)
    xi = np.linspace(0, 2 * np.pi, 4097)
    checked = 0
    while checked < 20:
        am, ap = rng.uniform(-1.0, 1.0, size=2)
        crit = cauchy_criterion_3pt(am, 1 - am - ap, ap)
        if abs(crit.margin) < 1e-6:
            continue  # too close to the boundary for a sampled oracle
        ghat = am * np.exp(-1j * xi) + (1 - am - ap) + ap * np.exp(1j * xi)
        oracle = np.abs(ghat).max() <= 1 + 1e-8
        assert crit.stable == oracle
        checked += 1


def test_criterion_closed_form_matches_energy_decomposition():
    rng = np.random.default_rng(41)
    for _ in range(200):
        am, ap = rng.uniform(-2.0, 2.0, size=2)
        crit = cauchy_criterion_3pt(am, 1 - am - ap, ap, lam=rng.uniform(0.1, 2))
        dec = energy_decomposition(three_point(am, 1 - am - ap, ap))
        assert crit.d1 == pytest.approx(dec.d1, rel=1e-13, abs=1e-13)
        assert crit.d2 == pytest.approx(dec.d2, rel=1e-13, abs=1e-13)


def test_criterion_requires_consistency():
    with pytest.raises(DecompositionError):
        cauchy_criterion_3pt(0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# boundary energy rate


def test_boundary_rate_upwind_closed_form():
    nu = 0.5
    rate = boundary_energy_rate(upwind(1.0, nu))
    assert rate.matrix.shape == (1, 1)
    assert rate.matrix[0, 0] == pytest.approx(nu * (2 - nu), abs=1e-12)
    assert rate.constant == pytest.approx(nu * (2 - nu), abs=1e-12)


@pytest.mark.parametrize(
    "scheme",
    [upwind(1.0, 0.5), lax_friedrichs(1.0, 0.7), lax_wendroff(1.0, 0.8)],
    ids=["upwind", "lax-friedrichs", "lax-wendroff"],
)
def test_boundary_rate_bounds_half_line_step(scheme):
    rate = boundary_energy_rate(scheme)
    r, p = scheme.r, scheme.p
    Q = scheme.interior_op(0)
    rng = np.random.default_rng(31)
    for _ in range(25):
        vals = rng.standard_normal((30, scheme.N))
        u = GridSequence(1 - r, vals, implicit_zero=True)
        unew = apply_op(Q, u)  # valid at least on j >= 1
        lhs = float(
            np.sum(np.abs(unew.window(1, unew.last)) ** 2)
            - np.sum(np.abs(u.window(1, u.last)) ** 2)
        )
        trace = u.window(1 - r, p).reshape(-1)
        assert lhs <= rate.evaluate(trace) + 1e-10


def test_boundary_rate_rejects_unstable_interior():
    with pytest.raises(DecompositionError):
        boundary_energy_rate(upwind(1.0, 1.4))


def test_boundary_rate_trace_dependence_matters():
    # zero trace: no production possible
    scheme = lax_wendroff(1.0, 0.8)
    rate = boundary_energy_rate(scheme)
    zero = np.zeros(scheme.N * (scheme.p + scheme.r))
    assert rate.evaluate(zero) == 0.0
    assert rate.constant > 0.0


# ---------------------------------------------------------------------------
# large coefficients, perturbed decompositions and random schemes


def _identity_bound(dec):
    """The energy identity's tolerance: rounding grows like max|A~|^2."""
    return 1e-10 * np.abs(dec.A_tilde).max(initial=1.0) ** 2


@pytest.mark.parametrize(
    "scheme",
    [lax_wendroff(1.0, nu) for nu in (20.0, 50.0, 100.0, 1000.0)]
    + [three_point(a, 1 - 2 * a, a) for a in (1e3, 1e6)],
    ids=["lw-20", "lw-50", "lw-100", "lw-1000", "3pt-1e3", "3pt-1e6"],
)
def test_energy_decomposition_large_coefficients(scheme):
    dec = energy_decomposition(scheme)  # internal identity check must pass
    crit = cauchy_criterion_3pt(*scheme.interior[:, 0, 0, 0])
    assert crit.d1 == pytest.approx(dec.d1, rel=1e-13, abs=1e-13)
    assert crit.d2 == pytest.approx(dec.d2, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("kind", ["hermitian", "skew"])
def test_exact_table_check_detects_a_wrong_constant(kind):
    # every alpha_l (or beta_l) moved by 1/1000, and every entry of C (or
    # G) moved likewise, fails the exact check at every order k <= 6
    tables = _hermitian_tables if kind == "hermitian" else _skew_tables
    for k in range(1 if kind == "hermitian" else 2, 7):
        Q, coefficients = tables(k)
        assert _check_table(kind, Q, coefficients) == (Q, coefficients)
        for l in range(len(coefficients)):
            wrong = list(coefficients)
            wrong[l] += Fraction(1, 1000)
            with pytest.raises(AssertionError, match=f"order {k}"):
                _check_table(kind, Q, tuple(wrong))
        for i in range(k):
            for j in range(i if kind == "hermitian" else i + 1, k):
                wrong = [list(row) for row in Q]
                wrong[i][j] += Fraction(1, 1000)
                with pytest.raises(AssertionError, match=f"order {k}"):
                    _check_table(kind, wrong, coefficients)


@pytest.mark.parametrize("field", ["S", "S_tilde"])
def test_energy_identity_residual_detects_a_wrong_term(field):
    # the same mutant fails the pointwise oracle and the Gram check
    scheme = lax_wendroff(1.0, 0.5) if field == "S" else _symmetric_system()
    dec = energy_decomposition(scheme)
    terms = list(getattr(dec, field))
    terms[0] = terms[0] + 1e-6
    wrong = dataclasses.replace(dec, **{field: tuple(terms)})
    rng = np.random.default_rng(3)
    assert energy_identity_residual(dec, rng) < 1e-12
    assert energy_identity_residual(wrong, rng) > 1e-8
    assert _gram_gap(dec) < 1e-12
    assert _gram_gap(wrong) > 1e-8


@settings(max_examples=60)
@given(schemes(s=(0, 0), taps="symmetric", consistent=True))
def test_energy_identity_holds_on_random_schemes(scheme):
    dec = energy_decomposition(scheme)
    rng = np.random.default_rng(0)
    assert energy_identity_residual(dec, rng, trials=20) <= _identity_bound(dec)
    if scheme.N == 1 and dec.m <= 2:
        # |Qhat|^2 does not see a shift, so the taps may sit on T^-2, T^-1, 1
        taps = list(scheme.interior[:, 0, 0, 0]) + [0.0] * (3 - len(scheme.interior))
        crit = cauchy_criterion_3pt(*taps)
        assert crit.d1 == pytest.approx(dec.d1, rel=1e-13, abs=_identity_bound(dec))
        assert crit.d2 == pytest.approx(dec.d2, rel=1e-13, abs=_identity_bound(dec))


def test_sbp_checks_draw_no_random_numbers(monkeypatch):
    # the identities are checked exactly: with numpy's generator disabled
    # every public entry point still runs, and repeats its bits
    u = GridSequence(3, RNG.standard_normal((17, 1)), implicit_zero=True)

    def no_rng(*args, **kwargs):
        raise AssertionError("sbp drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    _hermitian_tables.cache_clear()
    _skew_tables.cache_clear()

    def outputs():
        herm = ibp_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]), 4)
        skew = ibp_skew(np.array([[0.0, 1.0], [-1.0, 0.0]]), 4)
        dec = energy_decomposition(lax_wendroff(1.0, 0.8))
        rate = boundary_energy_rate(lax_wendroff(1.0, 0.8))
        bal = energy_balance_step(upwind(1.0, 0.5), u)
        arrays = [herm.Q_form, herm.coefficients, skew.Q_form, skew.coefficients,
                  dec.Q_form, *dec.S, *dec.S_tilde, rate.matrix]
        return [a.tobytes() for a in arrays] + [rate.constant, bal.lhs, bal.rhs]

    assert outputs() == outputs()
