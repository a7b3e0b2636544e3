"""Acceptance suite: one printed pass/fail line per criterion.

Each test drives the public API end to end, prints a single
``[PASS]``/``[FAIL]`` line with the measured figures, and asserts.  Run
``pytest tests/test_acceptance.py -rA`` to see every line.  Random data
uses fixed seeds so every figure is reproducible.
"""

import time

import numpy as np
import pytest

from dibvp.core import (
    GridSequence,
    SchemeDef,
    lax_friedrichs,
    lax_wendroff,
    leap_frog,
    three_point,
    upwind,
)
from dibvp.resolvent import (
    EigenvalueBranch,
    arg_total_variation,
    assemble_M,
    spectral_split,
    uklc_scan,
)
from dibvp.sbp import (
    cauchy_criterion_3pt,
    discrete_derivative,
    energy_balance_step,
    energy_decomposition,
    ibp_hermitian,
    ibp_skew,
)
from dibvp.sim import verify_semigroup, verify_thm1
from dibvp.symbol import find_glancing, von_neumann_check
from dibvp.wavepacket import (
    glancing_trace_experiment,
    make_envelope,
    make_packet,
    packet_error,
)
from sbp_oracles import energy_identity_residual, leibniz_check

SEED = 20250819

ONE_STEP_FIXTURES = [
    upwind(0.5, 1.0),
    lax_friedrichs(0.5, 1.0),
    lax_wendroff(0.5, 1.0),
    three_point(0.4, 0.3, 0.3, lam=0.5),
]


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    msg = f"[{status}] criterion {num:2d}: {detail}"
    print(msg)
    assert ok, msg


def upwind2(nu: float) -> SchemeDef:
    """Second order upwind scheme (r = 2, p = 0)."""
    interior = np.zeros((3, 1, 1, 1))
    interior[0, 0, 0, 0] = (nu * nu - nu) / 2
    interior[1, 0, 0, 0] = nu * (2 - nu)
    interior[2, 0, 0, 0] = 1 - 1.5 * nu + nu * nu / 2
    return SchemeDef(
        N=1, r=2, p=0, q=0, s=0, lam=1.0,
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


@pytest.fixture(scope="module")
def envelope():
    return make_envelope(0.5)


def test_criterion_01_cfl_boundary_recovery():
    t0 = time.perf_counter()

    def coeffs(scheme):
        c = scheme.interior[:, 0, 0, 0]
        a_plus = float(c[2]) if c.shape[0] > 2 else 0.0
        return float(c[0]), float(c[1]), a_plus

    def bisect(pred):
        lo, hi = 0.5, 1.5
        assert pred(lo) and not pred(hi)
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    worst = 0.0
    for factory in (upwind, lax_friedrichs, lax_wendroff):
        spectral = bisect(lambda t, f=factory: von_neumann_check(f(1.0, t)).ok)
        energetic = bisect(
            lambda t, f=factory: cauchy_criterion_3pt(
                *coeffs(f(1.0, t)), lam=1.0
            ).stable
        )
        worst = max(worst, abs(spectral - 1.0), abs(energetic - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _line(
        1,
        ok,
        "CFL boundary at lambda*a = 1 recovered within "
        f"{worst:.2e} by the spectral-radius and dissipation-sign oracles "
        f"for upwind/Lax-Friedrichs/Lax-Wendroff ({elapsed:.2f}s)",
    )


def test_criterion_02_transfer_matrix_eigenvalue_counts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    fixtures = [
        upwind(0.5, 1.0),
        lax_friedrichs(0.5, 1.0),
        lax_wendroff(0.5, 1.0),
        leap_frog(0.5, 1.0),
        upwind2(0.5),
        system_upwind(),
    ]
    failures = 0
    total = 0
    for scheme in fixtures:
        for _ in range(200):
            z = (1 + rng.uniform(1e-6, 2.0)) * np.exp(
                1j * rng.uniform(0, 2 * np.pi)
            )
            split = spectral_split(assemble_M(scheme, z), scheme)
            total += 1
            if not (
                split.counts_ok
                and split.n_stable == scheme.N * scheme.r
                and split.n_unstable == scheme.N * scheme.p
            ):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    _line(
        2,
        ok,
        f"{total} random z in the annulus 1 < |z| <= 3 across "
        f"{len(fixtures)} fixtures all split N*r stable / N*p unstable "
        f"({failures} failures, {elapsed:.2f}s)",
    )


def _ibp_eval(dec, u: GridSequence) -> float:
    """Max pointwise residual of an exact-difference decomposition."""
    k = dec.k
    N = dec.A.shape[0]
    ds = [discrete_derivative(u, j) for j in range(k + 1)]
    lo, hi = u.offset, ds[k].last - 1
    jets = np.stack([d.window(lo, hi + 1) for d in ds[:k]], axis=1)
    q = np.einsum(
        "lim,imjn,ljn->l", np.conj(jets), dec.Q_form.reshape(k, N, k, N), jets
    )
    dq = q[1:] - q[:-1]
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
    else:
        lhs = np.einsum("ji,ik,jk->j", np.conj(u0), dec.A, dk)
        rhs = dq.astype(complex)
        for j in range(1, k):
            rhs += dec.coefficients[j - 1] * np.einsum(
                "ji,ik,jk->j",
                np.conj(ds[j].window(lo, hi)),
                dec.A,
                ds[j + 1].window(lo, hi),
            )
    return float(np.abs(lhs - rhs).max())


def _int_sequence(rng, length, N, offset=-2, real=False) -> GridSequence:
    vals = rng.integers(-4, 5, (length, N)).astype(complex)
    if not real:
        vals = vals + 1j * rng.integers(-4, 5, (length, N))
    return GridSequence(offset, vals)


def test_criterion_03_discrete_identity_suite():
    # integer-valued data keeps every float product exact (the tables are
    # dyadic rationals), so any nonzero residual is an algebra error
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0

    for k in range(0, 7):
        for _ in range(100):
            N = int(rng.integers(1, 3))
            u = _int_sequence(rng, k + 9, N)
            v = _int_sequence(rng, k + 9, N)
            A = rng.integers(-2, 3, (N, N)).astype(float)
            worst = max(worst, leibniz_check(k, u, v, A))
    leibniz_worst = worst

    for k in range(1, 6):
        for _ in range(10):
            N = int(rng.integers(1, 4))
            G = rng.integers(-2, 3, (N, N))
            dec = ibp_hermitian((G + G.T).astype(float), k)
            for _ in range(100):
                worst = max(worst, _ibp_eval(dec, _int_sequence(rng, k + 8, N)))

    for k in range(2, 6):
        for _ in range(10):
            N = int(rng.choice([2, 4]))
            G = rng.integers(-2, 3, (N, N))
            dec = ibp_skew((G - G.T).astype(float), k)
            # the skew identity is stated for real sequences
            for _ in range(100):
                worst = max(
                    worst, _ibp_eval(dec, _int_sequence(rng, k + 8, N, real=True))
                )

    for scheme in ONE_STEP_FIXTURES:
        dec = energy_decomposition(scheme)
        worst = max(worst, energy_identity_residual(dec, rng, trials=100))
        for _ in range(100):
            u = GridSequence(
                0,
                rng.standard_normal((30, scheme.N))
                + 1j * rng.standard_normal((30, scheme.N)),
                implicit_zero=True,
            )
            worst = max(worst, energy_balance_step(scheme, u).residual)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _line(
        3,
        ok,
        f"product rule k<=6, difference decompositions k<=5 (10 random "
        f"matrices each), canonical energy identity and one-step energy "
        f"balance on all one-step fixtures: max residual {worst:.2e} "
        f"(product rule alone {leibniz_worst:.2e}; 100 random sequences "
        f"per case, {elapsed:.2f}s)",
    )


def test_criterion_04_universal_decomposition_constants():
    rng = np.random.default_rng(SEED)
    first_hermitian = ibp_hermitian(np.eye(1), 1).coefficients[0]
    first_skew = ibp_skew(np.array([[0.0, 1.0], [-1.0, 0.0]]), 2).coefficients[0]
    exact = first_hermitian == -0.5 and first_skew == -1.0

    bitwise = True
    for k in range(1, 6):
        ref = ibp_hermitian(np.eye(2), k).coefficients.tobytes()
        for _ in range(5):
            G = rng.standard_normal((3, 3))
            got = ibp_hermitian(G + G.T, k).coefficients.tobytes()
            bitwise = bitwise and got == ref
    for k in range(2, 6):
        ref = ibp_skew(np.array([[0.0, 1.0], [-1.0, 0.0]]), k).coefficients.tobytes()
        for _ in range(5):
            G = rng.standard_normal((4, 4))
            got = ibp_skew(G - G.T, k).coefficients.tobytes()
            bitwise = bitwise and got == ref

    ok = exact and bitwise
    _line(
        4,
        ok,
        f"first-order constants {first_hermitian} and {first_skew} exact; "
        "coefficient tables bitwise identical across random matrices "
        f"(bitwise={bitwise})",
    )


def test_criterion_05_glancing_detection():
    rep = find_glancing(leap_frog(0.5, 1.0))
    kappas = [pt.kappa for pt in rep.points]
    at_plus_i = any(abs(k - 1j) <= 1e-6 for k in kappas)
    at_minus_i = any(abs(k + 1j) <= 1e-6 for k in kappas)
    derivs_small = rep.points and all(pt.abs_deriv < 1e-8 for pt in rep.points)
    flagged = rep.has_glancing and at_plus_i and at_minus_i and derivs_small

    clean = True
    min_clean = np.inf
    for factory in (upwind, lax_friedrichs, lax_wendroff):
        r = find_glancing(factory(0.5, 1.0))
        clean = clean and not r.has_glancing
        min_clean = min(min_clean, r.min_abs_deriv)
    ok = flagged and clean and min_clean > 0.1
    _line(
        5,
        ok,
        "leap-frog flagged at kappa = +/-i with max |branch derivative| "
        f"{max((pt.abs_deriv for pt in rep.points), default=np.nan):.1e}; "
        f"upwind/Lax-Friedrichs/Lax-Wendroff clean with margin {min_clean:.2f}",
    )


def test_criterion_06_determinant_scan_sanity():
    scan = uklc_scan(upwind(0.5, 1.0))
    dirichlet_dev = float(np.abs(scan.values - 1.0).max())
    zero_scan = uklc_scan(upwind(0.5, 1.0), b_eff=np.zeros((1, 1)))
    zero_max = float(zero_scan.values.max())
    ok = dirichlet_dev <= 1e-10 and zero_max == 0.0
    _line(
        6,
        ok,
        f"identity boundary rows give |Delta| = 1 within {dirichlet_dev:.1e} "
        f"over the whole scan; zero boundary rows give |Delta| == 0 "
        f"(max {zero_max:.1e})",
    )


def test_criterion_07_trace_estimate_refinement_uniform():
    t0 = time.perf_counter()
    slopes = {}
    for P in (1, 3, 8):
        rep = verify_thm1(
            upwind(0.5, 1.0),
            gammas=(1e-3, 1e-2, 1e-1, 1.0),
            refinements=(0.1, 0.05, 0.025, 0.0125),
            P=P,
            t_end=10.0,
            seed=SEED,
        )
        slopes[P] = rep.slope
    elapsed = time.perf_counter() - t0
    worst = max(slopes.values())
    ok = worst <= 0.1 and elapsed < 60.0
    _line(
        7,
        ok,
        "trace-estimate ratios stay refinement-uniform: log-log slope "
        + ", ".join(f"{s:+.3f} (P={p})" for p, s in slopes.items())
        + f", all <= 0.1 ({elapsed:.1f}s)",
    )


def test_criterion_08_semigroup_ratio_and_step_inequality():
    rep = verify_semigroup(upwind(0.5, 1.0), seed=SEED)
    ok = (
        rep.bounded
        and rep.step_violation is not None
        and rep.step_violation <= 1e-12
        and bool(rep.chain_ok)
    )
    _line(
        8,
        ok,
        f"sup-norm ratios {tuple(round(c, 12) for c in rep.C2)} flat across "
        f"refinements (slope {rep.slope:+.3f}); per-step boundary-rate "
        f"inequality max violation {rep.step_violation:.1e}",
    )


def test_criterion_09_boundary_trace_growth(envelope):
    t0 = time.perf_counter()
    glancing = make_packet(leap_frog(0.5, 1.0), np.pi / 2, envelope, branch=1)
    grow = glancing_trace_experiment(
        glancing, T_list=(2.0, 4.0, 6.0, 8.0), dt_list=(0.1, 0.05)
    )
    fits_ok = all(r2 >= 0.9 for r2 in grow.r_squared) and all(
        abs(s - grow.reference) <= 0.25 * grow.reference for s in grow.slopes
    )

    control = make_packet(upwind(0.5, 1.0), 0.0, envelope)
    sat = glancing_trace_experiment(
        control, T_list=(50.0, 100.0, 200.0), dt_list=(0.1,)
    )
    ratios = sat.mass_ratios[0]
    control_ok = float(ratios.max()) <= 1.0 and float(
        np.abs(np.diff(ratios)).max()
    ) <= 0.01

    elapsed = time.perf_counter() - t0
    ok = fits_ok and control_ok and elapsed < 120.0
    _line(
        9,
        ok,
        "zero-velocity carrier: trace sums grow linearly, R^2 "
        f"{tuple(round(r, 4) for r in grow.r_squared)}, slope/reference "
        f"{tuple(round(s / grow.reference, 4) for s in grow.slopes)}; "
        f"transported control stays bounded with flat constant "
        f"{tuple(round(float(r), 4) for r in ratios)} across T doubling "
        f"({elapsed:.1f}s)",
    )


def test_criterion_10_packet_error_refinement_rate(envelope):
    # Upwind's per-step multiplier over the transported ansatz is
    # (1 - nu + nu e^{-i theta}) e^{i nu theta} = 1 - nu (1 - nu) theta^2 / 2
    # + O(theta^3) with theta = dx eta (Warming-Hyett modified equation).
    # Over T / (lam dx) steps the error is the first-order diffusion term
    # E(dx) = T a (1 - nu) dx / 2 |a''(0)| + O(dx^2), where
    # |a''(0)| = (1 / 2 pi) int eta^2 ahat(eta) d eta.  The bound
    # err^2 <= C dx (1 + T^2) allows sqrt(dx) but fixes no rate.
    lam, a = 0.5, 1.0
    spec = make_packet(upwind(lam, a), 0.0, envelope)
    T = 1.0
    nu = lam * a
    eta = envelope.nodes
    curvature = float(
        np.sum(envelope.weights * eta**2 * envelope.fourier(eta))
    ) / (2 * np.pi)
    errors, predicted = {}, {}
    for dx in (0.2, 0.1):
        dt = spec.scheme.lam * dx
        n = int(round(T / dt))
        errors[dx] = packet_error(spec, [n], dx).sup_errors[0]
        predicted[dx] = T * a * (1 - nu) * dx / 2 * curvature
    ratio = errors[0.2] / errors[0.1]
    lo, hi = 1.9, 2.1
    fits = {dx: errors[dx] / predicted[dx] for dx in errors}
    ok = lo <= ratio <= hi and all(abs(f - 1) <= 0.01 for f in fits.values())
    _line(
        10,
        ok,
        f"sup-norm ansatz error ratio under dx halving at fixed T = {T:g}: "
        f"{ratio:.4f}, required within [{lo:.4f}, {hi:.4f}] "
        f"(errors {errors[0.2]:.3e} -> {errors[0.1]:.3e}; first-order "
        f"prediction E(dx) {predicted[0.2]:.3e} -> {predicted[0.1]:.3e}, "
        f"error/E {fits[0.2]:.4f}, {fits[0.1]:.4f}, required within 1%)",
    )


def test_criterion_11_argument_variation_diagnostic():
    bounded_sup = 0.0
    capped = False
    for scheme in (upwind(1.0, 0.5), lax_friedrichs(1.0, 0.5)):
        rep = arg_total_variation(
            EigenvalueBranch(scheme, 1.0, 1.0),
            gamma_grid=(1e-2, 1e-4),
            eps=0.1,
        )
        bounded_sup = max(bounded_sup, rep.sup)
        capped = capped or rep.capped

    z_bar = np.exp(-1j * np.pi / 6)
    glancing = arg_total_variation(
        EigenvalueBranch(leap_frog(1.0, 0.5), z_bar, 1j),
        gamma_grid=(1e-2, 1e-3, 1e-4),
        eps=0.1,
    )
    sups = glancing.per_gamma_sup
    growing = sups[1] > sups[0] and sups[2] > sups[1]

    ok = bounded_sup <= 6 * np.pi + 0.1 and not capped and growing
    _line(
        11,
        ok,
        "transversally crossing branches keep argument variation "
        f"{bounded_sup:.3f} <= 6*pi + 0.1; glancing branch supremum grows "
        f"toward the circle: {tuple(round(s, 3) for s in sups)}",
    )
