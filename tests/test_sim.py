"""Tests for the time-domain solvers, splitting, and estimate verifiers."""

from __future__ import annotations

import numpy as np
import pytest

from dibvp import sim
from dibvp.core import (
    GridSequence,
    RangeError,
    SchemeDef,
    lax_friedrichs,
    lax_wendroff,
    leap_frog,
    three_point,
    upwind,
)
from dibvp.sbp import DecompositionError, boundary_energy_rate
from dibvp.sim import (
    HalfLineState,
    IBVPTrace,
    SimError,
    accumulate_norms,
    decaying_data,
    initial_state,
    reconstruct_boundary_source,
    run_cauchy,
    run_ibvp,
    split_solution,
    step_ibvp,
    verify_semigroup,
    verify_strong_stability,
    verify_thm1,
)

RNG = np.random.default_rng(20240812)

FIXTURES = [
    upwind(0.5, 1.0),
    lax_friedrichs(0.5, 1.0),
    lax_wendroff(0.5, 1.0),
    leap_frog(0.5, 1.0),
    three_point(0.4, 0.3, 0.2, lam=0.5),
]


def random_layers(scheme, n_sites=8, seed=None):
    rng = np.random.default_rng(seed)
    return tuple(
        GridSequence(
            1 - scheme.r,
            rng.standard_normal((n_sites, scheme.N))
            + 1j * rng.standard_normal((n_sites, scheme.N)),
            implicit_zero=True,
        )
        for _ in range(scheme.s + 1)
    )


# ---------------------------------------------------------------------------
# stepping


def test_zero_state_stays_zero():
    for scheme in FIXTURES:
        zero = tuple(
            GridSequence.zeros(1 - scheme.r, 6, scheme.N, implicit_zero=True)
            for _ in range(scheme.s + 1)
        )
        trace = run_ibvp(scheme, zero, n_max=scheme.s + 5)
        assert all(np.all(lay.values == 0) for lay in trace.layers)


def test_upwind_unit_cfl_is_exact_shift():
    # at lam*a = 1 the interior update is the right shift; Dirichlet keeps
    # boundary rows at zero after the data level
    scheme = upwind(1.0, 1.0)
    vals = RNG.standard_normal((7, 1))
    f = GridSequence(0, vals, implicit_zero=True)
    trace = run_ibvp(scheme, [f], n_max=9)
    for n in range(10):
        for j in range(0, trace.j_obs + 1):
            if n == 0:
                want = f.get(j)[0] if 0 <= j <= 6 else 0.0
            else:
                want = f.get(j - n)[0] if 1 <= j and 0 <= j - n <= 6 else 0.0
            assert trace.layers[n].get(j)[0] == pytest.approx(want, abs=1e-14)


def test_leap_frog_interior_matches_two_level_recursion():
    scheme = leap_frog(0.5, 1.0)
    nu = 0.5
    f0, f1 = random_layers(scheme, n_sites=10, seed=3)
    trace = run_ibvp(scheme, [f0, f1], n_max=6)
    for n in range(1, 6):
        for j in range(1, trace.j_obs - scheme.p):
            want = trace.layers[n - 1].get(j) - nu * (
                trace.layers[n].get(j + 1) - trace.layers[n].get(j - 1)
            )
            np.testing.assert_allclose(
                trace.layers[n + 1].get(j), want, atol=1e-13
            )


def test_boundary_rows_follow_boundary_recursion_not_stencil():
    # Dirichlet closure forces rows 1-r..0 to the supplied data exactly
    scheme = lax_friedrichs(0.5, 1.0)
    f = random_layers(scheme, n_sites=6, seed=4)
    g = RNG.standard_normal((8, scheme.r, scheme.N))
    trace = run_ibvp(scheme, f, n_max=7, g=g)
    for n in range(scheme.s + 1, 8):
        np.testing.assert_allclose(
            trace.layers[n].window(1 - scheme.r, 0),
            g[n].reshape(scheme.r, scheme.N),
            atol=1e-14,
        )


def test_interior_source_scaled_by_dt():
    scheme = upwind(0.5, 1.0)
    zero = (GridSequence.zeros(0, 4, 1, implicit_zero=True),)
    spike = GridSequence(3, np.array([[2.0]]), implicit_zero=True)
    trace = run_ibvp(
        scheme, zero, n_max=1, F=lambda n: spike, dt=0.25, j_obs=6
    )
    assert trace.layers[1].get(3)[0] == pytest.approx(0.5)
    assert trace.layers[1].get(2)[0] == 0.0


def test_window_exhausted_raises():
    scheme = lax_wendroff(0.5, 1.0)
    f = (GridSequence.zeros(0, 3, 1, implicit_zero=True),)
    state = initial_state(scheme, f, pad_to=3)
    state = step_ibvp(step_ibvp(state))
    with pytest.raises(SimError, match="window exhausted"):
        step_ibvp(state)


def test_margin_doubling_changes_nothing():
    for scheme in FIXTURES:
        f = random_layers(scheme, n_sites=6, seed=11)
        a = run_ibvp(scheme, f, n_max=8, margin=0)
        b = run_ibvp(scheme, f, n_max=8, margin=16)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.values, lb.values)


# ---------------------------------------------------------------------------
# whole-line runs


def test_cauchy_zero_stays_zero():
    scheme = lax_wendroff(0.5, 1.0)
    zero = (GridSequence.zeros(0, 4, 1, implicit_zero=True),)
    trace = run_cauchy(scheme, zero, n_max=5)
    assert all(np.all(lay.values == 0) for lay in trace.layers)


def test_cauchy_spike_shift_at_unit_cfl():
    scheme = upwind(1.0, 1.0)
    spike = GridSequence(5, np.array([[1.0]]), implicit_zero=True)
    trace = run_cauchy(scheme, [spike], n_max=6)
    for n in range(7):
        lay = trace.layers[n]
        for j in range(lay.offset, lay.last + 1):
            want = 1.0 if j == 5 + n else 0.0
            assert lay.get(j)[0] == want


def test_cauchy_mass_plateau_under_cfl():
    # l2 mass of the whole-line solution stays within a fixed multiple of
    # the initial layers for every fixture
    for scheme in FIXTURES:
        f = random_layers(scheme, n_sites=12, seed=21)
        trace = run_cauchy(scheme, f, n_max=30)
        start = sum(lay.norm_sq() for lay in f)
        for lay in trace.layers:
            assert lay.norm_sq() <= 4.0 * start


def test_cauchy_window_matches_infinite_lattice():
    # doubling the requested window leaves the overlap bit-identical
    scheme = lax_friedrichs(0.5, 1.0)
    f = random_layers(scheme, n_sites=5, seed=22)
    small = run_cauchy(scheme, f, n_max=6, window=(-4, 8))
    big = run_cauchy(scheme, f, n_max=6, window=(-20, 24))
    for ls, lb in zip(small.layers, big.layers):
        assert np.array_equal(ls.values, lb.window(-4, 8))


def test_cauchy_rejects_unsupported_layers():
    scheme = upwind(0.5, 1.0)
    f = (GridSequence(0, np.ones((3, 1))),)
    with pytest.raises(SimError, match="finitely supported"):
        run_cauchy(scheme, f, n_max=2)


# ---------------------------------------------------------------------------
# splitting


def test_split_identity_all_fixtures_random_data():
    # U = V + W pointwise, 100 random initial data across the fixtures
    count = 0
    for scheme in FIXTURES:
        for k in range(20):
            f = random_layers(scheme, n_sites=6, seed=100 + count)
            split = split_solution(scheme, f, n_max=10)
            assert split.max_mismatch <= 1e-12
            count += 1
    assert count == 100


def test_split_zero_data_gives_zero_parts():
    scheme = upwind(0.5, 1.0)
    zero = (GridSequence.zeros(0, 4, 1, implicit_zero=True),)
    split = split_solution(scheme, zero, n_max=5)
    assert np.all(split.g == 0)
    assert all(np.all(lay.values == 0) for lay in split.V.layers)
    assert all(np.all(lay.values == 0) for lay in split.W.layers)


def test_split_boundary_source_dirichlet_is_minus_cauchy_trace():
    # with an all-zero boundary operator the reconstruction reduces to
    # g_0^n = -V_0^n
    scheme = upwind(0.5, 1.0)
    f = random_layers(scheme, n_sites=7, seed=40)
    split = split_solution(scheme, f, n_max=9)
    for n in range(1, 10):
        assert split.g[n, 0, 0] == pytest.approx(
            -split.V.layers[n].get(0)[0], abs=1e-14
        )
    assert np.all(split.g[0] == 0)


def test_split_boundary_source_extrapolation_reads_new_level():
    # extrapolation closure: g_0^n = -V_0^n + V_1^n (the sigma = -1 term)
    scheme = upwind(0.5, 1.0, boundary="extrapolation")
    f = random_layers(scheme, n_sites=7, seed=41)
    split = split_solution(scheme, f, n_max=9)
    for n in range(1, 10):
        want = -split.V.layers[n].get(0)[0] + split.V.layers[n].get(1)[0]
        assert split.g[n, 0, 0] == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# norm accumulation


def test_norms_zero_solution():
    scheme = upwind(1.0, 1.0)
    zero = (GridSequence.zeros(0, 3, 1, implicit_zero=True),)
    trace = run_ibvp(scheme, zero, n_max=4)
    ns = accumulate_norms(trace, 0.5, P=2)
    assert ns.interior == 0.0
    assert ns.trace == 0.0
    assert ns.sup_norm == 0.0


def test_norms_single_value_one_term_sums():
    # one nonzero value at j=0, n=0 with dt = dx = 1 and gamma = 0
    scheme = upwind(1.0, 1.0)
    trace = IBVPTrace(
        scheme=scheme, dt=1.0, levels=np.array([[[1.0]]]), offset=0,
        zero_flags=(True,), j_obs=0,
    )
    ns = accumulate_norms(trace, 0.0, P=0)
    assert ns.interior == 1.0
    assert ns.trace == 1.0
    assert ns.sup_norm == 1.0


def test_norms_upwind_shift_bookkeeping():
    # unit-CFL shift: every f_j crosses the trace columns exactly once, so
    # the gamma = 0 trace sum is computable from the data alone
    scheme = upwind(1.0, 1.0)
    vals = RNG.standard_normal((6, 1))
    f = GridSequence(0, vals, implicit_zero=True)
    n_max = 12
    trace = run_ibvp(scheme, [f], n_max=n_max)
    ns = accumulate_norms(trace, 0.0, P=1)
    # U_0^n = f_0 [n=0]; U_1^n = f_{1-n} while 1-n >= 0, i.e. n <= 1
    want = (
        2 * abs(f.get(0)[0]) ** 2
        + abs(f.get(1)[0]) ** 2
    )
    assert ns.trace == pytest.approx(float(want), rel=1e-12)
    # interior mass: each level holds the full remaining data mass
    mass = [
        sum(abs(f.get(j)[0]) ** 2 for j in range(6) if j + n >= 1 or n == 0)
        for n in range(n_max + 1)
    ]
    assert ns.interior == pytest.approx(float(sum(mass)), rel=1e-12)


def test_norms_monotone_in_gamma():
    scheme = lax_wendroff(0.5, 1.0)
    f = random_layers(scheme, n_sites=6, seed=50)
    trace = run_ibvp(scheme, f, n_max=20)
    gammas = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    series = [accumulate_norms(trace, g, P=2) for g in gammas]
    for a, b in zip(series, series[1:]):
        assert b.interior <= a.interior + 1e-15
        assert b.trace <= a.trace + 1e-15
        assert b.sup_norm == a.sup_norm


def test_norms_terms_nonnegative_and_cumulative():
    scheme = leap_frog(0.5, 1.0)
    f = random_layers(scheme, n_sites=5, seed=51)
    trace = run_ibvp(scheme, f, n_max=15)
    ns = accumulate_norms(trace, 0.1, P=1)
    assert np.all(ns.interior_terms >= 0)
    assert np.all(ns.trace_terms >= 0)
    assert ns.interior == pytest.approx(float(ns.interior_terms.sum()))
    assert ns.trace == pytest.approx(float(ns.trace_terms.sum()))


def test_norms_rejects_bad_inputs():
    scheme = upwind(0.5, 1.0)
    f = random_layers(scheme, n_sites=4, seed=52)
    trace = run_ibvp(scheme, f, n_max=3)
    with pytest.raises(SimError):
        accumulate_norms(trace, -0.1, P=1)
    with pytest.raises(SimError):
        accumulate_norms(trace, 0.1, P=-5)


def test_norms_of_whole_line_traces_read_columns_from_one_minus_r():
    # data on j = 3..5: the default window (3, 9) starts right of 1-r = 0
    # and is zero left of it; an explicit window doing so has no values there
    scheme = upwind(0.5, 1.0)
    f = (GridSequence(3, np.array([1.0, 2.0, 3.0]), implicit_zero=True),)
    assert accumulate_norms(run_cauchy(scheme, f, 4), 0.0, P=1).trace == 0.0
    with pytest.raises(RangeError):
        accumulate_norms(run_cauchy(scheme, f, 4, window=(2, 9)), 0.0, P=4)
    ns = accumulate_norms(run_cauchy(scheme, f, 4, window=(-3, 9)), 0.0, P=4)
    assert (ns.trace, ns.interior) == (9.11328125, 102.59375)


# ---------------------------------------------------------------------------
# verifiers


def test_thm1_upwind_dirichlet_bounded():
    rep = verify_thm1(upwind(0.5, 1.0), P=3, t_end=10.0)
    assert rep.hypotheses_met
    assert rep.bounded
    assert not rep.vacuous
    assert rep.slope <= 0.1
    assert "bounded" in rep.verdict


def test_thm1_zero_data_vacuous():
    zf = lambda sch, dt, n_max, rng: tuple(
        GridSequence.zeros(0, 4, 1, implicit_zero=True)
        for _ in range(sch.s + 1)
    )
    rep = verify_thm1(
        upwind(0.5, 1.0), f_generator=zf, refinements=(0.1, 0.05),
        gammas=(0.1,),
    )
    assert rep.vacuous
    assert "vacuous" in rep.verdict


def _glancing_packet(sch, dt, n_max, rng):
    # carrier at the zero-group-velocity grid frequency, envelope width 0.5
    dx = dt / sch.lam
    j = np.arange(max(int(2.0 / dx) + 2, 6))
    env = np.exp(-((j * dx / 0.5) ** 2))
    f0 = (np.exp(1j * j * np.pi / 2) * env).reshape(-1, 1)
    step_phase = np.exp(-1j * np.pi / 6)
    return (
        GridSequence(0, f0, implicit_zero=True),
        GridSequence(0, step_phase * f0, implicit_zero=True),
    )


def test_thm1_leap_frog_glancing_flags_hypotheses():
    rep = verify_thm1(
        leap_frog(0.5, 1.0), f_generator=_glancing_packet, P=3, t_end=10.0
    )
    assert not rep.hypotheses_met
    assert any("glancing" in issue for issue in rep.issues)
    assert "hypotheses unmet" in rep.verdict


def test_thm1_leap_frog_glancing_reflection_ratios_grow():
    # the neighbor-copy closure cannot absorb the stationary packet: the
    # per-refinement maximum ratio rises monotonically
    rep = verify_thm1(
        leap_frog(0.5, 1.0, boundary="extrapolation"),
        f_generator=_glancing_packet, P=3, t_end=10.0,
    )
    assert not rep.hypotheses_met
    per_dt = np.nanmax(rep.ratios, axis=1)
    assert np.all(np.diff(per_dt) > 0)
    assert per_dt[-1] > 30 * 0.448  # far above the upwind level


def test_strong_stability_upwind_dirichlet_bounded():
    rep = verify_strong_stability(upwind(0.5, 1.0))
    assert rep.bounded
    assert not rep.vacuous
    assert rep.max_ratio < 10.0


def test_strong_stability_vacuous():
    rep = verify_strong_stability(
        upwind(0.5, 1.0), g_gen=lambda sch, dt, n_max, rng: None,
        refinements=(0.1, 0.05), gammas=(0.1,),
    )
    assert rep.vacuous


def test_strong_stability_interior_forcing_only():
    # g = None, F a decaying random source: each ratio matches the RHS
    # summed term by term over one run per dt
    scheme, dts, gammas = upwind(0.5, 1.0), (0.1, 0.05), (0.1, 1.0)

    def F_gen(sch, dt, n_max, rng):
        amp = np.exp(-np.arange(n_max) * dt)[:, None, None]
        vals = amp * rng.standard_normal((n_max, 12, sch.N))
        return [GridSequence(1, v, implicit_zero=True) for v in vals]

    rep = verify_strong_stability(
        scheme, g_gen=lambda sch, dt, n_max, rng: None, F_gen=F_gen,
        gammas=gammas, refinements=dts, t_end=4.0, seed=3,
    )
    assert not rep.vacuous
    assert rep.bounded
    rng = np.random.default_rng(3)
    for i, dt in enumerate(dts):
        n_max = int(round(4.0 / dt))
        F = F_gen(scheme, dt, n_max, rng)
        zero = [GridSequence.zeros(0, 1, 1, implicit_zero=True)]
        trace = run_ibvp(scheme, zero, n_max, F=lambda n: F[n], dt=dt)
        dx = dt / scheme.lam
        for k, gamma in enumerate(gammas):
            ns = accumulate_norms(trace, gamma, scheme.p, n_start=1)
            lhs = gamma / (gamma * dt + 1) * ns.interior + ns.trace
            rhs = 0.0
            for n in range(n_max):
                rhs += ((gamma * dt + 1) / gamma * dt
                        * np.exp(-2 * gamma * (n + 1) * dt) * F[n].norm_sq(dx))
            assert rep.ratios[i, k] == lhs / rhs


def test_strong_stability_marginal_reflection_blows_up():
    # neighbor-copy closure has a determinant zero in the z -> 1 limit;
    # the ratios grow both as gamma decreases and under refinement
    rep = verify_strong_stability(
        upwind(0.5, 1.0, boundary="extrapolation"),
        gammas=(1e-3, 1e-2, 1e-1, 1.0), t_end=50.0,
        refinements=(0.1, 0.05, 0.025),
    )
    assert not rep.bounded
    assert rep.slope > 0.5
    # at the finest dt the ratio increases monotonically as gamma drops
    finest = rep.ratios[-1]
    assert np.all(np.diff(finest) < 0) or np.all(np.diff(finest[::-1]) > 0)


def test_semigroup_upwind_dirichlet():
    rep = verify_semigroup(upwind(0.5, 1.0))
    assert rep.bounded
    assert rep.uklc_plausible
    assert rep.consistent_with_uklc
    assert max(rep.C2) == pytest.approx(1.0, abs=1e-12)
    # contractive one-step scheme: per-step energy inequality never violated
    assert rep.step_violation is not None
    assert rep.step_violation <= 1e-12
    assert rep.chain_ok


def test_semigroup_zero_data():
    zf = lambda sch, dt, n_max, rng: tuple(
        GridSequence.zeros(0, 4, 1, implicit_zero=True)
        for _ in range(sch.s + 1)
    )
    rep = verify_semigroup(
        upwind(0.5, 1.0), f_generator=zf, refinements=(0.1, 0.05)
    )
    assert rep.C2 == (0.0, 0.0)


def test_semigroup_marginal_closure_cross_check():
    # neighbor-copy closure: sup-norm ratio grows under refinement and the
    # deep determinant scan fails, so the two verdicts agree
    rep = verify_semigroup(lax_wendroff(0.5, 1.0, boundary="extrapolation"))
    assert not rep.bounded
    assert not rep.uklc_plausible
    assert rep.consistent_with_uklc
    assert rep.C2[-1] > 5.0
    # growth is fed through the boundary trace: the per-step inequality
    # and the summed trace bound still hold
    assert rep.step_violation <= 1e-12
    assert rep.chain_ok


def test_semigroup_step_inequality_all_one_step_fixtures():
    # consistent contractive one-step schemes only: the energy identity
    # machinery requires sum A_ell = I
    schemes = [
        upwind(0.5, 1.0),
        lax_friedrichs(0.5, 1.0),
        lax_wendroff(0.5, 1.0),
        three_point(0.4, 0.3, 0.3, lam=0.5),
    ]
    for scheme in schemes:
        rep = verify_semigroup(scheme, refinements=(0.1, 0.05))
        assert rep.step_violation is not None
        assert rep.step_violation <= 1e-12
        assert rep.chain_ok


# ---------------------------------------------------------------------------
# input validation


def test_run_ibvp_rejects_wrong_layer_count():
    scheme = leap_frog(0.5, 1.0)
    f = (GridSequence.zeros(0, 3, 1, implicit_zero=True),)
    with pytest.raises(SimError, match="initial layers"):
        run_ibvp(scheme, f, n_max=4)


def test_run_ibvp_rejects_small_n_max():
    scheme = leap_frog(0.5, 1.0)
    f = random_layers(scheme, n_sites=4, seed=60)
    with pytest.raises(SimError, match="n_max"):
        run_ibvp(scheme, f, n_max=0)


def test_boundary_data_array_too_short():
    scheme = upwind(0.5, 1.0)
    f = random_layers(scheme, n_sites=4, seed=61)
    with pytest.raises(SimError, match="boundary data"):
        run_ibvp(scheme, f, n_max=6, g=np.zeros((3, 1, 1)))


def test_decaying_data_reproducible_and_decaying():
    scheme = lax_friedrichs(0.5, 1.0)
    a = decaying_data(scheme, 32, seed=5)
    b = decaying_data(scheme, 32, seed=5)
    for la, lb in zip(a, b):
        assert np.array_equal(la.values, lb.values)
    mags = np.abs(a[0].values[:, 0])
    idx = np.arange(32)
    assert np.all(mags <= (1.0 + idx) ** -1.0 * 6.0)


# ---------------------------------------------------------------------------
# reference oracles: the per-step loops that the marching kernel replaced,
# kept tap by tap over full-width windows


def _reference_step(state, g_row=None, F_row=None):
    scheme = state.scheme
    r, p, q, s, N = scheme.r, scheme.p, scheme.q, scheme.s, scheme.N
    lo = 1 - r
    edge = state.edge
    new_edge = edge - p
    width = new_edge - lo + 1
    out = np.zeros((width, N), dtype=complex)
    i1 = 1 - lo
    prev = [lay.window(lo, edge) for lay in state.layers]
    for sigma in range(s + 1):
        layer = prev[s - sigma]
        for ell in range(-r, p + 1):
            A = scheme.A(ell, sigma)
            if not np.any(A):
                continue
            seg = layer[i1 + ell : i1 + ell + (new_edge - 1) + 1]
            out[i1:] += seg @ A.T
    if F_row is not None:
        flo = max(1, F_row.offset)
        fhi = min(new_edge, F_row.last)
        if flo <= fhi:
            out[flo - lo : fhi - lo + 1] += state.dt * F_row.window(flo, fhi)
    if g_row is not None:
        g_row = np.asarray(g_row, dtype=complex).reshape(r, N)
    for j in range(lo, 1):
        acc = np.zeros(N, dtype=complex)
        for sigma in range(-1, s + 1):
            source = out if sigma == -1 else prev[s - sigma]
            for ell in range(q + 1):
                B = scheme.B(ell, j, sigma)
                if np.any(B):
                    acc += B @ source[i1 + ell]
        if g_row is not None:
            acc += g_row[j - lo]
        out[j - lo] = acc
    keep_zero = all(lay.implicit_zero for lay in state.layers) and (
        F_row is None or F_row.implicit_zero
    )
    new = GridSequence(lo, out, implicit_zero=keep_zero)
    return HalfLineState(
        scheme=scheme, n=state.n + 1, layers=state.layers[1:] + (new,),
        dt=state.dt,
    )


def _reference_run_ibvp(scheme, f_layers, n_max, j_obs=None, g=None, F=None,
                        dt=1.0, margin=0):
    jf = max(f.last for f in f_layers)
    auto_obs = j_obs is None
    if auto_obs:
        j_obs = max(jf, 1 + scheme.q, 1) + n_max * scheme.r
    pad_to = j_obs + (n_max - scheme.s) * scheme.p + margin
    state = initial_state(scheme, f_layers, pad_to, dt=dt)
    g_of = (lambda n: None) if g is None else (lambda n: g[n])
    F_of = F if F is not None else (lambda n: None)
    levels = list(state.layers)
    while state.n < n_max:
        state = _reference_step(
            state, g_row=g_of(state.n + 1), F_row=F_of(state.n)
        )
        levels.append(state.top())
    return [
        GridSequence(1 - scheme.r, lay.window(1 - scheme.r, j_obs),
                     implicit_zero=auto_obs and lay.implicit_zero)
        for lay in levels
    ], j_obs


def _reference_run_cauchy(scheme, f_layers, n_max, window=None):
    jmin = min(f.offset for f in f_layers)
    jmax = max(f.last for f in f_layers)
    auto = window is None
    if auto:
        window = (jmin - n_max * scheme.p, jmax + n_max * scheme.r)
    Lmin, Rmax = window
    W0 = min(Lmin - n_max * scheme.r, jmin)
    W1 = max(Rmax + n_max * scheme.p, jmax)
    r, p, s, N = scheme.r, scheme.p, scheme.s, scheme.N
    buf = [f.window(W0, W1) for f in f_layers]
    levels = [np.array(b) for b in buf]
    lo_k, hi_k = 0, W1 - W0
    for _ in range(n_max - s):
        lo_k += r
        hi_k -= p
        out = np.zeros((W1 - W0 + 1, N), dtype=complex)
        m = hi_k - lo_k + 1
        for sigma in range(s + 1):
            layer = buf[s - sigma]
            for ell in range(-r, p + 1):
                A = scheme.A(ell, sigma)
                if np.any(A):
                    out[lo_k : hi_k + 1] += layer[lo_k + ell : lo_k + ell + m] @ A.T
        buf = buf[1:] + [out]
        levels.append(out)
    return [
        GridSequence(Lmin, lev[Lmin - W0 : Rmax - W0 + 1], implicit_zero=auto)
        for lev in levels[: n_max + 1]
    ], Rmax


def _second_order_upwind(nu):
    interior = np.zeros((3, 1, 1, 1))
    interior[:, 0, 0, 0] = ((nu * nu - nu) / 2, nu * (2 - nu),
                            1 - 1.5 * nu + nu * nu / 2)
    return SchemeDef(N=1, r=2, p=0, q=0, s=0, lam=1.0, interior=interior,
                     boundary=np.zeros((1, 2, 2, 1, 1)))


def _system_upwind():
    A = np.array([[0.5, 0.25], [0.25, 0.5]])
    return SchemeDef(N=2, r=1, p=0, q=0, s=0, lam=1.0,
                     interior=np.stack([A, np.eye(2) - A])[:, None],
                     boundary=np.zeros((1, 1, 2, 2, 2)))


def _random_scheme(seed, s):
    # a 2x2 scheme with p = q = 1 and every boundary tap set
    rng = np.random.default_rng(seed)
    return SchemeDef(N=2, r=1, p=1, q=1, s=s, lam=0.7,
                     interior=0.2 * rng.standard_normal((3, s + 1, 2, 2)),
                     boundary=0.2 * rng.standard_normal((2, 1, s + 2, 2, 2)))


ORACLE_SCHEMES = {
    "upwind": upwind(0.5, 1.0),
    "lax-wendroff-extrapolation": lax_wendroff(1.0, 0.5, boundary="extrapolation"),
    "leap-frog": leap_frog(0.5, 1.0),
    "second-order-upwind": _second_order_upwind(1.3),
    "system": _system_upwind(),
    "random": _random_scheme(7, s=0),
    "random-three-level": _random_scheme(7, s=1),
}


def _assert_same_levels(trace, want, j_obs):
    assert trace.j_obs == j_obs
    assert len(trace.layers) == len(want)
    for got, ref in zip(trace.layers, want):
        assert got.offset == ref.offset
        assert got.implicit_zero == ref.implicit_zero
        assert got.values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("case", ["data", "boundary-data", "boundary-source",
                                  "interior-source", "explicit-window"])
@pytest.mark.parametrize("name", list(ORACLE_SCHEMES))
def test_run_ibvp_matches_reference_steps_bit_for_bit(name, case):
    scheme = ORACLE_SCHEMES[name]
    n_max, dt = 30, 0.1
    rng = np.random.default_rng(17)
    f = decaying_data(scheme, 9, seed=3)
    kwargs = {}
    if case == "boundary-data":
        # data on j <= 0 only: the first step's support is one column wide
        f = tuple(GridSequence(1 - scheme.r, lay.values[: scheme.r], implicit_zero=True)
                  for lay in f)
    elif case == "boundary-source":
        # zero data: the solution starts at the boundary rows
        f = tuple(GridSequence.zeros(1 - scheme.r, 1, scheme.N, implicit_zero=True)
                  for _ in range(scheme.s + 1))
        kwargs["g"] = rng.standard_normal((n_max + 1, scheme.r, scheme.N))
    elif case == "interior-source":
        # sources reaching past the data's support widen it
        rows = [GridSequence(4 + 3 * n, rng.standard_normal((2, scheme.N)),
                             implicit_zero=True) for n in range(n_max + 1)]
        kwargs["F"] = lambda n: rows[n]
    elif case == "explicit-window":
        kwargs.update(j_obs=12, margin=5)
    trace = run_ibvp(scheme, f, n_max, dt=dt, **kwargs)
    want, j_obs = _reference_run_ibvp(scheme, f, n_max, dt=dt, **kwargs)
    _assert_same_levels(trace, want, j_obs)


@pytest.mark.parametrize("window", [None, (0, 0), (-3, 5), (20, 24)])
@pytest.mark.parametrize("name", list(ORACLE_SCHEMES))
def test_run_cauchy_matches_reference_loop_bit_for_bit(name, window):
    scheme = ORACLE_SCHEMES[name]
    f = random_layers(scheme, n_sites=7, seed=23)
    if window == (20, 24):
        # one site at the buffer's left edge and the window (n_max-s)*r to
        # its right: each step's support meets the valid slice in one column
        f = tuple(GridSequence(0, lay.values[:1], implicit_zero=True) for lay in f)
        edge = (20 - scheme.s) * scheme.r
        window = (edge, edge + 4)
    trace = run_cauchy(scheme, f, 20, window=window)
    want, j_obs = _reference_run_cauchy(scheme, f, 20, window=window)
    _assert_same_levels(trace, want, j_obs)


def test_step_ibvp_matches_reference_step():
    for scheme in ORACLE_SCHEMES.values():
        f = random_layers(scheme, n_sites=6, seed=31)
        state = want = initial_state(scheme, f, pad_to=40, dt=0.1)
        g = np.ones((scheme.r, scheme.N))
        for _ in range(5):
            state = step_ibvp(state, g_row=g)
            want = _reference_step(want, g_row=g)
            assert state.top().values.tobytes() == want.top().values.tobytes()


def test_verify_thm1_takes_level_sums_once_per_dt(monkeypatch):
    calls = []
    level_sums = sim._level_sums
    monkeypatch.setattr(
        sim, "_level_sums", lambda *a: calls.append(a) or level_sums(*a)
    )
    rep = verify_thm1(upwind(0.5, 1.0), gammas=(1e-3, 1e-2, 0.1, 1.0),
                      refinements=(0.1, 0.05, 0.025), t_end=2.0)
    assert rep.ratios.shape == (3, 4)
    assert len(calls) == 3


def _count_marches(monkeypatch):
    calls = []
    run = sim.run_ibvp
    monkeypatch.setattr(
        sim, "run_ibvp", lambda *a, **k: calls.append(a[2]) or run(*a, **k)
    )
    return calls


def test_verifiers_march_a_shared_data_ladder_once(monkeypatch):
    calls = _count_marches(monkeypatch)
    ladder = (0.1, 0.05, 0.025, 0.0125, 0.00625)
    verify_thm1(upwind(0.5, 1.0), refinements=ladder, t_end=2.0)
    assert calls == [320]
    verify_semigroup(lax_wendroff(0.5, 1.0), refinements=ladder, t_end=2.0)
    assert calls == [320, 320]


def test_verifiers_march_dt_dependent_data_once_per_dt(monkeypatch):
    calls = _count_marches(monkeypatch)
    ladder = (0.1, 0.05, 0.025)
    verify_thm1(leap_frog(0.5, 1.0), f_generator=_glancing_packet,
                refinements=ladder, t_end=2.0)
    assert calls == [20, 40, 80]
    calls.clear()
    verify_semigroup(leap_frog(0.5, 1.0), f_generator=_glancing_packet,
                     refinements=ladder, t_end=2.0)
    assert calls == [20, 40, 80]


@pytest.mark.parametrize("verify", [verify_thm1, verify_semigroup])
def test_verifier_raises_the_first_failing_entrys_error(verify):
    # leap-frog at dt 0.1 has n_max 0 < s, though the dt 0.05 run exists,
    # before or after it in the ladder
    for ladder in [(0.1, 0.05), (0.05, 0.1)]:
        with pytest.raises(SimError, match="n_max must be at least s = 1"):
            verify(leap_frog(0.5, 1.0), refinements=ladder, t_end=0.05)
    # both horizons are too large to hold; the first one is reported
    with pytest.raises(SimError, match="horizon too large: n_max 100000000 "):
        verify(upwind(0.5, 1.0), refinements=(1e-7, 2e-8), t_end=10.0)
    # the dt 0.1 entry marches on its own before the dt 1e-7 one fails
    with pytest.raises(SimError, match="horizon too large: n_max 100000000 "):
        verify(upwind(0.5, 1.0), refinements=(0.1, 1e-7), t_end=10.0)


def _reference_ladder(scheme, refinements, t_end, P=3, gammas=sim.DEFAULT_GAMMAS):
    """verify_thm1's ratios and verify_semigroup's C2, step_violation and
    chain_ok from a fresh run and a per-step energy loop at every dt."""
    try:
        rate = boundary_energy_rate(scheme) if scheme.s == 0 else None
    except DecompositionError:
        rate = None
    ratios = np.zeros((len(refinements), len(gammas)))
    C2, step_violation, chain_ok = [], None, None
    for i, dt in enumerate(refinements):
        n_max = int(round(t_end / dt))
        f = decaying_data(scheme, n_sites=max(64, scheme.r + scheme.p + 1))
        trace = run_ibvp(scheme, f, n_max, dt=dt)
        dx = dt / scheme.lam
        rhs = sum(lay.norm_sq(dx) for lay in f)
        for k, gamma in enumerate(gammas):
            ns = accumulate_norms(trace, gamma, P)
            ratios[i, k] = (gamma / (gamma * dt + 1) * ns.interior + ns.trace) / rhs
        C2.append(accumulate_norms(trace, 0.0, scheme.p).sup_norm / rhs)
        if rate is None:
            continue
        interior_mass = np.sum(np.abs(trace.levels[:, scheme.r :]) ** 2, axis=(1, 2))
        scale = max(float(interior_mass.max()), 1e-30)
        worst, traces_sq = step_violation or 0.0, 0.0
        for n in range(trace.n_max):
            jet = trace.layers[n].window(1 - scheme.r, scheme.p).ravel()
            gap = interior_mass[n + 1] - interior_mass[n] - rate.evaluate(jet)
            worst = max(worst, gap / scale)
            traces_sq += dt * float(np.sum(np.abs(jet) ** 2))
        step_violation = worst
        lhs_chain = float(interior_mass.max()) * dx
        rhs_chain = interior_mass[0] * dx + rate.constant / scheme.lam * traces_sq
        ok = lhs_chain <= rhs_chain * (1 + 1e-10) + 1e-12
        chain_ok = ok if chain_ok is None else (chain_ok and ok)
    return ratios, tuple(C2), step_violation, chain_ok


LADDER_SCHEMES = {
    "upwind": (upwind(0.5, 1.0), 10.0),
    "lax-wendroff-extrapolation": (ORACLE_SCHEMES["lax-wendroff-extrapolation"], 10.0),
    "leap-frog": (leap_frog(0.5, 1.0), 10.0),
    "system": (ORACLE_SCHEMES["system"], 10.0),
    # unit CFL shifts the data exactly: the step gaps are rounding-level,
    # so step_violation is nonzero and moves with any bit of the gaps
    "lax-wendroff-unit-cfl": (lax_wendroff(0.5, 2.0, boundary="extrapolation"), 10.0),
    # grows by 1.4 a step: the finest ratios and C2 overflow
    "upwind-unstable": (upwind(0.5, 2.4), 30.0),
}


@pytest.mark.parametrize("name", list(LADDER_SCHEMES))
@np.errstate(all="ignore")
def test_shared_march_matches_per_dt_runs_bit_for_bit(name):
    scheme, t_end = LADDER_SCHEMES[name]
    ladder = (0.1, 0.05, 0.025)
    ratios, C2, step_violation, chain_ok = _reference_ladder(scheme, ladder, t_end)
    thm1 = verify_thm1(scheme, refinements=ladder, t_end=t_end)
    semi = verify_semigroup(scheme, refinements=ladder, t_end=t_end)
    assert thm1.ratios.tobytes() == ratios.tobytes()
    assert np.array(semi.C2).tobytes() == np.array(C2).tobytes()
    bits = lambda x: None if x is None else np.float64(x).tobytes()
    assert bits(semi.step_violation) == bits(step_violation)
    assert semi.chain_ok == chain_ok
    if name == "upwind-unstable":
        assert not np.isfinite(semi.C2[-1])
        assert not np.all(np.isfinite(thm1.ratios[-1]))


@pytest.mark.parametrize("name", list(ORACLE_SCHEMES))
def test_ladder_cuts_equal_their_own_runs(name):
    # a coarse entry's trace is its own run's window, not the long march's
    scheme = ORACLE_SCHEMES[name]
    for dt, f, trace in sim._ladder_traces(scheme, None, (0.1, 0.05, 0.025), 2.0, 0):
        want = run_ibvp(scheme, f, int(round(2.0 / dt)))
        _assert_same_levels(trace, want.layers, want.j_obs)


@pytest.mark.parametrize("verify", [verify_thm1, verify_semigroup])
@pytest.mark.parametrize("scheme", [upwind(0.5, 1.0), leap_frog(0.5, 1.0)],
                         ids=["upwind", "leap-frog"])
def test_verifiers_build_no_per_level_sequences(monkeypatch, verify, scheme):
    # the norm sums read the levels array; only data layers are sequences
    calls = []
    post_init = GridSequence.__post_init__
    monkeypatch.setattr(GridSequence, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    verify(scheme)
    assert len(calls) < 50


# ---------------------------------------------------------------------------
# 1x1 taps: entry-by-entry products against the matrix-product oracles


def _signed_zero_layers(scheme, n_sites, offset, seed):
    """Random complex layers with exact zeros, -0.0 parts and negatives."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(scheme.s + 1):
        shape = (n_sites, scheme.N)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals[rng.random(shape) < 0.25] = 0.0
        vals.real[rng.random(shape) < 0.25] = -0.0
        vals.imag[rng.random(shape) < 0.25] = -0.0
        layers.append(GridSequence(offset, vals, implicit_zero=True))
    return tuple(layers)


def _reflecting_upwind():
    # U_0 = -U_1: the boundary row's only tap is negative
    scheme = upwind(0.5, 1.0)
    boundary = np.zeros_like(scheme.boundary)
    boundary[0, 0, 0] = -1.0
    return SchemeDef(N=1, r=1, p=0, q=0, s=0, lam=0.5,
                     interior=scheme.interior, boundary=boundary)


SCALAR_SCHEMES = {
    name: scheme for name, scheme in ORACLE_SCHEMES.items() if scheme.N == 1
}
SCALAR_SCHEMES["leap-frog-extrapolation"] = leap_frog(0.5, 1.0, boundary="extrapolation")
SCALAR_SCHEMES["reflecting-upwind"] = _reflecting_upwind()


@pytest.mark.parametrize("name", list(SCALAR_SCHEMES))
def test_scalar_taps_run_cauchy_matches_reference_loop(name):
    scheme = SCALAR_SCHEMES[name]
    for window in (None, (-3, 5)):
        f = _signed_zero_layers(scheme, 11, -2, seed=41)
        trace = run_cauchy(scheme, f, 25, window=window)
        want, j_obs = _reference_run_cauchy(scheme, f, 25, window=window)
        _assert_same_levels(trace, want, j_obs)


def _reference_boundary_source(scheme, V, n_max):
    # g_j^n = -V_j^n + sum (B_{j,sigma} V^{n-1-sigma})_1 as (1, N) @ B.T products
    r, q, s, N = scheme.r, scheme.q, scheme.s, scheme.N
    g = np.zeros((n_max + 1, r, N), dtype=complex)
    for n in range(s + 1, n_max + 1):
        for j in range(1 - r, 1):
            acc = -V.layers[n].get(j).reshape(1, N)
            for sigma in range(-1, s + 1):
                for ell in range(q + 1):
                    B = scheme.B(ell, j, sigma)
                    if np.any(B):
                        acc += V.layers[n - 1 - sigma].get(1 + ell).reshape(1, N) @ B.T
            g[n, j - (1 - r)] = acc[0]
    return g


@pytest.mark.parametrize("offset", [0, 5])
@pytest.mark.parametrize("name", list(SCALAR_SCHEMES))
def test_scalar_taps_boundary_source_matches_reference(name, offset):
    # data at the boundary, and data at j >= 5 so that V is +0.0 next to
    # the boundary and g's sum starts at -V = -0.0
    scheme = SCALAR_SCHEMES[name]
    f = _signed_zero_layers(scheme, 9, offset, seed=43)
    split = split_solution(scheme, f, 25, dt=0.1)
    want = _reference_boundary_source(scheme, split.V, 25)
    assert split.g.tobytes() == want.tobytes()
