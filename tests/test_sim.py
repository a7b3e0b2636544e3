"""Tests for the time-domain solvers, splitting, and estimate verifiers."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dibvp import sim
from dibvp.core import (
    GridSequence,
    RangeError,
    SchemeDef,
    lax_friedrichs,
    lax_wendroff,
    leap_frog,
    scheme_to_dict,
    three_point,
    upwind,
)
from dibvp.resolvent import SplitCountError
from dibvp.sbp import DecompositionError, boundary_energy_rate
from dibvp.sim import (
    IBVPTrace,
    SimError,
    accumulate_norms,
    decaying_boundary_data,
    decaying_data,
    reconstruct_boundary_source,
    run_cauchy,
    run_ibvp,
    split_solution,
    verify_semigroup,
    verify_strong_stability,
    verify_thm1,
)
from populations import random_scheme, schemes

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
    # j_obs = 0 allocates columns up to 3: the edge reaches 0 on the third step
    scheme = lax_wendroff(0.5, 1.0)
    f = (GridSequence.zeros(0, 3, 1, implicit_zero=True),)
    assert run_ibvp(scheme, f, n_max=2, j_obs=1).n_max == 2
    with pytest.raises(SimError, match="window exhausted: right edge 1 "):
        run_ibvp(scheme, f, n_max=3, j_obs=0)


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


def test_cauchy_rejects_a_negative_horizon():
    # as run_ibvp refuses a short one; n_max 0..s-1 returns the data's levels
    scheme = leap_frog(0.5, 1.0)
    f = random_layers(scheme, n_sites=4, seed=2)
    for n_max in (-1, -2):
        with pytest.raises(SimError, match="n_max must be nonnegative"):
            run_cauchy(scheme, f, n_max=n_max)
    trace = run_cauchy(scheme, f, n_max=0, window=(0, 3))
    assert trace.n_max == 0
    assert trace.levels[0].tobytes() == f[0].window(0, 3).tobytes()


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


def test_boundary_source_needs_the_boundary_columns():
    scheme = lax_wendroff(1.0, 0.5, boundary="extrapolation")
    f = random_layers(scheme, n_sites=6, seed=42)
    for window in ((2, 12), (0, 0)):
        V = run_cauchy(scheme, f, 5, window=window)
        with pytest.raises(RangeError):
            reconstruct_boundary_source(scheme, V, 5)


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


def _norm_traces():
    """Float, complex, overflowed and system traces of several blocks each."""
    rng = np.random.default_rng(23)
    real = rng.standard_normal((300, 701, 1))
    cplx = real + 1j * rng.standard_normal((300, 701, 1))
    blown = cplx.copy()
    blown[40, 3], blown[41, 500], blown[250:, 7] = np.inf, np.nan, 1e200 - 1e200j
    system = rng.standard_normal((120, 900, 2)) + 0j
    return [(upwind(0.5, 1.0), real), (upwind(0.5, 1.0), cplx), (upwind(0.5, 1.0), blown),
            (random_scheme(3, 2, 2, 1, 0, 0, boundary="random"), system)]


@pytest.mark.parametrize("case", range(4), ids=["float", "complex", "overflowed", "system"])
def test_blocked_norms_equal_whole_trace_sums(case):
    scheme, levels = _norm_traces()[case]
    assert len(sim._level_blocks(levels)) > 3
    trace = IBVPTrace(scheme, 0.1, levels, 1 - scheme.r, (True,) * len(levels),
                      len(levels[0]) - scheme.r)
    with np.errstate(all="ignore"):
        for gamma, P, n_start in [(0.0, 2, 0), (0.3, 40, 5), (1.0, 900, 1)]:
            got = accumulate_norms(trace, gamma, P, n_start)
            cols = slice(0, max(min(P, trace.j_obs) + scheme.r, 0))
            want = sim._weighted_norms(trace.dt, trace.dx,
                                       sim._level_sums(sim._abs_sq(levels), cols),
                                       gamma, P, n_start)
            for field in vars(want):
                assert np.asarray(getattr(got, field)).tobytes() == \
                    np.asarray(getattr(want, field)).tobytes(), field


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
    for gamma in (-0.1, np.nan):
        with pytest.raises(SimError, match="gamma must be nonnegative"):
            accumulate_norms(trace, gamma, P=1)
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


def test_strong_stability_counts_a_none_source_row_as_zero():
    # run_ibvp reads a None row of F as no source at that level; the RHS
    # adds nothing for it
    scheme, dt, gammas = upwind(0.5, 1.0), 0.1, (0.1, 1.0)

    def F_gen(sch, dt, n_max, rng):
        vals = rng.standard_normal((n_max, 6, sch.N))
        return [None if n % 2 else GridSequence(1, v, implicit_zero=True)
                for n, v in enumerate(vals)]

    rep = verify_strong_stability(
        scheme, g_gen=lambda sch, dt, n_max, rng: None, F_gen=F_gen,
        gammas=gammas, refinements=(dt,), t_end=2.0,
    )
    assert not rep.vacuous
    n_max = 20
    F = F_gen(scheme, dt, n_max, np.random.default_rng(0))
    zero = [GridSequence.zeros(0, 1, 1, implicit_zero=True)]
    trace = run_ibvp(scheme, zero, n_max, F=F.__getitem__, dt=dt)
    dx = dt / scheme.lam
    for k, gamma in enumerate(gammas):
        ns = accumulate_norms(trace, gamma, scheme.p, n_start=1)
        lhs = gamma / (gamma * dt + 1) * ns.interior + ns.trace
        rhs = 0.0
        for n in range(0, n_max, 2):
            rhs += ((gamma * dt + 1) / gamma * dt
                    * np.exp(-2 * gamma * (n + 1) * dt) * F[n].norm_sq(dx))
        assert rep.ratios[0, k] == lhs / rhs


def test_strong_stability_reads_the_first_n_max_plus_one_boundary_rows():
    # run_ibvp reads a longer g's first n_max + 1 rows; so does the RHS
    scheme, dt, t_end = upwind(0.5, 1.0), 0.1, 2.0
    n_max = int(round(t_end / dt))
    long_g = lambda sch, dt, n_max, rng: decaying_boundary_data(sch, n_max + 10, dt)
    cut_g = lambda sch, dt, n_max, rng: long_g(sch, dt, n_max, rng)[: n_max + 1]
    reps = [verify_strong_stability(scheme, g_gen=gen, refinements=(dt,), t_end=t_end)
            for gen in (long_g, cut_g)]
    assert len(long_g(scheme, dt, n_max, None)) == n_max + 11
    assert not reps[0].vacuous
    assert reps[0].ratios.tobytes() == reps[1].ratios.tobytes()


def test_strong_stability_with_a_source_needs_positive_gammas(monkeypatch):
    # the source's weight (gamma dt + 1)/gamma: refused before any march
    monkeypatch.setattr(sim, "_march", lambda *a: pytest.fail("marched"))
    F_gen = lambda sch, dt, n_max, rng: [
        GridSequence(1, np.ones((2, 1)), implicit_zero=True)] * n_max
    for gammas in [(0.0, 0.1), (0.1, -1.0), (np.nan,)]:
        with pytest.raises(SimError, match="gamma must be positive when F is given"):
            verify_strong_stability(upwind(0.5, 1.0), F_gen=F_gen, gammas=gammas,
                                    refinements=(0.1,), t_end=1.0)


@pytest.mark.parametrize("verify", [verify_thm1, verify_strong_stability])
def test_verifiers_refuse_a_nan_gamma(verify):
    # refused where the cells are weighted, as a negative gamma is
    with pytest.raises(SimError, match="gamma must be nonnegative, got nan"):
        verify(upwind(0.5, 1.0), gammas=(0.1, np.nan), refinements=(0.1, 0.05), t_end=2.0)


class _CountedRows(np.ndarray):
    """(n, r, N) boundary rows that record each slice of levels taken of them."""

    reads = []

    def __getitem__(self, key):
        if self.ndim == 3 and isinstance(key, slice):
            _CountedRows.reads.append(key)
        return super().__getitem__(key)


def test_verifiers_take_gamma_free_terms_once_per_entry(monkeypatch):
    # the data mass, the boundary-mass array and each source row's norm are
    # the same for every gamma: one of each per ladder entry
    calls, norm_sq = [], GridSequence.norm_sq
    monkeypatch.setattr(GridSequence, "norm_sq",
                        lambda self, dx=1.0: calls.append(dx) or norm_sq(self, dx))
    gammas, ladder = (1e-3, 1e-2, 0.1, 1.0), (0.1, 0.05, 0.025)
    verify_thm1(upwind(0.5, 1.0), gammas=gammas, refinements=ladder, t_end=2.0)
    assert len(calls) == 3
    calls.clear()
    _CountedRows.reads.clear()
    g_gen = lambda sch, dt, n_max, rng: decaying_boundary_data(
        sch, n_max, dt).view(_CountedRows)
    F_gen = lambda sch, dt, n_max, rng: [
        None if n % 3 else GridSequence(1, np.ones((2, 1)), implicit_zero=True)
        for n in range(n_max)]
    verify_strong_stability(upwind(0.5, 1.0), g_gen=g_gen, F_gen=F_gen, gammas=gammas,
                            refinements=ladder, t_end=1.2)
    assert len(calls) == sum(len(range(0, n, 3)) for n in (12, 24, 48))
    assert len(_CountedRows.reads) == 3


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


@pytest.mark.parametrize("run", [run_ibvp, run_cauchy])
def test_runs_name_the_component_counts_of_their_layers(monkeypatch, run):
    # refused before anything is allocated, naming both counts
    monkeypatch.setattr(sim, "_zeros", lambda *a: pytest.fail("allocated"))
    f = (GridSequence(0, np.ones((3, 2)), implicit_zero=True),)
    with pytest.raises(SimError, match="initial layer has 2 components, the scheme 1"):
        run(upwind(0.5, 1.0), f, 5)


def test_run_ibvp_names_the_width_of_its_boundary_rows(monkeypatch):
    monkeypatch.setattr(sim, "_zeros", lambda *a: pytest.fail("allocated"))
    f = random_layers(upwind(0.5, 1.0), n_sites=4, seed=61)
    for g in (np.zeros((6, 2)), np.zeros((6, 1, 2))):
        with pytest.raises(SimError, match="boundary rows hold 2 values, need r N = 1"):
            run_ibvp(upwind(0.5, 1.0), f, n_max=5, g=g)
    system = random_scheme(3, 2, 2, 1, 0, 0, boundary="random")
    f = random_layers(system, n_sites=4, seed=62)
    with pytest.raises(SimError, match="boundary rows hold 2 values, need r N = 4"):
        run_ibvp(system, f, n_max=5, g=np.zeros((6, 2, 1)))


def test_run_ibvp_names_the_component_count_of_a_source_row():
    f = random_layers(upwind(0.5, 1.0), n_sites=4, seed=61)
    F = lambda n: GridSequence(1, np.ones((2, 2)), implicit_zero=True)
    with pytest.raises(SimError, match=r"source row F\^0 has 2 components, the scheme 1"):
        run_ibvp(upwind(0.5, 1.0), f, 5, F=F)


def test_strong_stability_names_the_component_count_of_a_source_row():
    F_gen = lambda sch, dt, n_max, rng: [
        GridSequence(1, np.ones((2, 2)), implicit_zero=True)] * n_max
    with pytest.raises(SimError, match=r"source row F\^0 has 2 components, the scheme 1"):
        verify_strong_stability(upwind(0.5, 1.0), F_gen=F_gen, refinements=(0.5,), t_end=2.0)


def test_run_cauchy_rejects_an_empty_window():
    f = random_layers(upwind(0.5, 1.0), n_sites=4, seed=63)
    with pytest.raises(SimError, match=r"empty observation window \(3, 2\)"):
        run_cauchy(upwind(0.5, 1.0), f, 4, window=(3, 2))


def test_run_ibvp_rejects_layers_outside_the_allocation():
    scheme = lax_wendroff(0.5, 1.0)  # columns from 1 - r = 0
    with pytest.raises(SimError, match="initial layer starts at -1 < 0"):
        run_ibvp(scheme, (GridSequence(-1, np.ones((3, 1))),), n_max=2)
    # j_obs 4 allocates up to 4 + (n_max - s) p = 6
    with pytest.raises(SimError, match="initial layer extends past the allocation 6"):
        run_ibvp(scheme, (GridSequence(0, np.ones((8, 1))),), n_max=2, j_obs=4)


def test_zeros_too_large_to_hold_is_a_horizon_error(monkeypatch):
    # np.zeros raises as an allocation beyond the host's memory would
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(sim.np, "zeros", no_memory)
    with pytest.raises(SimError, match="^horizon too large: n_max 7 over a 5-column "
                                       "window needs 640 bytes$"):
        sim._zeros([(8, 5, 1)], 7, complex)


def test_boundary_source_through_level_s_is_zero():
    # s = 2 with boundary taps at every sigma: below level s + 1 there is
    # no row to reconstruct, and a level-s tap would read past V's levels
    scheme = random_scheme(3, 1, 1, 1, 0, 2, boundary="random")
    V = run_cauchy(scheme, random_layers(scheme, n_sites=4, seed=64), 2)
    for n_max in range(3):
        g = reconstruct_boundary_source(scheme, V, n_max)
        assert g.shape == (n_max + 1, 1, 1) and not g.any()


def _upwind_row(b: float) -> SchemeDef:
    """Upwind at nu = 0.5 with the boundary row U_0 = b U_1: Delta(z) has
    its zero at z_0 = 1 - nu + nu b."""
    scheme = upwind(1.0, 0.5)
    boundary = np.zeros((1, 1, 2, 1, 1))
    boundary[0, 0, 0] = b
    return SchemeDef(N=1, r=1, p=0, q=0, s=0, lam=1.0, interior=scheme.interior,
                     boundary=boundary, label="upwind-row")


def test_a_determinant_zero_on_the_scan_ring_is_an_unmet_hypothesis():
    # b = 1.02 puts z_0 = 1.01 on the delta = 1e-2 ring at theta = 0
    scheme = _upwind_row(1.02)
    issue = "determinant lower bound fails (min 0.00e+00)"
    assert sim._hypothesis_report(scheme) == (issue,)
    rep = verify_thm1(scheme, refinements=(0.1, 0.05), t_end=2.0)
    assert not rep.hypotheses_met and rep.issues == (issue,)
    assert rep.verdict.startswith(f"trace-estimate: hypotheses unmet ({issue}), growth observed")


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


@dataclass(frozen=True)
class HalfLineState:
    """Solution layers U^{n-s}..U^n on j >= 1-r with a shrinking right edge.

    ``layers[k]`` holds U^{n-s+k}; all layers start at offset 1-r and the
    newest layer has the narrowest window.  ``dt`` scales interior sources.
    """

    scheme: SchemeDef
    n: int
    layers: tuple
    dt: float = 1.0

    @property
    def edge(self) -> int:
        """Right edge of the newest layer."""
        return self.layers[-1].last

    def top(self) -> GridSequence:
        """The newest layer U^n."""
        return self.layers[-1]


def initial_state(
    scheme: SchemeDef, f_layers, pad_to: int, dt: float = 1.0
) -> HalfLineState:
    """State at n = s from initial layers f^0..f^s, zero-padded to pad_to."""
    if len(f_layers) != scheme.s + 1:
        raise SimError(f"need {scheme.s + 1} initial layers, got {len(f_layers)}")
    lo = 1 - scheme.r
    layers = []
    for f in f_layers:
        if f.offset < lo:
            raise SimError(f"initial layer starts at {f.offset} < {lo}")
        if f.last > pad_to:
            raise SimError(f"initial layer extends past the allocation {pad_to}")
        values = np.zeros((pad_to - lo + 1, scheme.N), dtype=complex)
        values[f.offset - lo : f.last - lo + 1] = f.values
        layers.append(GridSequence(lo, values, implicit_zero=f.implicit_zero))
    return HalfLineState(scheme=scheme, n=scheme.s, layers=tuple(layers), dt=dt)


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
                        dt=1.0):
    jf = max(f.last for f in f_layers)
    auto_obs = j_obs is None
    if auto_obs:
        j_obs = max(jf, 1 + scheme.q, 1) + n_max * scheme.r
    pad_to = j_obs + (n_max - scheme.s) * scheme.p
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


def _ab3_upwind(nu):
    # third-order Adams-Bashforth in time on first-order upwind: s = 2
    interior = np.zeros((2, 3, 1, 1))
    for sigma, c in enumerate((23, -16, 5)):
        interior[:, sigma, 0, 0] = (c * nu / 12, -c * nu / 12)
    interior[1, 0, 0, 0] += 1.0
    return SchemeDef(N=1, r=1, p=0, q=0, s=2, lam=0.5, interior=interior,
                     boundary=np.zeros((1, 1, 4, 1, 1)))


ORACLE_SCHEMES = {
    "upwind": upwind(0.5, 1.0),
    "lax-wendroff-extrapolation": lax_wendroff(1.0, 0.5, boundary="extrapolation"),
    "leap-frog": leap_frog(0.5, 1.0),
    "second-order-upwind": _second_order_upwind(1.3),
    "system": _system_upwind(),
    # 2x2 schemes with p = q = 1 and every boundary tap set
    **{name: random_scheme(7, 2, 1, 1, 1, s, scale=0.2, boundary="random", lam=0.7)
       for s, name in enumerate(["random", "random-three-level", "random-four-level"])},
    "ab3-upwind": _ab3_upwind(0.2),
}


def _assert_same_levels(trace, want, j_obs):
    assert trace.j_obs == j_obs
    assert len(trace.layers) == len(want)
    for got, ref in zip(trace.layers, want):
        assert got.offset == ref.offset
        assert got.implicit_zero == ref.implicit_zero
        assert got.values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("case", ["data", "boundary-data", "boundary-source",
                                  "interior-source", "explicit-window", "wide-window"])
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
        kwargs.update(j_obs=12)
    elif case == "wide-window":
        # rows of over 58 KB: a block holds at most 8 levels, so the march
        # hands over at least 4 blocks, and a scalar run ends inside one
        kwargs.update(j_obs=sim.BLOCK_BYTES // 72)
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
    # the n_max of every run marched
    calls, march = [], sim._march
    monkeypatch.setattr(sim, "_march", lambda sch, runs: calls.extend(
        run[1] for run in runs) or march(sch, runs))
    ladder = (0.1, 0.05, 0.025, 0.0125, 0.00625)
    verify_thm1(upwind(0.5, 1.0), refinements=ladder, t_end=2.0)
    assert calls == [320]
    verify_semigroup(lax_wendroff(0.5, 1.0), refinements=ladder, t_end=2.0)
    assert calls == [320, 320]


def test_verifiers_march_dt_dependent_data_once_per_dt(monkeypatch):
    # a packet per dt: each dt's run is marched once, all in one _march call
    calls, batches = _count_marches(monkeypatch), []
    march = sim._march
    monkeypatch.setattr(
        sim, "_march", lambda sch, runs: batches.append([run[1] for run in runs])
        or march(sch, runs)
    )
    ladder = (0.1, 0.05, 0.025)
    verify_thm1(leap_frog(0.5, 1.0), f_generator=_glancing_packet,
                refinements=ladder, t_end=2.0)
    assert calls == [] and batches == [[20, 40, 80]]
    batches.clear()
    verify_semigroup(leap_frog(0.5, 1.0), f_generator=_glancing_packet,
                     refinements=ladder, t_end=2.0)
    assert calls == [] and batches == [[20, 40, 80]]


@pytest.mark.parametrize("verify", [verify_thm1, verify_semigroup,
                                    verify_strong_stability])
def test_verifier_raises_the_first_failing_entrys_error(verify):
    # leap-frog at dt 0.1 has n_max 0 < s, though the dt 0.05 run exists,
    # before or after it in the ladder
    for ladder in [(0.1, 0.05), (0.05, 0.1)]:
        with pytest.raises(SimError, match="n_max must be at least s = 1"):
            verify(leap_frog(0.5, 1.0), refinements=ladder, t_end=0.05)
    if verify is verify_strong_stability:
        return  # one batch: test_strong_stability_names_the_longest_horizon
    # both horizons are too large to hold; the first one is reported
    with pytest.raises(SimError, match="horizon too large: n_max 100000000 "):
        verify(upwind(0.5, 1.0), refinements=(1e-7, 2e-8), t_end=10.0)
    # the dt 0.1 entry passes its check and the dt 1e-7 one fails it, all
    # before the first step
    with pytest.raises(SimError, match="horizon too large: n_max 100000000 "):
        verify(upwind(0.5, 1.0), refinements=(0.1, 1e-7), t_end=10.0)


def test_strong_stability_names_the_longest_horizon():
    # the ladder marches as one batch, so its arrays are allocated together:
    # dt 1e-6 at t_end 10 has a boundary source of 80 MB but a levels array
    # of 8e14 bytes, and the error names it whatever the ladder's order
    for ladder in [(0.1, 1e-6), (1e-6, 0.1)]:
        with pytest.raises(SimError, match="horizon too large: n_max 10000000 over "
                                           "a 10000002-column window needs "):
            verify_strong_stability(upwind(0.5, 1.0), refinements=ladder,
                                    t_end=10.0, gammas=(1.0,))


def test_march_raises_the_first_bad_runs_error():
    # leap-frog (s = 1, p = 1): j_obs = 0 exhausts the window on the fifth
    # step, and n_max = 0 is below s; whichever comes first in run order
    # raises what its own run_ibvp does
    scheme = leap_frog(0.5, 1.0)
    f = decaying_data(scheme, 4, seed=1)
    good = (f, 12, None, None, None, 0.1)
    short = (f, 0, None, None, None, 0.1)
    narrow = (f, 6, 0, None, None, 0.1)
    for bad in (short, narrow):
        with pytest.raises(SimError) as alone:
            run_ibvp(scheme, *bad[:5], dt=0.1)
        others = [short, narrow]
        others.remove(bad)
        with pytest.raises(SimError) as batched:
            sim._march(scheme, [good, bad] + others)
        assert str(batched.value) == str(alone.value)
    assert str(alone.value).startswith("window exhausted: right edge 1 ")


def _mixed_batch(scheme):
    """Runs of one scheme that differ in everything a run can: n_max (s
    included), data (real with -0.0 entries, complex, on the boundary rows
    only, zero), g (real with -0.0 entries, complex, none), F and j_obs."""
    rng = np.random.default_rng(29)
    s, r, N = scheme.s, scheme.r, scheme.N
    real = []
    for lay in decaying_data(scheme, 9, seed=4):
        vals = np.array(lay.values)
        vals[rng.random(vals.shape) < 0.3] = -0.0
        real.append(GridSequence(lay.offset, vals, implicit_zero=True))
    real = tuple(real)
    complex_ = random_layers(scheme, n_sites=7, seed=5)
    edge = tuple(GridSequence(1 - r, lay.values[:r], implicit_zero=True) for lay in real)
    zero = tuple(GridSequence.zeros(1 - r, 1, N, implicit_zero=True) for _ in range(s + 1))
    g_real = rng.standard_normal((41, r, N))
    g_real[rng.random(g_real.shape) < 0.3] = -0.0
    g_complex = g_real + 1j * rng.standard_normal(g_real.shape)
    # sources reaching past every run's support widen the batch's columns
    sources = [GridSequence(4 + 3 * n, rng.standard_normal((2, N)),
                            implicit_zero=n % 2 == 0) for n in range(41)]
    return [
        (real, 30, None, None, None, 0.1),
        (real, s, None, None, None, 0.1),
        (edge, 40, None, None, None, 0.05),
        (zero, 25, 14, g_real, None, 0.1),
        (complex_, 17, None, None, None, 0.2),
        (zero, 12, None, g_complex, None, 0.1),
        (real, 22, None, g_real, sources.__getitem__, 0.1),
        (edge, 33, 6, None, None, 0.1),
    ]


@pytest.mark.parametrize("name", list(ORACLE_SCHEMES))
def test_batched_march_matches_single_runs_bit_for_bit(name):
    scheme = ORACLE_SCHEMES[name]
    runs = _mixed_batch(scheme)
    traces = sim._march(scheme, runs)
    dtypes = {trace.levels.dtype for trace in traces}
    assert dtypes == ({np.dtype(float), np.dtype(complex)} if scheme.N == 1
                      else {np.dtype(complex)})
    for (f, n_max, j_obs, g, F, dt), trace in zip(runs, traces):
        want = run_ibvp(scheme, f, n_max, j_obs=j_obs, g=g, F=F, dt=dt)
        assert trace.levels.dtype == want.levels.dtype
        assert trace.levels.tobytes() == want.levels.tobytes()
        assert (trace.offset, trace.j_obs, trace.zero_flags, trace.dt) == (
            want.offset, want.j_obs, want.zero_flags, want.dt)


def test_strong_stability_ladder_and_split_march_once(monkeypatch):
    # the whole dt ladder is one batch, and U and W are one after V's
    batches = []
    march_batch = sim._march_batch
    monkeypatch.setattr(sim, "_march_batch", lambda scheme, batch, *cone: batches.append(
        [run.n_max for run in batch]) or march_batch(scheme, batch, *cone))
    scheme = upwind(0.5, 1.0)
    verify_strong_stability(scheme, refinements=(0.1, 0.025, 0.05), t_end=2.0)
    assert batches == [[80, 40, 20]]
    split_solution(scheme, decaying_data(scheme, 8, seed=1), 30)
    assert batches[1:] == [[30], [30, 30]]


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
    "ab3-upwind": (ORACLE_SCHEMES["ab3-upwind"], 10.0),
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


def _reference_strong_ratios(scheme, refinements, t_end, gammas=sim.DEFAULT_GAMMAS):
    """verify_strong_stability's ratios from a fresh run at every dt."""
    s = scheme.s
    zero = [GridSequence.zeros(1 - scheme.r, 1, scheme.N, implicit_zero=True)
            for _ in range(s + 1)]
    ratios = np.zeros((len(refinements), len(gammas)))
    for i, dt in enumerate(refinements):
        n_max = int(round(t_end / dt))
        g = decaying_boundary_data(scheme, n_max, dt, seed=0)
        trace = run_ibvp(scheme, zero, n_max, g=g, dt=dt)
        gmass = np.sum(np.abs(g) ** 2, axis=(1, 2))
        for k, gamma in enumerate(gammas):
            ns = accumulate_norms(trace, gamma, scheme.p, n_start=s + 1)
            weights = np.exp(-2 * gamma * np.arange(n_max + 1) * dt)
            rhs = float(np.sum(dt * weights[s + 1 :] * gmass[s + 1 :]))
            ratios[i, k] = (gamma / (gamma * dt + 1) * ns.interior + ns.trace) / rhs
    return ratios


@pytest.mark.parametrize("name", list(LADDER_SCHEMES))
@np.errstate(all="ignore")
def test_strong_stability_matches_per_dt_runs_bit_for_bit(name):
    scheme, t_end = LADDER_SCHEMES[name]
    ladder = (0.1, 0.05, 0.025)
    rep = verify_strong_stability(scheme, refinements=ladder, t_end=t_end, seed=0)
    want = _reference_strong_ratios(scheme, ladder, t_end)
    assert rep.ratios.tobytes() == want.tobytes()


@pytest.mark.parametrize("verify", [verify_thm1, verify_strong_stability,
                                    verify_semigroup])
@pytest.mark.parametrize("scheme", [upwind(0.5, 1.0), leap_frog(0.7, 1.0)],
                         ids=["upwind", "leap-frog"])
def test_ladder_verifiers_hold_no_whole_trace(verify, scheme):
    # at dt 0.00625 one float trace of the ladder takes 20.4 MB; the
    # verifiers reduce the march block by block instead of holding it
    tracemalloc.start()
    try:
        verify(scheme, refinements=(0.1, 0.05, 0.025, 0.0125, 0.00625), t_end=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_reading_split_layers_copies_no_whole_trace():
    # U at n_max 1600 takes 21 MB as floats and 43 MB cast to complex;
    # a level is built, and cast, only when read, and W's norms are
    # reduced a block of levels at a time
    scheme = upwind(0.5, 1.0)
    split = split_solution(scheme, decaying_data(scheme, 64, seed=1), 1600)
    tracemalloc.start()
    try:
        assert len(split.U.layers) == 1601
        assert split.U.layers[-1].values.shape == split.U.levels[-1].shape
        assert split.U.layers[800].get(5).shape == (1,)
        accumulate_norms(split.W, 0.1, P=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("data", ["float", "complex"])
def test_layers_view_is_the_complex_cast_of_each_level(data):
    scheme = lax_wendroff(0.5, 1.0)
    f = decaying_data(scheme, 6, seed=4) if data == "float" else random_layers(scheme, 6, 4)
    for trace in (run_ibvp(scheme, f, 12), run_cauchy(scheme, f, 12),
                  run_ibvp(scheme, f, 12, j_obs=3)):
        assert trace.levels.dtype == (float if data == "float" else complex)
        layers = trace.layers
        assert len(layers) == trace.n_max + 1 == 13
        for n in [*range(13), -1, -13]:
            want = trace.levels[n].astype(complex)
            assert layers[n].values.tobytes() == want.tobytes()
            assert layers[n].offset == trace.offset
            assert layers[n].implicit_zero == trace.zero_flags[n]
        assert [lay.values.tobytes() for lay in layers] == [
            lev.astype(complex).tobytes() for lev in trace.levels]
        for n in (13, -14):
            with pytest.raises(IndexError):
                layers[n]


@pytest.mark.parametrize("name", list(ORACLE_SCHEMES))
def test_ladder_cuts_equal_their_own_runs(name):
    # a coarse entry of the shared-data ladder reduces its own run's window,
    # not the long march's; an entry of the strong-stability ladder (zero
    # layers, boundary data) reduces its own run
    scheme = ORACLE_SCHEMES[name]
    keep = lambda sq, levels: (sq.copy(), levels.copy())
    zero = [GridSequence.zeros(1 - scheme.r, 1, scheme.N, implicit_zero=True)
            for _ in range(scheme.s + 1)]
    boundary = lambda sch, dt, n_max, rng: decaying_boundary_data(sch, n_max, dt)
    for f_gen, g_gen in [(None, None), (lambda *_: zero, boundary)]:
        for dt, data, (sq, levels) in sim._ladder_sums(
            scheme, (0.1, 0.05, 0.025), 2.0, 0, keep, f_gen, g_gen
        ):
            want = run_ibvp(scheme, data.f, int(round(2.0 / dt)), g=data.g, dt=dt)
            assert (data.f is zero) == (g_gen is boundary)
            assert levels.dtype == want.levels.dtype
            assert levels.tobytes() == want.levels.tobytes()
            assert sq.tobytes() == sim._abs_sq(want.levels).tobytes()


@pytest.mark.parametrize("verify", [verify_thm1, verify_semigroup,
                                    verify_strong_stability])
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


@pytest.mark.parametrize("scheme", [upwind(0.5, 1.0), leap_frog(0.5, 1.0)],
                         ids=["upwind", "leap-frog"])
def test_split_builds_no_per_level_sequences(monkeypatch, scheme):
    # the boundary source and the U = V + W check read the levels arrays
    f = random_layers(scheme, n_sites=6, seed=7)
    calls = []
    post_init = GridSequence.__post_init__
    monkeypatch.setattr(GridSequence, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    split_solution(scheme, f, n_max=40)
    assert len(calls) < 20


def _reference_mismatch(U_levels, V_levels, W_levels):
    # the per-level loop split_solution ran before the blocked reduction
    mism = 0.0
    for u, v, w in zip(U_levels, V_levels, W_levels):
        mism = max(mism, float(np.max(np.abs(u - v - w))))
    return mism


@pytest.mark.parametrize("name", list(ORACLE_SCHEMES))
def test_split_mismatch_matches_per_level_loop(name):
    scheme = ORACLE_SCHEMES[name]
    split = split_solution(scheme, random_layers(scheme, n_sites=7, seed=5), n_max=60)
    want = _reference_mismatch(split.U.levels, split.V.levels, split.W.levels)
    assert want > 0.0 and repr(split.max_mismatch) == repr(want)


def test_split_mismatch_passes_over_nan_levels():
    # 64-byte levels, 8192 to a block: these span three blocks
    rng = np.random.default_rng(3)
    u, v, w = (rng.standard_normal((20000, 4, 2)) for _ in range(3))
    u[5, 1, 0] = np.nan  # a NaN level inside a block
    u[8192:16384] = np.nan  # and a whole block of them
    want = _reference_mismatch(u, v, w)
    assert repr(sim._max_level_mismatch(u, v, w)) == repr(want)
    nan = slice(8192, 16384)
    assert sim._max_level_mismatch(u[nan], v[nan], w[nan]) == 0.0


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


@pytest.mark.parametrize("name", list(SCALAR_SCHEMES))
def test_scalar_taps_complex_run_ibvp_matches_reference_steps(name):
    # complex data and boundary rows keep a scalar run in complex128
    scheme = SCALAR_SCHEMES[name]
    f = _signed_zero_layers(scheme, 11, 1 - scheme.r, seed=47)
    rng = np.random.default_rng(53)
    g = rng.standard_normal((26, scheme.r, 1)) + 1j * rng.standard_normal((26, scheme.r, 1))
    g.imag[rng.random(g.shape) < 0.25] = -0.0
    for kwargs in ({}, {"g": g}):
        trace = run_ibvp(scheme, f, 25, dt=0.1, **kwargs)
        assert trace.levels.dtype == np.complex128
        want, j_obs = _reference_run_ibvp(scheme, f, 25, dt=0.1, **kwargs)
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


# ---------------------------------------------------------------------------
# real scalar problems march in float64


def _minus_zero_imag(layers):
    """The layers with one imaginary part set to -0.0."""
    vals = np.array(layers[0].values)
    vals.imag[0] = -0.0
    return (GridSequence(layers[0].offset, vals, implicit_zero=True),) + tuple(layers[1:])


MARCH_DTYPE_CASES = {
    "real-data": (upwind(0.5, 1.0), "real", {}, float),
    "real-g-array": (upwind(0.5, 1.0), "real", {"g": np.ones((9, 1, 1))}, float),
    "complex-data": (upwind(0.5, 1.0), "complex", {}, complex),
    "minus-zero-imag": (upwind(0.5, 1.0), "minus-zero", {}, complex),
    "system": (_system_upwind(), "real", {}, complex),
    "complex-g-array": (upwind(0.5, 1.0), "real", {"g": np.full((9, 1, 1), 1j)}, complex),
    "minus-zero-g": (upwind(0.5, 1.0), "real", {"g": np.full((9, 1, 1), complex(1, -0.0))},
                     complex),
    "zero-F": (upwind(0.5, 1.0), "real",
               {"F": lambda n: GridSequence.zeros(1, 1, 1, implicit_zero=True)}, complex),
}


@pytest.mark.parametrize("name", list(MARCH_DTYPE_CASES))
def test_march_dtype_follows_the_input(name):
    scheme, data, kwargs, dtype = MARCH_DTYPE_CASES[name]
    f = decaying_data(scheme, 6, seed=2)
    if data == "complex":
        f = random_layers(scheme, n_sites=6, seed=2)
    elif data == "minus-zero":
        f = _minus_zero_imag(f)
    trace = run_ibvp(scheme, f, 8, **kwargs)
    assert trace.levels.dtype == np.dtype(dtype)
    assert all(lay.values.dtype == np.complex128 for lay in trace.layers)
    if not kwargs:  # the whole line takes neither g nor F
        assert run_cauchy(scheme, f, 8).levels.dtype == np.dtype(dtype)


@st.composite
def _real_data(draw, population):
    """A scalar scheme of ``population`` with real data holding zeros and
    -0.0: on j >= 1-r, on the boundary rows only, or zero with a real
    boundary source."""
    scheme = draw(population)
    r, s = scheme.r, scheme.s
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_max = 12
    case = draw(st.sampled_from(["data", "boundary-data", "boundary-source"]))
    n_sites = {"data": 7, "boundary-data": r, "boundary-source": 1}[case]
    layers = []
    for _ in range(s + 1):
        vals = rng.standard_normal((n_sites, 1))
        vals[rng.random(vals.shape) < 0.25] = 0.0
        vals[rng.random(vals.shape) < 0.25] = -0.0
        if case == "boundary-source":
            vals[:] = 0.0
        layers.append(GridSequence(1 - r, vals, implicit_zero=True))
    g = None
    if case == "boundary-source":
        g = rng.standard_normal((n_max + 1, r, 1))
        g[rng.random(g.shape) < 0.25] = -0.0
    return scheme, tuple(layers), n_max, g


@settings(max_examples=60)
@given(_real_data(schemes(N=(1, 1), q=(0, 2), consistent=True, boundary="random")))
def test_real_scalar_march_matches_complex_oracles_bit_for_bit(problem):
    scheme, f, n_max, g = problem
    trace = run_ibvp(scheme, f, n_max, g=g)
    assert trace.levels.dtype == np.float64
    want, j_obs = _reference_run_ibvp(scheme, f, n_max, g=g)
    _assert_same_levels(trace, want, j_obs)
    if g is None:
        trace = run_cauchy(scheme, f, n_max)
        assert trace.levels.dtype == np.float64
        want, j_obs = _reference_run_cauchy(scheme, f, n_max)
        _assert_same_levels(trace, want, j_obs)


@np.errstate(all="ignore")
def test_real_march_overflows_where_the_complex_oracle_does():
    # second-order upwind at nu = 3 grows by up to 7 a step: data near
    # 1e300 overflow within a few steps, and the rest stays finite
    scheme = _second_order_upwind(3.0)
    f = tuple(GridSequence(lay.offset, 1e300 * lay.values.real, implicit_zero=True)
              for lay in decaying_data(scheme, 9, seed=5))
    runs = [(run_ibvp(scheme, f, 30), _reference_run_ibvp(scheme, f, 30)[0]),
            (run_cauchy(scheme, f, 30), _reference_run_cauchy(scheme, f, 30)[0])]
    for trace, want in runs:
        assert trace.levels.dtype == np.float64
        got = np.array([lay.values for lay in trace.layers])
        ref = np.array([lay.values for lay in want])
        finite = np.isfinite(ref)
        assert 0 < finite.sum() < finite.size
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == ref[finite].tobytes()


# ---------------------------------------------------------------------------
# whole-line runs march only the window's backward cone


def _layers_on(scheme, lo, hi, seed, real=False):
    """Random layers on columns lo..hi, complex or real."""
    layers = random_layers(scheme, n_sites=hi - lo + 1, seed=seed)
    return tuple(GridSequence(lo, lay.values.real if real else lay.values,
                              implicit_zero=True) for lay in layers)


# taps reaching two columns right: a slice that wrapped round the buffer
# would then read past its end
CONE_SCHEMES = dict(ORACLE_SCHEMES, **{"two-right": SchemeDef(
    N=1, r=1, p=2, q=0, s=0, lam=1.0,
    interior=np.array([0.1, 0.5, 0.3, 0.1]).reshape(4, 1, 1, 1),
    boundary=np.zeros((1, 1, 2, 1, 1)),
)})


@pytest.mark.parametrize("window", [(0, 0), (1, 1), (-3, 5), (300, 302)])
@pytest.mark.parametrize("name", list(CONE_SCHEMES))
def test_run_cauchy_cut_to_the_cone_matches_reference_loop(name, window):
    # data reaching past the window's backward cone on either side or both,
    # or lying wholly outside it, and one window far off the data; the 2x2
    # s = 0 scheme's one-column windows end on the one-row BLAS product
    scheme = CONE_SCHEMES[name]
    n_max = 20
    cone0, cone1 = window[0] - n_max * scheme.r, window[1] + n_max * scheme.p
    placements = {
        "left": (cone0 - 6, window[0]),
        "right": (window[1], cone1 + 6),
        "both": (cone0 - 6, cone1 + 6),
        "outside-left": (cone0 - 15, cone0 - 6),
        "outside-right": (cone1 + 2, cone1 + 15),
        "next-to-the-cone": (cone0 - 3, cone0 - 1),
    }
    if window[0] > 100:
        placements = {"far-off": (-10, 10)}
    for seed, (lo, hi) in enumerate(placements.values()):
        for real in (False, True):
            f = _layers_on(scheme, lo, hi, seed, real=real)
            trace = run_cauchy(scheme, f, n_max, window=window)
            want, j_obs = _reference_run_cauchy(scheme, f, n_max, window=window)
            _assert_same_levels(trace, want, j_obs)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("name", list(CONE_SCHEMES))
def test_run_cauchy_hands_over_blocks_of_a_wide_window(name, real):
    # rows of over 58 KB: a block holds at most 8 levels, so a whole-line
    # run hands over several blocks and ends inside one; data inside the
    # window, and data reaching past the cone's right edge, which binds
    # before the support's
    scheme = CONE_SCHEMES[name]
    n_max, width = 30, sim.BLOCK_BYTES // 72
    window = (-width // 2, width - width // 2 - 1)
    cone1 = window[1] + n_max * scheme.p
    for seed, (lo, hi) in enumerate([(-20, 20), (cone1 - 6, cone1 + 6)]):
        f = _layers_on(scheme, lo, hi, seed, real=real)
        trace = run_cauchy(scheme, f, n_max, window=window)
        want, j_obs = _reference_run_cauchy(scheme, f, n_max, window=window)
        _assert_same_levels(trace, want, j_obs)


@pytest.mark.parametrize("name", ["upwind", "leap-frog", "random-three-level"])
def test_run_cauchy_marches_no_more_than_the_cone(monkeypatch, name):
    # data 4,001 columns wide against a cone at most 2 * 50 + 1 wide: each
    # level takes one tap call over its cone, the spare columns and the
    # s * (r + p) columns of an allocation counted from level 0, not s
    scheme = ORACLE_SCHEMES[name]
    r, p, s, n_max = scheme.r, scheme.p, scheme.s, 50
    rows = []
    apply_taps = sim._apply_taps
    monkeypatch.setattr(sim, "_apply_taps",
                        lambda out, *a: rows.append(len(out)) or apply_taps(out, *a))
    run_cauchy(scheme, _layers_on(scheme, -2000, 2000, seed=1), n_max, window=(0, 0))
    cone = sum((n_max - m) * (r + p) + 1 for m in range(s + 1, n_max + 1))
    assert 0 < sum(rows) <= cone + (s * (r + p) + 2) * (n_max - s)


def _cauchy_runs(scheme, window):
    """Runs of several n_max, data widths and offsets, complex and real data:
    inside the window, inside the longest run's cone only, outside every
    cone, and a run with n_max < s for s >= 1."""
    lo, hi = window or (0, 0)
    placements = [(20, lo - 4, hi + 4), (7, lo - 18, lo - 10), (13, hi + 2, hi + 40),
                  (20, hi + 50, hi + 60), (scheme.s, lo - 2, lo + 2), (3, lo, lo),
                  (max(scheme.s - 1, 0), hi - 1, hi + 1)]
    return [(_layers_on(scheme, a, b, seed, real=seed % 2 == 1), n_max, 0.1 * (seed + 1))
            for seed, (n_max, a, b) in enumerate(placements)]


def _march_whole_line(scheme, runs, window):
    """sim._march of whole-line runs given as (f_layers, n_max, dt)."""
    return sim._march(scheme, [(f, n_max, None, None, None, dt) for f, n_max, dt in runs],
                      whole_line=window)


@pytest.mark.parametrize("window", [(0, 0), (-3, 5), None], ids=str)
@pytest.mark.parametrize("name", list(CONE_SCHEMES))
def test_cauchy_runs_keep_the_bits_of_lone_runs(name, window):
    scheme = CONE_SCHEMES[name]
    runs = _cauchy_runs(scheme, window)
    traces = _march_whole_line(scheme, runs, window)
    assert len({(t.offset, t.j_obs) for t in traces}) == 1
    for (f, n_max, dt), trace in zip(runs, traces):
        # a None window is every run's support: the lone run over it
        alone = run_cauchy(scheme, f, n_max, window=(trace.offset, trace.j_obs), dt=dt)
        assert (trace.dt, trace.offset, trace.j_obs) == (dt, alone.offset, alone.j_obs)
        assert trace.zero_flags == (window is None,) * (n_max + 1)
        assert trace.levels.dtype == alone.levels.dtype
        assert trace.levels.tobytes() == alone.levels.tobytes()
        if window is None:  # it holds the lone auto-window trace
            auto = run_cauchy(scheme, f, n_max, dt=dt)
            cols = slice(auto.offset - trace.offset, auto.j_obs + 1 - trace.offset)
            assert trace.levels[:, cols].tobytes() == auto.levels.tobytes()


@pytest.mark.parametrize("name", list(CONE_SCHEMES))
def test_cauchy_marches_scalar_runs_of_one_dtype_together(monkeypatch, name):
    scheme = CONE_SCHEMES[name]
    runs = [run for run in _cauchy_runs(scheme, (0, 0)) if run[1] >= scheme.s]
    batches = []
    march_batch = sim._march_batch
    monkeypatch.setattr(sim, "_march_batch",
                        lambda sch, batch, cone: batches.append(len(batch))
                        or march_batch(sch, batch, cone))
    _march_whole_line(scheme, runs, (0, 0))
    # one batch per dtype for a scalar scheme, one run a batch for a system
    dtypes = Counter(sim._march_dtype(scheme, f) for f, _, _ in runs)
    assert sorted(batches) == ([1] * len(runs) if scheme.N > 1 else sorted(dtypes.values()))
    assert len(dtypes) == 2 or scheme.N > 1


def test_cauchy_checks_runs_in_order():
    scheme = leap_frog(0.5, 1.0)
    f = _layers_on(scheme, 0, 4, seed=1)
    bad = _layers_on(scheme, 0, 4, seed=2)[:1]
    with pytest.raises(SimError, match="n_max must be nonnegative"):
        _march_whole_line(scheme, [(f, 3, 0.1), (f, -1, 0.1), (bad, 3, 0.1)], (0, 0))
    with pytest.raises(SimError, match="need 2 initial layers"):
        _march_whole_line(scheme, [(f, 3, 0.1), (bad, 3, 0.1), (f, -1, 0.1)], (0, 0))
    with pytest.raises(SimError, match="empty observation window"):
        _march_whole_line(scheme, [(f, 3, 0.1)], (2, 1))


# ---------------------------------------------------------------------------
# the U = V + W check is relative to each level's size


@pytest.mark.parametrize("n_max", [20, 100])
def test_split_accepts_rounding_of_a_growing_solution(n_max):
    # second-order upwind at nu = 3 grows: |U| reaches 2.8e15 at n_max 20
    # and 3.3e82 at 100, and the split's rounding grows with it
    scheme = _second_order_upwind(3.0)
    f = decaying_data(scheme, 20, seed=1)
    split = split_solution(scheme, f, n_max)
    assert split.max_mismatch > 1e-12 * max(1.0, max(np.abs(lay.values).max() for lay in f))
    sizes = np.abs(split.U.levels).max(axis=(1, 2))
    mism = np.abs(split.U.levels - split.V.levels - split.W.levels).max(axis=(1, 2))
    assert np.all(mism <= 1e-12 * np.fmax(sizes, 1.0))


@settings(max_examples=60)
@given(schemes(q=(0, 2), boundary="random"), st.integers(0, 2**32 - 1))
def test_split_is_exact_on_random_schemes(scheme, seed):
    f = random_layers(scheme, n_sites=6, seed=seed)
    split = split_solution(scheme, f, n_max=25)
    floor = max([1.0] + [float(np.abs(lay.values).max()) for lay in f])
    sizes = np.fmax(np.abs(split.U.levels).max(axis=(1, 2)), floor)
    mism = np.abs(split.U.levels - split.V.levels - split.W.levels).max(axis=(1, 2))
    assert np.all(mism <= 1e-12 * sizes)


@pytest.mark.parametrize("scheme", [_second_order_upwind(3.0), upwind(0.5, 1.0)],
                         ids=["growing", "upwind"])
def test_split_raises_on_a_perturbed_boundary_source(monkeypatch, scheme):
    reconstruct = sim.reconstruct_boundary_source

    def perturbed(scheme, V, n_max):
        g = reconstruct(scheme, V, n_max)
        g[10, 0] += 1e-9 * max(1.0, np.abs(V.levels[10]).max())
        return g

    monkeypatch.setattr(sim, "reconstruct_boundary_source", perturbed)
    with pytest.raises(SimError, match="splitting identity violated.*at level 10"):
        split_solution(scheme, decaying_data(scheme, 20, seed=1), 20)


def _raising_scan(exc):
    def scan(*args, **kwargs):
        raise exc
    return scan


_SHORT = dict(refinements=(0.1, 0.05), t_end=1.0)


@pytest.mark.parametrize("verify", [verify_thm1, verify_strong_stability,
                                    verify_semigroup])
def test_programming_error_in_the_scan_propagates(monkeypatch, verify):
    monkeypatch.setattr(sim, "uklc_scan", _raising_scan(TypeError("bad call")))
    with pytest.raises(TypeError, match="bad call"):
        verify(upwind(0.5, 1.0), **_SHORT)


@pytest.mark.parametrize("verify", [verify_thm1, verify_strong_stability])
def test_split_count_error_is_a_failed_hypothesis(monkeypatch, verify):
    monkeypatch.setattr(sim, "uklc_scan",
                        _raising_scan(SplitCountError("wrong counts")))
    rep = verify(upwind(0.5, 1.0), **_SHORT)
    assert not rep.hypotheses_met
    assert rep.issues == ("determinant scan failed: wrong counts",)


def test_split_count_error_makes_uklc_implausible(monkeypatch):
    monkeypatch.setattr(sim, "uklc_scan",
                        _raising_scan(SplitCountError("wrong counts")))
    assert not verify_semigroup(upwind(0.5, 1.0), **_SHORT).uklc_plausible
    monkeypatch.undo()
    assert verify_semigroup(upwind(0.5, 1.0), **_SHORT).uklc_plausible


# ---------------------------------------------------------------------------
# one tap table per scheme


def test_runs_read_the_taps_from_one_table(monkeypatch):
    # every A and B block is read once, by the table's build, however many
    # runs, splits and serializations read the scheme's taps
    reads, A, B = [], SchemeDef.A, SchemeDef.B
    monkeypatch.setattr(SchemeDef, "A", lambda self, *k: reads.append(("A", *k)) or A(self, *k))
    monkeypatch.setattr(SchemeDef, "B", lambda self, *k: reads.append(("B", *k)) or B(self, *k))
    scheme = random_scheme(5, 2, 2, 1, 1, 1, boundary="random")
    f = random_layers(scheme, n_sites=6, seed=8)
    for _ in range(3):
        run_ibvp(scheme, f, 6)
        run_cauchy(scheme, f, 6)
        split_solution(scheme, f, 6)
        scheme.interior_op(0)
        scheme_to_dict(scheme)
    r, p, q, s = scheme.r, scheme.p, scheme.q, scheme.s
    assert len(reads) == len(set(reads)) == (p + r + 1) * (s + 1) + (q + 1) * r * (s + 2)


class _Unread:
    """A tap list that fails when read."""

    def _read(self, *_):
        raise LookupError("boundary taps read")

    __iter__ = __len__ = __getitem__ = _read


@pytest.mark.parametrize("name", ["lax-wendroff-extrapolation", "random-three-level"])
def test_whole_line_runs_read_no_boundary_taps(name):
    scheme = ORACLE_SCHEMES[name]
    f = _layers_on(scheme, -5, 5, seed=3)
    want = run_cauchy(scheme, f, 12)
    blind = SchemeDef(scheme.N, scheme.r, scheme.p, scheme.q, scheme.s, scheme.lam,
                      scheme.interior, scheme.boundary)
    vars(blind)["tap_table"] = (scheme.tap_table[0], _Unread())
    assert run_cauchy(blind, f, 12).levels.tobytes() == want.levels.tobytes()
    with pytest.raises(LookupError, match="boundary taps read"):
        run_ibvp(blind, random_layers(scheme, seed=3), 12)


# ---------------------------------------------------------------------------
# a step writes its new row from its first tap


def _negative_taps(N, r, p, q, s, boundary):
    """Every interior tap entry negative, so a product with a +0.0 column is
    -0.0 at every tap; boundary rows zero or every entry negative too."""
    rng = np.random.default_rng(11 + N + s)
    interior = -rng.uniform(0.05, 0.3, (p + r + 1, s + 1, N, N))
    rows = -rng.uniform(0.05, 0.3, (q + 1, r, s + 2, N, N))
    return SchemeDef(N, r, p, q, s, 0.5, interior,
                     rows if boundary == "negative" else np.zeros_like(rows))


NEGATIVE_SCHEMES = {
    "scalar": _negative_taps(1, 1, 1, 1, 0, "negative"),
    "scalar-dirichlet": _negative_taps(1, 1, 0, 0, 0, "zero"),
    "three-level-dirichlet": _negative_taps(1, 2, 1, 0, 1, "zero"),
    "system": _negative_taps(2, 1, 1, 1, 1, "negative"),
    # no interior tap: the new row is the empty sum
    "no-interior-taps": SchemeDef(1, 1, 0, 1, 0, 0.5, np.zeros((2, 1, 1, 1)),
                                  -np.full((2, 1, 2, 1, 1), 0.25)),
}


def _signed_layers(scheme, kind):
    """Layers on columns 1-r..14, nonzero on boundary columns too, with
    zero columns between the entries: signed zeros and finite values, the
    same times 1 - 1j (a complex march), or complex with an inf and a NaN."""
    values = np.array([1.0, -0.0, 0.0, 0.0, -0.5, -0.0, 0.0, 0.0, 2.0, -0.0, 0.0, 0.0, 0.0, 0.0,
                       0.0, 0.0][: scheme.r + 14], dtype=complex)
    if kind == "complex":
        values *= 1 - 1j
    elif kind == "non-finite":
        values[[4, 8]] = np.inf, np.nan
        values[0] = 1j
    return tuple(GridSequence(1 - scheme.r, np.roll(values, k)[:, None] * np.ones(scheme.N),
                              implicit_zero=True) for k in range(scheme.s + 1))


@np.errstate(all="ignore")
@pytest.mark.parametrize("kind", ["real", "complex", "non-finite"])
@pytest.mark.parametrize("name", list(NEGATIVE_SCHEMES))
def test_steps_keep_the_bits_of_a_zero_filled_row(name, kind):
    # products with zero columns are all -0.0, which the reference loops'
    # +0.0 fill turns into +0.0; a j_obs of over 58 KB rows makes the ring
    # reuse its rows, so boundary columns left unfilled would hold old levels
    scheme = NEGATIVE_SCHEMES[name]
    f = _signed_layers(scheme, kind)
    for j_obs in (None, sim.BLOCK_BYTES // 72):
        trace = run_ibvp(scheme, f, 20, j_obs=j_obs)
        assert trace.levels.dtype == (np.float64 if kind == "real" and scheme.N == 1 else complex)
        _assert_same_levels(trace, *_reference_run_ibvp(scheme, f, 20, j_obs=j_obs))
    for window in (None, (-2, 3)):
        trace = run_cauchy(scheme, f, 20, window=window)
        _assert_same_levels(trace, *_reference_run_cauchy(scheme, f, 20, window=window))


@pytest.mark.parametrize("name", ["upwind", "leap-frog", "random-three-level", "ab3-upwind"])
def test_a_level_is_one_interior_tap_call(monkeypatch, name):
    # one call writes the interior, and one adds onto each boundary row with
    # taps, or onto every row when the batch has g
    scheme = ORACLE_SCHEMES[name]
    rows_with_taps = sum(map(bool, scheme.tap_table[1]))
    calls = []
    apply_taps = sim._apply_taps
    monkeypatch.setattr(sim, "_apply_taps", lambda out, sources, start, taps, zero=None: (
        calls.append(zero is not None) or apply_taps(out, sources, start, taps, zero)))
    f, n_max = random_layers(scheme, seed=4), 25
    g = np.ones((n_max + 1, scheme.r, scheme.N))
    for run, boundary_calls in [(lambda: run_ibvp(scheme, f, n_max), rows_with_taps),
                                (lambda: run_ibvp(scheme, f, n_max, g=g), scheme.r),
                                (lambda: run_cauchy(scheme, f, n_max), 0)]:
        calls.clear()
        run()
        assert (calls.count(True), calls.count(False)) == (n_max - scheme.s,
                                                           boundary_calls * (n_max - scheme.s))
