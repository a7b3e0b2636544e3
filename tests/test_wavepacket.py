"""Tests for band-limited envelopes, polarized packets, and trace growth."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from dibvp import sim, wavepacket
from dibvp.core import GridSequence, SchemeDef, leap_frog, upwind
from dibvp.sim import run_cauchy
from dibvp.symbol import amplification_matrix, group_velocity
from dibvp.wavepacket import (
    ENVELOPE_TOL,
    WavepacketError,
    approx_solution,
    glancing_trace_experiment,
    make_envelope,
    make_packet,
    packet_error,
    packet_initial_data,
    stacked_state,
)

LF = leap_frog(0.5, 1.0)
UP = upwind(0.5, 1.0)


def coupled_scheme():
    """Two-component one-step scheme mixing an exact shift with a damped
    upwind branch through a non-orthogonal similarity; the carrier at
    xi = pi/2 keeps one unit-modulus branch and one decaying branch."""
    R = np.array([[1.0, 0.3], [0.2, 1.0]])
    Ri = np.linalg.inv(R)
    interior = np.zeros((2, 1, 2, 2))
    interior[0, 0] = R @ np.diag([1.0, 0.5]) @ Ri
    interior[1, 0] = R @ np.diag([0.0, 0.5]) @ Ri
    return SchemeDef(
        N=2, r=1, p=0, q=0, s=0, lam=0.5,
        interior=interior, boundary=np.zeros((1, 1, 2, 2, 2)),
        label="coupled shift/upwind",
    )


@pytest.fixture(scope="module")
def env():
    return make_envelope(0.5)


@pytest.fixture(scope="module")
def glancing_spec(env):
    return make_packet(LF, np.pi / 2, env, branch=1)


@pytest.fixture(scope="module")
def transport_spec(env):
    return make_packet(UP, 0.0, env)


# ---------------------------------------------------------------------------
# envelope


def test_envelope_rejects_nonpositive_width():
    with pytest.raises(WavepacketError):
        make_envelope(0.0)
    with pytest.raises(WavepacketError):
        make_envelope(-1.0)


def test_envelope_quadrature_certified(env):
    assert env.quad_error <= 1e-10
    assert env.nodes.size >= 32
    assert env.x_certified == pytest.approx(320.0)


def test_envelope_real_and_even(env):
    x = np.linspace(-30.0, 30.0, 121)
    vals = env(x)
    assert np.max(np.abs(vals.imag)) <= 1e-14
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-14


def test_envelope_value_at_zero_matches_transform_integral(env):
    # a(0) = (1/2 pi) integral of the bump; the integrand is C-infinity
    # with all derivatives vanishing at the endpoints, so the trapezoid
    # rule converges faster than any power and is an independent oracle
    xi = np.linspace(-env.delta0 / 2, env.delta0 / 2, 20001)
    oracle = np.trapezoid(env.fourier(xi), xi) / (2 * np.pi)
    assert env.value_at_zero == pytest.approx(oracle, abs=1e-12)
    assert env.value_at_zero > 0


def test_envelope_riemann_sum_matches_l2_norm(env):
    for dx in (0.2, 0.1):
        j = np.arange(-int(env.x_certified / dx), int(env.x_certified / dx) + 1)
        riemann = float(dx * np.sum(np.abs(env(j * dx)) ** 2))
        assert riemann == pytest.approx(env.norm_l2_sq, rel=0.01)


def test_envelope_dilation_law(env):
    # doubling the spectral width halves the spatial width: a_2d(x) = 2 a_d(2x)
    wide = make_envelope(1.0)
    x = np.linspace(-10.0, 10.0, 81)
    assert np.max(np.abs(wide(x) - 2.0 * env(2.0 * x))) <= 1e-12


def test_envelope_transform_support(env):
    edge = env.delta0 / 2
    assert env.fourier(0.0) == pytest.approx(np.exp(-1.0))
    assert env.fourier(edge + 1e-9) == 0.0
    assert env.fourier(-edge - 1e-9) == 0.0
    assert env.fourier(edge * 0.999) > 0.0


def test_envelope_tail_decays_with_certified_range(env):
    # the bump transform decays like exp(-c sqrt(x)): modest at the
    # default range, machine-dominated when the range is extended
    assert abs(env(env.x_certified)) <= 1e-4 * env.value_at_zero
    far = make_envelope(0.5, x_max=2000.0)
    assert abs(far(far.x_certified)) <= 1e-8 * far.value_at_zero


def test_envelope_norm_positive(env):
    assert env.norm_l2_sq > 0


@pytest.mark.parametrize("delta0", [0.2, 0.5, 1.0])
def test_envelope_on_grid_matches_pointwise(delta0):
    envelope = make_envelope(delta0)
    tol = 1e-13 * envelope.value_at_zero
    dx = 0.05
    # an origin off the dx lattice, and an ansatz shift x0 = j_min dx - n dt v
    starts = (-123.456789, -8000 * dx - 37 * (0.5 * dx) * 0.8125)
    for count in (0, 1, 2, 7, 257, 16001):
        for x0 in starts:
            got = envelope.on_grid(x0, dx, count)
            assert got.shape == (count,)
            want = np.asarray(envelope(x0 + dx * np.arange(count)))
            assert np.max(np.abs(got - want), initial=0.0) <= tol


@pytest.mark.parametrize("delta0", [0.4, 0.5, 1.0])
def test_envelope_quadrature_nodes_are_128_gauss_legendre(delta0):
    # the certification grid sum runs through the blocked evaluator; the
    # node count it settles on, hence every value a(x), is unchanged
    envelope = make_envelope(delta0)
    t, w = np.polynomial.legendre.leggauss(128)
    assert np.array_equal(envelope.nodes, delta0 / 2.0 * t)
    assert np.array_equal(envelope.weights, delta0 / 2.0 * w)
    assert envelope.quad_error <= ENVELOPE_TOL


@pytest.fixture
def rules(monkeypatch):
    """The node counts of the Gauss-Legendre rules built from here on; the
    rule cache starts empty and is emptied again afterwards."""
    sizes = []
    leggauss = np.polynomial.legendre.leggauss
    wavepacket._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: sizes.append(n) or leggauss(n))
    yield sizes
    wavepacket._gauss_legendre.cache_clear()


def test_envelopes_share_one_rule_per_node_count(rules):
    first = make_envelope(0.5)
    assert rules == [16, 32, 64, 128]
    second = make_envelope(0.75)
    assert rules == [16, 32, 64, 128]
    assert wavepacket._gauss_legendre.cache_info().currsize == 4
    # each envelope scales the shared rule into arrays of its own
    t, w = wavepacket._gauss_legendre(128)
    assert not t.flags.writeable and not w.flags.writeable
    assert first.nodes.flags.writeable and first.nodes is not second.nodes
    assert np.array_equal(second.nodes, 0.375 * t)


@pytest.fixture
def fake_rules(rules, monkeypatch):
    """As ``rules``, but every rule is a cheap one whose values grow with n:
    it never converges, and a walk up the doubling ladder runs no real
    eigen-solve."""
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: rules.append(n) or (np.zeros(n), np.full(n, float(n))))
    return rules


def test_envelope_tries_8192_nodes_last(fake_rules):
    with pytest.raises(WavepacketError, match="not converged .* with 8192 nodes"):
        make_envelope(0.5)
    assert fake_rules == [2**k for k in range(4, 14)]


@pytest.mark.parametrize("delta0,x_max,name,value", [
    (float("nan"), None, "delta0", "nan"),
    (float("inf"), None, "delta0", "inf"),
    (-float("inf"), None, "delta0", "-inf"),
    (0.5, float("nan"), "x_max", "nan"),
    (0.5, float("inf"), "x_max", "inf"),
    (0.5, 0.0, "x_max", "0.0"),
    (0.5, -10.0, "x_max", "-10.0"),
    (1e-320, None, "x_max", "inf"),  # the default 160 / delta0 overflows
])
def test_envelope_refuses_a_width_or_range_not_finite_and_positive(
        fake_rules, delta0, x_max, name, value):
    with pytest.raises(WavepacketError, match=f"{name} must be finite and positive, got {value}$"):
        make_envelope(delta0, x_max=x_max)
    assert fake_rules == []


# ---------------------------------------------------------------------------
# packet construction


def test_leapfrog_zero_carrier_symmetric_amplitude(env):
    spec = make_packet(LF, 0.0, env, branch=0)
    assert spec.z_bar == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(spec.amplitude, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-8)
    assert spec.velocity == pytest.approx(1.0, abs=1e-6)
    other = make_packet(LF, 0.0, env, branch=1)
    assert other.z_bar == pytest.approx(-1.0, abs=1e-10)
    assert other.velocity == pytest.approx(-1.0, abs=1e-6)


def test_leapfrog_glancing_branch(glancing_spec):
    spec = glancing_spec
    assert spec.z_bar == pytest.approx(np.exp(-1j * np.pi / 6), abs=1e-10)
    assert spec.eigenvalues[0] == pytest.approx(
        np.exp(-5j * np.pi / 6), abs=1e-10
    )
    assert abs(spec.velocity) <= 1e-6
    assert spec.polarized
    assert spec.omega.imag == 0.0
    assert spec.unimodular == (0, 1)
    assert np.linalg.norm(spec.amplitude) == pytest.approx(1.0)


def test_upwind_transport_branch(transport_spec):
    assert transport_spec.velocity == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(transport_spec.amplitude, [1.0])
    assert transport_spec.polarized


def test_upwind_off_circle_carrier_unpolarized(env):
    spec = make_packet(UP, np.pi / 2, env)
    assert abs(spec.z_bar) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert spec.unimodular == ()
    assert not spec.polarized
    assert np.isnan(spec.velocity)
    assert spec.omega.imag > 0


def test_projector_identities(glancing_spec):
    spec = glancing_spec
    P0, P1 = spec.projectors
    eye = np.eye(2)
    assert np.max(np.abs(P0 + P1 - eye)) <= 1e-12
    assert np.max(np.abs(P0 @ P0 - P0)) <= 1e-12
    assert np.max(np.abs(P0 @ P1)) <= 1e-12
    assert np.max(np.abs(P1 @ spec.amplitude - spec.amplitude)) <= 1e-12


def test_branch_out_of_range(env):
    with pytest.raises(WavepacketError):
        make_packet(LF, np.pi / 2, env, branch=5)


@pytest.mark.parametrize("xi", [float("nan"), float("inf"), -float("inf")])
def test_make_packet_refuses_a_carrier_not_finite(env, xi):
    with pytest.raises(WavepacketError, match=f"xi_bar must be finite, got {xi}$"):
        make_packet(LF, xi, env)


def test_make_packet_solves_one_eigenproblem(monkeypatch, env):
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(len(a)) or eig(a))
    spec = make_packet(LF, np.pi / 2, env, branch=1)
    monkeypatch.undo()
    assert calls == [1]  # one stack holding the carrier's matrix
    # the velocities read off that solve are group_velocity's, bit for bit
    assert len(spec.unimodular) == 2
    for k in spec.unimodular:
        assert spec.velocities[k] == group_velocity(
            LF, np.pi / 2, complex(spec.eigenvalues[k])
        )


def test_repeated_eigenvalue_raises(env):
    # two-component averaging scheme whose stacked matrix at kappa = 1
    # is the identity: the branch eigenvalue 1 is double
    C = np.array([[0.5, 0.25], [0.25, 0.5]])
    interior = np.zeros((2, 1, 2, 2))
    interior[0, 0] = C
    interior[1, 0] = np.eye(2) - C
    scheme = SchemeDef(
        N=2, r=1, p=0, q=0, s=0, lam=0.5,
        interior=interior, boundary=np.zeros((1, 1, 2, 2, 2)),
    )
    with pytest.raises(WavepacketError, match="repeated"):
        make_packet(scheme, 0.0, env)


def test_jordan_pair_at_the_cfl_edge_raises(env):
    # leap-frog at nu = 1 has a 2x2 Jordan block at kappa = i; eig splits
    # it by about 3e-8, which is one cluster, not two simple branches
    with pytest.raises(WavepacketError, match="repeated"):
        make_packet(leap_frog(1.0, 1.0), np.pi / 2, env)


def test_custom_amplitude_off_branch_detected(env):
    scheme = coupled_scheme()
    spec = make_packet(scheme, np.pi / 2, env, branch=0)
    assert spec.polarized
    # point the amplitude along the decaying branch instead
    bad = make_packet(
        scheme, np.pi / 2, env, branch=0, amplitude=[0.3, 1.0]
    )
    assert not bad.polarized
    assert bad.sharp_residual > 0.1


# ---------------------------------------------------------------------------
# initial data


def test_initial_data_layers(glancing_spec):
    layers = packet_initial_data(glancing_spec, 0.1)
    assert len(layers) == 2
    assert layers[0].offset == layers[1].offset
    assert all(lay.implicit_zero for lay in layers)


def test_initial_data_branch_evolution(glancing_spec):
    # the second layer is one eigen-step ahead of the first
    layers = packet_initial_data(glancing_spec, 0.1)
    gap = np.max(np.abs(layers[1].values - glancing_spec.z_bar * layers[0].values))
    assert gap <= 1e-15


def test_initial_data_matches_formula(glancing_spec):
    spec = glancing_spec
    dx = 0.1
    layers = packet_initial_data(spec, dx)
    for j in (-7, 0, 13):
        a = spec.envelope(j * dx)
        carrier = np.exp(1j * j * spec.xi_bar)
        assert layers[1].get(j)[0] == pytest.approx(
            carrier * spec.amplitude[0] * a, abs=1e-14
        )
        assert layers[0].get(j)[0] == pytest.approx(
            carrier * spec.amplitude[1] * a, abs=1e-14
        )


def test_zero_amplitude_gives_zero_data(env):
    spec = make_packet(LF, np.pi / 2, env, branch=1, amplitude=[0.0, 0.0])
    layers = packet_initial_data(spec, 0.1)
    assert all(np.all(lay.values == 0) for lay in layers)


@pytest.mark.parametrize("delta0", [0.2, 0.4, 0.75, 1.5])
def test_initial_data_span_the_certified_window(delta0):
    # the data are cut at the edge of make_envelope's default window, where
    # |a| is still far above any tail tolerance: a window that changes fails
    spec = make_packet(UP, 0.0, make_envelope(delta0))
    assert spec.envelope.x_certified == 160.0 / delta0
    for dx in (0.025, 0.1, 0.2, 0.5):
        half = int(np.floor(spec.envelope.x_certified / dx))
        (layer,) = packet_initial_data(spec, dx)
        assert (layer.offset, layer.last) == (-half, half)
        mag = np.abs(layer.values[:, 0])
        assert min(mag[0], mag[-1]) >= 1e-5 * np.max(mag)


def test_initial_data_rejects_bad_dx(transport_spec):
    for dx in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(WavepacketError, match=f"finite and positive, got {dx}$"):
            packet_initial_data(transport_spec, dx)


# ---------------------------------------------------------------------------
# lattice transform identity


def test_step_function_transform_formula():
    # the transform of the oscillatory step function equals the
    # sinc-type factor times the periodized envelope transform
    env = make_envelope(0.5, x_max=2000.0)
    xi_bar = np.pi / 2
    dx = 0.5
    J = int(env.x_certified / dx)
    j = np.arange(-J, J + 1)
    a = env(j * dx)
    w = np.linspace(-0.8, 0.8, 41) * env.delta0 * dx
    Xi = (xi_bar + w) / dx
    lattice = dx * (np.exp(-1j * np.outer(w, j)) @ a)
    factor = (1 - np.exp(-1j * dx * Xi)) / (1j * dx * Xi)
    lhs = factor * lattice
    rhs = np.zeros_like(lhs)
    for m in range(-2, 3):
        rhs += env.fourier(Xi - (xi_bar + 2 * np.pi * m) / dx)
    rhs *= factor
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# approximate solution


def test_ansatz_equals_data_at_level_zero(glancing_spec):
    layers = packet_initial_data(glancing_spec, 0.1)
    stacked = np.hstack([layers[1].values, layers[0].values])
    ansatz = approx_solution(
        glancing_spec, 0.1, 0, layers[0].offset, layers[0].last
    )
    assert np.max(np.abs(ansatz.values - stacked)) <= 1e-14


def test_glancing_ansatz_envelope_frozen(glancing_spec):
    spec = glancing_spec
    ref = np.linalg.norm(spec.amplitude) * spec.envelope.value_at_zero
    base = approx_solution(spec, 0.1, 0, -5, 5)
    for n in (1, 7, 40):
        cur = approx_solution(spec, 0.1, n, -5, 5)
        # zero group velocity: pure phase rotation, no translation
        mid = np.linalg.norm(cur.get(0))
        assert mid == pytest.approx(ref, rel=1e-12)
        rotated = np.exp(1j * n * spec.omega) * base.values
        assert np.max(np.abs(cur.values - rotated)) <= 1e-12


def test_transport_ansatz_moves_envelope(transport_spec):
    spec = transport_spec
    dx = 0.1
    dt = spec.scheme.lam * dx
    n = 40
    width = 60
    base = approx_solution(spec, dx, 0, -width, width)
    moved = approx_solution(spec, dx, n, -width, width)
    shift = round(n * dt * spec.velocity / dx)
    assert shift == 20
    i0 = int(np.argmax(np.abs(base.values[:, 0])))
    i1 = int(np.argmax(np.abs(moved.values[:, 0])))
    assert i1 - i0 == shift


def test_ansatz_requires_polarized_spec(env):
    spec = make_packet(UP, np.pi / 2, env)
    with pytest.raises(WavepacketError, match="unit-modulus"):
        approx_solution(spec, 0.1, 3, -5, 5)


def test_stacked_state_needs_enough_levels(glancing_spec):
    layers = packet_initial_data(glancing_spec, 0.2)
    trace = run_cauchy(LF, layers, n_max=4, dt=0.1)
    with pytest.raises(WavepacketError):
        stacked_state(trace, 4, -2, 2)
    assert stacked_state(trace, 3, -2, 2).shape == (5, 2)


# ---------------------------------------------------------------------------
# error measurement


def test_packet_error_builds_sequences_for_the_stacked_levels_only(
    monkeypatch, glancing_spec
):
    calls = []
    post_init = GridSequence.__post_init__
    monkeypatch.setattr(GridSequence, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    packet_error(glancing_spec, [40], 0.1)
    # the data layers, the s + 1 stacked levels and the ansatz, not one
    # sequence per level of the 42-level run
    assert len(calls) == 2 * (LF.s + 1) + 1


def test_packet_error_zero_at_level_zero(glancing_spec):
    rep = packet_error(glancing_spec, [0], 0.1)
    assert rep.sup_errors[0] <= 1e-14


def test_packet_error_first_order_in_dx(transport_spec):
    # the dispersive bound allows sqrt(dx); the measured rate for smooth
    # band-limited data is a full first order
    errs = {}
    for dx, n in ((0.2, 10), (0.1, 20), (0.05, 40)):
        rep = packet_error(transport_spec, [n], dx)
        assert rep.times[0] == pytest.approx(1.0)
        errs[dx] = rep.sup_errors[0]
    assert errs[0.2] / errs[0.1] == pytest.approx(2.0, abs=0.1)
    assert errs[0.1] / errs[0.05] == pytest.approx(2.0, abs=0.1)


def test_packet_error_first_order_at_glancing(glancing_spec):
    errs = {}
    for dx, n in ((0.2, 20), (0.1, 40)):
        rep = packet_error(glancing_spec, [n], dx)
        assert rep.times[0] == pytest.approx(2.0)
        errs[dx] = rep.sup_errors[0]
    assert errs[0.2] / errs[0.1] == pytest.approx(2.0, abs=0.15)


def test_packet_error_grows_linearly_with_horizon(transport_spec):
    rep = packet_error(transport_spec, [10, 20, 40, 80], 0.1)
    errs = rep.sup_errors
    assert all(b > a for a, b in zip(errs, errs[1:]))
    for a, b in zip(errs, errs[1:]):
        assert b / a == pytest.approx(2.0, abs=0.2)


def test_packet_error_bound_constant(transport_spec):
    rep = packet_error(transport_spec, [10, 20], 0.1)
    assert rep.fitted_constant > 0
    for err, T in zip(rep.sup_errors, rep.times):
        assert err**2 <= rep.fitted_constant * rep.dx * (1 + T**2) * (1 + 1e-12)


def test_packet_error_rejects_negative_level(transport_spec):
    with pytest.raises(WavepacketError):
        packet_error(transport_spec, [-1], 0.1)


def test_packet_error_rejects_empty_levels(transport_spec):
    with pytest.raises(WavepacketError, match="n_list is empty"):
        packet_error(transport_spec, [], 0.1)


@pytest.mark.parametrize("n_list", [[1.5], [True], [2, 1.0], [np.float64(3.0)]])
def test_packet_error_refuses_a_level_not_an_integer(transport_spec, n_list):
    with pytest.raises(WavepacketError, match="levels must be nonnegative integers"):
        packet_error(transport_spec, n_list, 0.1)


def test_packet_error_takes_numpy_integer_levels(transport_spec):
    rep = packet_error(transport_spec, np.array([0, 3]), 0.1)
    assert rep.n_list == (0, 3) and all(type(n) is int for n in rep.n_list)
    assert rep.sup_errors == packet_error(transport_spec, [0, 3], 0.1).sup_errors


# ---------------------------------------------------------------------------
# trace growth


def test_glancing_trace_grows_linearly(glancing_spec):
    rep = glancing_trace_experiment(
        glancing_spec, T_list=(2.0, 4.0, 6.0, 8.0), dt_list=(0.1, 0.05)
    )
    assert rep.reference == pytest.approx(
        glancing_spec.envelope.value_at_zero**2
    )
    for i in range(len(rep.dts)):
        assert rep.r_squared[i] >= 0.9
        assert rep.slopes[i] == pytest.approx(rep.reference, rel=0.25)
        ratios = rep.mass_ratios[i]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert abs(rep.velocity) <= 1e-6


def test_transport_trace_saturates(transport_spec):
    rep = glancing_trace_experiment(
        transport_spec, T_list=(50.0, 100.0, 200.0), dt_list=(0.1,)
    )
    ratios = rep.mass_ratios[0]
    assert np.max(ratios) <= 1.0
    assert abs(ratios[1] / ratios[0] - 1.0) <= 0.01
    assert abs(ratios[2] / ratios[1] - 1.0) <= 0.01


def test_dissipated_carrier_trace_is_tiny(env):
    spec = make_packet(UP, np.pi / 2, env)
    rep = glancing_trace_experiment(
        spec, T_list=(2.0, 4.0, 8.0), dt_list=(0.1,)
    )
    assert np.max(rep.mass_ratios) <= 0.02
    assert rep.trace_sums[0, 2] / rep.trace_sums[0, 1] == pytest.approx(
        1.0, abs=1e-6
    )


def test_zero_amplitude_zero_trace(env):
    spec = make_packet(LF, np.pi / 2, env, branch=1, amplitude=[0.0, 0.0])
    rep = glancing_trace_experiment(spec, T_list=(1.0, 2.0), dt_list=(0.1,))
    assert np.all(rep.trace_sums == 0.0)
    assert np.all(rep.mass_ratios == 0.0)


def test_trace_experiment_needs_two_horizons(glancing_spec):
    with pytest.raises(WavepacketError):
        glancing_trace_experiment(glancing_spec, T_list=(4.0,), dt_list=(0.1,))


def test_trace_experiment_rejects_empty_dts(glancing_spec):
    with pytest.raises(WavepacketError, match="dt_list is empty"):
        glancing_trace_experiment(glancing_spec, T_list=(1.0, 2.0), dt_list=())


@pytest.mark.parametrize("Ts,dts,message", [
    ((-1.0, 2.0), (0.1,), r"horizons must be finite and nonnegative, got \(-1.0, 2.0\)"),
    ((float("nan"), 2.0), (0.1,), "horizons must be finite and nonnegative"),
    ((1.0, float("inf")), (0.1,), "horizons must be finite and nonnegative"),
    ((2.0, 2.0), (0.1,), r"two distinct horizons for a linear fit, got \(2.0, 2.0\)"),
    ((1.0, 2.0), (float("inf"),), r"time steps must be finite and positive, got \(inf,\)"),
    ((1.0, 2.0), (0.1, float("nan")), "time steps must be finite and positive"),
    ((1.0, 2.0), (-float("inf"),), "time steps must be finite and positive"),
    ((1.0, 2.0), (0.1, 0.0), "time steps must be finite and positive"),
], ids=["negative-T", "nan-T", "inf-T", "repeated-T", "inf-dt", "nan-dt", "-inf-dt", "zero-dt"])
def test_trace_experiment_refuses_bad_horizons_and_dts(monkeypatch, glancing_spec,
                                                        Ts, dts, message):
    sampled = []
    monkeypatch.setattr(wavepacket, "_march", lambda *a, **k: sampled.append("march"))
    monkeypatch.setattr(wavepacket, "packet_initial_data", lambda *a: sampled.append("data"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WavepacketError, match=message):
            glancing_trace_experiment(glancing_spec, T_list=Ts, dt_list=dts)
    assert sampled == []


@pytest.mark.parametrize("which", ["glancing", "transport", "coupled"])
def test_trace_sums_match_level_by_level_reads(which, glancing_spec,
                                               transport_spec, env):
    # oracle: read W_0^n from each level's j = 0 entry, one level at a time
    spec = {
        "glancing": glancing_spec,
        "transport": transport_spec,
        "coupled": make_packet(coupled_scheme(), np.pi / 2, env),
    }[which]
    Ts, dts = (1.0, 2.5, 4.0), (0.1, 0.05)
    rep = glancing_trace_experiment(spec, T_list=Ts, dt_list=dts)
    s = spec.scheme.s
    for i, dt in enumerate(dts):
        layers = packet_initial_data(spec, dt / spec.scheme.lam)
        mass = sum(lay.norm_sq(dt / spec.scheme.lam) for lay in layers)
        n_top = int(np.floor(max(Ts) / dt)) + s
        trace = run_cauchy(spec.scheme, layers, n_max=n_top, window=(0, 0), dt=dt)
        w0 = np.array([
            np.concatenate([trace.layers[n + s - b].get(0) for b in range(s + 1)])
            for n in range(n_top - s + 1)
        ])
        cumulative = dt * np.cumsum(np.sum(np.abs(w0) ** 2, axis=1))
        sums = np.array([cumulative[int(np.floor(T / dt))] for T in Ts])
        assert rep.trace_sums[i].tobytes() == sums.tobytes()
        assert rep.mass_ratios[i].tobytes() == (sums / mass).tobytes()
        slope, intercept = np.polyfit(Ts, sums, 1)
        assert (rep.slopes[i], rep.intercepts[i]) == (slope, intercept)


@pytest.mark.parametrize("which", ["glancing", "coupled"])
def test_trace_experiment_marches_its_dts_together(monkeypatch, which, env):
    # a scalar packet's dts march in one batch; a system's one at a time
    spec = make_packet(LF, np.pi / 2, env, branch=1) if which == "glancing" else \
        make_packet(coupled_scheme(), np.pi / 2, env)
    batches = []
    march_batch = sim._march_batch
    monkeypatch.setattr(sim, "_march_batch",
                        lambda sch, batch, cone: batches.append(len(batch))
                        or march_batch(sch, batch, cone))
    glancing_trace_experiment(spec, T_list=(1.0, 2.0), dt_list=(0.1, 0.05, 0.025))
    assert batches == ([3] if which == "glancing" else [1, 1, 1])


def test_envelope_is_sampled_once_per_dx(monkeypatch):
    # three packets on one envelope and two packet errors read two dx
    env = make_envelope(0.5)
    specs = [make_packet(LF, np.pi / 2, env, branch=1), make_packet(UP, 0.0, env),
             make_packet(LF, 0.9, env)]
    calls = []
    grid_sum = wavepacket._grid_sum
    monkeypatch.setattr(wavepacket, "_grid_sum", lambda x0, dx, count, *a: calls.append(
        (x0, dx, count)) or grid_sum(x0, dx, count, *a))
    for spec in specs:
        glancing_trace_experiment(spec, T_list=(1.0, 2.0), dt_list=(0.1, 0.05))
    for dx in (0.2, 0.1):
        packet_error(specs[0], [2], dx)
    half = {dx: int(np.floor(env.x_certified / dx)) for dx in (0.2, 0.1)}
    certified = [dx for x0, dx, count in calls
                 if dx in half and (x0, count) == (-half[dx] * dx, 2 * half[dx] + 1)]
    assert sorted(certified) == [0.1, 0.2]
    # approx_solution samples its shifted grids each time and keeps none
    assert len(calls) > 2 and sorted(env._grids) == [0.1, 0.2]
    for dx, samples in env._grids.items():
        assert not samples.flags.writeable
        fresh = env.on_grid(-half[dx] * dx, dx, 2 * half[dx] + 1)
        assert samples.tobytes() == fresh.tobytes()


def test_trace_sum_counts_a_horizon_rounded_below_an_integer(glancing_spec):
    # 0.3 / 0.1 = 2.9999999999999996 and 0.6 / 0.1 = 5.999999999999999 in
    # floating point; the horizons still hold the stacked levels 0..3 and 0..6
    dt = 0.1
    rep = glancing_trace_experiment(glancing_spec, T_list=(0.3, 0.6), dt_list=(dt,))
    layers = packet_initial_data(glancing_spec, dt / glancing_spec.scheme.lam)
    trace = run_cauchy(glancing_spec.scheme, layers, n_max=7, window=(0, 0), dt=dt)
    level_sq = np.abs(trace.levels[:, 0, 0]) ** 2
    # leap-frog's stacked state at level n is (W_0^{n+1}, W_0^n)
    want = [dt * sum(level_sq[n + 1] + level_sq[n] for n in range(top + 1))
            for top in (3, 6)]
    assert rep.trace_sums[0] == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# polarization persistence and power boundedness


def test_sharp_component_stays_negligible(env):
    # this coupling shares one eigenbasis at every frequency, so the
    # frozen projector commutes with the evolution and the off-branch
    # component stays at round-off; the general bound is C dx
    scheme = coupled_scheme()
    spec = make_packet(scheme, np.pi / 2, env, branch=0)
    sharp = np.eye(2, dtype=complex) - sum(
        spec.projectors[k] for k in spec.unimodular
    )
    dx = 0.1
    dt = scheme.lam * dx
    n_max = round(4.0 / dt)
    layers = packet_initial_data(spec, dx)
    trace = run_cauchy(scheme, layers, n_max=n_max, dt=dt)
    j_lo, j_hi = layers[0].offset - n_max, layers[0].last
    mass = np.sqrt(sum(lay.norm_sq(dx) for lay in layers))
    worst = 0.0
    for n in range(0, n_max + 1, 8):
        W = stacked_state(trace, n, j_lo, j_hi)
        off = float(np.sqrt(dx * np.sum(np.abs(W @ sharp.T) ** 2)))
        worst = max(worst, off)
    assert worst <= 1e-12 * mass


def test_sharp_part_uniformly_power_bounded():
    # sup_n of the powers of the decaying-branch part over the band
    scheme = coupled_scheme()
    sup = 0.0
    for xi in np.pi / 2 + np.linspace(-0.3, 0.3, 13):
        A = amplification_matrix(scheme, np.exp(1j * xi))
        mus, vecs = np.linalg.eig(A)
        k = int(np.argmin(np.abs(mus)))
        inv = np.linalg.inv(vecs)
        P = np.outer(vecs[:, k], inv[k])
        M = A @ P
        power = np.eye(2, dtype=complex)
        for _ in range(120):
            power = power @ M
            sup = max(sup, float(np.linalg.norm(power, 2)))
    assert sup <= 1.5


def test_comparison_norms_stay_bounded(glancing_spec):
    # both the exact and the ansatz evolution preserve the packet norm
    # up to a uniform constant
    spec = glancing_spec
    dx = 0.1
    n_max = 81
    layers = packet_initial_data(spec, dx)
    trace = run_cauchy(LF, layers, n_max=n_max, dt=spec.scheme.lam * dx)
    j_lo = layers[0].offset - n_max
    j_hi = layers[0].last + n_max
    ref = np.sqrt(dx * np.sum(np.abs(stacked_state(trace, 0, j_lo, j_hi)) ** 2))
    for n in (20, 40, 80):
        exact = np.sqrt(
            dx * np.sum(np.abs(stacked_state(trace, n, j_lo, j_hi)) ** 2)
        )
        ansatz = approx_solution(spec, dx, n, j_lo, j_hi)
        approx = np.sqrt(dx * np.sum(np.abs(ansatz.values) ** 2))
        assert exact / ref == pytest.approx(1.0, abs=0.02)
        assert approx / ref == pytest.approx(1.0, abs=0.02)
