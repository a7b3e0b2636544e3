"""Tests for the scheme data model, grid sequences and stencil taps."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dibvp.core import (
    DifferenceOp,
    GridSequence,
    RangeError,
    SchemeDef,
    SchemeError,
    _integer,
    _number,
    apply_op,
    difference_power_taps,
    discrete_derivative,
    lax_friedrichs,
    lax_wendroff,
    leap_frog,
    scheme_from_dict,
    scheme_to_dict,
    three_point,
    upwind,
    validate_scheme,
)
from populations import schemes

GOLDEN_SCHEMES = Path(__file__).resolve().parent / "golden" / "schemes"


# ---------------------------------------------------------------------------
# stencil taps


def test_difference_power_taps_are_signed_binomials():
    taps = difference_power_taps(3)
    assert taps == {0: -1.0, 1: 3.0, 2: -3.0, 3: 1.0}


def test_apply_diff_to_linear_sequence():
    u = GridSequence(-5, np.arange(-5, 6, dtype=float))
    du = apply_op(DifferenceOp({1: 1.0, 0: -1.0}), u)
    assert du.offset == -5
    assert du.last == 4
    assert np.allclose(du.values[:, 0], 1.0)


def test_second_difference_of_squares_is_two_and_third_vanishes():
    j = np.arange(-4, 9)
    u = GridSequence(-4, (j ** 2).astype(float))
    d2 = discrete_derivative(u, 2)
    assert np.allclose(d2.values[:, 0], 2.0)
    d3 = discrete_derivative(u, 3)
    assert np.abs(d3.values).max() == 0.0


def test_apply_to_spike_with_implicit_zero():
    u = GridSequence(3, [1.0], implicit_zero=True)
    du = apply_op(DifferenceOp({1: 1.0, 0: -1.0}), u)
    # support sits one index left of the spike: (Du)_2 = 1, (Du)_3 = -1
    assert du.offset == 2
    assert np.allclose(du.values[:, 0], [1.0, -1.0])
    assert du.get(10)[0] == 0.0


def test_apply_op_range_shrinks_and_errors_when_exhausted():
    u = GridSequence(0, np.ones(3))
    d = DifferenceOp({1: 1.0, 0: -1.0})
    du = apply_op(d, u)
    assert len(du) == 2
    with pytest.raises(RangeError):
        apply_op(d, apply_op(d, du))


def test_apply_op_dimension_mismatch():
    u = GridSequence(0, np.ones((4, 2)))
    with pytest.raises(SchemeError):
        apply_op(DifferenceOp({1: 1.0, 0: -1.0}), u)


def test_scalar_taps_match_matrix_product_bits():
    # 1x1 taps are multiplied entry by entry; the bits must equal the sum of
    # (L, 1) @ (1, 1) products taken tap by tap from a +0.0 start
    rng = np.random.default_rng(11)
    for _ in range(60):
        size = int(rng.integers(1, 25))
        vals = rng.standard_normal((size, 1)) + 1j * rng.standard_normal((size, 1))
        vals[rng.random((size, 1)) < 0.25] = 0.0
        vals.real[rng.random((size, 1)) < 0.25] = -0.0
        vals.imag[rng.random((size, 1)) < 0.25] = -0.0
        ells = rng.choice(np.arange(-3, 4), size=int(rng.integers(1, 4)), replace=False)
        op = DifferenceOp({int(e): rng.standard_normal() for e in ells})
        for implicit_zero in (True, False):
            u = GridSequence(int(rng.integers(-4, 5)), vals, implicit_zero)
            if not implicit_zero and size <= op.ell_max - op.ell_min:
                continue
            got = apply_op(op, u)
            want = np.zeros_like(got.values)
            for ell, m in sorted(op.taps.items()):
                want += u.window(got.offset + ell, got.last + ell) @ m.T
            assert got.values.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# grid sequences


def test_grid_sequence_get_and_window():
    u = GridSequence(2, [1.0, 2.0, 3.0])
    assert u.get(3)[0] == 2.0
    with pytest.raises(RangeError):
        u.get(5)
    z = GridSequence(2, [1.0, 2.0, 3.0], implicit_zero=True)
    assert z.get(5)[0] == 0.0
    w = z.window(0, 5)
    assert np.allclose(w[:, 0], [0, 0, 1, 2, 3, 0])
    assert u.window(2, 4)[:, 0].tolist() == [1.0, 2.0, 3.0]
    for jmin, jmax in ((1, 3), (3, 5)):  # past the stored range, not zero-padded
        with pytest.raises(RangeError, match="outside stored range"):
            u.window(jmin, jmax)
    with pytest.raises(RangeError, match="empty window"):
        z.window(3, 2)


def test_difference_op_refusals():
    with pytest.raises(SchemeError, match="at least one tap"):
        DifferenceOp({})
    with pytest.raises(SchemeError, match="not square"):
        DifferenceOp({0: np.ones((1, 2))})
    with pytest.raises(SchemeError, match="mismatched sizes"):
        DifferenceOp({0: np.eye(2), 1: np.eye(3)})


# ---------------------------------------------------------------------------
# fixtures and validation


@pytest.mark.parametrize(
    "make", [upwind, lax_friedrichs, lax_wendroff, leap_frog]
)
def test_fixture_consistency_sum_is_identity(make):
    scheme = make(1.0, 0.5)
    assert np.allclose(scheme.consistency_sum(), np.eye(1), atol=1e-14)


def test_upwind_coefficients():
    sch = upwind(1.0, 0.5)
    assert sch.A(-1, 0)[0, 0] == pytest.approx(0.5)
    assert sch.A(0, 0)[0, 0] == pytest.approx(0.5)
    assert sch.r == 1 and sch.p == 0 and sch.s == 0


def test_leap_frog_coefficients():
    sch = leap_frog(1.0, 0.5)
    assert sch.A(1, 0)[0, 0] == pytest.approx(-0.5)
    assert sch.A(-1, 0)[0, 0] == pytest.approx(0.5)
    assert sch.A(0, 1)[0, 0] == pytest.approx(1.0)
    assert sch.s == 1


def test_validate_scheme_passes_fixtures():
    for make in (upwind, lax_friedrichs, lax_wendroff, leap_frog):
        rep = validate_scheme(make(1.0, 0.5))
        assert rep.ok
        assert rep.consistent


def test_validate_flags_inconsistent_scheme():
    sch = three_point(0.3, 0.3, 0.3)
    rep = validate_scheme(sch)
    assert not rep.consistent
    assert rep.consistency_residual == pytest.approx(0.1)


def test_validate_fails_a_noncharacteristic_inconsistent_scheme():
    # taps 0.050 and -0.053 sum to -0.003, not 1: both extreme blocks are
    # invertible, but the scheme is not consistent, so it is not ok
    interior = np.array([0.050, -0.053]).reshape(2, 1, 1, 1)
    sch = SchemeDef(N=1, r=1, p=0, q=0, s=0, lam=1.0, interior=interior,
                    boundary=np.zeros((1, 1, 2, 1, 1)))
    rep = validate_scheme(sch)
    assert rep.noncharacteristic_ok
    assert not rep.consistent
    assert not rep.ok


def test_validate_flags_characteristic_scheme():
    # a_plus = 0 makes the rightmost coefficient block singular for every z
    sch = three_point(0.5, 0.5, 0.0)
    rep = validate_scheme(sch)
    assert not rep.noncharacteristic_ok
    assert rep.min_sv_right < 1e-10


def test_scheme_constructor_rejects_bad_shapes():
    with pytest.raises(SchemeError):
        SchemeDef(
            N=1, r=1, p=0, q=0, s=0, lam=1.0,
            interior=np.zeros((3, 1, 1, 1)),  # wrong: p+r+1 = 2
            boundary=np.zeros((1, 1, 2, 1, 1)),
        )
    with pytest.raises(SchemeError, match="boundary shape"):
        SchemeDef(N=1, r=1, p=0, q=0, s=0, lam=1.0, interior=np.zeros((2, 1, 1, 1)),
                  boundary=np.zeros((1, 1, 1, 1, 1)))  # wrong: s+2 = 2 levels
    with pytest.raises(SchemeError, match="need N>=1"):  # shapes that fit N = 0
        SchemeDef(N=0, r=1, p=0, q=0, s=0, lam=1.0, interior=np.zeros((2, 1, 0, 0)),
                  boundary=np.zeros((1, 1, 2, 0, 0)))


@pytest.mark.parametrize("read", [
    lambda sch: sch.A(-2, 0), lambda sch: sch.A(1, 0), lambda sch: sch.A(0, 1),
    lambda sch: sch.B(1, 0, 0), lambda sch: sch.B(0, -1, 0), lambda sch: sch.B(0, 1, 0),
    lambda sch: sch.B(0, 0, -2), lambda sch: sch.B(0, 0, 1),
], ids=["A-ell-low", "A-ell-high", "A-sigma", "B-ell", "B-j-low", "B-j-high",
        "B-sigma-low", "B-sigma-high"])
def test_coefficient_access_outside_the_declared_ranges_raises(read):
    sch = upwind(1.0, 0.5)  # ell in [-1, 0], j = 0, sigma in [0, 0] (A), [-1, 0] (B)
    with pytest.raises(RangeError, match="outside declared ranges"):
        read(sch)


@pytest.mark.parametrize("seed", range(6))
def test_tap_table_lists_the_nonzero_taps_in_order(seed):
    # every (ell, sigma) and (ell, j, sigma) block zeroed with probability
    # 1/2, so empty sigmas and boundary rows occur
    rng = np.random.default_rng(seed)
    N, r, p, q, s = 1 + seed % 2, 1 + seed % 3 // 2, seed % 3, seed % 2, seed % 3
    interior = rng.standard_normal((p + r + 1, s + 1, N, N))
    boundary = rng.standard_normal((q + 1, r, s + 2, N, N))
    interior[rng.random((p + r + 1, s + 1)) < 0.5] = 0.0
    boundary[rng.random((q + 1, r, s + 2)) < 0.5] = 0.0
    scheme = SchemeDef(N, r, p, q, s, 1.0, interior, boundary)
    want_interior = [[(ell, scheme.A(ell, sigma)) for ell in range(-r, p + 1)
                      if scheme.A(ell, sigma).any()] for sigma in range(s + 1)]
    want_boundary = [
        [(sigma, taps) for sigma in range(-1, s + 1)
         if (taps := [(ell, scheme.B(ell, j, sigma)) for ell in range(q + 1)
                      if scheme.B(ell, j, sigma).any()])]
        for j in range(1 - r, 1)
    ]
    table = scheme.tap_table
    assert scheme.tap_table is table
    listed = lambda taps: [(ell, m.tolist()) for ell, m in taps]
    assert [listed(taps) for taps in table[0]] == [listed(taps) for taps in want_interior]
    assert [[(sigma, listed(taps)) for sigma, taps in rows] for rows in table[1]] == [
        [(sigma, listed(taps)) for sigma, taps in rows] for rows in want_boundary]
    for sigma, taps in enumerate(want_interior):
        op = scheme.interior_op(sigma)
        assert list(op.taps) == ([ell for ell, _ in taps] or [0])
    with pytest.raises(RangeError):
        scheme.interior_op(s + 1)
    data = scheme_to_dict(scheme)
    assert [(e["ell"], e["sigma"]) for e in data["interior"]] == sorted(
        (ell, sigma) for sigma, taps in enumerate(want_interior) for ell, _ in taps)
    assert [(e["ell"], e["j"], e["sigma"]) for e in data["boundary"]] == sorted(
        (ell, k + 1 - r, sigma) for k, rows in enumerate(want_boundary)
        for sigma, taps in rows for ell, _ in taps)


# ---------------------------------------------------------------------------
# JSON round trip


def test_scheme_json_roundtrip():
    sch = lax_wendroff(0.9, 0.7, boundary="extrapolation")
    data = scheme_to_dict(sch)
    back = scheme_from_dict(data)
    assert back.N == sch.N and back.r == sch.r and back.p == sch.p
    assert back.q == sch.q and back.s == sch.s
    assert back.lam == pytest.approx(sch.lam)
    assert np.allclose(back.interior, sch.interior)
    assert np.allclose(back.boundary, sch.boundary)


def test_scheme_dict_rejects_unknown_version_and_duplicates():
    data = scheme_to_dict(upwind(1.0, 0.5))
    bad = dict(data, schema_version=99)
    with pytest.raises(SchemeError):
        scheme_from_dict(bad)
    dup = dict(data)
    dup["interior"] = data["interior"] + [data["interior"][0]]
    with pytest.raises(SchemeError):
        scheme_from_dict(dup)


@settings(max_examples=200)
@given(schemes(q=(0, 2), boundary="random"))
def test_scheme_dict_json_round_trip_keeps_every_bit(scheme):
    back = scheme_from_dict(json.loads(json.dumps(scheme_to_dict(scheme))))
    assert (back.N, back.r, back.p, back.q, back.s, back.lam) == (
        scheme.N, scheme.r, scheme.p, scheme.q, scheme.s, scheme.lam)
    assert back.interior.tobytes() == scheme.interior.tobytes()
    assert back.boundary.tobytes() == scheme.boundary.tobytes()


@pytest.mark.parametrize("path", sorted(GOLDEN_SCHEMES.glob("*.json")), ids=lambda p: p.stem)
def test_golden_scheme_files_round_trip_keep_every_bit(path, tmp_path):
    from dibvp.core import load_scheme, save_scheme

    scheme = load_scheme(path)
    save_scheme(scheme, tmp_path / "again.json")
    # the golden files were written by save_scheme: the same bytes again
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    back = load_scheme(tmp_path / "again.json")
    assert back.interior.tobytes() == scheme.interior.tobytes()
    assert back.boundary.tobytes() == scheme.boundary.tobytes()


@pytest.mark.parametrize("value", [0, 3, -2, 3.0, np.int64(4), 10**30])
def test_integer_fields_take_integral_numbers(value):
    assert _integer(value) == int(value) and type(_integer(value)) is int


@pytest.mark.parametrize("value", [True, False, "1", 1.9, 0.5, float("nan"), float("inf"),
                                   None, [1], 1j])
def test_integer_fields_refuse_bools_strings_and_fractions(value):
    with pytest.raises(TypeError, match="is not an integer"):
        _integer(value)


@pytest.mark.parametrize("value", [0, -2, 0.5, -0.0, float("nan"), np.float64(0.25), 10**30])
def test_number_fields_take_real_numbers(value):
    assert repr(_number(value)) == repr(float(value))


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5], 1j])
def test_number_fields_refuse_bools_and_strings(value):
    with pytest.raises(TypeError, match="is not a number"):
        _number(value)


def _edited_upwind(edit) -> dict:
    data = scheme_to_dict(upwind(1.0, 0.5, boundary="extrapolation"))
    edit(data)
    return data


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["interior"][0].update(ell=1), r"^interior\[0\]\.ell: 1 is outside \[-1, 0\]$"),
    (lambda d: d["interior"][1].update(sigma=-1), r"^interior\[1\]\.sigma: -1 is outside \[0, 0\]$"),
    (lambda d: d["boundary"][0].update(j=1), r"^boundary\[0\]\.j: 1 is outside \[0, 0\]$"),
    (lambda d: d["boundary"][0].update(sigma=1), r"^boundary\[0\]\.sigma: 1 is outside \[-1, 0\]$"),
    (lambda d: d["boundary"].append(dict(d["boundary"][0])),
     r"^boundary\[1\]: repeats ell=0, j=0, sigma=-1$"),
    (lambda d: d["interior"][0].update(matrix=[[0.5, 0.5]]),
     r"^interior\[0\]\.matrix: shape \(1, 2\) is not \(1, 1\)$"),
    (lambda d: d["boundary"][0].update(matrix=[["a"]]), r"^boundary\[0\]\.matrix: could not convert"),
    (lambda d: d.update(N=0), r"^N: 0 is outside \[1, inf\]$"),
    (lambda d: d.update(p=-3), r"^p: -3 is outside \[0, inf\]$"),
    (lambda d: d.pop("lambda"), r"^lambda: missing$"),
    (lambda d: d.update(interior=5), r"^interior: 'int' object is not iterable$"),
    (lambda d: d.update(schema_version=2), r"^schema_version: only version 1 is read, not 2$"),
], ids=["ell-range", "sigma-range", "j-range", "boundary-sigma-range", "duplicate", "shape",
        "matrix-text", "N-zero", "p-negative", "no-lambda", "table-not-a-list", "version"])
def test_scheme_dict_refusals_name_the_field(edit, message):
    with pytest.raises(SchemeError, match=message):
        scheme_from_dict(_edited_upwind(edit))


def test_scheme_dict_refuses_a_top_level_that_is_not_an_object():
    with pytest.raises(SchemeError, match="^top level: a list, not a JSON object$"):
        scheme_from_dict([scheme_to_dict(upwind(1.0, 0.5))])


def test_scheme_file_io(tmp_path):
    from dibvp.core import load_scheme, save_scheme

    path = tmp_path / "scheme.json"
    sch = lax_friedrichs(0.8, 0.5)
    save_scheme(sch, path)
    back = load_scheme(path)
    assert back.label == "lax-friedrichs"
    assert np.allclose(back.interior, sch.interior)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemeError):
        load_scheme(bad)


# ---------------------------------------------------------------------------
# Laurent evaluation: every power is x**e on its own scalar


def _reference_laurent(coeffs, exponents, points):
    # the per-point form: x**e on each scalar, terms added in the order given
    powers = np.array([[x**e for e in exponents] for x in points]).reshape(
        (len(points), len(exponents)) + (1,) * (coeffs.ndim - 1)
    )
    out = np.zeros((len(points),) + coeffs.shape[1:], dtype=complex)
    for k, c in enumerate(coeffs):
        out += powers[:, k] * c
    return out


#: how a sample point is handed over: numpy's pow covers np.complex128,
#: CPython's a Python complex or float
_POINT_KINDS = {
    "np.complex128": np.complex128,
    "complex": complex,
    "float": lambda z: float(z.real),
    "np.float64": lambda z: np.float64(z.real),
}


@st.composite
def _laurent_cases(draw):
    r, p, s = (draw(st.integers(0, 3)) for _ in range(3))
    # the callers' exponents: symbol rows -r..p, resolvent powers 0..-s-1
    exponents = draw(st.sampled_from([range(-r, p + 1), range(0, -s - 2, -1)]))
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):  # the sbp kappas: n roots of unity
        zs = np.exp(1j * (2 * np.pi * np.arange(n) / max(n, 1)))
    else:
        rho = st.one_of(st.just(1.0), st.floats(0.25, 4.0))
        zs = np.array([draw(rho) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
                       for _ in range(n)], dtype=complex)
    container = draw(st.sampled_from(["ndarray", "list", *_POINT_KINDS]))
    if container == "ndarray":
        points = zs
    elif container == "list":  # mixed
        kinds = draw(st.lists(st.sampled_from(list(_POINT_KINDS)), min_size=n, max_size=n))
        points = [_POINT_KINDS[k](z) for k, z in zip(kinds, zs)]
    else:
        points = [_POINT_KINDS[container](z) for z in zs]
    return exponents, points, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300)
@given(_laurent_cases())
def test_laurent_powers_are_each_scalars_own_pow(case):
    from dibvp.core import _laurent

    exponents, points, seed = case
    E = len(exponents)
    # one-hot coefficients read the power table back: value k of point i
    table = _laurent(np.eye(E), exponents, points)
    for i, x in enumerate(points):
        for k, e in enumerate(exponents):
            assert table[i, k] == x**e
    # and any coefficients give the per-point form's bits
    rng = np.random.default_rng(seed)
    for shape in [(E, 2, 2), (E, 3), (E, 2, 1, 2)]:
        coeffs = rng.standard_normal(shape) + (rng.random() < 0.5) * 1j * rng.standard_normal(shape)
        got = _laurent(coeffs, exponents, points)
        assert got.tobytes() == _reference_laurent(coeffs, exponents, points).tobytes()


# ---------------------------------------------------------------------------
# eigenvalue continuation along a path or a tree


def _reference_continue_path(ts, eigs, first, eigs_at, parent=None):
    # row by row: a clear step takes its nearest values, any other the matcher
    from dibvp.core import _continue_step, _swap_ambiguous

    parent = np.arange(-1, len(ts) - 1) if parent is None else parent
    cost = np.abs(eigs[1:, :, None] - eigs[parent[1:], None, :])
    nearest = np.argmin(cost, axis=1)
    is_perm = (np.sort(nearest, axis=1) == np.arange(eigs.shape[1])).all(axis=1)
    clear = np.append(False, is_perm & ~_swap_ambiguous(
        np.take_along_axis(cost, nearest[:, :, None], axis=1),
        np.take_along_axis(eigs[1:], nearest, axis=1),
    ))
    order = np.empty(eigs.shape, dtype=int)
    order[0] = first
    records: list = []
    for k in range(1, len(ts)):
        j = parent[k]
        if clear[k]:
            order[k] = nearest[k - 1, order[j]]
        else:
            order[k] = _continue_step(
                eigs_at, ts[j], eigs[j, order[j]], ts[k], eigs[k], records
            )
    return order, tuple(records)


def _continuation_case(seed, tree, n=None):
    """Rows near a permutation of the hub values 0..n-1 (clear steps), with
    forced steps that are not clear: a pair replaced by an exact tie
    i + 1/2 +- i (the matcher bisects through the hub to the depth limit and
    records the step) or a repeated value (the nearest map is no permutation).
    By default n is drawn from 2..4; a single branch (n = 1) has no pair to
    tie or repeat, so those rows stay plain hub rows."""
    rng = np.random.default_rng(seed)
    drawn, rows = int(rng.integers(2, 5)), int(rng.integers(2, 80))
    n = drawn if n is None else n
    hub = np.arange(n, dtype=complex)
    parent = np.array([-1] + [int(rng.integers(0, k)) if tree else k - 1
                              for k in range(1, rows)])
    eigs = np.empty((rows, n), dtype=complex)
    eigs[0] = hub[rng.permutation(n)]
    for k in range(1, rows):
        kind = rng.choice(["near", "hub", "tie", "repeat"], p=[0.6, 0.2, 0.1, 0.1])
        if kind == "near":
            noise = rng.normal(scale=0.02, size=n) + 1j * rng.normal(scale=0.02, size=n)
            eigs[k] = eigs[parent[k]][rng.permutation(n)] + noise
        else:
            eigs[k] = hub[rng.permutation(n)] + rng.normal(scale=0.02, size=n)
        if n > 1 and kind == "tie":
            i = int(rng.integers(0, n - 1))
            eigs[k, :2] = i + 0.5 + 1j, i + 0.5 - 1j
        elif n > 1 and kind == "repeat":
            eigs[k, 1] = eigs[k, 0]
    ts = np.cumsum(rng.random(rows)) if not tree else rng.random(rows)
    first = rng.permutation(n)
    return ts, eigs, first, lambda t: hub.copy(), (parent if tree else None)


@pytest.mark.parametrize("tree", [False, True], ids=["chain", "tree"])
@pytest.mark.parametrize(
    "seed, n",
    [pytest.param(seed, None, id=str(seed)) for seed in range(40)]
    + [pytest.param(seed, 1, id=f"{seed}-one-branch") for seed in range(4)],
)
def test_continue_path_matches_row_by_row_reference(seed, n, tree):
    from dibvp.core import _continue_path

    ts, eigs, first, eigs_at, parent = _continuation_case(seed, tree, n)
    order, ambiguous = _continue_path(ts, eigs, first, eigs_at, parent)
    want, want_ambiguous = _reference_continue_path(ts, eigs, first, eigs_at, parent)
    assert order.tobytes() == want.tobytes()
    assert ambiguous == want_ambiguous


def test_continuation_cases_force_steps_that_are_not_clear():
    # the oracle cases above exercise the matcher and its records
    recorded = 0
    for seed in range(40):
        for tree in (False, True):
            ts, eigs, first, eigs_at, parent = _continuation_case(seed, tree)
            recorded += len(_reference_continue_path(ts, eigs, first, eigs_at, parent)[1])
    assert recorded >= 40


# ---------------------------------------------------------------------------
# 1x1 eigenproblems: read off their entries where LAPACK returns those bits

#: xGEEV's unscaled range, and the first value past each end
_LO, _HI = 2.0**-459, 2.0**459
_EDGES = [_LO, _HI, np.nextafter(_LO, 0.0), np.nextafter(_HI, np.inf)]


def _assert_eigen_bits_match_numpy(a):
    from dibvp.core import _eig, _eigvals

    for mine, numpys in ((_eigvals, np.linalg.eigvals), (_eig, np.linalg.eig)):
        try:
            want = numpys(a)
        except np.linalg.LinAlgError as err:  # NaN or inf
            with pytest.raises(np.linalg.LinAlgError, match=str(err)):
                mine(a)
            continue
        got = mine(a)
        if mine is _eigvals:
            got, want = (got,), (want,)
        for g, w in zip(got, want, strict=True):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def _part_values(rng):
    """Signed zeros, the range edges and one ulp past them, NaN, infinities
    and random magnitudes across and beyond the unscaled range."""
    edges = [v * sign for v in _EDGES for sign in (1.0, -1.0)]
    scales = 2.0 ** rng.uniform(-520, 520, 12)
    return [0.0, -0.0, 1.0, *edges, np.nan, np.inf, -np.inf,
            *(rng.standard_normal(12) * scales)]


@pytest.mark.parametrize("seed", range(3))
def test_one_by_one_eigen_helpers_give_lapacks_bits(seed):
    from dibvp.core import _scalar_stack

    rng = np.random.default_rng(seed)
    parts = _part_values(rng)
    real = np.array(parts)
    cplx = np.array([complex(re, im) for re in parts for im in parts])
    for entries in (real, cplx):
        for x in entries:
            _assert_eigen_bits_match_numpy(np.full((1, 1, 1), x))
            _assert_eigen_bits_match_numpy(np.full((1, 1), x))
        # whole stacks: every entry in range, and one entry out of range
        m = np.abs(entries)
        inside = entries[(m == 0) | ((m >= _LO) & (m <= _HI))]
        stack = rng.permutation(inside).reshape(-1, 1, 1)
        assert _scalar_stack(stack)
        _assert_eigen_bits_match_numpy(stack)
        _assert_eigen_bits_match_numpy(stack[None])
        for x in (np.nextafter(_LO, 0.0), np.nextafter(_HI, np.inf), np.nan):
            mixed = np.append(stack, x).reshape(-1, 1, 1)
            assert not _scalar_stack(mixed)
            _assert_eigen_bits_match_numpy(mixed)
    # random entries with +0.0 and -0.0 in either part
    z = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    for part in (z.real, z.imag):
        part[rng.random(400) < 0.2] = 0.0
        part[rng.random(400) < 0.2] = -0.0
    for stack in (z.reshape(-1, 1, 1), z.real.copy().reshape(-1, 1, 1)):
        assert _scalar_stack(stack)
        _assert_eigen_bits_match_numpy(stack)


@pytest.mark.parametrize("n", [2, 3])
def test_eigen_helpers_pass_larger_stacks_to_numpy(n):
    from dibvp.core import _scalar_stack

    rng = np.random.default_rng(n)
    for a in (rng.standard_normal((20, n, n)),
              rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n)),
              np.zeros((4, n, n)), rng.standard_normal((n, n))):
        assert not _scalar_stack(a)
        _assert_eigen_bits_match_numpy(a)
