"""Tests for the command line front end."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dibvp
import test_golden as golden
from dibvp.cli import _report_text, emit_report, run_command
from dibvp.core import SchemeDef, lax_wendroff, leap_frog, save_scheme, three_point, upwind
from populations import analyze_population


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, scheme in [
        ("upwind", upwind(0.5, 1.0)),
        ("upwind_unstable", upwind(0.5, 2.4)),
        ("upwind_extrap", upwind(0.5, 1.0, boundary="extrapolation")),
        ("leapfrog", leap_frog(0.5, 1.0)),
        ("lw_extrap", lax_wendroff(1.0, 0.5, boundary="extrapolation")),
    ]:
        path = tmp_path / f"{name}.json"
        save_scheme(scheme, path)
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


def run(argv, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes and verdicts


def test_check_cauchy_stable_scheme_passes(paths, capsys):
    code, out, _ = run(["check-cauchy", "--scheme", paths["upwind"], "--samples"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "dibvp-report/2"
    assert rep["command"] == "check-cauchy"
    assert rep["verdicts"][0]["ok"] is True
    radii = [row[1] for row in rep["data"]["radius_samples"]["rows"]]
    assert max(radii) <= 1 + 1e-10


def test_check_cauchy_unstable_scheme_fails(paths, capsys):
    code, out, _ = run(
        ["check-cauchy", "--scheme", paths["upwind_unstable"]], capsys
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is False
    assert "max radius" in rep["verdicts"][0]["detail"]


def test_check_glancing_flags_zero_velocity_modes(paths, capsys):
    code, out, _ = run(["check-glancing", "--scheme", paths["leapfrog"]], capsys)
    assert code == 1
    rep = json.loads(out)
    thetas = {row[1] for row in rep["data"]["glancing_points"]["rows"]}
    assert any(abs(t - np.pi / 2) < 1e-6 for t in thetas)
    assert any(abs(t - 3 * np.pi / 2) < 1e-6 for t in thetas)


def test_check_glancing_clean_scheme_passes(paths, capsys):
    code, out, _ = run(["check-glancing", "--scheme", paths["upwind"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is True
    assert rep["data"]["glancing_points"]["rows"] == []


def test_check_uklc_dirichlet_passes(paths, capsys):
    code, out, _ = run(
        ["check-uklc", "--scheme", paths["upwind"], "--grid-ntheta", "16"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is True
    mins = [row[1] for row in rep["data"]["per_radius_min"]["rows"]]
    assert min(mins) == pytest.approx(1.0, abs=1e-9)


def test_check_uklc_marginal_closure_fails(paths, capsys):
    code, out, _ = run(
        ["check-uklc", "--scheme", paths["lw_extrap"],
         "--grid-radii", "0.1,0.001,1e-5,1e-7", "--grid-ntheta", "16"],
        capsys,
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is False
    mins = [row[1] for row in rep["data"]["per_radius_min"]["rows"]]
    assert mins == sorted(mins, reverse=True)


def test_check_uklc_dirichlet_gives_no_warning(paths, capsys):
    code, out, _ = run(["check-uklc", "--scheme", paths["upwind"]], capsys)
    (v,) = json.loads(out)["verdicts"]
    assert code == 0 and v["ok"] is True
    assert v["detail"].endswith("(tol 1e-06)")


def test_check_uklc_warns_of_von_neumann_failure(tmp_path, capsys):
    # nu = 1 + 1e-8: the determinant scan passes (max radius 1 + 4e-8 sits
    # inside the scan's circles) while the symbol is von Neumann unstable
    path = tmp_path / "lw.json"
    save_scheme(lax_wendroff(1.0, 1 + 1e-8), path)
    code, out, _ = run(["check-uklc", "--scheme", str(path)], capsys)
    (v,) = json.loads(out)["verdicts"]
    assert code == 0 and v["ok"] is True
    assert v["detail"].endswith("; von Neumann condition fails (max radius 1.000000)")


@pytest.mark.parametrize(
    "scheme, reason",
    [(upwind(0.5, 2.4), "expected (1 stable, 0 unstable), got (0, 1)"),
     (leap_frog(1.0, 1.2), "within 1e-10 of the unit circle at |z| = 1.1")],
    ids=["count-mismatch", "unimodular-eigenvalue"],
)
def test_check_uklc_unstable_scheme_fails_with_reason(tmp_path, capsys, scheme, reason):
    path = tmp_path / "unstable.json"
    save_scheme(scheme, path)
    code, out, err = run(["check-uklc", "--scheme", str(path)], capsys)
    assert (code, err) == (1, "")
    (v,) = json.loads(out)["verdicts"]
    assert v["name"] == "determinant-lower-bound" and v["ok"] is False
    assert reason in v["detail"]


def test_check_uklc_singular_leading_block_exits_two(tmp_path, capsys):
    # p = 1 with A[+1] = 0: RA_p(z) is singular, a configuration error
    scheme = upwind(0.5, 1.0)
    interior = np.concatenate([scheme.interior, np.zeros((1, 1, 1, 1))])
    path = tmp_path / "characteristic.json"
    save_scheme(SchemeDef(N=1, r=1, p=1, q=0, s=0, lam=0.5, interior=interior,
                          boundary=scheme.boundary), path)
    code, out, err = run(["check-uklc", "--scheme", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "numerically singular" in err


def test_classify_blocks_is_informational(paths, capsys):
    code, out, _ = run(["classify-blocks", "--scheme", paths["upwind"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == []
    rows = rep["data"]["blocks"]["rows"]
    assert len(rows) == 1
    assert rows[0][3] == "crossing"


def test_classify_blocks_angle_moves_spectrum(paths, capsys):
    code, out, _ = run(
        ["classify-blocks", "--scheme", paths["upwind"],
         "--z-angle", "1.0"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    kinds = {row[3] for row in rep["data"]["blocks"]["rows"]}
    assert kinds == {"contracting"}
    assert rep["config"]["z_angle"] == 1.0


def test_sbp_decompose_one_step_scheme(paths, capsys):
    code, out, _ = run(["sbp-decompose", "--scheme", paths["upwind"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert "boundary rate constant" in rep["verdicts"][0]["detail"]
    assert rep["data"]["difference_coefficients"]["rows"]


def test_sbp_decompose_multi_step_fails(paths, capsys):
    code, out, _ = run(["sbp-decompose", "--scheme", paths["leapfrog"]], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is False
    assert "one-step" in rep["verdicts"][0]["detail"]


def test_sbp_decompose_large_coefficients_fail_with_a_verdict(tmp_path, capsys):
    # the energy identity's rounding at nu = 20 (2.3e-10) is within its
    # coefficient-scaled bound, so the stability check gives the verdict
    path = tmp_path / "lw20.json"
    save_scheme(lax_wendroff(1.0, 20.0), path)
    code, out, err = run(["sbp-decompose", "--scheme", str(path)], capsys)
    assert code == 1
    assert err == ""
    detail = json.loads(out)["verdicts"][0]["detail"]
    assert "exceeds 1; no energy bound" in detail


def test_simulate_reports_norm_series(paths, capsys):
    code, out, _ = run(
        ["simulate", "--scheme", paths["upwind"], "--n-max", "40",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == []
    assert rep["config"]["seed"] == 7
    assert len(rep["data"]["levels"]["rows"]) == 41
    summary = rep["data"]["summary"]["rows"][0]
    assert all(v >= 0 for v in summary)


def test_verify_thm1_bounded(paths, capsys):
    code, out, _ = run(
        ["verify", "--scheme", paths["upwind"], "--estimate", "thm1",
         "--grid-refinements", "0.1,0.05", "--grid-gammas", "0.1,1.0",
         "--t-end", "5.0"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert "bounded" in rep["verdicts"][0]["detail"]
    assert len(rep["data"]["ratios"]["rows"]) == 4


def test_verify_strong_marginal_closure_grows(paths, capsys):
    code, out, _ = run(
        ["verify", "--scheme", paths["upwind_extrap"], "--estimate", "strong",
         "--grid-refinements", "0.1,0.05,0.025", "--t-end", "50"],
        capsys,
    )
    assert code == 1
    rep = json.loads(out)
    assert "growth" in rep["verdicts"][0]["detail"]


def test_verify_semigroup_tables(paths, capsys):
    code, out, _ = run(
        ["verify", "--scheme", paths["upwind"], "--estimate", "semigroup",
         "--grid-refinements", "0.1,0.05", "--t-end", "5.0"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    c2 = [row[1] for row in rep["data"]["c2"]["rows"]]
    assert c2 == pytest.approx([1.0, 1.0], abs=1e-12)
    assert rep["data"]["checks"]["rows"][0][0] is True


def test_packet_experiment_glancing_carrier_detected(paths, capsys):
    code, out, _ = run(
        ["packet-experiment", "--scheme", paths["leapfrog"],
         "--xi", repr(np.pi / 2), "--branch", "1", "--dts", "0.1"],
        capsys,
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is False
    fits = rep["data"]["fits"]["rows"]
    assert fits[0][3] >= 0.9
    assert fits[0][1] == pytest.approx(rep["config"]["reference"], rel=0.05)
    assert abs(rep["config"]["velocity"]) <= 1e-6


def test_packet_experiment_transported_carrier_passes(paths, capsys):
    code, out, _ = run(
        ["packet-experiment", "--scheme", paths["upwind"], "--xi", "0.0",
         "--Ts", "50,100,200", "--dts", "0.1"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is True
    ratios = [row[3] for row in rep["data"]["trace_sums"]["rows"]]
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("estimate", ["thm1", "strong", "semigroup"])
def test_verify_overflow_counts_as_growth(paths, capsys, estimate):
    # the unstable scheme's norms overflow from dt 0.025 on
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            ["verify", "--scheme", paths["upwind_unstable"], "--estimate",
             estimate, "--t-end", "40"],
            capsys,
        )
    assert code == 1
    assert err == ""
    assert not caught
    rep = json.loads(out)
    detail = rep["verdicts"][0]["detail"]
    if estimate == "semigroup":
        assert "growth observed (non-finite C2 at dt 0.025; max finite C2" in detail
    else:
        assert "growth observed (non-finite ratio at dt 0.025, gamma 0.001;" in detail
        max_ratio, slope, _ = rep["data"]["fit"]["rows"][0]
        assert max_ratio > 1e100 and slope > 100
    assert not re.search(r"\bnan\b", detail)


# ---------------------------------------------------------------------------
# usage and configuration errors


def test_missing_scheme_file_exits_two(paths, capsys):
    code, _, err = run(
        ["check-cauchy", "--scheme", str(paths["dir"] / "missing.json")],
        capsys,
    )
    assert code == 2
    assert "cannot load scheme" in err


def test_unknown_command_exits_two(paths, capsys):
    code, _, _ = run(["frobnicate", "--scheme", paths["upwind"]], capsys)
    assert code == 2


def test_nonpositive_tolerance_exits_two(paths, capsys):
    code, _, err = run(
        ["check-cauchy", "--scheme", paths["upwind"], "--tol-radius", "-1"],
        capsys,
    )
    assert code == 2
    assert "must be positive" in err


@pytest.mark.parametrize("argv, option", [
    (["verify", "--estimate", "thm1", "--t-end", "inf"], "--t-end"),
    (["packet-experiment", "--xi", "1.0", "--Ts", "2,inf"], "--Ts"),
    (["packet-experiment", "--xi", "1.0", "--delta0", "inf"], "--delta0"),
    (["packet-experiment", "--xi", "nan"], "--xi"),
    (["classify-blocks", "--z-angle", "nan"], "--z-angle"),
])
def test_non_finite_option_exits_two(paths, capsys, argv, option):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv + ["--scheme", paths["leapfrog"]], capsys)
    assert (code, out) == (2, "")
    assert err == f"dibvp: {option} must be finite\n"


def test_bad_float_list_exits_two(paths, capsys):
    code, _, _ = run(
        ["check-uklc", "--scheme", paths["upwind"], "--grid-radii", "a,b"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["check-cauchy", "--grid-ntheta", "4"], "dibvp: --grid-ntheta must be at least 8\n"),
    (["packet-experiment", "--xi", "1.0", "--Ts", "2"],
     "dibvp: --Ts needs at least two horizons\n"),
    (["packet-experiment", "--xi", "1.0", "--Ts", "2,2"],
     "dibvp: packet-experiment: need at least two distinct horizons for a linear fit, "
     "got (2.0, 2.0)\n"),
    (["simulate", "--n-max", "0"], "dibvp: --n-max must be at least 1\n"),
    (["check-uklc", "--grid-radii", ","], "argument --grid-radii: empty list\n"),
], ids=["grid-ntheta", "Ts", "Ts-repeated", "n-max", "grid-radii"])
def test_option_out_of_range_exits_two(paths, capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv + ["--scheme", paths["leapfrog"]], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(message) and "Traceback" not in err


@pytest.mark.parametrize("refinements", ["0.1", "0.1,0.1"], ids=["one", "repeated"])
@pytest.mark.parametrize("estimate", ["thm1", "strong", "semigroup"])
def test_verify_needs_two_distinct_refinements(paths, capsys, estimate, refinements):
    # a slope from one refinement read 0 and passed an unstable scheme as
    # bounded; a repeated one reached np.polyfit's RankWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["verify", "--scheme", paths["upwind_unstable"],
                              "--estimate", estimate, "--grid-refinements", refinements],
                             capsys)
    assert (code, out) == (2, "")
    assert err == "dibvp: --grid-refinements needs at least two distinct refinements\n"


def test_incompatible_horizon_exits_two(paths, capsys):
    code, _, err = run(
        ["verify", "--scheme", paths["leapfrog"], "--estimate", "semigroup",
         "--t-end", "0.05"],
        capsys,
    )
    assert code == 2
    assert "n_max" in err


def test_oversized_horizon_exits_two_before_marching(paths, capsys):
    # the levels would take 1.6e17 bytes, more than the host's memory: the
    # run is refused before anything is allocated or marched
    code, out, err = run(
        ["simulate", "--scheme", paths["upwind"], "--n-max", "100000000"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "horizon too large: n_max 100000000" in err


@pytest.mark.parametrize("command", ["check-cauchy", "check-glancing"])
@pytest.mark.parametrize("message,want", [
    ("Unable to allocate 1.46 TiB for an array with shape (100000000000, 1, 1)",
     "Unable to allocate 1.46 TiB"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_grid_too_large_to_hold_exits_two(paths, capsys, monkeypatch, command, message, want):
    # a huge --grid-ntheta fails to allocate the symbol stack; the kernel
    # raises here instead, so no test asks for the memory
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("dibvp.symbol._amplification_stack", no_memory)
    code, out, err = run([command, "--scheme", paths["upwind"]], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"dibvp: {command}: {want}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bad_packet_branch_exits_two(paths, capsys):
    code, _, err = run(
        ["packet-experiment", "--scheme", paths["leapfrog"], "--xi", "0.7",
         "--branch", "9"],
        capsys,
    )
    assert code == 2
    assert "branch" in err


def test_corrupt_scheme_file_exits_two(paths, capsys):
    bad = paths["dir"] / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["check-cauchy", "--scheme", str(bad)], capsys)
    assert code == 2
    assert "cannot load scheme" in err


@pytest.mark.parametrize(
    "field,edit",
    [
        ("lambda", lambda d: d.update({"lambda": float("inf")})),
        ("interior", lambda d: d["interior"][0].update({"matrix": [[float("nan")]]})),
        ("boundary", lambda d: d["boundary"].append(
            {"ell": 0, "j": 0, "sigma": 0, "matrix": [[float("inf")]]})),
    ],
    ids=["lambda-inf", "interior-nan", "boundary-inf"],
)
@pytest.mark.parametrize("command", ["check-cauchy", "simulate"])
def test_non_finite_scheme_data_exits_two(paths, capsys, field, edit, command):
    # json writes these as Infinity / NaN, which the loader parses
    data = json.loads(open(paths["upwind"]).read())
    edit(data)
    bad = paths["dir"] / "non_finite.json"
    bad.write_text(json.dumps(data))
    code, out, err = run([command, "--scheme", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert field in err and "finite" in err


def _drop(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


# case: (the leap-frog file's contents made malformed, the field stderr names)
_MALFORMED_SCHEMES = {
    "interior-entry-without-sigma": (
        lambda d: {**d, "interior": [_drop(d["interior"][0], "sigma")]},
        "interior[0].sigma: missing"),
    "boundary-entry-without-matrix": (
        lambda d: {**d, "boundary": [{"ell": 0, "j": 0, "sigma": -1}]},
        "boundary[0].matrix: missing"),
    "entry-is-a-list": (
        lambda d: {**d, "interior": [[-1, 0, [[0.5]]]]},
        "interior[0].ell: list indices must be integers"),
    "top-level-is-a-list": (lambda d: [d], "top level: a list, not a JSON object"),
    "s-fraction": (lambda d: {**d, "s": 1.9}, "s: 1.9 is not an integer"),
    "N-bool": (lambda d: {**d, "N": True}, "N: True is not an integer"),
    "r-string": (lambda d: {**d, "r": "1"}, "r: '1' is not an integer"),
    # the (ell=0, sigma=1) entry: truncated, ell = 1.7 would land on the
    # free slot (ell=1, sigma=1)
    "ell-fraction": (
        lambda d: {**d, "interior": [{**e, "ell": 1.7} if e["sigma"] == 1 else e
                                     for e in d["interior"]]},
        "interior[1].ell: 1.7 is not an integer"),
    "lambda-string": (lambda d: {**d, "lambda": "0.5"}, "lambda: '0.5' is not a number"),
    "lambda-bool": (lambda d: {**d, "lambda": True}, "lambda: True is not a number"),
    "matrix-string": (
        lambda d: {**d, "interior": [{**d["interior"][0], "matrix": [["0.5"]]}]},
        "interior[0].matrix: '0.5' is not a number"),
    "matrix-bool": (
        lambda d: {**d, "boundary": [{"ell": 0, "j": 0, "sigma": -1, "matrix": [[True]]}]},
        "boundary[0].matrix: True is not a number"),
}


@pytest.mark.parametrize("case", _MALFORMED_SCHEMES)
def test_malformed_scheme_file_exits_two(paths, capsys, case):
    edit, field = _MALFORMED_SCHEMES[case]
    bad = paths["dir"] / "malformed.json"
    bad.write_text(json.dumps(edit(json.loads(open(paths["leapfrog"]).read()))))
    code, out, err = run(["check-cauchy", "--scheme", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"dibvp: cannot load scheme {str(bad)!r}: {field}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_python_dash_m_runs_the_cli(paths):
    env = dict(os.environ)
    src = str(Path(dibvp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("dibvp", "dibvp.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "check-cauchy", "--scheme", paths["upwind"]],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, module
        assert json.loads(done.stdout)["command"] == "check-cauchy"
    argv = [sys.executable, "-m", "dibvp.cli"]
    bare = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert bare.returncode == 2
    assert "usage:" in bare.stderr


def test_simulate_overflow_writes_nothing_to_stderr(paths):
    # second-order upwind at nu = 3 overflows its norm sums
    nu = 3.0
    interior = np.zeros((3, 1, 1, 1))
    interior[:, 0, 0, 0] = ((nu * nu - nu) / 2, nu * (2 - nu), 1 - 1.5 * nu + nu * nu / 2)
    path = paths["dir"] / "upwind2_unstable.json"
    save_scheme(SchemeDef(N=1, r=2, p=0, q=0, s=0, lam=1.0, interior=interior,
                          boundary=np.zeros((1, 2, 2, 1, 1))), path)
    env = dict(os.environ)
    src = str(Path(dibvp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "dibvp", "simulate", "--scheme", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert None in [row[1] for row in json.loads(done.stdout)["data"]["levels"]["rows"]]
    assert done.stderr == ""


@pytest.mark.parametrize("command", ["check-glancing", "check-uklc"])
def test_four_level_jordan_block_writes_nothing_to_stderr(capsys, command):
    # AB3 on upwind (s = 2): at theta = 0 the double parasitic root zeta = 0
    # is a Jordan block, whose eigenvector condition number overflows; a
    # warning turned into an error would leave the exit code or stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            [command, "--scheme", str(golden.SCHEMES / "ab3_upwind.json")], capsys
        )
    assert (code, err) == (0, "")
    assert all(v["ok"] for v in json.loads(out)["verdicts"])


def test_sbp_decompose_builds_the_decomposition_once(capsys, monkeypatch):
    import dibvp.cli
    import dibvp.sbp

    calls = []
    build = dibvp.sbp.energy_decomposition
    counted = lambda scheme: calls.append(1) or build(scheme)  # noqa: E731
    monkeypatch.setattr(dibvp.sbp, "energy_decomposition", counted)
    monkeypatch.setattr(dibvp.cli, "energy_decomposition", counted)
    code, _, _ = run(
        ["sbp-decompose", "--scheme", str(golden.SCHEMES / "upwind.json")], capsys
    )
    assert (code, len(calls)) == (0, 1)


EIGEN_FIXTURES = {
    "upwind": lambda: upwind(0.5, 1.0),
    "lax_wendroff": lambda: lax_wendroff(1.0, 0.5, boundary="extrapolation"),
    "three_point": lambda: three_point(0.4, 0.3, 0.3, lam=0.5),
    "leapfrog": lambda: leap_frog(0.5, 1.0),
    "system": golden._system_upwind,
}


@pytest.mark.parametrize("name", EIGEN_FIXTURES)
def test_scalar_one_step_symbols_skip_lapack(name, tmp_path, capsys, monkeypatch):
    # a 1x1 eigenproblem is read off its entry (core._eig, core._eigvals):
    # a scalar one-step scheme's symbol checks send no 1x1 stack to LAPACK,
    # while leap-frog (s = 1) and the 2x2 system still reach it
    shapes = []
    for solver in ("eig", "eigvals"):
        solve = getattr(np.linalg, solver)
        monkeypatch.setattr(np.linalg, solver,
                            lambda a, solve=solve: shapes.append(np.shape(a)[-2:]) or solve(a))
    path = tmp_path / f"{name}.json"
    save_scheme(EIGEN_FIXTURES[name](), path)
    for command in ("check-cauchy", "check-glancing", "check-uklc"):
        code, _, err = run([command, "--scheme", str(path)], capsys)
        assert code in (0, 1) and err == "", command
    if name in ("leapfrog", "system"):
        assert (2, 2) in shapes
    else:
        assert (1, 1) not in shapes


def test_parser_is_built_once(paths, capsys, monkeypatch):
    # the second command reuses the first one's parser, and its omitted
    # options still take their defaults
    run(["check-cauchy", "--scheme", paths["upwind"], "--grid-ntheta", "16"], capsys)
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    code, out, _ = run(["check-cauchy", "--scheme", paths["upwind"]], capsys)
    assert built == []
    assert code == 0 and json.loads(out)["config"]["n_theta"] == 512


# ---------------------------------------------------------------------------
# verdict-sized tables: the default rows decide what every sample decides


def _deviation(rows):
    """max |abs_delta - 1| over delta_samples rows, a null counting as inf:
    the benchmark's reading of a Dirichlet scheme's table."""
    return max(math.inf if row[2] is None else abs(row[2] - 1.0) for row in rows)


def _truth_paths(population, tmp_path):
    if population == "golden":
        return [str(golden.SCHEMES / f"{name}.json") for name in golden.SCHEME_SOURCES]
    paths = []
    for k, (_, scheme) in enumerate(analyze_population(population)):
        paths.append(str(tmp_path / f"{k}.json"))
        save_scheme(scheme, paths[-1])
    return paths


@pytest.mark.parametrize("population", ["golden", 1, 2, 3])
def test_default_tables_read_the_same_truth_as_samples(population, tmp_path, capsys):
    for path in _truth_paths(population, tmp_path):
        for command, name in (("check-cauchy", "radius_samples"),
                              ("check-uklc", "delta_samples")):
            code, small, _ = run([command, "--scheme", path], capsys)
            full_code, full, _ = run([command, "--scheme", path, "--samples"], capsys)
            small, full = json.loads(small), json.loads(full)
            assert (code, small["verdicts"]) == (full_code, full["verdicts"])
            assert (small["config"].pop("samples"), full["config"].pop("samples")) == (False, True)
            assert small["config"] == full["config"]
            if not full["data"]:  # a failed stable-subspace split has no tables
                assert small["data"] == {}
                continue
            rows, every = small["data"][name]["rows"], full["data"][name]["rows"]
            assert [row for row in every if row in rows] == rows  # grid order
            # the first sample of each extreme, or the first NaN sample
            values = [row[-1] for row in every]
            if None in values:
                extremes = [None]
            elif command == "check-cauchy":
                extremes = [max(values)]
            else:
                extremes = [min(values), max(values)]
            if command == "check-uklc":
                assert _deviation(rows) == _deviation(every)
                assert small["data"]["per_radius_min"] == full["data"]["per_radius_min"]
            assert rows == [every[i] for i in sorted({values.index(v) for v in extremes})]


def test_a_nan_sample_shows_as_null(paths, capsys, monkeypatch):
    # one stubbed NaN sample: numpy's argmax and argmin both pick it
    from dibvp.resolvent import _lopatinskii as lopatinskii
    from dibvp.symbol import _eigvals as eigvals

    def nan_delta(*args):
        values, fallbacks = lopatinskii(*args)
        values = values.copy()
        values[9] = np.nan
        return values, fallbacks

    def nan_radius(amp):
        vals = eigvals(amp).copy()
        vals[5] = np.nan
        return vals

    for command, name, target, stub, index in (
        ("check-cauchy", "radius_samples", "dibvp.symbol._eigvals", nan_radius, 5),
        ("check-uklc", "delta_samples", "dibvp.resolvent._lopatinskii", nan_delta, 9),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, stub)
            argv = [command, "--scheme", paths["leapfrog"], "--grid-ntheta", "16"]
            code, out, _ = run(argv, capsys)
            full_code, full, _ = run(argv + ["--samples"], capsys)
        assert code == full_code == 1
        every = json.loads(full)["data"][name]["rows"]
        assert every[index][-1] is None
        assert json.loads(out)["data"][name]["rows"] == [every[index]]


@pytest.mark.parametrize("scheme_name", list(golden.SCHEME_SOURCES))
def test_default_check_reports_are_small(scheme_name, capsys):
    # at the default grids: 512 angles, 6 radii x 64 angles
    path = str(golden.SCHEMES / f"{scheme_name}.json")
    for command in ("check-cauchy", "check-uklc"):
        _, out, _ = run([command, "--scheme", path], capsys)
        assert len(out.encode()) < 2048


@pytest.mark.parametrize("command,name,small,every", [
    ("check-cauchy", "radius_samples", 1, 512),
    ("check-uklc", "delta_samples", 2, 6 * 64),
])
def test_csv_sidecars_hold_the_report_tables(paths, capsys, command, name, small, every):
    for flags, count in (([], small), (["--samples"], every)):
        out_dir = paths["dir"] / f"{command}-{count}"
        _, out, _ = run([command, "--scheme", paths["leapfrog"], *flags,
                         "--out", str(out_dir)], capsys)
        rows = json.loads(out)["data"][name]["rows"]
        lines = (out_dir / f"{name}.csv").read_text().splitlines()
        assert len(rows) == count
        assert lines[1:] == [",".join(map(repr, row)) for row in rows]


# ---------------------------------------------------------------------------
# artifacts


def test_out_directory_artifacts(paths, capsys):
    out_dir = paths["dir"] / "artifacts"
    code, out, _ = run(
        ["check-glancing", "--scheme", paths["leapfrog"],
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 1
    files = sorted(os.listdir(out_dir))
    assert files == ["glancing_points.csv", "report.json"]
    with open(out_dir / "report.json") as fh:
        assert json.load(fh) == json.loads(out)
    lines = (out_dir / "glancing_points.csv").read_text().splitlines()
    assert lines[0] == "branch,theta,kappa_re,kappa_im,zeta_re,zeta_im,abs_deriv,deriv_err"
    assert len(lines) == 1 + len(json.loads(out)["data"]["glancing_points"]["rows"])


def test_csv_keeps_header_for_empty_table(paths, capsys):
    out_dir = paths["dir"] / "empty"
    run(["check-glancing", "--scheme", paths["upwind"],
         "--out", str(out_dir)], capsys)
    lines = (out_dir / "glancing_points.csv").read_text().splitlines()
    assert lines == ["branch,theta,kappa_re,kappa_im,zeta_re,zeta_im,abs_deriv,deriv_err"]


def test_reports_byte_stable_given_seed(paths, capsys):
    argv = ["simulate", "--scheme", paths["upwind"], "--n-max", "30",
            "--seed", "3"]
    d1, d2 = paths["dir"] / "run1", paths["dir"] / "run2"
    run(argv + ["--out", str(d1)], capsys)
    run(argv + ["--out", str(d2)], capsys)
    r1 = json.loads((d1 / "report.json").read_text())
    r2 = json.loads((d2 / "report.json").read_text())
    r1.pop("meta"), r2.pop("meta")
    assert r1 == r2
    for name in ("levels.csv", "summary.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_emit_report_handles_non_finite(tmp_path):
    report = {
        "schema": "dibvp-report/2",
        "command": "demo",
        "config": {"seed": 0},
        "verdicts": [],
        "data": {"t": {"columns": ["x"], "rows": [[float("nan")], [1.5]]}},
        "version": "0",
        "meta": {},
    }
    emit_report(report, str(tmp_path))
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["data"]["t"]["rows"][0][0] is None
    lines = (tmp_path / "t.csv").read_text().splitlines()
    # a lone empty field is quoted so the row stays non-empty
    assert lines == ["x", '""', "1.5"]


# ---------------------------------------------------------------------------
# report bytes: the one-pass writer against the standard library encoder


def _pyify(obj):
    """Recursively convert to plain JSON-safe Python (NaN/inf become null)."""
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _pyify(obj.real), "im": _pyify(obj.imag)}
    return obj


def _reference_text(obj) -> str:
    return json.dumps(_pyify(obj), indent=2, sort_keys=True, allow_nan=False)


_strings = st.sampled_from(
    ['', '"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f", "é",
     "\u65e5\u672c", "\u2028", "\U0001f600", "%s %d"]
) | st.text(max_size=8)
_floats = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1, -2.5e-300]
) | st.floats()
_numbers = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
)
_scalars = st.one_of(
    _numbers,
    _strings,
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.complex_numbers(max_magnitude=1e30).map(np.complex64),
)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_, np.complex128]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
)
_cells = st.one_of(_numbers, st.none(), _strings)
_rows = st.one_of(
    # equal-length numeric rows, as a table's rows
    st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(_numbers, min_size=k, max_size=k), max_size=6)
    ),
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.tuples(*[_floats] * k), min_size=1, max_size=6)
    ),
    # unequal lengths, and rows mixing int, float, None and str
    st.lists(st.lists(_cells, max_size=4), max_size=6),
)
_keys = st.one_of(_strings, st.integers(-3, 3), st.booleans())
_trees = st.recursive(
    _scalars | _arrays | _rows,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(_trees)
def test_report_text_matches_json_dumps_of_pyify(tree):
    try:
        want = _reference_text(tree)
    except TypeError:
        # a 0-d array has no items: neither writer can lay it out
        with pytest.raises(TypeError):
            _report_text(tree)
    else:
        assert _report_text(tree) == want


def test_report_text_rejects_unknown_types():
    with pytest.raises(TypeError, match="not JSON serializable"):
        _report_text({"data": [1.0, object()]})
    with pytest.raises(TypeError):
        _report_text(np.array(1.0))


@pytest.mark.parametrize("scheme_name,case", golden.CASES,
                         ids=[f"{s}.{c}" for s, c in golden.CASES])
def test_golden_stdout_is_the_standard_encoding(scheme_name, case):
    # the golden files pin the parsed report; this pins the printed bytes
    path = golden.SCHEMES / f"{scheme_name}.json"
    argv = [golden.COMMANDS[case][0], "--scheme", str(path),
            *golden.COMMANDS[case][1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run_command(argv)
    text = out.getvalue()
    assert text
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True,
                              allow_nan=False) + "\n"


@pytest.mark.parametrize("argv", [
    ["check-cauchy", "--grid-ntheta", "32"],
    ["check-uklc", "--grid-ntheta", "8", "--grid-radii", "0.1,0.01"],
    ["simulate", "--n-max", "20", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_report_json_holds_the_stdout_bytes(paths, capsys, argv):
    out_dir = paths["dir"] / argv[0]
    code, out, _ = run(
        [argv[0], "--scheme", paths["upwind_unstable"], *argv[1:],
         "--out", str(out_dir)],
        capsys,
    )
    assert code in (0, 1)
    assert (out_dir / "report.json").read_bytes() == out.encode()


def test_out_renders_the_report_once(paths, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("dibvp.cli._report_text",
                        lambda rep: calls.append(1) or _report_text(rep))
    code, out, _ = run(["simulate", "--scheme", paths["upwind"], "--n-max", "20",
                        "--out", str(paths["dir"] / "once")], capsys)
    assert code == 0 and len(calls) == 1
    assert (paths["dir"] / "once" / "report.json").read_bytes() == out.encode()
