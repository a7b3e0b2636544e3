"""Golden reports: every CLI command's exit code and report bytes, pinned.

Each case runs one command in-process on a scheme file stored under
``tests/golden/schemes`` and compares the result with
``tests/golden/<scheme>.<case>.json``.  ``meta`` (wall clock) is dropped
and ``config.scheme`` is reduced to the file name, so the pinned bytes
are exactly the part of a report that the CLI promises to keep stable.
Grids are small so the whole file runs in a few seconds.

``march_bits.json`` pins the march itself: the sha256 of the levels of
``run_ibvp``, ``run_cauchy`` and ``split_solution`` (U, V, W and g) on the
same schemes at MARCH_LEVELS levels, so a change that means to keep every
bit of a run is checked for it here.  ``packet_bits.json`` does the same
for the packet layer: the envelope quadrature, the sampled packet data,
and the trace experiment and packet error of the ``packets`` benchmark's
three packet kinds on short horizons.

A change that means to alter a report or a march regenerates the files
with

    PYTHONPATH=src python tests/test_golden.py

and commits them together with the change.  Regeneration rewrites only
the files whose bytes change and prints, for each, how many floats moved
and by how much at most, and the path of every change that is not a
float (exit code, a verdict's ``ok`` or detail string, stderr).
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dibvp.cli import run_command
from dibvp.core import (GridSequence, SchemeDef, lax_wendroff, leap_frog, load_scheme,
                        save_scheme, upwind)
from dibvp.sim import decaying_data, run_cauchy, run_ibvp, split_solution
from dibvp.symbol import find_glancing
from dibvp.wavepacket import (glancing_trace_experiment, make_envelope, make_packet,
                              packet_error, packet_initial_data)

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMES = GOLDEN / "schemes"


def _system_upwind() -> SchemeDef:
    """Symmetric 2x2 system advected leftward (r = 1, p = 0)."""
    A = np.array([[0.5, 0.25], [0.25, 0.5]])
    return SchemeDef(
        N=2, r=1, p=0, q=0, s=0, lam=1.0,
        interior=np.stack([A, np.eye(2) - A])[:, None],
        boundary=np.zeros((1, 1, 2, 2, 2)),
        label="system-upwind",
    )


def _ab3_upwind() -> SchemeDef:
    """Third-order Adams-Bashforth in time on first-order upwind (s = 2).

    U^{n+1} = U^n - nu (23 D U^n - 16 D U^{n-1} + 5 D U^{n-2}) / 12 with
    (D U)_j = U_j - U_{j-1}, nu = 0.2, lam = 0.5 and a zero Dirichlet row.
    """
    nu = 0.2
    interior = np.zeros((2, 3, 1, 1))
    for sigma, c in enumerate((23, -16, 5)):
        interior[0, sigma] = c * nu / 12  # ell = -1
        interior[1, sigma] = -c * nu / 12  # ell = 0
    interior[1, 0] += 1.0
    return SchemeDef(
        N=1, r=1, p=0, q=0, s=2, lam=0.5, interior=interior,
        boundary=np.zeros((1, 1, 4, 1, 1)), label="ab3-upwind",
    )


def _leapfrog4() -> SchemeDef:
    """Fourth-order leap-frog (r = p = 2, s = 1), nu = 0.5, lam = 0.5, with
    zero boundary rows:

    U^{n+1} = U^{n-1} - (nu/6) [8 (U_{j+1} - U_{j-1}) - (U_{j+2} - U_{j-2})].

    Its omega' is proportional to 8 cos theta - 2 cos 2 theta, which
    vanishes at theta* = arccos(1 - sqrt(3/2)) and 2 pi - theta*, on no
    node of a 64- or 512-point grid: the glancing refiner's fixture.
    """
    nu = 0.5
    interior = np.zeros((5, 2, 1, 1))
    for ell, c in ((-2, -1), (-1, 8), (1, -8), (2, 1)):
        interior[ell + 2, 0] = c * nu / 6
    interior[2, 1] = 1.0
    return SchemeDef(
        N=1, r=2, p=2, q=0, s=1, lam=0.5, interior=interior,
        boundary=np.zeros((1, 2, 3, 1, 1)), label="leap-frog-4",
    )


# name -> scheme that regenerate() writes to schemes/<name>.json
SCHEME_SOURCES = {
    "upwind": lambda: upwind(0.5, 1.0),
    "lw_extrap": lambda: lax_wendroff(1.0, 0.5, boundary="extrapolation"),
    "leapfrog": lambda: leap_frog(0.5, 1.0),
    "system": _system_upwind,
    "upwind_unstable": lambda: upwind(0.5, 2.4),
    "leapfrog_unstable": lambda: leap_frog(1.5, 1.0),
    "ab3_upwind": _ab3_upwind,
    "leapfrog4": _leapfrog4,
}

# case -> command line after "--scheme <file>"; grids kept small
COMMANDS = {
    "check-cauchy": ["check-cauchy", "--grid-ntheta", "64"],
    "check-cauchy-samples": ["check-cauchy", "--grid-ntheta", "64", "--samples"],
    "check-glancing": ["check-glancing", "--grid-ntheta", "64"],
    "check-uklc": ["check-uklc", "--grid-ntheta", "16",
                   "--grid-radii", "0.1,0.001"],
    "check-uklc-samples": ["check-uklc", "--grid-ntheta", "16",
                           "--grid-radii", "0.1,0.001", "--samples"],
    "classify-blocks": ["classify-blocks", "--z-angle", "0.7"],
    "sbp-decompose": ["sbp-decompose"],
    "simulate": ["simulate", "--n-max", "40", "--sites", "16", "--seed", "3"],
    "verify-thm1": ["verify", "--estimate", "thm1", "--t-end", "1",
                    "--grid-refinements", "0.1,0.05", "--grid-gammas", "0.1,1"],
    "verify-strong": ["verify", "--estimate", "strong", "--t-end", "1",
                      "--grid-refinements", "0.1,0.05", "--grid-gammas", "0.1,1"],
    "verify-semigroup": ["verify", "--estimate", "semigroup", "--t-end", "1",
                         "--grid-refinements", "0.1,0.05"],
    "packet-experiment": ["packet-experiment", "--xi", "0.5", "--Ts", "1,2",
                          "--dts", "0.1"],
}

CASES = [(s, c) for s in SCHEME_SOURCES for c in COMMANDS]


def render(scheme_name: str, case: str) -> str:
    """Run one case and return its normalised outcome as JSON text."""
    path = SCHEMES / f"{scheme_name}.json"
    argv = [COMMANDS[case][0], "--scheme", str(path), *COMMANDS[case][1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    report = None
    if out.getvalue():
        report = json.loads(out.getvalue())
        del report["meta"]
        report["config"]["scheme"] = path.name
    outcome = {
        "exit": code,
        "report": report,
        "stderr": err.getvalue().replace(str(path), path.name),
    }
    return json.dumps(outcome, indent=2, sort_keys=True, allow_nan=False) + "\n"


def golden_path(scheme_name: str, case: str) -> Path:
    return GOLDEN / f"{scheme_name}.{case}.json"


@pytest.mark.parametrize("scheme_name,case", CASES,
                         ids=[f"{s}.{c}" for s, c in CASES])
def test_report_matches_golden(scheme_name, case):
    expected = golden_path(scheme_name, case).read_text()
    assert render(scheme_name, case) == expected


@pytest.mark.parametrize("n_theta", [64, 512])
def test_leapfrog4_glancing_points_are_found_between_grid_nodes(n_theta):
    # omega' ~ 8 cos theta - 2 cos 2 theta vanishes at cos theta = 1 - sqrt(3/2),
    # on both branches; the secant refiner finds each zero inside its cell
    t_star = np.arccos(1 - np.sqrt(1.5))
    report = find_glancing(load_scheme(SCHEMES / "leapfrog4.json"), n_theta=n_theta)
    points = sorted((p.branch, p.theta) for p in report.points)
    assert [b for b, _ in points] == [0, 0, 1, 1]
    for (_, theta), want in zip(points, [t_star, 2 * np.pi - t_star] * 2):
        node = want * n_theta / (2 * np.pi)
        assert abs(node - round(node)) > 0.1  # off the grid
        assert abs(theta - want) <= 1e-9


MARCH_LEVELS = 300


def _sha256(levels: np.ndarray) -> str:
    """The hash of an array's dtype, shape and bytes."""
    head = f"{levels.dtype.str} {levels.shape} ".encode()
    return hashlib.sha256(head + np.ascontiguousarray(levels).tobytes()).hexdigest()


def march_bits() -> str:
    """The hashes of each golden scheme's runs as JSON text: real data (a
    float march for a scalar scheme), the same data times 1 - 0.5i (a
    complex march), half-line runs with and without boundary rows g,
    whole-line runs over their support and over a window, and a split."""
    bits = {}
    for name in SCHEME_SOURCES:
        scheme = load_scheme(SCHEMES / f"{name}.json")
        real = decaying_data(scheme, 16, seed=3)
        cplx = tuple(GridSequence(f.offset, f.values * (1 - 0.5j), implicit_zero=True)
                     for f in real)
        g = np.random.default_rng(5).standard_normal((MARCH_LEVELS + 1, scheme.r, scheme.N))
        split = split_solution(scheme, cplx, MARCH_LEVELS, dt=0.1)
        levels = {
            "run_ibvp": run_ibvp(scheme, real, MARCH_LEVELS).levels,
            "run_ibvp.complex": run_ibvp(scheme, cplx, MARCH_LEVELS).levels,
            "run_ibvp.g": run_ibvp(scheme, real, MARCH_LEVELS, j_obs=40, g=g).levels,
            "run_cauchy": run_cauchy(scheme, real, MARCH_LEVELS).levels,
            "run_cauchy.window": run_cauchy(scheme, cplx, MARCH_LEVELS, window=(-3, 5)).levels,
            **{f"split_solution.{part}": getattr(split, part).levels for part in "UVW"},
            "split_solution.g": split.g,
        }
        bits[name] = {key: _sha256(lv) for key, lv in levels.items()}
    return json.dumps(bits, indent=2, sort_keys=True) + "\n"


def test_march_keeps_its_bits():
    assert json.loads(march_bits()) == json.loads((GOLDEN / "march_bits.json").read_text())


# the packets benchmark's three kinds: (scheme, carrier xi, branch)
PACKET_KINDS = {
    "glancing": (leap_frog(0.5, 1.0), np.pi / 2, 1),
    "control": (upwind(0.5, 1.0), 0.0, 0),
    "carrier": (leap_frog(0.5, 1.0), 0.9, 0),
}
PACKET_DXS = (0.2, 0.1)


def packet_bits() -> str:
    """The hashes of the packet layer as JSON text: two envelopes' nodes,
    weights and quadrature error; and, on the delta0 = 0.75 envelope, a
    glancing packet's data at dx 0.2 and each packet kind's trace
    experiment and packet error at PACKET_DXS."""
    bits = {}
    envs = {delta0: make_envelope(delta0) for delta0 in (0.5, 0.75)}
    for delta0, env in envs.items():
        bits[f"make_envelope.{delta0}"] = {
            "nodes": _sha256(env.nodes), "weights": _sha256(env.weights),
            "quad_error": _sha256(np.array([env.quad_error])),
        }
    for name, (scheme, xi, branch) in PACKET_KINDS.items():
        spec = make_packet(scheme, xi, envs[0.75], branch=branch)
        rep = glancing_trace_experiment(spec, T_list=(1.0, 2.0),
                                        dt_list=[scheme.lam * dx for dx in PACKET_DXS])
        fit = np.array([rep.slopes, rep.intercepts, rep.r_squared])
        bits[f"{name}.glancing_trace_experiment"] = {
            "trace_sums": _sha256(rep.trace_sums), "mass_ratios": _sha256(rep.mass_ratios),
            "fit": _sha256(fit), "reference": _sha256(np.array([rep.reference])),
        }
        bits[f"{name}.packet_error"] = {
            str(dx): _sha256(np.array(packet_error(spec, [0, 3, 6], dx).sup_errors))
            for dx in PACKET_DXS
        }
        if name == "glancing":
            layers = packet_initial_data(spec, 0.2)
            bits["packet_initial_data.default"] = {
                "offsets": _sha256(np.array([lay.offset for lay in layers])),
                **{f"layer{k}": _sha256(lay.values) for k, lay in enumerate(layers)},
            }
    return json.dumps(bits, indent=2, sort_keys=True) + "\n"


def test_packets_keep_their_bits():
    assert json.loads(packet_bits()) == json.loads((GOLDEN / "packet_bits.json").read_text())


def _leaves(node, path: str = "") -> dict:
    """Map each leaf of a decoded JSON document to its path."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    return {p: leaf for k, v in items for p, leaf in _leaves(v, k).items()}


def summarize_change(old: str, new: str) -> str:
    """Count the floats that moved, their largest relative change, and name
    the paths of every other change."""
    a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    floats, worst, other = 0, 0.0, []
    for path in sorted(a.keys() | b.keys()):
        x, y = a.get(path), b.get(path)
        if (path in a) == (path in b) and repr(x) == repr(y):
            continue
        if type(x) is float and type(y) is float:
            floats += 1
            worst = max(worst, abs(y - x) / (max(abs(x), abs(y)) or 1.0))
        else:
            other.append(path)
    line = f"{floats} floats changed, largest relative change {worst:.2e}"
    return line + (f"; not a float: {', '.join(other)}" if other else "")


def _write_if_changed(path: Path, text: str) -> None:
    old = path.read_text() if path.exists() else None
    if text == old:
        return
    path.write_text(text)
    change = "new file" if old is None else summarize_change(old, text)
    print(f"{path.relative_to(GOLDEN)}: {change}")


def test_summarize_change_counts_floats_and_names_the_rest():
    old = {"exit": 0, "stderr": "", "report": {"verdicts": [
        {"ok": True, "detail": "slope 1.0"}], "rows": [[0.1, 2.0, -0.0]]}}
    new = json.loads(json.dumps(old))
    assert summarize_change(json.dumps(old), json.dumps(new)) == (
        "0 floats changed, largest relative change 0.00e+00")
    new["report"]["rows"][0][1:] = [3.0, 0.0]  # -0.0 to 0.0 is a change
    assert summarize_change(json.dumps(old), json.dumps(new)) == (
        "2 floats changed, largest relative change 3.33e-01")
    new.update(exit=1, stderr="warning\n")
    new["report"]["verdicts"][0].update(ok=False, detail="slope 2.0")
    assert summarize_change(json.dumps(old), json.dumps(new)).endswith(
        "; not a float: exit, report.verdicts[0].detail, "
        "report.verdicts[0].ok, stderr")


def regenerate() -> None:
    SCHEMES.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in SCHEME_SOURCES.items():
            fresh = Path(tmp) / f"{name}.json"
            save_scheme(make(), fresh)
            _write_if_changed(SCHEMES / fresh.name, fresh.read_text())
    for scheme_name, case in CASES:
        _write_if_changed(golden_path(scheme_name, case), render(scheme_name, case))
    _write_if_changed(GOLDEN / "march_bits.json", march_bits())
    _write_if_changed(GOLDEN / "packet_bits.json", packet_bits())


if __name__ == "__main__":
    regenerate()
