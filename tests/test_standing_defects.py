"""The standing defects of ROADMAP.md, one probe each, as strict expected failures.

Each probe asserts the right verdict and exit code, never that the defect
still shows.  While the defect stands the probe fails and is reported as
xfailed; the change that mends a defect sees its probe pass, which
``strict=True`` turns into a failure until the marker is dropped and the
probe becomes a plain regression test.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dibvp.cli import run_command
from dibvp.core import SchemeDef, save_scheme, upwind
from dibvp.sim import verify_thm1
from populations import _bench_module, lax_wendroff_system

SCHEMES = Path(__file__).resolve().parent / "golden" / "schemes"


@pytest.fixture
def cli(capsys, tmp_path):
    """Run one command on a scheme file or SchemeDef: (exit code, report or None)."""
    def run(command, scheme):
        if isinstance(scheme, SchemeDef):
            save_scheme(scheme, tmp_path / "scheme.json")
            scheme = tmp_path / "scheme.json"
        code = run_command([command, "--scheme", str(scheme)])
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None
    return run


def _failed_verdicts(report) -> list:
    return [v for v in report["verdicts"] if not v["ok"]]


@pytest.mark.xfail(strict=True, reason="standing defect 1; Direction 23")
def test_defect_1_godunov_ryabenkii_eigenvalue_fails_check_uklc(cli):
    # upwind at nu = 0.5 with U_0 = 3 U_1: Delta(z) = 1 - 3 nu / (z - 1 + nu)
    # vanishes at z0 = 2, and the half-line solution grows like 2^n
    scheme = upwind(0.5, 1.0)
    boundary = scheme.boundary.copy()
    boundary[0, 0, 0] = 3.0  # ell 0, j 0, sigma -1
    code, report = cli("check-uklc", dataclasses.replace(scheme, boundary=boundary))
    assert code == 1
    assert _failed_verdicts(report)


@pytest.mark.xfail(strict=True, reason="standing defect 2; Directions 6 and 27")
def test_defect_2_zero_of_delta_on_the_circle_fails_check_uklc(cli):
    # Lax-Wendroff with extrapolation has Delta(1) = 0
    code, report = cli("check-uklc", SCHEMES / "lw_extrap.json")
    assert code == 1
    assert _failed_verdicts(report)


@pytest.mark.xfail(strict=True, reason="standing defect 4; Direction 4")
def test_defect_4_characteristic_stencil_is_refused_at_load(cli):
    # upwind with p = 1 and A[+1] = 0 at nu = 1: taps 1, 0, 0
    interior = np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1, 1)
    scheme = SchemeDef(N=1, r=1, p=1, q=0, s=0, lam=1.0, interior=interior,
                       boundary=np.zeros((1, 1, 2, 1, 1)))
    code, report = cli("check-cauchy", scheme)
    assert code == 2
    assert report is None


@pytest.mark.xfail(strict=True, reason="standing defect 5; Direction 4")
def test_defect_5_overflowing_norms_fail_simulate(cli):
    # second-order upwind beyond its CFL limit overflows from level 184 on
    code, report = cli("simulate", _bench_module("workloads").upwind2(3.0))
    assert code == 1
    assert _failed_verdicts(report)


@pytest.mark.xfail(strict=True, reason="standing defect 6; Direction 20")
def test_defect_6_jordan_block_symbol_fails_check_cauchy(cli):
    # the von Neumann radius is 1, yet max_theta ||G(theta)^200|| is 37.5
    code, report = cli("check-cauchy", lax_wendroff_system(np.array([[1.0, 1.0], [0.0, 1.0]])))
    assert code == 1
    assert _failed_verdicts(report)


@pytest.mark.xfail(strict=True, reason="standing defect 8; Direction 18")
def test_defect_8_one_dt_claims_no_bound():
    # one dt fits no slope, so it cannot show the ratio bounded under refinement
    rep = verify_thm1(upwind(0.5, 2.4), gammas=(0.1,), refinements=(0.1,), t_end=2.0)
    assert not rep.bounded
