"""The three workloads and their per-item correctness gates.

A workload runs a fixed batch of steps built from the seeded inputs, one
after another in one process (a closed loop with one client).  Every step
is timed on its own.  An *item* is a step that yields one report or one
verdict: it gets a latency sample and a correctness check against a
closed-form truth.  Checks run outside the timed region and with tracing
off.  An item fails when it raises, exits 2, or fails its check; failures
are counted, never dropped.

dibvp functions are always looked up on their module at call time
(``sim.verify_thm1``, not a name imported once), so the tracer's wrappers
see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from dibvp import cli, core, sbp, sim, symbol
from dibvp import wavepacket as wp

ANALYZE_COMMANDS = (
    "check-cauchy", "check-glancing", "check-uklc",
    "classify-blocks", "sbp-decompose", "simulate",
)
SIMULATE_N_MAX = 200  # the CLI default
BISECT_TOL = 1e-7
CFL_TOL = 1e-6

PACKET_LAM = 0.5
GLANCING_TS = (2.0, 4.0, 6.0, 8.0)
# the transported control needs long horizons to saturate; run_cauchy
# keeps every level, so it runs at the coarsest dt only (as criterion 9
# does): at dt 0.025 and T = 100 its trace alone holds over 1 GB
CONTROL_TS = (25.0, 50.0, 100.0)
PACKET_T = 1.0


class Recorder:
    """Times the steps of one batch and records item outcomes."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.busy = 0.0
        self.steps = []
        self.probes = []  # reference-kernel time before each step, and after the last
        self.item_steps = []  # index in ``steps`` of each item
        self.attempted = 0
        self.failures = []

    def _probe(self):
        if self.tracer:
            self.tracer.on = False
        try:
            self.probes.append(self.probe())
        finally:
            if self.tracer:
                self.tracer.on = True

    def finish(self):
        """Close the batch: probe the machine's speed after its last step."""
        if self.probe:
            self._probe()

    def _timed(self, kind, fn):
        if self.probe:
            self._probe()
        tracer = self.tracer
        idx = tracer.open(tracer.name_id("item." + kind)) if tracer else None
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close(idx)
            self.busy += elapsed
            self.steps.append(elapsed)

    def call(self, kind, fn):
        """A timed step that is not an item (its errors abort the run)."""
        return self._timed(kind, fn)

    def item(self, kind, fn, check, known=None):
        """Time one item, then check it; ``known(result)`` marks a known defect."""
        self.attempted += 1
        result = None
        try:
            result = self._timed(kind, fn)
        except Exception as exc:  # an item that raises is a counted failure
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            if self.tracer:
                self.tracer.on = False
            try:
                reason = check(result)
            except Exception as exc:  # unreadable output fails the item
                reason = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if self.tracer:
                    self.tracer.on = True
        self.item_steps.append(len(self.steps) - 1)
        if reason:
            self.failures.append({
                "kind": kind,
                "reason": reason,
                "known": bool(known is not None and result is not None and known(result)),
            })


# ---------------------------------------------------------------------------
# schemes


def upwind2(nu: float):
    """Second-order upwind scheme (r = 2, p = 0), l2-stable for 0 <= nu <= 2."""
    interior = np.zeros((3, 1, 1, 1))
    interior[0, 0, 0, 0] = (nu * nu - nu) / 2
    interior[1, 0, 0, 0] = nu * (2 - nu)
    interior[2, 0, 0, 0] = 1 - 1.5 * nu + nu * nu / 2
    return core.SchemeDef(
        N=1, r=2, p=0, q=0, s=0, lam=1.0, interior=interior,
        boundary=np.zeros((1, 2, 2, 1, 1)), label="second-order-upwind",
    )


def system_upwind(nu: float, nu2: float, phi: float):
    """Upwind step for a 2x2 symmetric system with Courant numbers nu, nu2."""
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    A = rot @ np.diag([nu, nu2]) @ rot.T
    return core.SchemeDef(
        N=2, r=1, p=0, q=0, s=0, lam=1.0,
        interior=np.stack([A, np.eye(2) - A])[:, None],
        boundary=np.zeros((1, 1, 2, 2, 2)), label="system-upwind",
    )


# family -> factory in dibvp.core
FACTORIES = {
    "upwind": "upwind",
    "lax-friedrichs": "lax_friedrichs",
    "lax-wendroff": "lax_wendroff",
    "leap-frog": "leap_frog",
}


def three_point_coeffs(spec) -> tuple:
    nu, d = spec["nu"], spec["d"]
    return (d + nu) / 2, 1 - d, (d - nu) / 2


def make_scheme(spec):
    family = spec["family"]
    if family in FACTORIES:
        factory = getattr(core, FACTORIES[family])
        return factory(spec["lam"], spec["a"], spec["boundary"])
    if family == "three-point":
        return core.three_point(
            *three_point_coeffs(spec), lam=spec["lam"], boundary=spec["boundary"]
        )
    if family == "upwind2":
        return upwind2(spec["nu"])
    if family == "system":
        return system_upwind(spec["nu"], spec["nu2"], spec["phi"])
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# analyze: every analysis command on a stratified population, plus
# CFL-limit bisections with the spectral and energetic oracles


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_reason(res, want):
    code, _, err = res
    if code != want:
        return f"exit {code}, expected {want}" + (f" ({err.strip()[:160]})" if err else "")
    return None


def _table(res, name):
    return json.loads(res[1])["data"][name]["rows"]


def _check_cauchy(spec, scheme, res):
    reason = _exit_reason(res, 0 if spec["stable"] else 1)
    if reason or spec["family"] != "three-point":
        return reason
    crit = sbp.cauchy_criterion_3pt(*three_point_coeffs(spec), lam=spec["lam"])
    if crit.stable != spec["stable"]:
        return f"cauchy_criterion_3pt says stable={crit.stable}"
    return None


def _check_glancing(spec, scheme, res):
    flagged = spec["family"] == "leap-frog" and spec["stable"]
    return _exit_reason(res, 1 if flagged else 0)


def _check_uklc(spec, scheme, res):
    if spec["stable"] and spec["boundary"] == "extrapolation":
        return _check_uklc_extrapolation(spec, res)
    reason = _exit_reason(res, 0 if spec["stable"] else 1)
    if reason or not spec["stable"]:
        return reason
    if scheme.p == 0 and spec["boundary"] == "dirichlet":
        # identity boundary rows on the whole stable subspace: |Delta| = 1
        dev = max(
            (abs(row[2] - 1.0) if row[2] is not None else math.inf)
            for row in _table(res, "delta_samples")
        )
        if not dev <= 1e-10:
            return f"Dirichlet |Delta| deviates from 1 by {dev:.3e}"
    return None


def _check_uklc_extrapolation(spec, res):
    """Lax-Wendroff with U_0 = U_1: the row annihilates the stable root
    kappa = 1 at z = 1, so Delta(1) = 0 and |Delta(1 + delta)| equals
    delta / (nu sqrt 2) to first order.  The scan's verdict then passes
    iff that value at its finest radius reaches the tolerance."""
    code, out, _ = res
    if code not in (0, 1):
        return _exit_reason(res, 1)
    report = json.loads(out)
    worst = 0.0
    for radius, found in report["data"]["per_radius_min"]["rows"]:
        if radius <= 1e-4:
            want = radius / (spec["nu"] * math.sqrt(2.0))
            worst = max(worst, abs(found - want) / want)
    if not worst <= 1e-3:
        return f"|Delta(1 + delta)| off delta / (nu sqrt 2) by {worst:.2e} (relative)"
    found = min(row[1] for row in report["data"]["per_radius_min"]["rows"])
    return _exit_reason(res, 0 if found >= report["config"]["tol_delta"] else 1)


def _check_classify(spec, scheme, res):
    reason = _exit_reason(res, 0)
    if reason:
        return reason
    size = scheme.N * (scheme.r + scheme.p)
    mult = sum(row[2] for row in _table(res, "blocks"))
    counted = sum(row[1] for row in _table(res, "counts"))
    if mult != size or counted != size:
        return f"blocks cover {mult}/{counted} eigenvalues of an order-{size} M(z)"
    return None


def _check_sbp(spec, scheme, res):
    return _exit_reason(res, 0 if scheme.s == 0 and spec["stable"] else 1)


def _check_simulate(spec, scheme, res):
    reason = _exit_reason(res, 0)
    if reason:
        return reason
    mass = [row[1] for row in _table(res, "levels")]
    if len(mass) != SIMULATE_N_MAX + 1:
        return f"{len(mass)} levels, expected {SIMULATE_N_MAX + 1}"
    if not spec["stable"]:
        return None
    if any(m is None or not math.isfinite(m) for m in mass):
        return "non-finite level mass for a stable scheme"
    if scheme.s == 0 and spec["boundary"] == "dirichlet":
        # zero boundary rows compress a whole-line l2 contraction
        slack = 1e-12 * mass[0]
        worst = max(b - a for a, b in zip(mass, mass[1:]))
        if worst > slack:
            return f"level mass grew by {worst:.3e} under a contraction"
    return None


ANALYZE_CHECKS = {
    "check-cauchy": _check_cauchy,
    "check-glancing": _check_glancing,
    "check-uklc": _check_uklc,
    "classify-blocks": _check_classify,
    "sbp-decompose": _check_sbp,
    "simulate": _check_simulate,
}


def _labelled(spec, reason):
    if reason:
        return f"{spec['family']}/{spec['boundary']} nu={spec['nu']:.4f}: {reason}"
    return None


def _argv(command, spec, path):
    argv = [command, "--scheme", path]
    if command == "classify-blocks":
        argv += ["--z-angle", repr(spec["z_angle"])]
    elif command == "simulate":
        argv += ["--seed", str(spec["sim_seed"])]
    return argv


def _three_point_of(scheme):
    c = scheme.interior[:, 0, 0, 0]
    return float(c[0]), float(c[1]), float(c[2]) if c.shape[0] > 2 else 0.0


def _bisect(family, oracle, lo):
    """CFL limit in a for the family at lambda = 1, on the bracket [lo, lo+1]."""
    name = FACTORIES[family]
    if oracle == "spectral":
        def stable(a):
            return symbol.von_neumann_check(getattr(core, name)(1.0, a)).ok
    else:
        def stable(a):
            coeffs = _three_point_of(getattr(core, name)(1.0, a))
            return sbp.cauchy_criterion_3pt(*coeffs, lam=1.0).stable
    hi = lo + 1.0
    if not stable(lo) or stable(hi):
        raise ValueError(f"bracket [{lo}, {hi}] does not straddle the CFL limit")
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_cfl(limit):
    err = abs(limit - 1.0)
    return None if err <= CFL_TOL else f"CFL limit {limit!r} off lambda*a = 1 by {err:.2e}"


def _known_uklc_defect(res):
    """The known defect: check-uklc exits 2 (configuration error) on a
    von-Neumann-unstable scheme, where a failing verdict with exit 1 is
    expected."""
    return res[0] == 2


def prepare_analyze(inputs, workdir):
    schemes = []
    for k, spec in enumerate(inputs["schemes"]):
        scheme = make_scheme(spec)
        path = os.path.join(workdir, f"{inputs['size']}-scheme{k:02d}.json")
        core.save_scheme(scheme, path)
        schemes.append((spec, scheme, path))
    return {"schemes": schemes, "bisections": inputs["bisections"]}


def run_analyze(prepared, rec):
    for spec, scheme, path in prepared["schemes"]:
        for command in ANALYZE_COMMANDS:
            argv = _argv(command, spec, path)
            known = None
            if command == "check-uklc" and not spec["stable"]:
                known = _known_uklc_defect
            rec.item(
                command,
                lambda argv=argv: _cli(argv),
                lambda res, c=command, sp=spec, sc=scheme: _labelled(
                    sp, ANALYZE_CHECKS[c](sp, sc, res)),
                known=known,
            )
    for b in prepared["bisections"]:
        rec.item(
            "cfl-" + b["oracle"],
            lambda b=b: _bisect(b["family"], b["oracle"], b["lo"]),
            _check_cfl,
        )


# ---------------------------------------------------------------------------
# refine: the empirical estimates over a refinement ladder


def _check_estimate(spec, ladder, rep):
    if rep.ratios.shape[0] != len(ladder) or not np.all(np.isfinite(rep.ratios)):
        return f"ratios {rep.ratios.shape} not all finite over {len(ladder)} levels"
    if spec["family"] == "upwind" and not (rep.bounded and rep.hypotheses_met):
        return f"upwind with Dirichlet rows not certified: {rep.verdict}"
    if spec["family"] == "leap-frog" and not any("glancing" in s for s in rep.issues):
        return f"leap-frog glancing modes not reported: {rep.verdict}"
    return None


def _check_semigroup(spec, ladder, rep):
    if len(rep.C2) != len(ladder) or not all(math.isfinite(c) for c in rep.C2):
        return f"C2 {rep.C2} not finite over {len(ladder)} levels"
    if spec["family"] == "upwind":
        if not (rep.bounded and rep.step_violation is not None
                and rep.step_violation <= 1e-12 and rep.chain_ok):
            return (f"upwind energy inequality: bounded={rep.bounded}, "
                    f"step_violation={rep.step_violation}, chain_ok={rep.chain_ok}")
    return None


def _check_split(data, n_max, split):
    scale = max(float(np.max(np.abs(f.values))) for f in data)
    if len(split.U.layers) != n_max + 1:
        return f"{len(split.U.layers)} levels, expected {n_max + 1}"
    if not split.max_mismatch <= 1e-12 * max(scale, 1.0):
        return f"U = V + W violated by {split.max_mismatch:.3e}"
    return None


def prepare_refine(inputs, workdir):
    return {
        "schemes": [(spec, make_scheme(spec)) for spec in inputs["schemes"]],
        "ladder": tuple(inputs["ladder"]),
        "t_end": inputs["t_end"],
    }


def run_refine(prepared, rec):
    ladder, t_end = prepared["ladder"], prepared["t_end"]
    n_max = int(round(t_end / ladder[-1]))
    for spec, scheme in prepared["schemes"]:
        seed = spec["data_seed"]
        check_estimate = lambda rep, sp=spec: _check_estimate(sp, ladder, rep)
        rec.item(
            "verify_thm1",
            lambda: sim.verify_thm1(scheme, refinements=ladder, t_end=t_end, seed=seed),
            check_estimate,
        )
        rec.item(
            "verify_strong_stability",
            lambda: sim.verify_strong_stability(
                scheme, refinements=ladder, t_end=t_end, seed=seed),
            check_estimate,
        )
        rec.item(
            "verify_semigroup",
            lambda: sim.verify_semigroup(scheme, refinements=ladder, t_end=t_end, seed=seed),
            lambda rep, sp=spec: _check_semigroup(sp, ladder, rep),
        )
        data = rec.call("decaying_data", lambda: sim.decaying_data(scheme, 64, seed=seed))
        rec.item(
            "split_solution",
            lambda: sim.split_solution(scheme, data, n_max, dt=ladder[-1]),
            lambda split, data=data: _check_split(data, n_max, split),
        )


# ---------------------------------------------------------------------------
# packets: boundary-trace growth and geometric-optics error of wave packets


def _check_fit(rep):
    # criterion 9: linear trace growth at the reference slope
    if not all(r2 >= 0.9 for r2 in rep.r_squared):
        return f"glancing trace fit R^2 {rep.r_squared} below 0.9"
    if not all(abs(s - rep.reference) <= 0.25 * rep.reference for s in rep.slopes):
        return f"glancing slopes {rep.slopes} off reference {rep.reference:.4e} by > 25%"
    return None


def _check_saturation(rep):
    # criterion 9: the transported control saturates with a flat constant
    for row in rep.mass_ratios:
        if not (float(row.max()) <= 1.0 and float(np.abs(np.diff(row)).max()) <= 0.01):
            return f"control trace not saturated: mass ratios {row.tolist()}"
    return None


def _check_monotone(rep):
    sums = rep.trace_sums
    if not np.all(np.isfinite(sums)) or np.any(np.diff(sums, axis=1) < 0):
        return f"trace sums not finite and nondecreasing in T: {sums.tolist()}"
    return None


def _check_error(previous, rep):
    err = rep.sup_errors[0]
    if not (math.isfinite(err) and err > 0):
        return f"packet error {err!r} not finite and positive"
    if previous and not err < previous[-1]:
        return f"packet error {err:.4e} did not shrink from {previous[-1]:.4e} under dx halving"
    previous.append(err)
    return None


def prepare_packets(inputs, workdir):
    return {
        "envelopes": inputs["envelopes"],
        "dts": tuple(inputs["dts"]),
        "dxs": tuple(inputs["dxs"]),
        "leap_frog": core.leap_frog(PACKET_LAM, 1.0),
        "upwind": core.upwind(PACKET_LAM, 1.0),
    }


def run_packets(prepared, rec):
    dts, dxs = prepared["dts"], prepared["dxs"]
    lf, up = prepared["leap_frog"], prepared["upwind"]
    for e in prepared["envelopes"]:
        env = rec.call("make_envelope", lambda: wp.make_envelope(e["delta0"]))
        packets = (
            ("glancing", lf, math.pi / 2, 1, GLANCING_TS, dts, _check_fit),
            ("control", up, 0.0, 0, CONTROL_TS, dts[:1], _check_saturation),
            ("carrier", lf, e["xi"], 0, GLANCING_TS, dts, _check_monotone),
        )
        for name, scheme, xi, branch, Ts, dt_list, check in packets:
            label = f"{name} packet, delta0={e['delta0']:.4f}, xi={xi:.4f}: "
            spec = rec.call(
                "make_packet", lambda: wp.make_packet(scheme, xi, env, branch=branch)
            )
            rec.item(
                "glancing_trace_experiment",
                lambda: wp.glancing_trace_experiment(spec, T_list=Ts, dt_list=dt_list),
                lambda rep: (reason := check(rep)) and label + reason,
            )
            errors = []
            for dx in dxs:
                n = int(round(PACKET_T / (scheme.lam * dx)))
                rec.item(
                    "packet_error",
                    lambda: wp.packet_error(spec, [n], dx),
                    lambda rep: (reason := _check_error(errors, rep)) and label + reason,
                )


WORKLOADS = {
    "analyze": (prepare_analyze, run_analyze),
    "refine": (prepare_refine, run_refine),
    "packets": (prepare_packets, run_packets),
}
