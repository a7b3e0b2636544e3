"""Command line front end: scheme ingestion, checks, and reports.

Every command loads a scheme from a JSON file, runs one analysis, prints
a JSON report to stdout, and optionally writes ``report.json`` plus one
CSV sidecar per data table into ``--out``.  Exit codes: 0 all verdicts
pass (or the command is purely informational), 1 at least one verdict
fails, 2 usage or configuration error.

Reports are verdict-sized: ``check-cauchy`` keeps the one sample of the
largest spectral radius and ``check-uklc`` the samples of the smallest
and the largest |Delta| (a NaN sample, where there is one, in their
place), beside its per-radius minima.  ``--samples`` keeps every sample
of the scan instead.

Reports are deterministic given the same configuration and seed: the
``meta`` block (wall clock) is the only part excluded from that
contract.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from .core import SchemeError, load_scheme
from .resolvent import (
    DEFAULT_RADII,
    KL_TOL,
    SplitCountError,
    classify_boundary_blocks,
    uklc_scan,
)
from .sbp import DecompositionError, _boundary_rate, energy_decomposition
from .sim import (
    DEFAULT_GAMMAS,
    DEFAULT_REFINEMENTS,
    DEFAULT_T_END,
    accumulate_norms,
    decaying_data,
    run_ibvp,
    verify_semigroup,
    verify_strong_stability,
    verify_thm1,
)
from .symbol import (
    VON_NEUMANN_TOL,
    find_glancing,
    von_neumann_check,
)
from .wavepacket import (
    WavepacketError,
    glancing_trace_experiment,
    make_envelope,
    make_packet,
)

SCHEMA = "dibvp-report/2"


class ConfigError(ValueError):
    """Raised for unusable command line or configuration input."""


# ---------------------------------------------------------------------------
# serialization


# The report text is json.dumps(tree, indent=2, sort_keys=True,
# allow_nan=False) of the tree made plain Python (numpy scalars and arrays
# as floats, ints, bools and lists, complex numbers as {"im", "re"},
# non-finite floats as null), written in one walk: with indent the
# standard library encodes in pure Python.

_FLOATS = frozenset((float, np.float64))
_NONFINITE = frozenset(("nan", "inf", "-inf"))
_encode_str = json.encoder.encode_basestring_ascii


def _leaf(value):
    """JSON text of a scalar; None for a container or an unknown type."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return float.__repr__(value) if math.isfinite(value) else "null"
    return None


def _rows(rows, inner: str, nl: str):
    """Text of a list of equal-length rows of scalars, formatted a column
    at a time; None for any other list."""
    width = len(rows[0])
    if not width or not {list, tuple}.issuperset(map(type, rows)):
        return None
    if set(map(len, rows)) != {width}:
        return None
    flat = list(itertools.chain.from_iterable(rows))
    for col in range(width):
        values = flat[col::width]
        texts = None
        if _FLOATS.issuperset(map(type, values)):
            texts = list(map(float.__repr__, values))
        if texts is None or not _NONFINITE.isdisjoint(texts):
            texts = list(map(_leaf, values))
            if None in texts:
                return None
        flat[col::width] = texts
    row = "[" + inner + "  " + ("," + inner + "  ").join(["%s"] * width) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + nl + "]") % tuple(flat)


def _text(obj, nl: str) -> str:
    """JSON text of obj, whose closing bracket follows nl."""
    leaf = _leaf(obj)
    if leaf is not None:
        return leaf
    inner = nl + "  "
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        texts = [_encode_str(k) + ": " + _text(v, inner) for k, v in items]
        return "{" + inner + ("," + inner).join(texts) + nl + "}" if texts else "{}"
    if isinstance(obj, np.ndarray) and obj.ndim:
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        text = _rows(obj, inner, nl) if obj and type(obj[0]) in (list, tuple) else None
        if text is None:
            texts = [_text(v, inner) for v in obj]
            text = "[" + inner + ("," + inner).join(texts) + nl + "]" if texts else "[]"
        return text
    if isinstance(obj, (complex, np.complexfloating)):
        return _text({"re": obj.real, "im": obj.imag}, nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _report_text(report) -> str:
    """The report as JSON indented by two spaces with sorted keys."""
    return _text(report, "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        val = float(value)
        return repr(val) if math.isfinite(val) else ""
    return str(value)


def table(columns, rows) -> dict:
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


def verdict(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def emit_report(report: dict, out_dir: str, text: str | None = None) -> list:
    """Write report.json and one CSV per data table; return the paths.

    ``text``, where given, is the report already rendered by ``_report_text``.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write((_report_text(report) if text is None else text) + "\n")
    paths.append(path)
    for name, tab in report["data"].items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(tab["columns"])
            for row in tab["rows"]:
                writer.writerow([_cell(v) for v in row])
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# argument plumbing


def _floats(text: str) -> tuple:
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dibvp", description="stability analysis for discrete IBVPs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scheme", required=True, help="scheme JSON file")
        p.add_argument("--out", help="directory for report.json and CSVs")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        return p

    def samples_flag(p, extremes):
        p.add_argument("--samples", action="store_true",
                       help=f"report every grid sample, not only {extremes}")

    p = command("check-cauchy", "von Neumann condition on the unit circle")
    p.add_argument("--grid-ntheta", type=int, default=512)
    p.add_argument("--tol-radius", type=float, default=VON_NEUMANN_TOL)
    samples_flag(p, "the one of the largest spectral radius")

    p = command("check-glancing", "scan for zero-group-velocity modes")
    p.add_argument("--grid-ntheta", type=int, default=512)

    p = command("check-uklc", "determinant lower bound toward the circle")
    p.add_argument("--grid-radii", type=_floats, default=DEFAULT_RADII)
    p.add_argument("--grid-ntheta", type=int, default=64)
    p.add_argument("--tol-delta", type=float, default=KL_TOL)
    samples_flag(p, "those of the smallest and the largest |Delta|")

    p = command("classify-blocks", "eigenvalue blocks of the transfer matrix")
    p.add_argument("--z-angle", type=float, default=0.0,
                   help="angle of the unit-circle point z")

    command("sbp-decompose", "energy identity in difference form")

    p = command("simulate", "half-line run with random decaying data")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--p", type=int, default=3, help="trace depth")
    p.add_argument("--sites", type=int, default=64)

    p = command("verify", "empirical stability estimate across refinements")
    p.add_argument("--estimate", required=True,
                   choices=("thm1", "strong", "semigroup"))
    p.add_argument("--grid-gammas", type=_floats, default=DEFAULT_GAMMAS)
    p.add_argument("--grid-refinements", type=_floats, default=DEFAULT_REFINEMENTS)
    p.add_argument("--t-end", type=float, default=DEFAULT_T_END)
    p.add_argument("--p", type=int, default=3, help="trace depth")

    p = command("packet-experiment", "boundary-trace growth of a wave packet")
    p.add_argument("--xi", type=float, required=True, help="carrier frequency")
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--Ts", type=_floats, default=(2.0, 4.0, 6.0, 8.0))
    p.add_argument("--dts", type=_floats, default=(0.1, 0.05))
    p.add_argument("--delta0", type=float, default=0.5,
                   help="spectral width of the envelope")
    return parser


def _check_positive(args) -> None:
    """Every float option must be finite, and all but --xi and --z-angle positive."""
    for name in ("tol_radius", "tol_delta", "dt", "gamma", "t_end", "delta0",
                 "grid_radii", "grid_gammas", "grid_refinements", "Ts", "dts",
                 "xi", "z_angle"):
        vals = getattr(args, name, ())
        vals = vals if isinstance(vals, tuple) else (vals,)
        flag = "--" + name.replace("_", "-")
        if name not in ("xi", "z_angle") and any(not v > 0 for v in vals):
            raise ConfigError(f"{flag} must be positive")
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"{flag} must be finite")
    ntheta = getattr(args, "grid_ntheta", None)
    if ntheta is not None and ntheta < 8:
        raise ConfigError("--grid-ntheta must be at least 8")


# ---------------------------------------------------------------------------
# command handlers: scheme, args -> (verdicts, tables, config extras)


def _cmd_check_cauchy(scheme, args):
    rep = von_neumann_check(scheme, n_theta=args.grid_ntheta, tol=args.tol_radius)
    if args.samples:
        thetas = np.linspace(0.0, 2 * np.pi, rep.n_theta, endpoint=False)
        rows = [(float(th), float(radius)) for th, radius in zip(thetas, rep.radii)]
    else:
        # the argmax sample (the first NaN, where there is one)
        rows = [(rep.worst_theta, rep.max_radius)]
    verdicts = [
        verdict(
            "von-neumann-radius",
            rep.ok,
            f"max radius {rep.max_radius:.12f} at theta {rep.worst_theta:.6f} "
            f"(tol {rep.tol:g})",
        )
    ]
    tables = {"radius_samples": table(("theta", "spectral_radius"), rows)}
    extras = {"n_theta": rep.n_theta, "tol_radius": rep.tol, "samples": args.samples}
    return verdicts, tables, extras


def _cmd_check_glancing(scheme, args):
    rep = find_glancing(scheme, n_theta=args.grid_ntheta)
    rows = [
        (pt.branch, pt.theta, pt.kappa.real, pt.kappa.imag,
         pt.zeta.real, pt.zeta.imag, pt.abs_deriv, pt.deriv_err)
        for pt in rep.points
    ]
    detail = (
        f"{len(rep.points)} glancing point(s); min |branch derivative| "
        f"{rep.min_abs_deriv:.6e}"
    )
    verdicts = [verdict("no-glancing-modes", not rep.has_glancing, detail)]
    tables = {
        "glancing_points": table(
            ("branch", "theta", "kappa_re", "kappa_im",
             "zeta_re", "zeta_im", "abs_deriv", "deriv_err"),
            rows,
        )
    }
    return verdicts, tables, {"n_theta": args.grid_ntheta}


def _cmd_check_uklc(scheme, args):
    extras = {"radii": list(args.grid_radii), "n_theta": args.grid_ntheta,
              "tol_delta": args.tol_delta, "samples": args.samples}
    try:
        scan = uklc_scan(
            scheme,
            radii=tuple(args.grid_radii),
            n_theta=args.grid_ntheta,
            tol_kl=args.tol_delta,
        )
    except SplitCountError as exc:
        return [verdict("determinant-lower-bound", False, str(exc))], {}, extras
    values = scan.values
    # flat indices in grid order: every sample, or the argmin and argmax
    # samples (the first NaN, where there is one)
    picks = (range(values.size) if args.samples
             else sorted({int(np.argmin(values)), int(np.argmax(values))}))
    n_theta = len(scan.thetas)
    rows = [
        (float(scan.radii[f // n_theta]), float(scan.thetas[f % n_theta]),
         float(values.flat[f]))
        for f in picks
    ]
    detail = (
        f"min |Delta| {scan.min_abs:.6e} at delta {scan.argmin[0]:g}, "
        f"theta {scan.argmin[1]:.6f} (tol {scan.tol:g})"
    )
    # glancing modes or a von Neumann violation void the equivalence of
    # UKLC and stability, so the verdict carries them as warnings
    vn, gl = von_neumann_check(scheme), find_glancing(scheme)
    if not vn.ok:
        detail += f"; von Neumann condition fails (max radius {vn.max_radius:.6f})"
    if gl.has_glancing:
        thetas = sorted({round(p.theta, 9) for p in gl.points})
        locs = ", ".join(f"theta={t:.6f}" for t in thetas)
        detail += (f"; glancing modes present ({locs}); UKLC alone does not "
                   "imply strong stability")
    verdicts = [verdict("determinant-lower-bound", scan.plausible, detail)]
    tables = {
        "delta_samples": table(("radius", "theta", "abs_delta"), rows),
        "per_radius_min": table(
            ("radius", "min_abs_delta"),
            list(zip(scan.radii, scan.per_radius_min)),
        ),
    }
    return verdicts, tables, extras


def _cmd_classify_blocks(scheme, args):
    cls = classify_boundary_blocks(scheme, np.exp(1j * args.z_angle))
    rows = [
        (blk.mu.real, blk.mu.imag, blk.multiplicity, blk.kind,
         blk.drift, blk.cond)
        for blk in cls.blocks
    ]
    tables = {
        "blocks": table(
            ("mu_re", "mu_im", "multiplicity", "kind", "drift", "cond"),
            rows,
        ),
        "counts": table(("kind", "count"), sorted(cls.counts.items())),
    }
    return [], tables, {"z_angle": args.z_angle}


def _cmd_sbp_decompose(scheme, args):
    try:
        # a failed decomposition is reported ahead of the norm check
        dec = energy_decomposition(scheme)
        rate = _boundary_rate(scheme, dec)
    except DecompositionError as exc:
        return [verdict("energy-decomposition", False, str(exc))], {}, {}

    def rows(mats):
        """(ell, row, col, value) for every entry of mats[ell - 1]."""
        return [
            (ell, i, j, M[i, j])
            for ell, M in enumerate(mats, start=1)
            for i in range(M.shape[0])
            for j in range(M.shape[1])
        ]

    detail = f"boundary rate constant {rate.constant:.12e}"
    if dec.d1 is not None:
        detail += f"; d1 {dec.d1:.12e}"
    if dec.d2 is not None:
        detail += f"; d2 {dec.d2:.12e}"
    verdicts = [verdict("energy-decomposition", True, detail)]
    cols = ("ell", "row", "col", "value")
    tables = {
        "difference_coefficients": table(cols, rows(dec.A_tilde)),
        "quadratic_terms": table(cols, rows(dec.S)),
        "cross_terms": table(cols, rows(dec.S_tilde)),
        "boundary_rate_matrix": table(
            cols[1:], [row[1:] for row in rows([rate.matrix])]
        ),
    }
    return verdicts, tables, {}


@np.errstate(all="ignore")
def _cmd_simulate(scheme, args):
    if args.n_max < scheme.s:
        raise ConfigError(f"--n-max must be at least {scheme.s}")
    data = decaying_data(scheme, n_sites=args.sites, seed=args.seed)
    trace = run_ibvp(scheme, data, n_max=args.n_max, dt=args.dt)
    series = accumulate_norms(trace, gamma=args.gamma, P=args.p)
    rows = [
        (n, series.level_mass[n], series.interior_terms[n], series.trace_terms[n])
        for n in range(args.n_max + 1)
    ]
    tables = {
        "levels": table(("n", "level_mass", "interior_term", "trace_term"), rows),
        "summary": table(
            ("interior", "trace", "sup_norm", "dx"),
            [(series.interior, series.trace, series.sup_norm, series.dx)],
        ),
    }
    extras = {"n_max": args.n_max, "dt": args.dt, "gamma": args.gamma,
              "p": args.p, "sites": args.sites}
    return [], tables, extras


def _cmd_verify(scheme, args):
    refinements = tuple(args.grid_refinements)
    if len(set(refinements)) < 2:
        raise ConfigError("--grid-refinements needs at least two distinct refinements")
    gammas = tuple(args.grid_gammas)
    if args.estimate == "thm1":
        rep = verify_thm1(
            scheme, gammas=gammas, refinements=refinements,
            P=args.p, t_end=args.t_end, seed=args.seed,
        )
    elif args.estimate == "strong":
        rep = verify_strong_stability(
            scheme, gammas=gammas, refinements=refinements,
            t_end=args.t_end, seed=args.seed,
        )
    else:
        rep = verify_semigroup(
            scheme, refinements=refinements, t_end=args.t_end, seed=args.seed,
        )
    verdicts = [verdict(f"{args.estimate}-estimate", rep.bounded, rep.verdict)]
    if args.estimate == "semigroup":
        tables = {
            "c2": table(("dt", "C2"), list(zip(rep.dts, rep.C2))),
            "checks": table(
                ("uklc_plausible", "consistent_with_uklc",
                 "step_violation", "chain_ok"),
                [(rep.uklc_plausible, rep.consistent_with_uklc,
                  rep.step_violation, rep.chain_ok)],
            ),
        }
    else:
        rows = [
            (float(dt), float(g), float(rep.ratios[i, k]))
            for i, dt in enumerate(rep.dts)
            for k, g in enumerate(rep.gammas)
        ]
        tables = {
            "ratios": table(("dt", "gamma", "ratio"), rows),
            "fit": table(
                ("max_ratio", "slope", "hypotheses_met"),
                [(rep.max_ratio, rep.slope, rep.hypotheses_met)],
            ),
        }
    extras = {"estimate": args.estimate, "refinements": list(refinements),
              "t_end": args.t_end}
    if args.estimate != "semigroup":
        extras["gammas"] = list(gammas)
        extras["p"] = args.p
    return verdicts, tables, extras


def _cmd_packet_experiment(scheme, args):
    try:
        envelope = make_envelope(args.delta0)
        spec = make_packet(scheme, args.xi, envelope, branch=args.branch)
    except WavepacketError as exc:
        raise ConfigError(str(exc)) from exc
    Ts = tuple(args.Ts)
    if len(Ts) < 2:
        raise ConfigError("--Ts needs at least two horizons")

    dts = tuple(args.dts)
    rep = glancing_trace_experiment(spec, T_list=Ts, dt_list=dts)

    sum_rows, fit_rows, growing = [], [], []
    for i, dt in enumerate(dts):
        for k, T in enumerate(Ts):
            sum_rows.append(
                (float(dt), float(T), float(rep.trace_sums[i, k]),
                 float(rep.mass_ratios[i, k]))
            )
        fit_rows.append((float(dt), rep.slopes[i], rep.intercepts[i],
                         rep.r_squared[i]))
        growing.append(
            rep.r_squared[i] >= 0.9 and rep.slopes[i] >= 0.5 * rep.reference
        )
    reference = rep.reference
    velocity = rep.velocity
    detail = (
        f"reference slope {reference:.6e}; fitted slopes "
        + ", ".join(f"{r[1]:.6e}" for r in fit_rows)
        + f"; group velocity {velocity:.3e}"
    )
    verdicts = [verdict("bounded-boundary-trace", not any(growing), detail)]
    tables = {
        "trace_sums": table(("dt", "T", "trace_sum", "mass_ratio"), sum_rows),
        "fits": table(("dt", "slope", "intercept", "r_squared"), fit_rows),
    }
    extras = {"xi": args.xi, "branch": args.branch, "delta0": args.delta0,
              "Ts": list(Ts), "dts": list(dts), "reference": reference,
              "velocity": velocity}
    return verdicts, tables, extras


_HANDLERS = {
    "check-cauchy": _cmd_check_cauchy,
    "check-glancing": _cmd_check_glancing,
    "check-uklc": _cmd_check_uklc,
    "classify-blocks": _cmd_classify_blocks,
    "sbp-decompose": _cmd_sbp_decompose,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "packet-experiment": _cmd_packet_experiment,
}


# ---------------------------------------------------------------------------
# dispatch


def run_command(argv) -> int:
    """Parse argv, run one command, print the report; return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2

    started = time.perf_counter()
    try:
        _check_positive(args)
        try:
            scheme = load_scheme(args.scheme)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load scheme {args.scheme!r}: {exc}") from exc
        verdicts, tables, extras = _HANDLERS[args.command](scheme, args)
    except ConfigError as exc:
        print(f"dibvp: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # parameters incompatible with the scheme (wrong stencil family,
        # horizon shorter than the number of data levels, ...)
        print(f"dibvp: {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid or horizon too large to hold (numpy names the shape)
        print(f"dibvp: {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2

    from dibvp import __version__

    config = {"scheme": args.scheme, "seed": args.seed}
    config.update(extras)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": config,
        "verdicts": verdicts,
        "data": tables,
        "version": __version__,
        "meta": {"wallclock_s": round(time.perf_counter() - started, 6)},
    }
    text = _report_text(report)
    print(text)
    if args.out:
        emit_report(report, args.out, text)
    return 0 if all(v["ok"] for v in verdicts) else 1


def entry() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    entry()
