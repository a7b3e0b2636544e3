"""The reach gate: every statement in ``src/dibvp`` runs on a product path,
or its function has a stated reason to be there.

Run it from the repository root in a fresh interpreter:

    PYTHONPATH=src python tests/reach.py

It traces lines (``sys.settrace``, started before ``dibvp`` is imported)
while the product paths run: every golden CLI case of
``tests/test_golden.py``, one full batch of each benchmark workload of
``bench/workloads.py`` at seed 1, and every script under ``demos/``.

Only function bodies are judged; module and class bodies run at import.
An unreached statement is a *refusal*, and needs no reason, when it is a
``raise``, lies in an ``if``/``else``/loop/``with`` block whose last
statement is a ``raise``, or lies in an ``except`` body.  Every other
unreached statement needs its function to have an entry in ``REASONS``
that names its evidence: the acceptance criterion that reaches it
(``criterion N``), the test that uses it as a reference or pins it as a
numerical fallback or guard (``tests/<file>.py::<test>``), a pending
ROADMAP ``Direction N``, or the ``console entry point``.

The gate exits 1 and names, with their unreached lines, each function
that has such statements and no entry, each entry whose function the
product paths now reach fully (a stale reason), and each entry that names
no function or cites no evidence.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dibvp"

# "<module>.<qualname>" -> the evidence that keeps its unreached statements
REASONS = {
    # cli
    "cli._rows": (
        "tests/test_cli.py::test_report_text_matches_json_dumps_of_pyify pins the ragged "
        "and mixed row guards against json.dumps; Direction 26 retires the writer"),
    "cli._text": (
        "tests/test_cli.py::test_report_text_matches_json_dumps_of_pyify pins the array "
        "and complex leaves against json.dumps; Direction 26 retires the writer"),
    "cli._cmd_check_uklc": (
        "tests/test_cli.py::test_check_uklc_warns_of_von_neumann_failure pins the "
        "von Neumann warning"),
    "cli.entry": "the console entry point of pyproject.toml",
    # core
    "core.GridSequence.__post_init__": "criterion 3 builds sequences from 1-D values",
    "core.apply_op": "criterion 3: the SBP oracles apply operators without implicit zeros",
    "core._apply_taps": (
        "tests/test_sim.py::test_steps_keep_the_bits_of_a_zero_filled_row pins the empty "
        "tap sum"),
    "core.ValidationReport.ok": "Direction 4 refuses characteristic stencils at load with it",
    "core.validate_scheme": "Direction 4 refuses characteristic stencils at load with it",
    "core._laurent": (
        "tests/test_core.py::test_laurent_powers_are_each_scalars_own_pow and "
        "tests/test_resolvent.py::test_stacked_laurent_matches_pointwise_bits use the "
        "Python-scalar powers as the pointwise reference of the stacked table"),
    # resolvent
    "resolvent._singular_error": (
        "tests/test_resolvent.py::test_companion_readers_refuse_a_singular_leading_block "
        "pins the singular RA_p refusal"),
    "resolvent.assemble_M": "criterion 2",
    "resolvent._split_error": (
        "tests/test_resolvent.py::test_split_rejects_z_too_close_to_circle pins the |z| "
        "margin refusal"),
    "resolvent._sign_basis": (
        "tests/test_stacked_split.py::test_jordan_block_takes_the_sign_function_split pins "
        "the sign-function fallback"),
    "resolvent._split_stack": (
        "tests/test_stacked_split.py::test_jordan_block_takes_the_sign_function_split pins "
        "the sign-function fallback"),
    "resolvent.spectral_split": "criterion 2",
    "resolvent.kl_boundary_matrix": (
        "tests/test_stacked_split.py::test_stacked_determinant_matches_schur_oracle builds "
        "its ordered-Schur reference on it"),
    "resolvent.kl_determinant": (
        "tests/test_resolvent.py::test_kl_upwind_dirichlet_is_one checks the scan's "
        "determinant against closed forms through it"),
    "resolvent.EigenvalueBranch.__init__": "criterion 11",
    "resolvent.EigenvalueBranch._eigs_at": "criterion 11",
    "resolvent.EigenvalueBranch.curve": "criterion 11",
    "resolvent._tv_for_curve": (
        "criterion 11; tests/test_resolvent.py::test_tv_touch_is_skipped_and_flagged pins "
        "the touch guard"),
    "resolvent.arg_total_variation": (
        "criterion 11; tests/test_resolvent.py::test_tv_touch_is_skipped_and_flagged pins "
        "the touch guard and the grid cap, and "
        "tests/test_resolvent.py::test_tv_pure_transport_oracle checks a given w grid "
        "against a closed form"),
    "resolvent.arg_total_variation.curve_at": "criterion 11",
    # sbp
    "sbp._skew_tables": "criterion 3 and criterion 4",
    "sbp._skew_tables.absorb": "criterion 3 and criterion 4",
    "sbp._materialize_skew": "criterion 3 and criterion 4",
    "sbp.ibp_skew": "criterion 3 and criterion 4",
    "sbp.energy_decomposition": (
        "tests/test_sbp.py::test_energy_identity_holds_on_random_schemes checks the skew "
        "parts of non-symmetric systems against the oracle energy_identity_residual"),
    "sbp._form_terms": "criterion 3",
    # sim
    "sim._march_batch": (
        "tests/test_sim.py::test_strong_stability_interior_forcing_only pins the interior "
        "source F, which no product path uses (Direction 32)"),
    "sim.verify_strong_stability.entry.cell": (
        "tests/test_sim.py::test_strong_stability_interior_forcing_only pins the interior "
        "source F, which no product path uses (Direction 32)"),
    "sim.reconstruct_boundary_source": (
        "tests/test_sim.py::test_boundary_source_through_level_s_is_zero pins the "
        "short-horizon guard"),
    "sim._hypothesis_report": (
        "tests/test_sim.py::test_a_determinant_zero_on_the_scan_ring_is_an_unmet_hypothesis "
        "pins the determinant bound's issue"),
    "sim._fit": (
        "tests/test_cli.py::test_verify_overflow_counts_as_growth pins the overflow guard, "
        "tests/test_standing_defects.py::test_defect_8_one_dt_claims_no_bound the one-dt guard"),
    "sim._estimate_report": (
        "tests/test_sim.py::test_thm1_zero_data_vacuous pins the zero-data guard"),
    # symbol
    "symbol._sign_change_root": (
        "tests/test_symbol.py::test_find_glancing_zero_speed_through_repeated_eigenvalue "
        "and tests/test_symbol.py::test_find_glancing_leaves_out_repeated_eigenvalue_at_theta_zero "
        "pin the secant's zero-at-an-end and bisection guards"),
    "symbol._golden_min": "Direction 16: a touching zero between grid nodes needs a fixture",
    "symbol.find_glancing": (
        "Direction 16: a touching zero between grid nodes needs a fixture; "
        "tests/test_symbol.py::test_find_glancing_skips_a_cell_with_no_trusted_evaluation "
        "pins the ill-conditioned cell guard"),
    # wavepacket
    "wavepacket.make_packet": (
        "tests/test_wavepacket.py::test_custom_amplitude_off_branch_detected pins the "
        "polarization check of an explicit amplitude"),
}

_EVIDENCE = re.compile(
    r"criterion \d+|Direction \d+|console entry point|(tests/\w+\.py)::(\w+)")


def evidence_errors(reason: str) -> list:
    """What is wrong with a reason's evidence: none cited, or a cited test
    that does not exist."""
    found = list(_EVIDENCE.finditer(reason))
    if not found:
        return ["cites no criterion, test, Direction or entry point"]
    errors = []
    for m in found:
        if m.group(1):
            path = ROOT / m.group(1)
            if not (path.exists() and f"def {m.group(2)}(" in path.read_text()):
                errors.append(f"names no test {m.group(0)}")
    return errors


# ---------------------------------------------------------------------------
# classification


def _blocks(node: ast.stmt) -> list:
    """The statement lists directly under a compound statement, each with
    whether it is an ``except`` body."""
    blocks = [(getattr(node, f), False) for f in ("body", "orelse") if getattr(node, f, None)]
    if isinstance(node, ast.Try):
        blocks += [(h.body, True) for h in node.handlers]
    return blocks


_REFUSING = (ast.If, ast.For, ast.While, ast.With)


def _header_lines(node: ast.stmt) -> set:
    """Lines of a statement that are not lines of its nested statements."""
    lines = set(range(node.lineno, node.end_lineno + 1))
    for block, _ in _blocks(node):
        for child in block:
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


class Function:
    """One function body's statements: their lines, and which are refusals."""

    def __init__(self, name: str, node):
        self.name = name
        self.node = node
        self.stmts = []  # (statement, is a refusal)
        # a docstring is not executed
        self._walk(node.body[ast.get_docstring(node) is not None:], refusal=False)

    def _walk(self, block: list, refusal: bool) -> None:
        for stmt in block:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue  # a declaration, never executed
            self.stmts.append((stmt, refusal or isinstance(stmt, ast.Raise)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue  # a nested body is judged on its own
            for sub, is_except in _blocks(stmt):
                ends_in_raise = isinstance(stmt, _REFUSING) and isinstance(sub[-1], ast.Raise)
                self._walk(sub, refusal or is_except or ends_in_raise)

    def unreached(self, hits: set) -> tuple:
        """(lines of unreached plain statements, lines of unreached refusals)."""
        reached = set()
        for stmt, _ in reversed(self.stmts):  # children come after their parent
            if _header_lines(stmt) & hits or any(
                    child in reached for block, _ in _blocks(stmt) for child in block):
                reached.add(stmt)
        plain, refusals = [], []
        for stmt, refusal in self.stmts:
            if stmt not in reached:
                (refusals if refusal else plain).append(stmt.lineno)
        return plain, refusals


def functions(source: str, module: str) -> list:
    """Every function of a module's source, methods and nested ones too,
    named ``<module>.<qualname>``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                found.append(Function(f"{prefix}.{child.name}", child))
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return found


def judge(funcs: list, hits: dict, reasons: dict) -> tuple:
    """Apply the gate's rules.  ``hits`` maps each function name's module
    to its executed lines.  Returns (problems, counts): one line per
    unlisted function, stale or baseless reason, and the totals."""
    problems = []
    counts = dict(statements=0, plain=0, refusals=0, listed=0)
    names = {f.name for f in funcs}
    for f in funcs:
        plain, refusals = f.unreached(hits.get(f.name.split(".")[0], set()))
        counts["statements"] += len(f.stmts)
        counts["plain"] += len(plain)
        counts["refusals"] += len(refusals)
        if f.name in reasons:
            counts["listed"] += 1
            if not plain:
                problems.append(f"stale: {f.name} (line {f.node.lineno}) is reached fully")
        elif plain:
            lines = ", ".join(map(str, plain))
            problems.append(f"unlisted: {f.name} (line {f.node.lineno}) "
                            f"leaves lines {lines} unreached")
    for name, reason in sorted(reasons.items()):
        if name not in names:
            problems.append(f"unknown: {name} names no function in src/dibvp")
        problems += [f"baseless: {name} {e}" for e in evidence_errors(reason)]
    return problems, counts


# ---------------------------------------------------------------------------
# recording


def _record(paths) -> dict:
    """Run ``paths`` under a line tracer; map each package module to the
    lines it executed."""
    files = {str(p): p.stem for p in PACKAGE.glob("*.py")}
    hits = {stem: set() for stem in files.values()}

    def tracer(frame, event, arg):
        stem = files.get(frame.f_code.co_filename)
        if stem is None:
            return None
        lines = hits[stem]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(tracer)
    try:
        for path in paths:
            path()
    finally:
        sys.settrace(None)
    return hits


def _golden_cases():
    import test_golden

    for scheme_name, case in test_golden.CASES:
        test_golden.render(scheme_name, case)


def _benchmark_batches():
    import inputs
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name, (prepare, run) in workloads.WORKLOADS.items():
            rec = workloads.Recorder()
            run(prepare(inputs.make_inputs(name, 1, "full"), tmp), rec)
            for failure in rec.failures:
                if not failure["known"]:
                    print(f"benchmark {name}: {failure['kind']} failed: {failure['reason']}")


def _demos():
    for path in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def main() -> int:
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    hits = _record((_golden_cases, _benchmark_batches, _demos))
    funcs = [f for p in sorted(PACKAGE.glob("*.py")) for f in functions(p.read_text(), p.stem)]
    problems, counts = judge(funcs, hits, REASONS)
    for line in problems:
        print(line)
    print(f"{counts['statements']} statements in {len(funcs)} functions: "
          f"{counts['plain']} unreached in {counts['listed']} listed functions, "
          f"{counts['refusals']} unreached refusals; {len(problems)} problems "
          f"({time.perf_counter() - t0:.1f} s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
