"""The package's internal import graph, pinned.

The symbol side (von Neumann, glancing modes) and the resolvent side
(Kreiss-Lopatinskii determinant) are separate hypotheses of the trace
estimate; only the verifiers and the command line compose them.
"""

import ast
from pathlib import Path

import dibvp

PACKAGE = Path(dibvp.__file__).resolve().parent

LAYERS = {
    "__init__": {"core", "resolvent", "sbp", "sim", "symbol", "wavepacket"},
    "__main__": {"cli"},
    "cli": {"core", "resolvent", "sbp", "sim", "symbol", "wavepacket"},
    "core": set(),
    "resolvent": {"core"},
    "sbp": {"core"},
    "sim": {"core", "resolvent", "sbp", "symbol"},
    "symbol": {"core"},
    "wavepacket": {"core", "sim", "symbol"},
}


def _internal_imports(path: Path) -> set:
    """Modules of the package named by the file's ``from .x import`` and
    ``from . import x`` statements, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_internal_import_graph_is_pinned():
    graph = {p.stem: _internal_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert graph["resolvent"] == {"core"}  # no call into the symbol side
    assert graph == LAYERS


def _module_constants(tree: ast.Module) -> set:
    """UPPER_CASE names bound by the module's top-level assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def _package_trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _read_names(trees: dict) -> set:
    """Names loaded, and attributes taken, anywhere in the package."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_module_constant_has_a_reader():
    trees = _package_trees()
    read = _read_names(trees)
    unread = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _module_constants(tree) - read
    )
    assert unread == []


def test_every_function_and_class_has_a_reader_or_is_exported():
    # a top-level definition that nothing in the package reads and the
    # package does not export is code for the tests alone
    trees = _package_trees()
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = _read_names(trees) | exported
    unread = sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
    )
    assert unread == []


def _callers(module: str, name: str) -> set:
    """The functions and methods of ``module`` that call ``name`` by its bare name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {
        fn.name
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    }


def test_one_loop_applies_the_solver_taps():
    # half-line and whole-line runs step in _march_batch alone
    assert _callers("sim", "_apply_taps") == {"_march_batch", "reconstruct_boundary_source"}


def test_whole_line_runs_march_through_one_entry():
    # half-line and whole-line runs reach _march_batch through _march,
    # which marches a trace experiment's dts together
    assert _callers("sim", "_march_batch") == {"_march"}


def test_one_companion_builder_evaluates_the_resolvent_coefficients():
    # every resolvent reader takes RA, RB and M(z) from _companion
    assert _callers("resolvent", "_resolvent_stack") == {"_companion"}
