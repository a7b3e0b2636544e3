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
