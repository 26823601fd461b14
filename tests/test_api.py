"""The package's public surface: every exported name resolves, a
generator cannot be built without the exact force V', and no module imports
a name it never uses."""

import ast
from pathlib import Path

import numpy as np
import pytest

import kvnlab
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.operators import hamiltonian, unified_generator


def test_every_export_resolves_once():
    assert len(kvnlab.__all__) == len(set(kvnlab.__all__))
    missing = [name for name in kvnlab.__all__ if not hasattr(kvnlab, name)]
    assert missing == []


def test_generators_need_the_exact_force():
    g = Grid1D(16, -4.0, 4.0)
    V = lambda q: 0.5 * q**2
    with pytest.raises(TypeError, match="vprime"):
        hamiltonian(g, V)
    with pytest.raises(TypeError, match="vprime"):
        unified_generator(PhaseGrid(g, g), V, 0.0)
    # the force is keyword-only: a positional one is refused too
    with pytest.raises(TypeError):
        hamiltonian(g, V, 1.0, np.zeros_like)


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name an import binds in ``path`` that no
    expression of the module reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        imports = isinstance(node, (ast.Import, ast.ImportFrom))
        if imports and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "kvnlab").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "tests").glob("*.py"))
    assert [entry for path in files for entry in _unused_imports(path)] == []
