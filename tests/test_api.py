"""The package's public surface: every exported name resolves, every public
name has a caller in the package, a generator cannot be built without the
exact force V', no module imports a name it never uses, and the package
imports nothing beyond the standard library and numpy."""

import ast
import sys
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


#: Public names kept without a caller in ``src/``, each with its reason.
NO_SRC_CALLER = {
    "propagation.evolve": "the one-kappa case of `evolve_many`, called by the acceptance "
        "criteria and the tests; the benchmark's tracer wraps it by name, but no run calls it",
    "measurement.phase_discard_disturbance":
        "criterion 10's protocol, kept for a nondisturbance table in `measure`",
    "states.expectation": "a grid operator's mean, read by the tests; `analysis.std_dev` "
        "reduces the same density for <A> and <A^2> itself",
}


def test_every_public_name_has_a_src_caller():
    """Each public function, class and constant at the top level of a module,
    and each public method and property of a public class, is read somewhere
    in ``src/kvnlab``; exports and imports do not count."""
    src = Path(kvnlab.__file__).resolve().parent
    read, public = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.ClassDef):
                names = [node.name] + [f"{node.name}.{item.name}" for item in node.body
                                       if isinstance(item, ast.FunctionDef)
                                       and not item.name.startswith("_")]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            public += [f"{path.stem}.{name}" for name in names if not name.startswith("_")]
    unread = [name for name in public if name.rpartition(".")[2] not in read]
    assert sorted(unread) == sorted(NO_SRC_CALLER)


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


def test_src_imports_only_stdlib_numpy_and_kvnlab():
    """kvnlab runs on numpy alone: every import statement in ``src/kvnlab``,
    those inside functions included, names a module of the standard library,
    numpy or kvnlab itself (relative imports are kvnlab)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "kvnlab"}
    src = Path(kvnlab.__file__).resolve().parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {module}" for module in modules
                        if module.split(".")[0] not in allowed]
    assert foreign == []
