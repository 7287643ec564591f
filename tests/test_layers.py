"""The package's modules form layers: each imports only from earlier ones,
and reads every name it imports."""
import ast
from pathlib import Path

import pytest

LAYERS = ["errors", "probability", "partitions", "mismatch", "coding", "cli"]
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taskcodes"


def relative_imports(path: Path) -> set[str]:
    """Modules of the package that the relative imports of a file name:
    `mod` in `from .mod import x`, and `x` in `from . import x`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.module or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names}


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_reach_only_earlier_layers(module):
    earlier = set(LAYERS[:LAYERS.index(module)])
    assert relative_imports(PACKAGE / f"{module}.py") <= earlier


@pytest.mark.parametrize("module", LAYERS)
def test_every_imported_name_is_read(module):
    # __init__ is left out: its imports are the package's re-exports
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= read


def test_every_private_name_is_read():
    # a module-level _name (function, class or assignment) that no module
    # of the package loads, as a name or an attribute, or imports is dead
    defined, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined.update(name.id for name in ast.walk(node)
                               if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private - read == set()
