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
