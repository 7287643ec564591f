"""The package's modules form layers: each imports only from earlier ones."""
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
