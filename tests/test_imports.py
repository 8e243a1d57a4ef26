import ast
import pathlib

import pytest

import analytica

MODULES = sorted(
    p for p in pathlib.Path(analytica.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (`from __future__` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import inf, pi\n"
        "def f(x: np.ndarray) -> float:\n    return pi\n"
    )
    assert unused_imports(source) == ["inf (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
