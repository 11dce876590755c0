"""Every name a `hyperb` module imports is used in that module.

No linter runs on this package, so a deletion that leaves an import behind
fails here instead.  `__init__.py` re-exports on purpose and is skipped, as
are `__future__` imports.  A use is a bare name in the code; a name used
only inside a quoted annotation would count as unused, so annotations name
imported classes unquoted.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import random\nfrom .x import a, b\n\ndef f():\n    return a\n"
    assert unused_imports(source) == ["random (line 1)", "b (line 2)"]
