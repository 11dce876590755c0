"""Every name a `hyperb` module imports is used in that module, and every
private module-level name is read somewhere in the package.

No linter runs on this package, so a deletion that leaves an import behind
fails here instead.  `__init__.py` re-exports on purpose and is skipped, as
are `__future__` imports.  A use is a bare name in the code; a name used
only inside a quoted annotation would count as unused, so annotations name
imported classes unquoted.  A private name (`_name` function, class or
constant) counts as read when any module names it outside its definition.
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


def private_definitions(source: str) -> dict[str, int]:
    """Module-level `_name` functions, classes and constants, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return {
        name: line for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__")
    }


def used_names(source: str) -> set[str]:
    """Names read in the code: bare names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of the package reads."""
    used = set().union(*map(used_names, sources.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in used
    ]


def test_no_unused_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_detects_an_unused_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _helper():\n    return 1\n\ndef _used():\n    return _LIMIT\n",
        "b.py": "from .a import _used\n\nclass _Spare:\n    pass\n",
    }
    assert unused_private_names(sources) == ["a.py: _helper (line 3)", "b.py: _Spare (line 3)"]
