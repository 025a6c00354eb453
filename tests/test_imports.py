"""Every name a module of the package imports is used in that module.

A deletion that leaves an import behind, or an import that nothing
reads, fails here.  Each `src/polaris/*.py` is parsed with `ast`; a name
counts as used when it appears as a plain name anywhere in the module,
annotations included.  `__init__.py` re-exports, so it is left out, and
so is `from __future__ import ...`.  Standard library only.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polaris"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each import, `a` for `import a.b`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import gcd, lcm as l\n"
              "def f(x: 'str') -> int:\n    return gcd(x, 1)\n")
    assert unused_imports(source) == [("os", 2), ("l", 3)]
