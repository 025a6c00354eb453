"""Every name a module of the package imports is used in that module,
and every private helper of the package is used somewhere in it.

A deletion that leaves an import behind, or an import that nothing
reads, fails here.  Each `src/polaris/*.py` is parsed with `ast`; a name
counts as used when it appears as a plain name anywhere in the module,
annotations included.  `__init__.py` re-exports, so it is left out, and
so is `from __future__ import ...`.

A consolidation that leaves a dead helper behind fails here too: every
private module-level name (`_name`, not `__dunder__`) and every private
method must be read somewhere in the package outside its own
definition, as a plain name, an attribute or an imported name.
Standard library only.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polaris"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """(name, node) for each private module-level name and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _private(item.name):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _private(name.id):
                        yield name.id, node


def read_names(tree):
    """Every name the tree reads: loaded names and attributes, and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_private_names(sources):
    """(module, name) of each private definition that nothing else reads;
    `sources` maps module names to their text."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in read_names(tree))
    return [(module, name) for module, tree in trees.items()
            for name, node in private_definitions(tree)
            if reads[name] <= Counter(read_names(node))[name]]


def test_every_private_name_is_used():
    assert dead_private_names({path.name: path.read_text()
                               for path in SOURCES}) == []


def test_a_dead_private_helper_is_found():
    sources = {
        "a.py": ("_LIMIT = 3\n_SEEN = 0\n"
                 "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
                 "class C:\n    def _used(self):\n        return 1\n"
                 "    def _dead(self):\n        return self._used()\n"),
        "b.py": "from a import _SEEN\n",
    }
    assert dead_private_names(sources) == [("a.py", "_walk"), ("a.py", "_dead")]
