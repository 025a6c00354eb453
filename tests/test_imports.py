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

Public code is held to the same rule: every public module-level
function or class, and every public method or property of a class, must
be read somewhere in the package outside its own definition.  A method
or property is read only through an attribute (`x.name`), so a local
variable of the same name is not a reader; a module-level name is read
as a plain name, an attribute or an imported name.  A re-export from
`__init__.py` is not a reader.  A name that nothing in the package
reads stays only with a reason: an entry in `KEEP`, or a place in the
benchmark tracer's lists of wrapped names.  Matching is by bare name,
so a method that shares its name with any other read attribute (`zero`,
`dim`, `entries`) passes whether or not anything calls it; those need a
look by hand.
Standard library only.
"""
import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polaris"
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


def attribute_reads(tree):
    """`name` of every `x.name` the tree loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def read_names(tree):
    """Every name the tree reads: loaded names and attributes, and imports."""
    yield from attribute_reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
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


def _public(name):
    return not name.startswith("_")


def public_definitions(tree):
    """(qualified name, node) for each public module-level function or
    class and each public method or property of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item


def unread_public_names(sources):
    """`module.name` or `module.Class.name` of each public definition that
    nothing else reads; `sources` maps module file names to their text."""
    trees = {Path(module).stem: ast.parse(text) for module, text in sources.items()}
    reads = {readers: Counter(name for tree in trees.values()
                              for name in readers(tree))
             for readers in (read_names, attribute_reads)}
    unread = []
    for module, tree in trees.items():
        for qualified, node in public_definitions(tree):
            # a method or property is read through `x.name` only
            readers = attribute_reads if "." in qualified else read_names
            if reads[readers][node.name] <= Counter(readers(node))[node.name]:
                unread.append(f"{module}.{qualified}")
    return unread


def traced_names():
    """Every name the benchmark tracer wraps, as `unread_public_names`
    spells them; removing one of them is a change to the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return ({f"{module}.{name}" for module, name, _ in tracer.FUNCTIONS}
            | {f"{module}.{cls}.{name}" for module, cls, name, _ in tracer.METHODS}
            | {f"poly.Polynomial.{name}" for name, _ in tracer.POLY_METHODS})


# Public names that nothing in the package reads, each with why it stays.
KEEP = {
    "dynamics.compare_flows": "acceptance criterion 10d compares the scaled flows",
    "dynamics.Trajectory.final_state": "acceptance criteria 10a-c read the end state",
    "dynamics.ConservationReport.max_drift": "acceptance criteria 10a-c bound the drift",
    "geometry.Chart.coordinate": "acceptance criterion 10d builds its scale with it",
    "hamiltonian.zeta": "README documents the duality X -> i(X) theta",
    "hamiltonian.zeta_inverse": "README documents the duality's exact inverse",
    "nambu.NambuSpaceRk1.coordinate_index": "acceptance criterion 8 reads z with it",
    "nambu.NambuSpaceR3n.triple_indices": "acceptance criterion 9 reads z^i with it",
    "poly.Polynomial.terms": "bench/tracer.py counts terms and coefficient bits through it",
}


def package_sources():
    return {path.name: path.read_text() for path in MODULES}


def test_every_public_name_is_used():
    allowed = KEEP.keys() | traced_names()
    assert [name for name in unread_public_names(package_sources())
            if name not in allowed] == []


def test_an_unused_public_name_is_found():
    source = ("def used(n):\n    return n\n"
              "def unused(n):\n    return unused(n - 1) if n else used(n)\n"
              "class C:\n    def read(self):\n        return 1\n"
              "    @property\n    def size(self):\n"
              "        count = self.read()\n        return count\n"
              # a local variable named `count` does not read the method
              "    def count(self):\n        return 0\n"
              "    def __len__(self):\n        return 0\n")
    assert unread_public_names({"a.py": source}) == [
        "a.unused", "a.C", "a.C.size", "a.C.count"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_planted_public_function_fails_the_rule(path):
    sources = package_sources()
    sources[path.name] += "\n\ndef planted_unused():\n    return 0\n"
    assert f"{path.stem}.planted_unused" in unread_public_names(sources)


def test_every_kept_name_is_defined_and_still_unread():
    assert sorted(KEEP.keys() - set(unread_public_names(package_sources()))) == []
