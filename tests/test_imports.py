"""Every name a `gapembed` module imports is used there, every function or
class the package exports has a caller outside its own tests, and every
module-level constant is read.

The one exception to the first rule is a name that `bench/tracer.py` looks
up in that module to rebind it: the tracer traces calls made through that
module's namespace, so the import is kept for it.  `__init__` re-exports and
is not checked.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import gapembed
from test_tracer_contract import TRACE_POINTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gapembed"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Where a caller may live: the package, the scripts and the acceptance tests.
CALLER_FILES = [
    *MODULES, *sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "test_acceptance.py"
]


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    traced = {attr.split(".")[0] for _, module, attr, _, _ in TRACE_POINTS if module == path.stem}
    assert _unused_imports(path) - traced == set()


def _references(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _referenced_names(path: Path) -> set[str]:
    """Names read as a name or attribute, outside their own definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    counts = Counter(_references(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            counts[node.name] -= sum(1 for name in _references(node) if name == node.name)
    return {name for name, count in counts.items() if count > 0}


def test_every_export_has_a_caller():
    exported = {
        name for name in gapembed.__all__
        if inspect.isfunction(getattr(gapembed, name)) or inspect.isclass(getattr(gapembed, name))
    }
    referenced = set().union(*(_referenced_names(path) for path in CALLER_FILES))
    assert exported - referenced == set()


def _constants(path: Path) -> set[str]:
    """UPPER_CASE names bound at a module's top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}
    return names


def _read_names(path: Path) -> set[str]:
    """Names loaded as a name or attribute; assignments do not count."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_constant_is_read():
    constants = set().union(*(_constants(path) for path in SRC.glob("*.py")))
    read = set().union(*(_read_names(path) for path in CALLER_FILES))
    assert constants - read == set()
