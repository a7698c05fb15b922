"""Every name a `gapembed` module imports is used there.

The one exception is a name that `bench/tracer.py` looks up in that module
to rebind it: the tracer traces calls made through that module's namespace,
so the import is kept for it.  `__init__` re-exports and is not checked.
"""

import ast
from pathlib import Path

import pytest

from test_tracer_contract import TRACE_POINTS

SRC = Path(__file__).resolve().parents[1] / "src" / "gapembed"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
