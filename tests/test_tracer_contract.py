"""The benchmark's tracer rebinds gapembed functions by name; keep those names valid.

`bench/tracer.py` lists its trace points as (module, "Class.attr") lookups
inside gapembed.  A refactor that renames or moves one of them breaks
`bench/run.py --trace 1`; this test catches that from the package side.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACE_POINTS


TRACE_POINTS = _trace_points()


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for _, module, attr, _, _ in TRACE_POINTS],
    ids=[f"{module}.{attr}" for _, module, attr, _, _ in TRACE_POINTS],
)
def test_trace_point_resolves(module, attr):
    owner = importlib.import_module(f"gapembed.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = owner.__dict__[part]
    assert leaf in owner.__dict__
    assert callable(owner.__dict__[leaf])
