"""Outside-in tracer: spans around calls into gapembed's layers.

The program is not modified.  `Tracer.install` rebinds each traced public
function in the namespace where its callers look it up (for example
`gapembed.cli.find_walls` or `gapembed.walls.rect_reachable`) and
`uninstall` restores the originals, so untraced rounds run the program
exactly as shipped.

Each call records a span (id, parent id, CLI call id, name, start, end).
A function's self time is its span's duration minus the time covered by
its traced children, so the self times of one CLI call add up to the
duration of its root `cli.main` span.  Counters are taken from arguments
and results after the span has closed.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter


class Stat:
    """Totals of one traced function since the last `Tracer.reset`."""

    __slots__ = ("calls", "self_s", "errors", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.counts: dict[str, int] = {}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_rows(counts, args, kwargs, result):  # f(X, Y, m, L=None)
    L = _arg(args, kwargs, 3, "L")
    _add(counts, "rows", len(_arg(args, kwargs, 1, "Y")) if L is None else L)


def _count_rect(counts, args, kwargs, result):  # rect_reachable(X, Y, u, v, ...)
    u, v = _arg(args, kwargs, 2, "u"), _arg(args, kwargs, 3, "v")
    _add(counts, "rows", max(v[1] - u[1], 0))
    _add(counts, "hits", bool(result))


# (traced name, module holding the lookup, attribute, counters with their
# units, function that adds to the counters).  Class attributes are given as
# "Class.method".  A function looked up in two modules appears twice, with
# the same counters.
TRACE_POINTS = (
    ("cli.main", "cli", "main", {}, None),
    ("sequences.load_sequence_file", "cli", "load_sequence_file", {"bytes": "B"},
     lambda c, a, k, r: _add(c, "bytes", os.path.getsize(_arg(a, k, 0, "path")))),
    ("engine.embeddable_prefix", "cli", "embeddable_prefix", {"rows": "count"}, _count_rows),
    ("engine.extract_embedding", "cli", "extract_embedding", {"rows": "count"}, _count_rows),
    ("walls.find_walls", "cli", "find_walls", {"walls": "count"},
     lambda c, a, k, r: _add(c, "walls", len(r))),
    ("walls.find_fitting_hole", "cli", "find_fitting_hole", {"found": "count"},
     lambda c, a, k, r: _add(c, "found", r is not None)),
    ("walls.spanning_sequence", "cli", "spanning_sequence", {}, None),
    ("experiments.estimate_embed_prob", "experiments", "estimate_embed_prob",
     {"successes": "count"}, lambda c, a, k, r: _add(c, "successes", r.successes)),
    ("experiments.trial_sequences", "experiments", "TrialPlan.trial_sequences", {}, None),
    ("engine.embeddable_prefix", "experiments", "embeddable_prefix", {"rows": "count"},
     _count_rows),
    ("rng.stream_bits", "experiments", "stream_bits", {"bits": "bit"},
     lambda c, a, k, r: _add(c, "bits", _arg(a, k, 2, "nbits"))),
    ("engine.rect_reachable", "walls", "rect_reachable", {"rows": "count", "hits": "count"},
     _count_rect),
    ("engine.ReachFrontier.positions", "engine", "ReachFrontier.positions",
     {"positions": "count"}, lambda c, a, k, r: _add(c, "positions", len(r))),
)
# Traced function -> its counters and their units, in trace-point order.
COUNTERS = {name: counters for name, _, _, counters, _ in TRACE_POINTS}


class Tracer:
    """Collects per-function totals; keeps spans only while `record` is set."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported gapembed module
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.record = False
        self.call_id = 0
        self._stack: list[list] = []  # [child_time, span_id] per open span
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset(self) -> None:
        for name in self.stats:
            self.stats[name] = Stat()

    def snapshot(self) -> dict[str, Stat]:
        return dict(self.stats)

    def install(self) -> None:
        for name, module, attr, _, count in TRACE_POINTS:
            owner = self.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.stats.setdefault(name, Stat())
            original = owner.__dict__[leaf]
            setattr(owner, leaf, self._wrap(original, name, count))
            self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, count):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat = tracer.stats[name]
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                if tracer.record:
                    tracer.spans.append(
                        (span_id, parent[1] if parent else None, tracer.call_id, name, start, end)
                    )
            if count is not None:
                count(stat.counts, args, kwargs, result)
            return result

        return traced
