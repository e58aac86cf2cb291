"""Spans and counts recorded around the benchmark's calls into triblock.

A `Recorder` wraps every public library call the workloads make.  With
tracing off it only forwards the call, so the untraced passes that give the
end-to-end numbers pay one extra Python call per operation.  With tracing
on it keeps, in memory, one span per call (name, start, end, parent span and
work-item id) plus named counts taken at the same call sites, and
`layer_totals` turns them into per-pass busy time, self time and counts.

Span names are `<module>.<function>[.<tag>]`; the first component names
the layer.  The benchmark's own spans use the module name `bench`.
"""

import itertools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "item": self.item,
                "failed": self.failed}


class Recorder:
    """Forwards library calls; with `tracing` set, records spans and counts."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count()

    def call(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs), inside a span named `name` if tracing."""
        if not self.tracing:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, item: str | None = None):
        """Span around the block; `item` defaults to the parent's work item."""
        if not self.tracing:
            yield
            return
        sid = next(self._ids)
        parent, parent_item = self._stack[-1] if self._stack else (None, "")
        item = parent_item if item is None else item
        self._stack.append((sid, item))
        failed = True
        start = perf_counter()
        try:
            yield
            failed = False
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, item, failed))

    def count(self, name: str, value: float = 1.0) -> None:
        if self.tracing:
            self.counts[name] += value


def layer_totals(spans: list[Span]) -> dict:
    """Per span name: calls, failures, busy and self seconds; per module: self.

    Self time is a span's duration minus the time its direct children
    cover.  Calls run one at a time, so children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    by_name: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0})
    module_self: dict[str, float] = defaultdict(float)
    for s in spans:
        own = s.duration - child_time.get(s.id, 0.0)
        row = by_name[s.name]
        row["calls"] += 1
        row["failed"] += int(s.failed)
        row["busy_s"] += s.duration
        row["self_s"] += own
        module_self[s.name.split(".", 1)[0]] += own
    return {"names": dict(by_name), "module_self_s": dict(module_self)}


def prefix_total(names: dict, prefix: str, field: str) -> float:
    """Sum `field` over span names equal to `prefix` or below it."""
    return sum(row[field] for name, row in names.items()
               if name == prefix or name.startswith(prefix + "."))
