"""Spans around calls into hybridtherm, recorded from outside the package.

A traced name is replaced in every hybridtherm module that binds it, because
callers look names up in their own module: evolve imports apply by name, so
patching generator.apply alone would miss the calls integrate makes.

Aggregates (calls, total time, self time, calls per parent) cover every
span.  Full span records are kept in memory for the first round, up to
MAX_RECORDS spans in order of start, and written out when the run ends: a
call tree to inspect without the memory of hundreds of thousands of spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MAX_RECORDS = 20_000


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        # [name, parent record index or -1, start, end], in order of start
        self.records: list[list] = []
        self.keep_records = True
        self._stack: list[list] = []

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span named name; on_result(tracer, result, seconds) after it."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                self.child_calls[(parent[0], name)] += 1
            record = -1
            if self.keep_records and len(self.records) < MAX_RECORDS:
                record = len(self.records)
                self.records.append([name, parent[2] if parent is not None else -1, 0.0, 0.0])
            # [name, time covered by child spans, record index]
            frame = [name, 0.0, record]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if record >= 0:
                    self.records[record][2:] = [start, end]
            if on_result is not None:
                on_result(self, result, dur)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr wherever a hybridtherm module binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_result)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hybridtherm") and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), on_result))

    def write(self, path) -> None:
        """One JSON line per recorded span: id, parent id, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, parent_id, start, end) in enumerate(self.records):
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
