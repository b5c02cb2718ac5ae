"""In-memory span recorder installed around the program's public calls.

The benchmark never edits the program to trace it.  Instead it wraps
bound methods and module functions from outside (:meth:`Tracer.wrap`,
:meth:`Tracer.patch`) and undoes every wrap when the traced run ends
(:meth:`Tracer.uninstall`).  A wrapper forwards its arguments and return
value untouched, so a traced run computes exactly what an untraced run
computes; the benchmark's own tests pin that.

Every wrapped call is one span: name, start, end, parent span and the
step/op id the benchmark loop was on.  Per-name call counts, total time
and self time (duration minus the time covered by child spans) are kept
for every span; the span records themselves are kept up to
``MAX_SPANS`` (the scheduler makes ~50 rate calls per replayed job) and
written at the end as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable

clock = time.perf_counter

#: Span records kept per traced run; later spans only count in the totals.
MAX_SPANS = 200_000


class Tracer:
    """Span stack + per-layer aggregates for one traced run."""

    def __init__(self) -> None:
        #: Retained spans: (id, name, start_s, end_s, parent_id, op_id).
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: Free-form counters (selected entries, modelled seconds, ...).
        self.counts: dict[str, float] = {}
        #: Step/op id the benchmark loop is on; stamped into each span.
        self.op_id = 0
        #: While False the wrappers only forward their calls (set-up).
        self.recording = True
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------
    def _record(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start, end, parent, self.op_id))
                else:
                    self.dropped += 1
            if after is not None:
                after(result)
            return result

        return traced

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- installation ---------------------------------------------------------
    def wrap(self, obj, attr: str, name: str, *, after: Callable | None = None) -> None:
        """Shadow ``obj.attr`` (a bound method or callable attribute) with a
        recording wrapper; ``after(result)`` sees each return value."""
        had_own = attr in vars(obj)
        original = getattr(obj, attr)
        setattr(obj, attr, self._record(name, original, after))

        def undo() -> None:
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

        self._undo.append(undo)

    def patch(self, module, attr: str, name: str) -> None:
        """Replace a module-level function for the traced run."""
        original = getattr(module, attr)
        setattr(module, attr, self._record(name, original, None))
        self._undo.append(lambda: setattr(module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading --------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def self_time_table(self) -> list[dict]:
        """One row per span name, by descending self time."""
        rows = [
            {"layer": name, "calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in self.totals.items()
            if calls
        ]
        return sorted(rows, key=lambda row: -row["self_s"])

    def write_chrome_trace(self, path, *, meta: dict | None = None) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op_id},
            }
            for span_id, name, start, end, parent, op_id in self.spans
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **(meta or {}),
                "spans_dropped": self.dropped,
                "self_time": self.self_time_table(),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
