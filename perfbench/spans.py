"""perfbench's own spans: recorded around calls *into* the program's
layers, from outside (spans inside the program are a later change).

A span is ``{name, start, end, parent, request}``; spans stay in memory
and are written once, when the benchmark ends.  A layer's **self time**
is its span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Scope:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> "_Scope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self.recorder
        recorder.spans[self.index][2] = time.perf_counter()
        recorder._stack.pop()


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SCOPE = _NullScope()


class SpanRecorder:
    """Single-threaded span stack (the layer replay runs on one thread).

    ``enabled=False`` makes :meth:`span` a no-op context, so the same
    replay code runs traced and untraced and the difference between the
    two is the tracing overhead.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent_index_or_None, request]``
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            return _NULL_SCOPE
        stack = self._stack
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        index = len(self.spans)
        stack.append(index)
        self.spans.append([name, time.perf_counter(), None, parent, request])
        return _Scope(self, index)

    # -- arithmetic ---------------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of every closed span, seconds."""
        return self_times(self.spans)

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "request": request}
            for name, start, end, parent, request in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> dict[str, list[float]]:
    """Self time per name over ``[name, start, end, parent, request]``
    rows: duration minus the summed durations of direct children
    (children nest strictly on one thread, so they never overlap)."""
    child_total: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _request in spans:
        if parent is not None and end is not None:
            child_total[parent] += end - start
    result: dict[str, list[float]] = defaultdict(list)
    for index, (name, start, end, _parent, _request) in enumerate(spans):
        if end is None:
            continue
        result[name].append((end - start) - child_total.get(index, 0.0))
    return dict(result)
