"""In-memory span recording for the traced run, and the layer times derived from it.

A span is (name, start, end, parent, op_id): parent is the index of the
enclosing span (-1 for a root) and op_id the op the span belongs to (-1
outside ops). Spans are kept in a list and written once, at the end.
"""

import gzip
import json
import statistics
from time import perf_counter


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, name, op_id=-1):
        return None

    def end(self, token):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op_id = -1

    def call(self, name, fn, *args, **kwargs):
        token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token)

    def begin(self, name, op_id=None):
        """Open a span; a given op_id tags it and every span opened inside it."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        previous_op = self._op_id
        if op_id is not None:
            self._op_id = op_id
        self.spans.append([name, perf_counter(), 0.0, parent, self._op_id])
        self._stack.append(index)
        return index, previous_op

    def end(self, token):
        index, previous_op = token
        self.spans[index][2] = perf_counter()
        self._stack.pop()
        self._op_id = previous_op

    def write(self, path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "op_id"],
                       "spans": self.spans}, out)


def layer_times(spans, first: int, scale) -> tuple[dict, dict]:
    """(busy, self) seconds per span name over spans[first:].

    Busy time is the summed duration of a name's spans (spans of one name
    never nest here); self time subtracts the part covered by child spans.
    Each duration is multiplied by scale(op_id).
    """
    busy: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for name, start, end, parent, op_id in spans[first:]:
        duration = (end - start) * scale(op_id)
        busy[name] = busy.get(name, 0.0) + duration
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + duration
    self_time: dict[str, float] = {}
    for index in range(first, len(spans)):
        name, start, end, _, op_id = spans[index]
        own = (end - start) * scale(op_id) - child_time.get(index, 0.0)
        self_time[name] = self_time.get(name, 0.0) + own
    return busy, self_time


def durations(spans, first: int, scale, name: str, op_kinds=None, kind=None) -> list[float]:
    """Scaled durations of the spans[first:] with this name, optionally in ops of one kind."""
    return [
        (end - start) * scale(op_id)
        for n, start, end, _, op_id in spans[first:]
        if n == name and (kind is None or op_kinds.get(op_id) == kind)
    ]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
