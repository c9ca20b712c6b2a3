"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls it
makes into ``repro``'s public functions; nothing inside ``src/repro``
is instrumented.  Each span is ``[name, start, end, parent, op]``:
``parent`` is the index of the enclosing span (-1 at the top) and
``op`` identifies the benchmark op the span belongs to, so all spans
of one guest run / fuzz case / lifecycle call share an identifier.
Spans stay in memory and are written out once, when the run ends.
"""

import json
from contextlib import nullcontext
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)

_OFF = nullcontext()


class _Span:
    __slots__ = ("recorder", "name")

    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        rec = self.recorder
        stack = rec._stack
        index = len(rec.spans)
        rec.spans.append([self.name, 0.0, 0.0, stack[-1] if stack else -1,
                          rec.op])
        stack.append(index)
        rec.spans[index][START] = perf_counter()
        return index

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        rec = self.recorder
        rec.spans[rec._stack.pop()][END] = end
        return False


class Recorder:
    """Collects spans when ``enabled``; costs one attribute test when not."""

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []
        #: Identifier stamped on every span opened from now on.
        self.op = None
        self._stack = []

    def span(self, name):
        return _Span(self, name) if self.enabled else _OFF

    def self_times(self):
        """Per-span self time: duration minus what direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write(self, path, extra=None):
        own = self.self_times()
        payload = {
            "schema": "pyvisor.perf.trace/1",
            "clock": "perf_counter seconds, not host-speed normalised",
            "spans": [
                {"id": i, "name": s[NAME], "start_s": s[START],
                 "end_s": s[END], "self_s": own[i], "parent": s[PARENT],
                 "op": s[OP]}
                for i, s in enumerate(self.spans)
            ],
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
