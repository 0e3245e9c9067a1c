"""In-memory span recorder for the traced benchmark run.

A span is one timed call: ``(span_id, parent_id, op_id, name, start, end)``.
Spans nest by call order (the run is single-threaded), every span opened
while an op is running carries that op's id, and nothing is written until
the run ends.  Library functions are traced by swapping the module attribute
the caller looks up (``circumquad.pipeline.build_octagon`` and so on) for a
wrapper, so the library source is untouched and the untraced run pays
nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the slot: ids follow start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.op_id, name, start, end)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Trace ``(module, attribute, span_name)`` targets while the block runs.

        A target the library no longer has is reported on stderr and skipped;
        its layer then reads 0.
        """
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: {module.__name__}.{attr} not found", file=sys.stderr)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_seconds(self):
        """Span id -> duration minus the time covered by its direct children."""
        covered = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {s[0]: s[5] - s[4] - covered[s[0]] for s in self.spans}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                record = {"id": span_id, "parent": parent, "op": op_id,
                          "name": name, "start": start, "end": end}
                fh.write(json.dumps(record) + "\n")
