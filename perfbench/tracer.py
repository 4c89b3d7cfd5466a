"""Span recorder that times program functions from outside the program.

`Tracer.wrap` replaces a function at the attribute its callers look it up
by (a module global or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and operation id.  Spans are
recorded only inside `Tracer.operation`, so work the benchmark does between
operations (output checks, digests) leaves no trace.  Everything stays in
memory until `write_jsonl` at the end of the run.  The benchmark is one
thread, so the open-span stack needs no lock.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

# Span record fields, kept as a list for cheap appends.
ID, NAME, START, END, PARENT, OP, COUNTS = range(7)


class TraceGuardError(RuntimeError):
    """A wrapped attribute is missing, or a layer predicted busy was idle."""


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._op = None
        self._installed: list = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of `owner.attr` as a span called `name`.

        `count(args, result)`, when given, returns a dict of work counts
        stored on the span.
        """
        if attr not in vars(owner):
            raise TraceGuardError(
                f"{getattr(owner, '__name__', owner)}.{attr} no longer exists; "
                f"the traced run cannot time {name}"
            )
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._op is None:
                return original(*args, **kwargs)
            span = self._start(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _start(self, name: str) -> list:
        parent = self._open[-1][ID] if self._open else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self._op, None]
        self.spans.append(span)
        self._open.append(span)
        span[START] = time.perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span "op" for one operation; wrapped calls nest under it."""
        self._op = op_id
        span = self._start("op")
        try:
            yield span
        finally:
            self._end(span)
            self._op = None

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, summed counts.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap in a single thread.
        """
        covered = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict = {}
        for span in self.spans:
            entry = out.setdefault(
                span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - covered[span[ID]]
            for key, value in (span[COUNTS] or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                record = {
                    "id": span[ID],
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "op": span[OP],
                }
                record.update(span[COUNTS] or {})
                stream.write(json.dumps(record) + "\n")
