"""In-memory span tracer that measures rackcoop's layers from outside.

While ``Tracer.patched()`` is active, every registered function is replaced
by a wrapper that times its calls. The wrapper sits on the attribute the
caller looks up (``rackcoop.linalg.rank``, ``BinaryField.vec_mul`` and so
on), so no file of the program changes. Every call updates the aggregate of
its name: calls, inclusive seconds and self seconds. Functions registered as
spans are also kept one by one as ``(name, start, end, parent, op, self)``.
Field kernels run thousands of times per operation, so they are aggregated
only; their time still counts as child time of the enclosing span, which
keeps self times exact.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # frames: [child seconds, enclosing span index]
        self.spans: list[tuple | None] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self.op_names: dict[int, str] = {}
        self._targets: list[tuple] = []

    def add(self, owner, attr: str, name: str, *, span: bool = True, observe=None) -> None:
        """Trace ``owner.attr`` under ``name``; ``observe(tracer, args, result, seconds)``
        may add counters after each call."""
        self._targets.append((owner, attr, name, span, observe))

    def _wrap(self, fn, name, span, observe):
        tracer, stack, spans, stats, clock = self, self.stack, self.spans, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            idx = len(spans) if span else parent
            if span:
                spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += own
                if span:
                    spans[idx] = (name, start, end, parent, tracer.op_id, own)
            if observe is not None:
                t = clock()
                observe(tracer, args, result, dur)
                if stack:  # the observer's own cost is not the parent's work
                    stack[-1][0] += clock() - t
            return result

        return wrapper

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, span, observe in self._targets:
                saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, span, observe))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls made inside (the correctness gate) are not traced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def op(self, label: str):
        """One benchmark operation: a span ``op:<label>`` whose id all nested spans share."""
        if not self.enabled:
            yield
            return
        outer = self.op_id
        self.op_id = len(self.op_names) + 1
        self.op_names[self.op_id] = label
        idx = len(self.spans)
        self.spans.append(None)
        frame = [0.0, idx]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += end - start
            self.spans[idx] = ("op:" + label, start, end, self.stack[-1][1] if self.stack else -1,
                               self.op_id, end - start - frame[0])
            self.op_id = outer

    def snapshot(self) -> tuple[dict, dict, int]:
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.extra), len(self.spans))

    def since(self, snap) -> tuple[dict, dict, int]:
        """Aggregates accumulated after ``snap`` was taken."""
        stats0, extra0, n0 = snap
        stats = {}
        for k, v in self.stats.items():
            base = stats0.get(k, [0, 0.0, 0.0])
            stats[k] = [v[0] - base[0], v[1] - base[1], v[2] - base[2]]
        extra = {k: v - extra0.get(k, 0.0) for k, v in self.extra.items()}
        return stats, extra, n0

    def ancestor_named(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == name:
                return True
            parent = span[3]
        return False

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op, own) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op, "op_name": self.op_names.get(op),
                    "self": own,
                }) + "\n")
