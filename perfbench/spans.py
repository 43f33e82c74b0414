"""In-memory spans around the benchmark's calls into lumpkit.

A span records a name, its start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started, and the pass it
belongs to. The layer of a span is the first dotted component of its name
(``rules.explore`` belongs to ``rules``). A disabled tracer records nothing
and hands functions back unwrapped, so an untraced pass pays no per-call
cost.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or -1, pass id]
        self.pass_id = None
        self._open = []

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), None, parent, self.pass_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        """fn itself when disabled, else fn inside a span; name may be a
        callable that picks the span name from the call's arguments."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self._span(label):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace module attributes by traced wrappers for the duration of
        the block. targets: (module, attribute, span name) triples."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, name in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path, env):
        keys = ("name", "start", "end", "parent", "pass")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
            fh.write("\n")


def summarize(spans, pass_id):
    """Per-name totals over all spans, and per-layer self times over the
    spans of one pass.

    Returns (inclusive seconds by name, call count by name, self seconds by
    layer, wall seconds of the pass's root spans, uncovered seconds). The
    uncovered part is the roots' own self time: pass time that no layer's
    span accounts for.
    """
    total = {}
    calls = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
    layer_self = {}
    root_wall = uncovered = 0.0
    for i, (name, start, end, parent, pid) in enumerate(spans):
        if pid != pass_id:
            continue
        own = (end - start) - child_time[i]
        if parent < 0:
            root_wall += end - start
            uncovered += own
        else:
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
    return total, calls, layer_self, root_wall, uncovered
