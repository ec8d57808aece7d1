"""Spans and counts recorded by the benchmark around calls into herdflu.

Spans stay in memory and are written out once, when the traced process
ends. The tracer only wraps module attributes from outside; herdflu
itself carries no tracing code.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans (name, start, end, parent, run id) and named counts.

    `run_id` may be reassigned between runs traced in one process; spans
    and counts made afterwards belong to the new run.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        counts = self.counts.setdefault(self.run_id, {})
        counts[name] = counts.get(name, 0) + n

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr by a spanned call; `after` records counts."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(kids.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
