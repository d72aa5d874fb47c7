"""In-memory spans for the traced benchmark pass.

Spans are recorded by the benchmark around its own calls into the package
(never inside it). Every call is added to its span name's count and total, so
counts and self times cover the whole pass; only a bounded sample of the
individual spans is kept, and those are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Keep every span of a name up to this many calls, then one in SPAN_STRIDE.
SPAN_KEEP_FIRST = 500
SPAN_STRIDE = 1000


class Tracer:
    """Aggregates spans by name; a span's layer is the name's first dotted part."""

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.kept: list[tuple[int, str, float, float]] = []
        self.root: tuple[str, float, float] | None = None  # span id 0
        self._next_id = 1

    def begin_root(self, name: str) -> None:
        """Open the span of the traced pass; every later span is its child."""
        self.root = (name, perf_counter(), 0.0)

    def end_root(self) -> float:
        name, start, _ = self.root
        end = perf_counter()
        self.root = (name, start, end)
        return end - start

    def add(self, name: str, start: float, end: float) -> None:
        n = self.count[name]
        self.count[name] = n + 1
        self.total[name] += end - start
        if n < SPAN_KEEP_FIRST or n % SPAN_STRIDE == 0:
            self.kept.append((self._next_id, name, start, end))
            self._next_id += 1

    def mean_us(self, name: str) -> float:
        n = self.count[name]
        return self.total[name] / n * 1e6 if n else 0.0

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer. Layer spans are leaves (the benchmark cannot see
        inside a package call), so a layer's self time is its spans' total; the
        benchmark's own self time is the root span minus every child span."""
        out: dict[str, float] = defaultdict(float)
        for name, t in self.total.items():
            out[name.split(".", 1)[0]] += t
        _, start, end = self.root
        out["bench"] = end - start - sum(out.values())
        return dict(out)

    def span_cost_ns(self, calls: int = 20_000) -> float:
        """Cost of one recorded span (two clock reads plus add), measured on a
        scratch tracer so this run's counts stay untouched."""
        scratch = Tracer()
        t0 = perf_counter()
        for _ in range(calls):
            a = perf_counter()
            scratch.add("x", a, perf_counter())
        return (perf_counter() - t0) / calls * 1e9

    def write(self, path: Path) -> None:
        name, start, end = self.root
        spans = [{"id": 0, "parent": None, "name": name, "start": start, "end": end}]
        spans += [
            {"id": i, "parent": 0, "name": n, "start": s, "end": e}
            for i, n, s, e in self.kept
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = {
            name: {"calls": self.count[name], "total_s": self.total[name]}
            for name in sorted(self.count)
        }
        path.write_text(json.dumps({"summary": summary, "spans": spans}) + "\n")
