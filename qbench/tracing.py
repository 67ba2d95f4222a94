"""In-memory spans and per-round counters for the traced run.

Spans are recorded by the benchmark around each call into a layer's
public function; nothing inside ``src/`` is instrumented.  Every span of
one request shares the request's id and names the request span as its
parent, so a layer's self time is its span duration minus the part its
children cover (layer spans have no children here).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

#: Span names a request may contain, in the order the README documents.
LAYER_SPANS = (
    "build",
    "compile.decompose",
    "compile.optimize",
    "compile.route",
    "compile.schedule",
    "fingerprint",
    "admission",
    "cache.memory",
    "cache.store",
    "engine.statevector",
    "engine.trajectory",
    "engine.classical",
    "store.write",
    "serialize",
)


class Tracer:
    """Collects spans ``(request, name, start_ns, end_ns, parent)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, str | None]] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._request: int | None = None
        self._round = 0
        self._next_id = 0

    def start_round(self, index: int) -> None:
        self._round = index

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a per-round counter."""
        self.counters[self._round][name] += amount

    @contextmanager
    def request(self):
        """The root span of one request."""
        self._request = self._next_id
        self._next_id += 1
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append(
                (self._request, "request", start, time.perf_counter_ns(), None)
            )
            self._request = None

    @contextmanager
    def span(self, name: str):
        """A layer span inside the current request."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append(
                (self._request, name, start, time.perf_counter_ns(), "request")
            )

    def self_times_ms(self) -> tuple[int, dict[str, float], float]:
        """(requests, mean self ms per layer, mean request ms).

        The request span's own self time is reported as ``other``, so the
        layer means sum to the mean request time.
        """
        totals: Counter = Counter()
        request_total = 0
        requests = 0
        for _, name, start, end, parent in self.spans:
            duration = end - start
            if parent is None:
                request_total += duration
                requests += 1
            else:
                totals[name] += duration
        if not requests:
            raise ValueError("no traced requests")
        means = {name: totals[name] / requests / 1e6 for name in LAYER_SPANS}
        means["other"] = (request_total - sum(totals.values())) / requests / 1e6
        return requests, means, request_total / requests / 1e6

    def write(self, path: Path) -> None:
        """Write every span as JSON (one list per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["request", "name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
        }))


class NullTracer:
    """The traced path's tracer interface, recording nothing.

    Replaying a round with it times the traced path without the cost of
    recording, the baseline of ``trace.overhead_pct``.
    """

    _NULL = nullcontext()

    def start_round(self, index: int) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def request(self):
        return self._NULL

    def span(self, name: str):
        return self._NULL
