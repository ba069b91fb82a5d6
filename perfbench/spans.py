"""In-memory span tracer for the risnoma benchmark.

Spans are recorded from the benchmark's side only: each traced function is
replaced, at the module attribute its caller looks it up under, by a wrapper
that opens a span around the call.  Nothing under ``src/`` changes.  A name
that no longer exists (a later refactor removed or renamed it) is listed in
``Tracer.missing`` and its layer's metrics come out as missing; the run goes
on.
"""
from __future__ import annotations

import functools
import time


class Tracer:
    """Spans as (name, start, end, parent index, work units), kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, work: int, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, work))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, work)

    def record(self, name: str, start: float, end: float, work: int = 0) -> None:
        """Add a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, work))

    # -- patching --------------------------------------------------------

    def wrap(self, module, attr: str, name: str, work=None) -> None:
        """Trace calls to module.<attr>; work(args, kwargs) counts work units."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            units = work(args, kwargs) if work is not None else 0
            return tracer.call(name, units, original, *args, **kwargs)

        self._patch(module, attr, traced)

    def wrap_pool(self, module, attr: str, name: str) -> None:
        """Count pools built through module.<attr> and time their start-up.

        Start-up runs from the constructor to the end of the first submit,
        which is where the executor forks its workers.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        class TracedPool(original):
            def __init__(self, *args, **kwargs):
                self._bench_start = time.perf_counter()
                self._bench_started = False
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                if not self._bench_started:
                    self._bench_started = True
                    tracer.record(name, self._bench_start, time.perf_counter())
                return future

        self._patch(module, attr, TracedPool)

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed work units."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, work), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        row["work"] += work
    return out
