"""In-memory span recorder for the traced benchmark run.

Spans are opened by wrapping public calls on instances or module
attributes from the benchmark's own files; the program itself is never
edited. Each span keeps its name, start, end, parent span and the step or
request id that was current when it opened. Everything stays in memory
until :meth:`Recorder.dump` writes it out at the end of the run.

A span's *self time* is its duration minus the part covered by its
children. The benchmark is single-threaded, so children nest strictly
inside their parent and the covered part is the sum of their durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List

from repro.serve.obs import Profiler

_NAME, _START, _END, _PARENT, _RID = range(5)


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, id] per span, in open order
        self.spans: List[list] = []
        #: step or request id stamped on spans opened from now on
        self.rid: object = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- write side ----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.rid])
        self._stack.append(idx)
        self.spans[idx][_START] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][_END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap_fn(self, name: str, fn: Callable) -> Callable:
        """``fn`` instrumented to record one ``name`` span per call."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (an instance or a module) with a traced
        version until :meth:`restore`."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap_fn(name, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- read side -----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        out = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                out[s[_PARENT]] -= s[_END] - s[_START]
        return out

    def durations(self, name: str) -> List[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def starts(self, name: str) -> List[tuple]:
        """``(id, start)`` of every ``name`` span."""
        return [(s[_RID], s[_START]) for s in self.spans if s[_NAME] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[_NAME] == name)

    def self_by_id(self) -> Dict[str, Dict[object, float]]:
        """name -> {id -> summed self time}."""
        out: Dict[str, Dict[object, float]] = defaultdict(
            lambda: defaultdict(float))
        for s, t in zip(self.spans, self.self_times()):
            out[s[_NAME]][s[_RID]] += t
        return out

    def self_per_call(self, name: str) -> List[float]:
        return [t for s, t in zip(self.spans, self.self_times())
                if s[_NAME] == name]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s[_NAME], "start": s[_START], "end": s[_END],
                    "parent": s[_PARENT],
                    "id": s[_RID] if isinstance(s[_RID], (int, str))
                    else repr(s[_RID])}) + "\n")


class SpanProfiler(Profiler):
    """A :class:`repro.serve.obs.Profiler` whose spans also land in a
    :class:`Recorder`, so the simulator's own profiling hook points get
    parents and self times."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self.recorder = recorder

    def wrap(self, name: str, fn: Callable) -> Callable:
        return super().wrap(name, self.recorder.wrap_fn(name, fn))

    def span(self, name: str):
        rec, inner = self.recorder, super().span(name)

        @contextmanager
        def both():
            with inner, rec.span(name):
                yield
        return both()

