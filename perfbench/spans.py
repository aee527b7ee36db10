"""In-memory span recorder used by the traced run.

Spans are recorded from the benchmark's side only: :meth:`Recorder.wrap`
replaces a public function or method of a ``repro`` module with a timing
wrapper for the duration of a traced pass and puts the original back
afterwards.  The program itself is not edited and its own telemetry
stays off.

A span's *layer* is the part of its name before the first dot
(``xpp.run`` belongs to ``xpp``).  A span's *self time* is its duration
minus the time its child spans cover, so the self times of all spans
add up to the wall time of the outermost one.

Every span carries the id of the item being processed when it opened.
Item 0 is the set-up item; the *steady window* runs from the moment
item 1 starts to the end of the pass, and the summaries below measure
time inside that window, so cold costs (fork, compile, first config
build) stay out of the per-item figures.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "item", "children")

    def __init__(self, name, start, item):
        self.name = name
        self.start = start
        self.end = None
        self.item = item
        self.children: list = []

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def within(self, lo: float, hi: float) -> float:
        """Seconds of this span inside ``[lo, hi]``."""
        return max(0.0, min(self.end, hi) - max(self.start, lo))


class Recorder:
    """Records spans and exact counts; single-threaded by design."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.steady_start = None
        self._item = None
        self._stack: list = []
        self._undo: list = []
        self._pid = os.getpid()

    @property
    def item(self):
        """Id of the item being processed, set by the workload loop."""
        return self._item

    @item.setter
    def item(self, value) -> None:
        if value == 1 and self.steady_start is None:
            self.steady_start = _clock()
        self._item = value

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, start: float) -> Span:
        span = Span(name, start, self._item)
        if self._stack:
            self._stack[-1].children.append(span)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, end: float) -> None:
        span.end = end
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name, _clock())
        try:
            yield
        finally:
            self._close(span, _clock())

    def add_child(self, name: str, duration: float) -> None:
        """Record ``duration`` seconds of work timed elsewhere (by a
        child process) as a child of the innermost open span."""
        now = _clock()
        self._close(self._open(name, now - duration), now)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None,
             on_error=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``on_result(result, args, kwargs)`` and ``on_error(exc)`` run
        after the span closes, inside a ``bench.hook`` span, so the
        bookkeeping is charged to the benchmark and not to the layer.
        Calls from a forked child process pass straight through.
        """
        orig = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return orig(*args, **kwargs)
            span = recorder._open(name, _clock())
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                recorder._close(span, _clock())
                if on_error is not None:
                    with recorder.span("bench.hook"):
                        on_error(exc)
                raise
            recorder._close(span, _clock())
            if on_result is not None:
                with recorder.span("bench.hook"):
                    on_result(result, args, kwargs)
            return result

        self.patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span (for functions
        called once per simulated cycle, where a span would cost more
        than the call)."""
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, attr, value, had = self._undo.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- summaries -----------------------------------------------------------

    def _closed(self) -> list:
        return [s for s in self.spans if s.end is not None]

    def window(self, steady: bool = True) -> tuple:
        """``(lo, hi)``: the steady window, or the whole pass."""
        spans = self._closed()
        lo = min(s.start for s in spans)
        if steady and self.steady_start is not None:
            lo = self.steady_start
        return lo, max(s.end for s in spans)

    def total_s(self, name: str, steady: bool = True) -> float:
        lo, hi = self.window(steady)
        return sum(s.within(lo, hi) for s in self._closed()
                   if s.name == name)

    def calls(self, name: str, steady: bool = True) -> int:
        lo, _hi = self.window(steady)
        return sum(1 for s in self._closed()
                   if s.name == name and s.start >= lo)

    def self_by(self, key: str) -> dict:
        """Self time inside the steady window, by ``"name"`` or
        ``"layer"``."""
        lo, hi = self.window()
        out: dict = defaultdict(float)
        for s in self._closed():
            own = s.within(lo, hi) - sum(c.within(lo, hi)
                                         for c in s.children)
            out[getattr(s, key)] += own
        return dict(out)

    def chrome_events(self, pid: int, label: str) -> list:
        """The spans as Chrome ``trace_event`` complete events."""
        spans = self._closed()
        t0 = min(s.start for s in spans)
        events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": label}}]
        for s in spans:
            events.append({"name": s.name, "cat": s.layer, "ph": "X",
                           "pid": pid, "tid": 0,
                           "ts": round(1e6 * (s.start - t0), 3),
                           "dur": round(1e6 * (s.end - s.start), 3),
                           "args": {"item": s.item}})
        return events

