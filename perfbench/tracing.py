"""Outside-in span recording for the traced run.

The program is never edited: :meth:`SpanRecorder.wrap` replaces a public
function or method with a wrapper that records one span per call, and
:meth:`SpanRecorder.restore` puts every original back.  Spans are kept
in memory (one tuple each) and written out when the run ends.

A span is ``(id, parent, name, start, end, thread, request, value)``:
``parent`` is the enclosing span on the same thread, ``request`` the
identifier shared by every span of one served request (``-1`` outside
requests), and ``value`` an optional number the wrapper extracted from
the call (users scored, bytes written, worker-reported latency).

A span's *self time* is its duration minus the time its child spans
cover.  Children run nested on their parent's thread, so they never
overlap each other and their durations simply add up.  Summed over
every span, self times equal the summed duration of the root spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, int, int, float]

ID, PARENT, NAME, START, END, THREAD, REQUEST, VALUE = range(8)

_INHERITED = object()


class SpanRecorder:
    """Thread-aware in-memory span log with function wrapping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: int) -> None:
        """Tag the spans this thread records next with ``request``."""
        self._local.request = request

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((
                span_id, parent, name, start, end, threading.get_ident(),
                getattr(self._local, "request", -1), 0.0,
            ))

    def call(self, name: str, func: Callable, args: tuple, kwargs: dict,
             value: Optional[Callable[[tuple, dict, Any], float]] = None) -> Any:
        if not self.enabled:
            return func(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = self.clock()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = self.clock()
            stack.pop()
            measured = 0.0
            if value is not None and result is not None:
                measured = float(value(args, kwargs, result))
            self.spans.append((
                span_id, parent, name, start, end, threading.get_ident(),
                getattr(self._local, "request", -1), measured,
            ))

    # ------------------------------------------------------------------
    # wrapping public functions from outside
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             value: Optional[Callable[[tuple, dict, Any], float]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        func = getattr(owner, attr)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(name, func, args, kwargs, value)

        wrapper.__name__ = getattr(func, "__name__", attr)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        self._install(owner, attr, wrapper)

    def wrap_iterator(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a method returning an iterator so each ``next`` is a span."""
        func = getattr(owner, attr)
        recorder = self

        def step(iterator: Iterator) -> Any:
            return next(iterator)

        def wrapper(*args: Any, **kwargs: Any) -> Iterator:
            iterator = func(*args, **kwargs)
            while True:
                try:
                    item = recorder.call(name, step, (iterator,), {})
                except StopIteration:
                    return
                yield item

        self._install(owner, attr, wrapper)

    def _install(self, owner: Any, attr: str, wrapper: Callable) -> None:
        # A class attribute may be inherited: remember whether ``owner``
        # defined it itself, so restore() can delete instead of shadow.
        original = vars(owner).get(attr, _INHERITED)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original the recorder replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        keys = ("id", "parent", "name", "start", "end", "thread", "request", "value")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    own = {span[ID]: span[END] - span[START] for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent in own:
            own[parent] -= span[END] - span[START]
    return own


def layer_table(spans: Sequence[Span], layer_of: Dict[str, str],
                other: str = "other") -> Tuple[Dict[str, float], float]:
    """Self time per layer, plus the summed root duration it adds up to.

    Span names missing from ``layer_of`` (the benchmark's own root and
    phase spans) are charged to ``other``.
    """
    own = self_times(spans)
    table: Dict[str, float] = defaultdict(float)
    for span in spans:
        table[layer_of.get(span[NAME], other)] += own[span[ID]]
    total = sum(span[END] - span[START] for span in spans if span[PARENT] == 0)
    return dict(table), total


def by_name(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[span[NAME]].append(span)
    return grouped


def calibrate_overhead(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, measured here."""

    class Probe:
        def hit(self, x: int) -> int:
            return x

    probe = Probe()
    start = time.perf_counter()
    for i in range(calls):
        probe.hit(i)
    plain = time.perf_counter() - start
    recorder = SpanRecorder()
    recorder.enabled = True
    recorder.wrap(Probe, "hit", "probe")
    try:
        start = time.perf_counter()
        for i in range(calls):
            probe.hit(i)
        wrapped = time.perf_counter() - start
    finally:
        recorder.restore()
    return max(wrapped - plain, 0.0) / calls
