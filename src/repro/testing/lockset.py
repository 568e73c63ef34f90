"""Eraser-style lockset race sanitizer + runtime lock-order watchdog.

Armed (``arm()`` / the ``sanitize()`` context manager / the
``REPRO_SANITIZE=1`` pytest leg), this module turns the annotations in
:mod:`repro.concurrency` into dynamic checking:

- every ``new_lock``/``new_rlock`` construction returns a
  :class:`SanitizedLock` that tracks, per thread, which locks are held
  and, globally, the order locks nest in.  Acquiring ``B`` while
  holding ``A`` records the edge ``A → B``; a later acquisition that
  closes a cycle raises :class:`DeadlockHazard` carrying both stacks
  (where the conflicting order was first recorded, and where it was
  violated) *before* the program can actually deadlock.

- every ``@shared_state`` class gets its ``__setattr__`` patched to run
  the classic Eraser lockset algorithm per ``(object, attribute)``:
  writes from a single thread are free; once a second thread writes,
  the candidate lockset becomes the locks held right then and every
  further write intersects it.  An empty candidate set means no single
  lock consistently protected the attribute — :class:`RaceHazard` is
  raised with the previous writer's stack and the current one.

Disarmed, nothing is patched and nothing is tracked: annotations are
inert metadata and ``new_lock`` returns plain ``threading`` primitives
(the obs/perf layers carry a <3% disabled-overhead budget).
"""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from .. import concurrency

_STATE_ATTR = "_lockset_state"


class ConcurrencyHazard(RuntimeError):
    """Base class for sanitizer verdicts."""


class RaceHazard(ConcurrencyHazard):
    """Two threads wrote an attribute with no common lock held."""


class DeadlockHazard(ConcurrencyHazard):
    """Lock acquisition order forms a cycle (or a self-deadlock)."""


# ----------------------------------------------------------------------
# global sanitizer state (reset by disarm())
# ----------------------------------------------------------------------
_uids = itertools.count(1)
_armed = False
_state_lock = threading.Lock()  # guards _edges / _lock_names
#: lock-order graph: edge a → b with the stack that first recorded it.
_edges: Dict[int, Dict[int, str]] = {}
_lock_names: Dict[int, str] = {}
_held_local = threading.local()
_patched: Dict[type, Any] = {}
_previous_factory: Optional[Any] = None


def _held() -> List[int]:
    stack = getattr(_held_local, "stack", None)
    if stack is None:
        stack = _held_local.stack = []
    return stack


def _capture(skip: int = 2, limit: int = 12) -> str:
    """A cheap formatted stack (no linecache reads on the hot path)."""
    frames = []
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stacks
        return "  <stack unavailable>"
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        frames.append(
            f'  File "{code.co_filename}", line {frame.f_lineno}, '
            f"in {code.co_name}"
        )
        frame = frame.f_back
    return "\n".join(frames)


def _lock_label(uid: int) -> str:
    return f"{_lock_names.get(uid, 'lock')}#{uid}"


# ----------------------------------------------------------------------
# SanitizedLock
# ----------------------------------------------------------------------
class SanitizedLock:
    """Drop-in ``threading.Lock``/``RLock`` that reports to the watchdog.

    Tracks per-thread held sets for the Eraser lockset intersection and
    feeds every nested acquisition into the global lock-order graph.
    Reentrant acquisitions of an rlock are free; re-acquiring a
    non-reentrant ``SanitizedLock`` on the same thread raises
    :class:`DeadlockHazard` immediately instead of hanging the test.
    """

    def __init__(self, name: str = "lock", reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self.uid = next(_uids)
        self._inner = threading.RLock() if reentrant else threading.Lock()
        with _state_lock:
            _lock_names[self.uid] = name

    # -- watchdog -------------------------------------------------------
    def _before_acquire(self) -> None:
        held = _held()
        if self.uid in held:
            if self.reentrant:
                return
            raise DeadlockHazard(
                f"self-deadlock: non-reentrant {_lock_label(self.uid)} "
                f"re-acquired by the thread already holding it\n"
                f"current acquisition:\n{_capture(3)}"
            )
        if not held:
            return
        with _state_lock:
            for prior in dict.fromkeys(held):
                conflict = _find_path(self.uid, prior)
                if conflict is not None:
                    first_stack = _edges[conflict[0]][conflict[1]]
                    raise DeadlockHazard(
                        f"lock-order inversion: acquiring "
                        f"{_lock_label(self.uid)} while holding "
                        f"{_lock_label(prior)}, but the opposite order "
                        f"{_lock_label(conflict[0])} -> "
                        f"{_lock_label(conflict[1])} was recorded here:\n"
                        f"{first_stack}\n"
                        f"current acquisition:\n{_capture(3)}"
                    )
            stack = _capture(3)
            for prior in dict.fromkeys(held):
                _edges.setdefault(prior, {}).setdefault(self.uid, stack)

    # -- lock protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._before_acquire()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _held().append(self.uid)
        return acquired

    def release(self) -> None:
        held = _held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == self.uid:
                del held[i]
                break
        self._inner.release()

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        if self.reentrant:  # RLock has no .locked() before 3.12
            return False
        return self._inner.locked()

    def _is_owned(self) -> bool:
        """``threading.Condition`` hook: does this thread hold the lock?

        Without it the condition probes ownership by re-acquiring the
        lock non-blockingly, which the watchdog reports as a
        self-deadlock.
        """
        return self.uid in _held()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "rlock" if self.reentrant else "lock"
        return f"<SanitizedLock {self.name!r} {kind} #{self.uid}>"


def _find_path(start: int, target: int) -> Optional[Tuple[int, int]]:
    """BFS in the order graph; returns the first edge of a path
    ``start → … → target`` (meaning the opposite nesting was seen)."""
    frontier = [start]
    seen = {start}
    parent_edge: Dict[int, Tuple[int, int]] = {}
    while frontier:
        node = frontier.pop(0)
        for nxt in _edges.get(node, ()):
            if nxt in seen:
                continue
            parent_edge[nxt] = (node, nxt)
            if nxt == target:
                # walk back to the first hop out of `start`
                edge = parent_edge[nxt]
                while edge[0] != start:
                    edge = parent_edge[edge[0]]
                return edge
            seen.add(nxt)
            frontier.append(nxt)
    return None


# ----------------------------------------------------------------------
# Eraser lockset on annotated classes
# ----------------------------------------------------------------------
def _record_write(obj: Any, cls: type, attr: str) -> None:
    held: FrozenSet[int] = frozenset(_held())
    tid = threading.get_ident()
    states = obj.__dict__.setdefault(_STATE_ATTR, {})
    state = states.get(attr)
    if state is None:
        # Virgin → Exclusive: first write, almost always construction.
        states[attr] = {
            "thread": tid,
            "shared": False,
            "lockset": None,
            "stack": _capture(3),
        }
        return
    if not state["shared"]:
        if state["thread"] == tid:
            state["stack"] = _capture(3)
            return
        # Second thread: Exclusive → Shared-Modified; candidate lockset
        # seeds from the locks held right now.
        state["shared"] = True
        state["lockset"] = set(held)
    else:
        state["lockset"] &= held
    if not state["lockset"]:
        previous = state["stack"]
        state["stack"] = _capture(3)
        raise RaceHazard(
            f"unsynchronized write to {cls.__name__}.{attr}: no lock is "
            f"consistently held across writing threads\n"
            f"previous write (thread {state['thread']}):\n{previous}\n"
            f"current write (thread {tid}):\n{_capture(3)}"
        )
    state["thread"] = tid
    state["stack"] = _capture(3)


def _instrument(cls: type, annotation: concurrency.ConcurrencyAnnotation) -> None:
    if cls in _patched:
        return
    original = cls.__setattr__
    skip = set(annotation.exempt)
    if annotation.guard:
        skip.add(annotation.guard)

    def sanitized_setattr(self: Any, name: str, value: Any) -> None:
        if (
            _armed
            and name not in skip
            and not name.startswith(_STATE_ATTR)
            and not isinstance(value, SanitizedLock)
        ):
            _record_write(self, cls, name)
        original(self, name, value)

    _patched[cls] = original
    cls.__setattr__ = sanitized_setattr


# ----------------------------------------------------------------------
# arming / disarming
# ----------------------------------------------------------------------
def armed() -> bool:
    """Whether the sanitizer is currently active."""
    return _armed


def arm() -> None:
    """Install the lock factory and instrument every annotated class.

    Idempotent — and calling it again while armed instruments any
    ``@shared_state`` class registered *since* the first arming (test
    modules imported mid-session define fixture classes).  Locks
    constructed *before* arming are invisible to the sanitizer — arm
    first, then build the objects under test (the pytest leg re-creates
    the obs module globals for this reason).
    """
    global _armed, _previous_factory
    if not _armed:
        _previous_factory = concurrency.set_lock_factory(
            lambda name, reentrant: SanitizedLock(name, reentrant=reentrant)
        )
        _armed = True
    for cls, annotation in list(concurrency.SHARED_CLASSES.items()):
        _instrument(cls, annotation)


def disarm() -> None:
    """Restore patched classes and drop all tracked state."""
    global _armed, _previous_factory
    if not _armed:
        return
    _armed = False
    concurrency.set_lock_factory(_previous_factory)
    _previous_factory = None
    for cls, original in _patched.items():
        cls.__setattr__ = original
    _patched.clear()
    with _state_lock:
        _edges.clear()
        _lock_names.clear()
    _held_local.__dict__.clear()


@contextmanager
def sanitize():
    """``with sanitize():`` — arm for the block, disarm after.

    Nesting-safe: if the sanitizer was already armed on entry (e.g. the
    whole suite runs under ``REPRO_SANITIZE=1``), it stays armed on
    exit instead of being torn down from under the outer scope.
    """
    was_armed = _armed
    arm()
    try:
        yield
    finally:
        if not was_armed:
            disarm()


__all__ = [
    "ConcurrencyHazard",
    "DeadlockHazard",
    "RaceHazard",
    "SanitizedLock",
    "arm",
    "armed",
    "disarm",
    "sanitize",
]
