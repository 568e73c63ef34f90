"""Micro-batched scoring: coalesce concurrent requests into one matmul.

Under concurrent traffic each request scoring alone costs one model
call; :class:`MicroBatcher` turns that into one ``all_scores`` call per
*batch* of concurrent requests, so a worker answering C simultaneous
users pays the fixed per-call cost (model lookup, GIL round-trips, and
for real backends the matmul launch) once instead of C times.

The flush rule is natural batching, with no timed window:

- a leader scores whatever is queued the moment it takes the lead, so
  a lone request is scored at once;
- requests that arrive while a batch is scoring queue up and share the
  next flush, which never exceeds ``max_batch`` requests, so one
  matmul stays cache-friendly and latency stays bounded.

Coordination is leader/follower with no background thread: the first
thread to find no active leader becomes the leader, executes the
batched scoring call, distributes results, and keeps draining while
requests remain queued.  Followers park on a per-request
:class:`threading.Event`.  All queue state lives under one mutex; the
scoring call itself runs outside it.

Correctness contract (tested in ``tests/serve/test_batching`` and
``tests/serve/test_offline_equality``): for any interleaving of
concurrent callers, each caller receives the ranking the single-user
call produces — ``rank_items`` over ``model.all_scores([user])`` with
the same exclusion handling.  The rows of a batched product need not
equal single-user rows bitwise; the rankings are what is pinned.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional, Set

import numpy as np

from ..concurrency import new_lock, shared_state
from ..eval.metrics import rank_items


class BatchTimeout(RuntimeError):
    """A caller's batched result never arrived (leader died hard)."""


class _Pending:
    """One enqueued request and the slot its result lands in.

    Not shared-state annotated: the submitting thread writes the request
    fields once before publication, the leader writes the result fields
    exactly once before setting ``done``, and the submitter only reads
    them after ``done`` — the Event is the synchronisation point.
    """

    __slots__ = ("user", "top_n", "exclude", "done", "items", "error")

    def __init__(self, user: int, top_n: int, exclude: Set[int]) -> None:
        self.user = user
        self.top_n = top_n
        self.exclude = exclude
        self.done = threading.Event()
        self.items: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


@shared_state(guard="_lock")
class MicroBatcher:
    """Coalesce concurrent ``recommend`` calls into batched scoring.

    Args:
        model_fn: zero-argument callable returning the model to score
            with, resolved at *flush* time so hot reloads between
            batches are honoured (pass ``provider.model``).
        max_batch: largest number of requests scored by one
            ``all_scores`` call.
        max_wait: has no effect; no request waits for company.  It is
            still accepted (and still rejected when negative) only so
            callers that pass it, such as the perfbench serve-uniform
            workload, keep working.
        result_timeout: safety net for callers waiting on a result; a
            leader failing so hard it cannot even record an error
            surfaces as :class:`BatchTimeout` instead of a hang.
        counters: optional counter registry (``serve.batch.*`` stats).

    Thread safety: the queue, the leader flag, and the counters are the
    only shared state; all of it is mutated under ``_lock``.  Scoring
    runs with no lock held.
    """

    def __init__(
        self,
        model_fn: Callable[[], Any],
        *,
        max_batch: int = 8,
        max_wait: float = 0.0,
        result_timeout: float = 30.0,
        counters: Optional[Any] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self._model_fn = model_fn
        self.max_batch = max_batch
        self.result_timeout = result_timeout
        self.counters = counters
        self._lock = new_lock("serve.MicroBatcher")
        self._queue: list = []
        self._leading = False

    # ------------------------------------------------------------------
    # the caller-facing path
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: int,
        top_n: int = 20,
        exclude: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Top-N for one user, scored through the shared batch.

        Blocks until the request's batch has flushed; raises whatever
        the batched scoring call raised (so the serving ladder sees the
        same failures it would see unbatched).
        """
        excluded = (
            set(int(i) for i in exclude) if exclude is not None else set()
        )
        pending = _Pending(int(user), int(top_n), excluded)
        with self._lock:
            self._queue.append(pending)
            lead = not self._leading
            if lead:
                self._leading = True
        if lead:
            self._lead()
        if not pending.done.wait(self.result_timeout):
            raise BatchTimeout(
                f"batched scoring result for user {user} did not arrive "
                f"within {self.result_timeout}s"
            )
        if pending.error is not None:
            raise pending.error
        return pending.items

    # ------------------------------------------------------------------
    # leader duties
    # ------------------------------------------------------------------
    def _lead(self) -> None:
        """Collect-and-flush loop run by the thread holding leadership.

        Every batch flushes at once with what is queued: the first holds
        the leader's own request and any queued just after it, later
        ones hold the requests that queued while the previous batch was
        scoring.  Leadership is released only when the queue is
        observed empty under the lock, so a queued request can never be
        left behind without an active leader.
        """
        while True:
            try:
                with self._lock:
                    batch = self._queue[: self.max_batch]
                    del self._queue[: len(batch)]
                    if not batch:
                        self._leading = False
                        return
            except BaseException:
                with self._lock:
                    self._leading = False
                raise
            self._execute(batch)

    def _execute(self, batch: list) -> None:
        """Score one batch with a single model call and fan results out.

        Any failure is recorded on every request in the batch (each
        caller re-raises it on its own thread) — the leader itself must
        survive so it can keep draining the queue.
        """
        self._count("serve.batch.flushes")
        self._count("serve.batch.requests", len(batch))
        if len(batch) == self.max_batch:
            self._count("serve.batch.full_flushes")
        try:
            model = self._model_fn()
            users = np.asarray([p.user for p in batch], dtype=np.int64)
            # The single matmul: one (B, d) @ (d, |V|) for the batch.
            scores = np.asarray(model.all_scores(users))
            for row, pending in zip(scores, batch):
                pending.items = rank_items(row, pending.exclude, pending.top_n)
        except BaseException as err:  # distributed to every caller
            self._count("serve.batch.errors")
            for pending in batch:
                pending.error = err
        finally:
            for pending in batch:
                pending.done.set()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.counters is not None:
            self.counters.add(name, amount)


__all__ = ["BatchTimeout", "MicroBatcher"]
