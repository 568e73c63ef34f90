"""The benchmark's own open-loop request sender and the rate-ladder rule.

Requests are due on a fixed schedule (``start + i / rate``) whatever the
service does, as independent users would send them.  At most
``threads`` requests are in flight, so when the service falls behind
the queue builds in the sender: a request then leaves after it was due,
and its latency is timed from when it was *due*, which charges the
stall to every request it delays.  How late each request left is kept
as well, to show how far the sender itself fell behind.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from measure import summarize


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and the answer."""

    index: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    response: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.response is not None

    @property
    def latency(self) -> float:
        """Seconds from due to answer; a failure never meets a limit."""
        return self.done - self.due if self.ok else math.inf

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def run_open_loop(
    call: Callable[[int], Any],
    count: int,
    rate: float,
    threads: int,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    start: Optional[float] = None,
    before: Optional[Callable[[int], None]] = None,
    wrap_thread: Optional[Callable[[Callable[[], None]], None]] = None,
) -> List[Outcome]:
    """Send ``count`` requests at ``rate`` per second from ``threads``
    sender threads; ``call(i)`` sends request ``i`` and returns its answer.

    ``before(i)`` runs on the sending thread just before request ``i``
    (the traced run tags spans with the request there);
    ``wrap_thread(body)`` runs a sender thread's loop (the traced run
    opens the thread's root span around it).
    """
    if count < 1 or rate <= 0 or threads < 1:
        raise ValueError("need count >= 1, rate > 0 and threads >= 1")
    begin = clock() if start is None else start
    outcomes = [Outcome(i, begin + i / rate) for i in range(count)]
    cursor = iter(range(count))
    lock = threading.Lock()

    def loop() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcome = outcomes[index]
            wait = outcome.due - clock()
            if wait > 0:
                sleep(wait)
            if before is not None:
                before(index)
            outcome.sent = clock()
            try:
                outcome.response = call(index)
            except Exception as err:  # a failed request is counted, not raised
                outcome.error = err
            outcome.done = clock()

    body = loop if wrap_thread is None else (lambda: wrap_thread(loop))
    if threads == 1:
        body()
        return outcomes
    workers = [threading.Thread(target=body, daemon=True) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return outcomes


def run_closed_loop(
    call: Callable[[int], Any],
    threads: int,
    seconds: float,
    *,
    clock: Callable[[], float] = time.perf_counter,
    wrap_thread: Optional[Callable[[Callable[[], None]], None]] = None,
) -> List[Outcome]:
    """Each of ``threads`` clients sends its next request as soon as the
    previous one is answered, for ``seconds``: the service's saturation
    throughput.  Requests are due when sent."""
    stop = clock() + seconds
    outcomes: List[Outcome] = []
    lock = threading.Lock()

    def loop() -> None:
        while clock() < stop:
            with lock:
                outcome = Outcome(len(outcomes), clock())
                outcomes.append(outcome)
            outcome.sent = outcome.due
            try:
                outcome.response = call(outcome.index)
            except Exception as err:  # a failed request is counted, not raised
                outcome.error = err
            outcome.done = clock()

    body = loop if wrap_thread is None else (lambda: wrap_thread(loop))
    workers = [threading.Thread(target=body, daemon=True) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return outcomes


def backlog_growing(outcomes: Sequence[Outcome], slack: float) -> bool:
    """True when the sender fell further behind over the phase.

    Compares the median lateness of the last fifth of the requests with
    that of the first fifth; a rise above ``slack`` seconds means
    requests arrive faster than they are answered.
    """
    n = len(outcomes)
    if n < 10:
        return False
    fifth = max(n // 5, 1)
    first = sorted(o.lateness for o in outcomes[:fifth])[fifth // 2]
    last = sorted(o.lateness for o in outcomes[-fifth:])[fifth // 2]
    return last - first > slack


def phase_stats(outcomes: Sequence[Outcome], limit: float, slack: float) -> dict:
    """Latency from due, lateness, counts and the pass/fail verdict of
    one phase at one rate.

    The phase meets the limit when its tail latency (failures counted
    as misses) is at most ``limit`` seconds and its backlog does not
    grow.
    """
    latencies = [o.latency for o in outcomes]
    lateness = [o.lateness for o in outcomes]
    failed = sum(1 for o in outcomes if not o.ok)
    stats = summarize(latencies)
    late = summarize(lateness)
    finished = [o.done for o in outcomes if o.ok]
    span = (max(finished) - outcomes[0].due) if finished else math.inf
    growing = backlog_growing(outcomes, slack)
    return {
        "attempted": len(outcomes),
        "succeeded": len(outcomes) - failed,
        "failed": failed,
        "latency_p50": stats["p50"],
        "latency_tail": stats["tail"],
        "tail_pct": stats["tail_pct"],
        "late_p50": late["p50"],
        "late_tail": late["tail"],
        "goodput": (len(outcomes) - failed) / span if span > 0 else 0.0,
        "backlog_growing": growing,
        "meets_limit": stats["tail"] <= limit and not growing,
    }


def max_rate(rungs: Sequence[dict]) -> Optional[dict]:
    """The highest rung, in ladder order, that meets the limit with
    every lower rung meeting it too; ``None`` when the first fails."""
    best = None
    for rung in rungs:
        if not rung["meets_limit"]:
            break
        best = rung
    return best
