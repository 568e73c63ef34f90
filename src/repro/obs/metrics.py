"""Counters, gauges, and exponential-bucket histograms.

:class:`MetricsRegistry` is the metric store behind the observability
layer.  It subsumes :class:`repro.perf.CounterRegistry`: the full
counter API (``add`` / ``get`` / ``counts`` / ``rate`` / ``as_dict`` /
``merge`` / ``reset``) is implemented with identical semantics, so a
``MetricsRegistry`` can be passed anywhere the trainer, evaluator, or
serving stack expects a plain counter registry — while also collecting
gauges (last-value metrics such as loss or cluster drift) and
histograms (latency distributions) for the Prometheus and JSONL
exporters in :mod:`repro.obs.export`.

All mutations are lock-protected, matching the thread-safety contract
the serving stack needs under concurrent traffic.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..concurrency import new_lock, shared_state


def exponential_buckets(
    start: float = 0.001, factor: float = 2.0, count: int = 14
) -> List[float]:
    """Upper bounds ``start * factor**i`` for ``i in range(count)``.

    The default ladder spans 1ms to ~8s, a good fit for both per-batch
    training phases and per-request serving latencies.
    """
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [start * factor**i for i in range(count)]


@shared_state(guard="_lock")
class Counter:
    """A monotonically increasing value."""

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self.value += amount


@shared_state(guard="_lock")
class Gauge:
    """A last-value metric that can go up and down."""

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value: float = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount
            self.updates += 1


@shared_state(guard="_lock")
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; a final
    implicit ``+Inf`` bucket equals ``count``.
    """

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self._lock = lock
        self.bounds = sorted(buckets) if buckets else exponential_buckets()
        self._counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1

    def observe_many(self, values) -> None:
        """:meth:`observe` every entry of ``values``, in order, under one
        lock acquisition.

        One ``searchsorted`` finds each value's first bound at or above
        it, so bucket counts and ``count`` equal the per-value loop's;
        a sequential ``cumsum`` adds the values to ``sum`` in the same
        order, so ``sum`` is bitwise equal too.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if not len(values):
            return
        first = np.searchsorted(np.asarray(self.bounds, dtype=np.float64), values)
        added = np.cumsum(np.bincount(first, minlength=len(self.bounds) + 1))
        with self._lock, np.errstate(over="ignore", invalid="ignore"):
            # Float addition overflows to inf (and inf - inf gives NaN)
            # silently, as in observe().
            self.count += len(values)
            self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
            self._counts = [
                old + int(new) for old, new in zip(self._counts, added)
            ]

    def bucket_counts(self) -> List[int]:
        """Cumulative counts per bound (excluding the +Inf bucket)."""
        with self._lock:
            return list(self._counts)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket upper bounds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = math.ceil(q * self.count)
            for bound, cum in zip(self.bounds, self._counts):
                if cum >= target:
                    return bound
            return float("inf")


@shared_state(guard="_lock")
class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock.

    Counter-compatible with :class:`repro.perf.CounterRegistry` so it
    drops into every existing ``counters=`` parameter unchanged.

    The registry shares its one lock with every instrument it creates:
    instrument mutations and registry snapshots can never interleave,
    and there is a single lock order by construction.
    """

    def __init__(self) -> None:
        self._lock = new_lock("obs.MetricsRegistry")
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            found = self._counters.get(name)
            if found is None:
                found = self._counters[name] = Counter(name, self._lock)
        return found

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            found = self._gauges.get(name)
            if found is None:
                found = self._gauges[name] = Gauge(name, self._lock)
        return found

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            found = self._histograms.get(name)
            if found is None:
                found = self._histograms[name] = Histogram(
                    name, self._lock, buckets
                )
        return found

    # ------------------------------------------------------------------
    # CounterRegistry-compatible surface
    # ------------------------------------------------------------------
    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (CounterRegistry semantics)."""
        self.counter(name).inc(int(amount))

    def get(self, name: str) -> int:
        with self._lock:
            found = self._counters.get(name)
            return 0 if found is None else found.value

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def rate(self, name: str, seconds: float) -> float:
        """Events per second, 0.0 when no time was spent."""
        return self.get(name) / seconds if seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, int]:
        counts = self.counts()
        return {name: counts[name] for name in sorted(counts)}

    def merge(self, other) -> None:
        """Fold another registry's counters (perf or obs) into this one."""
        for name, amount in other.counts().items():
            self.add(name, amount)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return {name: g.value for name, g in self._gauges.items()}

    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "bounds": list(h.bounds),
                        "bucket_counts": list(h._counts),
                        "count": h.count,
                        "sum": h.sum,
                    }
                    for n, h in sorted(self._histograms.items())
                },
            }

    def absorb_perf(self, counters=None, timers=None) -> None:
        """Fold a :mod:`repro.perf` registry pair into this registry.

        Counters merge by name; each timer scope becomes a histogram
        fed the scope's mean (count times), preserving totals for the
        exporters without requiring per-event retention in perf.
        """
        if counters is not None:
            self.merge(counters)
        if timers is not None:
            for path, stat in timers.stats().items():
                hist = self.histogram(f"perf.{path}")
                for _ in range(stat.count):
                    hist.observe(stat.mean)
