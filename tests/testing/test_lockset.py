"""Lockset sanitizer coverage: the racy fixture class must be flagged,
its correctly locked twin must not, and an ABBA pair must trip the
lock-order watchdog before any thread can actually deadlock."""

from __future__ import annotations

import threading

import pytest

from repro.concurrency import new_lock, new_rlock, shared_state
from repro.testing import lockset
from repro.testing.lockset import (
    ConcurrencyHazard,
    DeadlockHazard,
    RaceHazard,
    SanitizedLock,
    sanitize,
)

THREADS = 4
ITERS = 200


@shared_state(guard="_lock")
class RacyCounter:
    """Deliberately broken: no lock anywhere near the writes."""

    def __init__(self):
        self.value = 0

    def bump(self):
        self.value = self.value + 1


@shared_state(guard="_lock")
class LockedCounter:
    """The correct twin: every write under the declared guard."""

    def __init__(self):
        self._lock = new_lock("test.LockedCounter")
        self.value = 0

    def bump(self):
        with self._lock:
            self.value = self.value + 1


@pytest.fixture
def sanitizer():
    """Arm for one test; leave a session-wide arming untouched."""
    was_armed = lockset.armed()
    lockset.arm()  # idempotent; instruments classes defined since
    yield
    if not was_armed:
        lockset.disarm()


@pytest.fixture
def disarmed_baseline():
    """Skip lifecycle tests that need a disarmed starting state."""
    if lockset.armed():
        pytest.skip("sanitizer is armed session-wide (REPRO_SANITIZE=1)")


def _hammer(target, threads=THREADS, iters=ITERS):
    """Drive ``target()`` from many threads; collect hazards raised."""
    barrier = threading.Barrier(threads)
    hazards = []

    def worker():
        barrier.wait()
        try:
            for _ in range(iters):
                target()
        except ConcurrencyHazard as hazard:
            hazards.append(hazard)

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    return hazards


class TestRaceDetection:
    def test_racy_class_is_flagged(self, sanitizer):
        counter = RacyCounter()
        hazards = _hammer(counter.bump)
        assert hazards, "sanitizer missed an unsynchronized write"
        assert isinstance(hazards[0], RaceHazard)
        message = str(hazards[0])
        assert "RacyCounter.value" in message
        assert "previous write" in message and "current write" in message

    def test_locked_twin_is_clean(self, sanitizer):
        counter = LockedCounter()
        hazards = _hammer(counter.bump)
        assert hazards == []
        assert counter.value == THREADS * ITERS

    def test_single_thread_never_flags(self, sanitizer):
        counter = RacyCounter()
        for _ in range(ITERS):
            counter.bump()
        assert counter.value == ITERS

    def test_exempt_attrs_are_not_tracked(self, sanitizer):
        @shared_state(guard="_lock", exempt=("scratch",))
        class Scratchpad:
            def __init__(self):
                self.scratch = 0

            def note(self):
                self.scratch += 1

        lockset.arm()  # instrument the class registered after arming
        pad = Scratchpad()
        assert _hammer(pad.note) == []


class TestDeadlockWatchdog:
    def test_lock_inversion_is_reported(self, sanitizer):
        first = SanitizedLock("watchdog.first")
        second = SanitizedLock("watchdog.second")
        with first:
            with second:
                pass
        with pytest.raises(DeadlockHazard, match="lock-order inversion"):
            with second:
                with first:
                    pass

    def test_consistent_order_is_clean(self, sanitizer):
        first = SanitizedLock("order.first")
        second = SanitizedLock("order.second")
        for _ in range(3):
            with first:
                with second:
                    pass

    def test_transitive_inversion_is_reported(self, sanitizer):
        a = SanitizedLock("chain.a")
        b = SanitizedLock("chain.b")
        c = SanitizedLock("chain.c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(DeadlockHazard):
            with c:
                with a:
                    pass

    def test_self_deadlock_on_plain_lock(self, sanitizer):
        lock = new_lock("self.plain")
        with lock:
            with pytest.raises(DeadlockHazard, match="self-deadlock"):
                lock.acquire()

    def test_rlock_reentry_is_fine(self, sanitizer):
        lock = new_rlock("self.reentrant")
        with lock:
            with lock:
                pass

    def test_condition_on_a_sanitized_lock_waits_and_notifies(
        self, sanitizer
    ):
        # Condition probes ownership through the lock; the probe must
        # not read as the holder re-acquiring it.
        lock = new_lock("self.condition")
        condition = threading.Condition(lock)
        ready = []

        def notifier():
            with lock:
                ready.append(True)
                condition.notify_all()

        with lock:
            thread = threading.Thread(target=notifier)
            thread.start()
            assert condition.wait_for(lambda: ready, timeout=5.0)
        thread.join()
        with pytest.raises(RuntimeError):
            condition.notify()  # not held: refused, not a hazard


class TestArming:
    def test_factory_swap_round_trip(self, disarmed_baseline):
        with sanitize():
            assert isinstance(new_lock("probe"), SanitizedLock)
        assert isinstance(new_lock("probe"), threading.Lock().__class__)

    def test_arm_is_idempotent(self, disarmed_baseline):
        with sanitize():
            lockset.arm()
            assert lockset.armed()
        # An already-armed outer scope must survive a nested sanitize().
        with sanitize():
            with sanitize():
                pass
            assert lockset.armed()
        assert not lockset.armed()

    def test_disarmed_writes_are_untracked(self, disarmed_baseline):
        counter = RacyCounter()
        assert _hammer(counter.bump, threads=2, iters=50) == []

    def test_disarm_restores_setattr(self, disarmed_baseline):
        with sanitize():
            counter = RacyCounter()
            counter.bump()
        counter.value = 99  # plain setattr again, no tracking
        assert counter.value == 99


class TestAnnotatedProductionClasses:
    """The classes fixed in this pass must run hazard-free when armed."""

    def test_counter_registry_clean_under_sanitizer(self, sanitizer):
        from repro.perf import CounterRegistry

        registry = CounterRegistry()
        hazards = _hammer(lambda: registry.add("hits"))
        assert hazards == []
        assert registry.get("hits") == THREADS * ITERS

    def test_metrics_registry_clean_under_sanitizer(self, sanitizer):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()

        def work():
            registry.counter("requests").inc()
            registry.gauge("depth").set(3)

        assert _hammer(work) == []

    def test_ttl_cache_clean_under_sanitizer(self, sanitizer):
        from repro.serve.cache import TTLCache

        cache = TTLCache(max_entries=32, ttl=60.0)

        def work():
            cache.put("key", 1)
            cache.get("key")
            cache.purge_expired()

        assert _hammer(work) == []
