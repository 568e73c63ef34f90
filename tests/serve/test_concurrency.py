"""Regression hammers for the serving-layer races fixed by the
concurrency pass.

Each test targets a specific pre-fix bug shape: the TTLCache was wholly
unsynchronized (concurrent eviction/expiry could double-delete), the
breaker's half-open probe budget was a check-then-act (two threads could
both win a one-probe budget), and the service's popularity table was
lazily built outside any lock (two degraded requests could both build
it).  They run green against the locked implementations — and stay
meaningful under ``REPRO_SANITIZE=1``, where the lockset sanitizer would
flag any regression even if the hammer got lucky on timing.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro import testing
from repro.models import LightGCN
from repro.obs import MetricsRegistry
from repro.serve import (
    LEVEL_LIVE,
    LEVEL_POPULARITY,
    LEVEL_STALE,
    CircuitBreaker,
    MicroBatcher,
    RecommendationService,
    ShardedService,
    StaticModelProvider,
    TTLCache,
)

from .test_breaker import FakeClock
from .test_service import POPULARITY, FakeModel, make_service
from .test_shard import WideModel

THREADS = 8
ITERS = 400


def _run_threads(worker, count=THREADS):
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        barrier.wait()
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001 - recorded and re-raised
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestTTLCacheConcurrency:
    def test_mixed_put_get_purge_stays_consistent(self):
        cache = TTLCache(max_entries=16, ttl=60.0)

        def worker(index):
            for step in range(ITERS):
                key = (index, step % 24)
                cache.put(key, step)
                value = cache.get(key)
                assert value is None or value == step
                if step % 50 == 0:
                    cache.purge_expired()

        _run_threads(worker)
        assert len(cache) <= 16

    def test_concurrent_expiry_of_one_key(self):
        """Pre-fix, two readers of an expired key raced the delete."""
        clock = FakeClock()
        cache = TTLCache(max_entries=8, ttl=1.0, clock=clock)
        cache.put("hot", 42)
        clock.advance(5.0)

        def worker(_index):
            for _ in range(ITERS):
                assert cache.get("hot") is None

        _run_threads(worker)
        assert len(cache) == 0

    def test_concurrent_eviction_pressure(self):
        cache = TTLCache(max_entries=4, ttl=60.0)

        def worker(index):
            for step in range(ITERS):
                cache.put((index, step), step)

        _run_threads(worker)
        assert len(cache) <= 4


class TestCircuitBreakerConcurrency:
    def _tripped_breaker(self, clock, **kwargs):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=5.0, clock=clock, **kwargs
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(10.0)  # past recovery: next allow() probes
        return breaker

    def test_half_open_probe_budget_not_oversubscribed(self):
        """Pre-fix bug: ``allow`` checked the probe budget and then
        incremented it without a lock, so two threads could both pass a
        one-probe gate and hammer the recovering backend."""
        clock = FakeClock()
        breaker = self._tripped_breaker(clock, half_open_probes=1)
        admitted = []

        def worker(_index):
            if breaker.allow():
                admitted.append(1)

        _run_threads(worker)
        assert sum(admitted) == 1

    def test_single_open_transition_under_failure_storm(self):
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=3,
            recovery_time=1000.0,
            clock=FakeClock(),
            on_transition=lambda old, new: transitions.append((old, new)),
        )

        def worker(_index):
            for _ in range(ITERS):
                breaker.record_failure()

        _run_threads(worker)
        assert transitions == [("closed", "open")]

    def test_no_lost_failure_counts(self):
        breaker = CircuitBreaker(
            failure_threshold=THREADS * ITERS,
            recovery_time=1000.0,
            clock=FakeClock(),
        )

        def worker(_index):
            for _ in range(ITERS):
                breaker.record_failure()

        _run_threads(worker)
        assert breaker.state == "open"  # exactly at the threshold


class TestServiceConcurrency:
    def test_lazy_popularity_builds_exactly_once(self):
        """Pre-fix, two degraded requests could both observe ``None``
        and build (then clobber) the popularity table."""
        service = make_service(FakeModel(), popularity=None)
        results = [None] * THREADS

        def worker(index):
            results[index] = service._popularity_scores()

        _run_threads(worker)
        identities = {id(scores) for scores in results}
        assert len(identities) == 1
        np.testing.assert_array_equal(
            results[0], np.zeros(FakeModel.num_items)
        )

    def test_request_counter_monotonic_under_load(self):
        service = make_service(FakeModel())

        def worker(_index):
            for _ in range(50):
                service.recommend(1)

        _run_threads(worker, count=4)
        assert service._requests_seen == 4 * 50


class TestShardedPoolConcurrency:
    """Multi-shard hammers: the front door's shared state (down-list,
    stale cache, metrics) under concurrent clients and chaos.  Run with
    ``REPRO_SANITIZE=1`` these double as lockset-sanitizer probes."""

    USERS = list(range(16))

    def _make_pool(self, **kwargs):
        clock = FakeClock()
        workers = [
            make_service(WideModel(), clock=clock) for _ in range(4)
        ]
        defaults = dict(
            popularity=POPULARITY, clock=clock, metrics=MetricsRegistry()
        )
        defaults.update(kwargs)
        return ShardedService(workers, **defaults), clock

    def test_mark_down_reroute_hammer(self):
        """Every dispatch to worker 0 crashes while 8 clients hammer:
        the down-list bookkeeping must not lose the never-error
        contract or a single response."""
        pool, _ = self._make_pool(down_cooldown=0.0)
        responses = []
        record_lock = threading.Lock()

        def worker(index):
            local = []
            for step in range(100):
                response = pool.recommend(self.USERS[step % 16], top_n=3)
                assert response.level in (LEVEL_LIVE, LEVEL_STALE,
                                          LEVEL_POPULARITY)
                local.append(response.worker)
            with record_lock:
                responses.extend(local)

        with testing.CrashPoint(testing.worker_site(0), at=1, every=1):
            _run_threads(worker)
        testing.reset()
        assert len(responses) == THREADS * 100
        assert 0 not in responses  # crashed shard never answered

    def test_front_door_ttl_expiry_races_popularity_fallback(self):
        """Stale entries expire *while* every worker is down and eight
        clients read them: the pre-fix TTLCache double-delete shape, on
        the pool's own cache, with the popularity rung as the landing
        zone.  One thread ages the clock mid-hammer."""
        pool, clock = self._make_pool(down_cooldown=1000.0, stale_ttl=1.0)
        for user in self.USERS:  # warm the front-door stale cache
            assert pool.recommend(user, top_n=3).level == LEVEL_LIVE
        seen = [set() for _ in range(THREADS)]

        def worker(index):
            for step in range(150):
                if index == 0 and step % 10 == 0:
                    clock.advance(0.2)  # expire entries mid-traffic
                response = pool.recommend(self.USERS[step % 16], top_n=3)
                assert response.worker is None  # all shards down
                assert response.level in (LEVEL_STALE, LEVEL_POPULARITY)
                assert response.items.size == 3
                seen[index].add(response.level)

        with testing.CrashPoint(testing.SERVE_WORKER, at=1, every=1):
            _run_threads(worker)
        testing.reset()
        # The clock thread aged every entry past the 1s TTL, so the
        # ladder's last rung was really exercised...
        assert any(LEVEL_POPULARITY in levels for levels in seen)
        # ...and nothing re-populated the cache while workers were down.
        assert len(pool.stale_cache) == 0

    def test_metrics_counts_are_exact_under_concurrency(self):
        pool, _ = self._make_pool()
        total = THREADS * 50

        def worker(index):
            for step in range(50):
                pool.recommend((index * 50 + step) % 64, top_n=2)

        _run_threads(worker)
        metrics = pool._registry()
        assert metrics.get("serve.pool.requests") == total
        assert metrics.get("serve.pool.responses.live") == total
        histogram = metrics.histogram("serve.pool.request_seconds")
        assert histogram.count == total


class TestSharedModelConcurrency:
    def test_services_sharing_one_graph_model_answer_like_one_thread(
        self, small_dataset, small_split
    ):
        """Several micro-batching services over one provider score one
        graph model, so every thread fills and reads the same
        propagation cache at once (each inside its own ``no_grad``)."""
        model = LightGCN(
            small_dataset.num_users, small_dataset.num_items,
            (small_split.train.user_ids, small_split.train.item_ids),
            embed_dim=16, rng=np.random.default_rng(0),
        )
        train_items = [
            set(items.tolist()) for items in small_split.train.items_of_user()
        ]
        services, requests = 4, 100

        def user_of(index, step):
            return (index * requests + step) % model.num_users

        expected = {
            user: model.recommend(user, top_n=10, exclude=train_items[user])
            for user in {
                user_of(index, step)
                for index in range(services) for step in range(requests)
            }
        }
        model.begin_step()  # start cold: the threads race to fill it
        provider = StaticModelProvider(model)
        pool = [
            RecommendationService(
                provider,
                batcher=MicroBatcher(provider.model),
            )
            for _ in range(services)
        ]
        answers = [[] for _ in range(services)]

        def worker(index):
            for step in range(requests):
                user = user_of(index, step)
                response = pool[index].recommend(
                    user, top_n=10, exclude=train_items[user]
                )
                answers[index].append((user, response.level, response.items))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(worker, count=services)
        finally:
            sys.setswitchinterval(interval)
        for rows in answers:
            assert len(rows) == requests
            for user, level, items in rows:
                assert level == LEVEL_LIVE
                assert items.tolist() == expected[user].tolist()
