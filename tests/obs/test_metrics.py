"""MetricsRegistry: instruments, CounterRegistry compatibility, threads."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, exponential_buckets
from repro.perf import CounterRegistry, StopwatchRegistry


class TestExponentialBuckets:
    def test_default_ladder(self):
        bounds = exponential_buckets()
        assert len(bounds) == 14
        assert bounds[0] == pytest.approx(0.001)
        assert bounds[-1] == pytest.approx(0.001 * 2**13)
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize(
        "kwargs", [{"start": 0}, {"factor": 1.0}, {"count": 0}]
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            exponential_buckets(**kwargs)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("steps")
        c.inc()
        c.inc(4)
        assert registry.counter("steps").value == 5
        assert registry.counter("steps") is c

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        g = registry.gauge("loss")
        g.set(0.5)
        g.inc(0.25)
        assert g.value == pytest.approx(0.75)
        assert g.updates == 2
        assert registry.gauges() == {"loss": pytest.approx(0.75)}


class TestHistogram:
    def test_cumulative_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.bucket_counts() == [1, 2, 3]
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        assert h.mean == pytest.approx(55.55 / 4)

    def test_quantile_from_bounds(self):
        registry = MetricsRegistry()
        h = registry.histogram("q", buckets=[1.0, 2.0, 4.0])
        for value in [0.5] * 50 + [1.5] * 40 + [3.0] * 10:
            h.observe(value)
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(0.9) == pytest.approx(2.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_quantile_above_ladder_is_inf(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0])
        h.observe(100.0)
        assert h.quantile(0.9) == float("inf")

    def test_quantile_empty_and_bad_q(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    @given(
        bounds=st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            min_size=1, max_size=8,
        ),
        batches=st.lists(
            st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_observe_many_equals_per_value_observe(self, bounds, batches):
        registry = MetricsRegistry()
        loop = registry.histogram("loop", buckets=bounds)
        many = registry.histogram("many", buckets=bounds)
        for batch in batches:
            for value in batch:
                loop.observe(value)
            many.observe_many(np.asarray(batch, dtype=np.float64))
        assert many.bucket_counts() == loop.bucket_counts()
        assert many.count == loop.count
        # Same additions in the same order: bitwise equal (NaN included).
        assert np.float64(many.sum).tobytes() == np.float64(loop.sum).tobytes()

    def test_observe_many_accepts_integer_counts(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0, 10.0])
        h.observe_many(np.array([0, 5, 50], dtype=np.int64))
        assert h.bucket_counts() == [1, 2]
        assert h.count == 3 and h.sum == 55.0


class TestCounterRegistryCompatibility:
    """MetricsRegistry must be usable anywhere CounterRegistry is."""

    def test_add_get_counts(self):
        registry = MetricsRegistry()
        registry.add("hits")
        registry.add("hits", 2)
        registry.add("misses")
        assert registry.get("hits") == 3
        assert registry.get("absent") == 0
        assert registry.counts() == {"hits": 3, "misses": 1}

    def test_as_dict_sorted(self):
        registry = MetricsRegistry()
        registry.add("zebra")
        registry.add("aard")
        assert list(registry.as_dict()) == ["aard", "zebra"]

    def test_rate(self):
        registry = MetricsRegistry()
        registry.add("events", 10)
        assert registry.rate("events", 2.0) == pytest.approx(5.0)
        assert registry.rate("events", 0.0) == 0.0

    def test_merge_from_perf_counters(self):
        perf = CounterRegistry()
        perf.add("shared", 2)
        registry = MetricsRegistry()
        registry.add("shared", 1)
        registry.merge(perf)
        assert registry.get("shared") == 3

    def test_same_public_surface_as_counter_registry(self):
        for method in ("add", "get", "counts", "rate", "as_dict",
                       "merge", "reset"):
            assert callable(getattr(MetricsRegistry(), method)), method

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.add("c")
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(0.1)
        registry.reset()
        assert registry.counts() == {}
        assert registry.gauges() == {}
        assert registry.histograms() == {}


class TestSnapshotAndAbsorb:
    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        registry = MetricsRegistry()
        registry.add("b.counter")
        registry.add("a.counter")
        registry.gauge("loss").set(0.25)
        registry.histogram("lat", buckets=[1.0]).observe(0.5)
        snap = registry.snapshot()
        json.dumps(snap)
        assert list(snap["counters"]) == ["a.counter", "b.counter"]
        assert snap["gauges"]["loss"] == 0.25
        assert snap["histograms"]["lat"]["count"] == 1

    def test_absorb_perf_registries(self):
        counters = CounterRegistry()
        counters.add("steps", 7)
        timers = StopwatchRegistry()
        timers.record("epoch", 0.2)
        timers.record("epoch", 0.4)
        registry = MetricsRegistry()
        registry.absorb_perf(counters=counters, timers=timers)
        assert registry.get("steps") == 7
        hist = registry.histograms()["perf.epoch"]
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.6)


class TestThreadSafety:
    def test_concurrent_mixed_instruments(self):
        registry = MetricsRegistry()
        threads_n, rounds = 8, 1_000
        barrier = threading.Barrier(threads_n)

        def worker(index):
            barrier.wait()
            for step in range(rounds):
                registry.add("shared")
                registry.counter(f"own.{index}").inc()
                registry.gauge("gauge").set(step)
                registry.histogram("hist").observe(0.01)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.get("shared") == threads_n * rounds
        for index in range(threads_n):
            assert registry.counter(f"own.{index}").value == rounds
        assert registry.histograms()["hist"].count == threads_n * rounds
