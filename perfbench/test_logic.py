"""Tests of the benchmark's own logic (not of the program).

Run from the repository root with ``python -m pytest perfbench``.
"""

import math
import threading

import pytest

from measure import samples_beyond, summarize, tail_percentile
from openloop import Outcome, backlog_growing, max_rate, phase_stats, run_open_loop
from tracing import SpanRecorder, layer_table, self_times


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# the highest percentile with at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10000, 99.9), (2000, 99.5), (1000, 99.0), (999, 98.0), (500, 98.0),
    (400, 95.0), (200, 95.0), (100, 90.0), (50, 80.0), (40, 75.0),
    (20, 50.0), (19, None), (1, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_summarize_counts_failures_as_misses_and_falls_back_to_max():
    values = [1.0] * 989 + [2.0] * 10 + [math.inf]
    stats = summarize(values)
    assert stats["tail_pct"] == 99.0 and stats["tail"] == 2.0
    assert summarize(values[:-11] + [math.inf] * 11)["tail"] == math.inf
    small = summarize([3.0, 1.0, 2.0])
    assert small == {"n": 3, "p50": 2.0, "tail_pct": 100.0, "tail": 3.0}


# ----------------------------------------------------------------------
# self time over nested spans
# ----------------------------------------------------------------------
def test_self_times_subtract_children_and_add_up_to_the_roots():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enabled = True
    with rec.span("root"):           # 0 .. 10
        clock.sleep(1)
        with rec.span("a"):          # 1 .. 6
            clock.sleep(2)
            with rec.span("b"):      # 3 .. 5
                clock.sleep(2)
            clock.sleep(1)
        with rec.span("b"):          # 6 .. 9
            clock.sleep(3)
        clock.sleep(1)
    own = {span[2] + str(span[3]): t for span, t in
           zip(rec.spans, (self_times(rec.spans)[s[0]] for s in rec.spans))}
    assert own == {"b3.0": 2.0, "a1.0": 3.0, "b6.0": 3.0, "root0.0": 2.0}
    table, total = layer_table(rec.spans, {"a": "layer.a", "b": "layer.b"})
    assert table == {"layer.a": 3.0, "layer.b": 5.0, "other": 2.0}
    assert total == 10.0 and sum(table.values()) == total


def test_spans_nest_per_thread():
    rec = SpanRecorder()
    rec.enabled = True
    done = threading.Event()

    def other() -> None:
        with rec.span("worker"):
            pass
        done.set()

    with rec.span("main"):
        thread = threading.Thread(target=other)
        thread.start()
        assert done.wait(5)
        thread.join(5)
    assert not thread.is_alive()
    parents = {span[2]: span[1] for span in rec.spans}
    assert parents == {"worker": 0, "main": 0}
    _, total = layer_table(rec.spans, {})
    assert total == pytest.approx(sum(s[4] - s[3] for s in rec.spans))


def test_wrap_records_and_restore_removes_inherited_override():
    class Base:
        def hit(self, x):
            return x + 1

    class Child(Base):
        pass

    rec = SpanRecorder()
    rec.enabled = True
    rec.wrap(Child, "hit", "Child.hit", value=lambda a, k, out: out)
    assert Child().hit(1) == 2
    assert [(s[2], s[7]) for s in rec.spans] == [("Child.hit", 2.0)]
    rec.restore()
    assert "hit" not in vars(Child) and Child().hit(1) == 2


# ----------------------------------------------------------------------
# lateness accounting in the open-loop sender
# ----------------------------------------------------------------------
def _serve_with(service_time: float, count: int = 20, rate: float = 10.0):
    clock = FakeClock()

    def call(i):
        clock.sleep(service_time)
        return i

    return run_open_loop(call, count, rate, 1, clock=clock, sleep=clock.sleep,
                         start=0.0)


def test_latency_is_timed_from_due_and_stalls_show_as_lateness():
    fast = _serve_with(0.05)
    assert [o.lateness for o in fast] == [0.0] * 20
    assert all(o.latency == pytest.approx(0.05) for o in fast)
    slow = _serve_with(0.25)
    # Each request leaves when the previous one is answered: 0.15 s
    # later per request than its schedule, all charged to latency.
    for i, outcome in enumerate(slow):
        assert outcome.due == pytest.approx(i * 0.1)
        assert outcome.lateness == pytest.approx(i * 0.15)
        assert outcome.latency == pytest.approx(i * 0.15 + 0.25)
    assert backlog_growing(slow, slack=0.02)
    assert not backlog_growing(fast, slack=0.02)


def test_failed_request_is_counted_not_raised():
    clock = FakeClock()

    def call(i):
        clock.sleep(0.01)
        if i == 3:
            raise RuntimeError("boom")
        return i

    out = run_open_loop(call, 5, 10.0, 1, clock=clock, sleep=clock.sleep)
    assert [o.ok for o in out] == [True, True, True, False, True]
    assert out[3].latency == math.inf


# ----------------------------------------------------------------------
# the max_rps ladder rule
# ----------------------------------------------------------------------
def _phase(latencies, lateness=None, failures=()):
    outcomes = []
    for i, lat in enumerate(latencies):
        late = 0.0 if lateness is None else lateness[i]
        o = Outcome(i, due=float(i), sent=float(i) + late, done=float(i) + lat)
        if i in failures:
            o.error = RuntimeError("refused")
        else:
            o.response = object()
        outcomes.append(o)
    return outcomes


def test_a_failure_counts_as_a_miss():
    fast = [0.01] * 100
    assert phase_stats(_phase(fast), 0.1, 0.02)["meets_limit"]
    # 11 failures put the p90 tail (10 samples beyond) at infinity.
    stats = phase_stats(_phase(fast, failures=range(89, 100)), 0.1, 0.02)
    assert stats["failed"] == 11 and not stats["meets_limit"]


def test_a_growing_backlog_disqualifies_the_rate():
    lateness = [i * 0.0006 for i in range(100)]          # 0 .. 60 ms
    latencies = [late + 0.01 for late in lateness]      # all under 100 ms
    stats = phase_stats(_phase(latencies, lateness), 0.1, 0.02)
    assert stats["latency_tail"] < 0.1
    assert stats["backlog_growing"] and not stats["meets_limit"]


def test_max_rate_is_the_highest_rung_before_the_first_miss():
    ok = {"meets_limit": True}
    miss = {"meets_limit": False}
    rungs = [dict(ok, r=20), dict(ok, r=40), dict(miss, r=80), dict(ok, r=160)]
    assert max_rate(rungs)["r"] == 40
    assert max_rate([dict(miss, r=20), dict(ok, r=40)]) is None
