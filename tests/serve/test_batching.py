"""Micro-batcher properties: bit-identity, flush rule, error fanout."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.perf import CounterRegistry
from repro.serve import MicroBatcher

from .test_service import FakeModel


class ScriptedModel(FakeModel):
    """Deterministic scores from pure elementwise numpy, so batched
    rows are guaranteed bit-identical to single-user rows and any
    ranking difference must come from the batcher itself."""

    def __init__(self, fail_times: int = 0):
        super().__init__(fail_times=fail_times)
        self.batch_sizes = []

    def all_scores(self, users):
        users = np.asarray(users, dtype=np.int64)
        self.batch_sizes.append(len(users))
        if self.calls_should_fail():
            raise RuntimeError("scoring backend down")
        items = np.arange(self.num_items, dtype=np.float64)
        return np.sin(users[:, None] * 1.7) * 3.0 + items[None, :] * 0.01

    def calls_should_fail(self):
        self.calls += 1
        return self.calls <= self.fail_times

    def recommend(self, user, top_n=20, exclude=None):
        from repro.eval.metrics import rank_items

        return rank_items(
            self.all_scores(np.asarray([user]))[0], exclude or set(), top_n
        )


class ScoringGate:
    """Holds the first scoring call open until ``release`` is set.

    The only deterministic way to queue requests behind a running
    batch: the lead caller's scoring blocks here while the others
    queue, so the next flush is known to hold all of them.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def pass_through(self):
        if self.entered.is_set():
            return
        self.entered.set()
        if not self.release.wait(10.0):
            raise RuntimeError("scoring gate was never released")


class GatedModel(ScriptedModel):
    def __init__(self):
        super().__init__()
        self.gate = ScoringGate()

    def all_scores(self, users):
        self.gate.pass_through()
        return super().all_scores(users)


def wait_queued(batcher, count, timeout=10.0):
    """Block until ``count`` requests sit in the batcher's queue."""
    deadline = time.monotonic() + timeout
    while True:
        with batcher._lock:
            if len(batcher._queue) >= count:
                return
        assert time.monotonic() < deadline, f"{count} callers never queued"
        time.sleep(0.001)


def run_behind_gate(batcher, gate, lead, followers, lead_timeout=10.0):
    """Run ``lead`` until its scoring is held open by ``gate``, queue
    every ``followers`` call behind it, then release; returns the
    callers' errors.  Fails if the lead is not scored within
    ``lead_timeout`` seconds."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(lead,))]
    threads[0].start()
    try:
        assert gate.entered.wait(lead_timeout), (
            f"the lead request was not scored within {lead_timeout}s"
        )
        for fn in followers:
            threads.append(threading.Thread(target=wrap, args=(fn,)))
            threads[-1].start()
        wait_queued(batcher, len(followers))
    finally:
        gate.release.set()
        for thread in threads:
            thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def run_concurrently(workers):
    barrier = threading.Barrier(len(workers))
    errors = []

    def wrap(fn):
        barrier.wait()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(fn,)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestBitIdentity:
    @pytest.mark.parametrize("callers,max_batch", [(1, 4), (4, 4), (7, 3),
                                                   (16, 8), (9, 1)])
    def test_any_interleaving_matches_unbatched(self, callers, max_batch):
        """Whatever batches the scheduler produces, every caller gets
        exactly the unbatched ``model.recommend`` answer."""
        model = ScriptedModel()
        reference = ScriptedModel()
        batcher = MicroBatcher(lambda: model, max_batch=max_batch)
        results = {}

        def call(user):
            def run():
                results[user] = batcher.recommend(
                    user, top_n=5, exclude={user % 3}
                )
            return run

        errors = run_concurrently([call(u) for u in range(callers)])
        assert not errors
        for user in range(callers):
            np.testing.assert_array_equal(
                results[user],
                reference.recommend(user, top_n=5, exclude={user % 3}),
            )

    def test_repeated_rounds_with_thread_churn(self):
        """Multiple rounds with different caller counts — the batcher
        must stay correct as leadership changes hands."""
        model = ScriptedModel()
        reference = ScriptedModel()
        batcher = MicroBatcher(lambda: model, max_batch=4)
        for round_id, callers in enumerate((3, 8, 1, 5)):
            results = {}

            def call(user):
                def run():
                    results[user] = batcher.recommend(user, top_n=4)
                return run

            users = [round_id * 10 + i for i in range(callers)]
            assert not run_concurrently([call(u) for u in users])
            for user in users:
                np.testing.assert_array_equal(
                    results[user], reference.recommend(user, top_n=4)
                )


class TestFlushBounds:
    def test_lone_request_is_scored_at_once(self):
        """A single request never waits for company, whatever
        ``max_wait`` says: it is scored alone, straight away."""
        model = ScriptedModel()
        batcher = MicroBatcher(lambda: model, max_batch=64, max_wait=5.0)
        start = time.monotonic()
        items = batcher.recommend(2, top_n=3)
        assert time.monotonic() - start < 1.0
        assert items.size == 3
        assert model.batch_sizes == [1]

    @pytest.mark.parametrize(
        "followers,max_batch,expected",
        [(3, 8, [1, 3]), (8, 8, [1, 8]), (11, 4, [1, 4, 4, 3])],
    )
    def test_callers_queued_behind_a_running_batch_share_the_next_flush(
        self, followers, max_batch, expected
    ):
        """The lead request is scored alone at once; everyone who
        queued while it scored shares the next flush, capped at
        ``max_batch``."""
        model = GatedModel()
        reference = ScriptedModel()
        batcher = MicroBatcher(
            lambda: model, max_batch=max_batch, max_wait=5.0
        )
        results = {}

        def call(user):
            def run():
                results[user] = batcher.recommend(user, top_n=4)
            return run

        errors = run_behind_gate(
            batcher, model.gate, call(0),
            [call(u) for u in range(1, followers + 1)], lead_timeout=1.0,
        )
        assert not errors
        assert model.batch_sizes == expected
        for user in range(followers + 1):
            np.testing.assert_array_equal(
                results[user], reference.recommend(user, top_n=4)
            )

    def test_batches_never_exceed_max_batch(self):
        model = ScriptedModel()
        batcher = MicroBatcher(lambda: model, max_batch=4)

        def call(user):
            def run():
                batcher.recommend(user, top_n=2)
            return run

        assert not run_concurrently([call(u) for u in range(17)])
        assert sum(model.batch_sizes) == 17
        assert max(model.batch_sizes) <= 4

    def test_concurrent_callers_actually_coalesce(self):
        """Callers that queue behind a running batch share scoring
        calls (fewer flushes than requests)."""
        model = GatedModel()
        counters = CounterRegistry()
        batcher = MicroBatcher(lambda: model, max_batch=8, counters=counters)

        def call(user):
            def run():
                batcher.recommend(user, top_n=2)
            return run

        assert not run_behind_gate(
            batcher, model.gate, call(0), [call(u) for u in range(1, 8)]
        )
        assert counters.get("serve.batch.requests") == 8
        assert counters.get("serve.batch.flushes") == 2

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda: None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda: None, max_wait=-1.0)


class TestExclude:
    @pytest.mark.parametrize(
        "exclude",
        [np.array([0]), np.array([3, 5]), np.array([0, 7, 2])],
        ids=["item-zero-alone", "two-items", "with-item-zero"],
    )
    def test_array_exclusions_match_the_unbatched_ranking(self, exclude):
        # A one-element array holding item 0 is falsy; a longer array
        # has no truth value at all.  Both must exclude exactly.
        model = ScriptedModel()
        batcher = MicroBatcher(lambda: model, max_batch=1)
        top_n = model.num_items  # the full ranking, so item 0 shows
        items = batcher.recommend(4, top_n=top_n, exclude=exclude)
        expected = model.recommend(4, top_n=top_n, exclude=set(exclude))
        np.testing.assert_array_equal(items, expected)
        assert len(items) == model.num_items - len(exclude)
        assert not set(items.tolist()) & set(exclude.tolist())


class TestFailureFanout:
    def test_scoring_error_reaches_every_caller(self):
        model = ScriptedModel(fail_times=10**9)
        batcher = MicroBatcher(lambda: model, max_batch=4)

        def call(user):
            def run():
                batcher.recommend(user, top_n=2)
            return run

        errors = run_concurrently([call(u) for u in range(4)])
        assert len(errors) == 4
        assert all("backend down" in str(e) for e in errors)

    def test_batcher_recovers_after_a_failed_batch(self):
        model = ScriptedModel(fail_times=1)
        batcher = MicroBatcher(lambda: model, max_batch=4)
        with pytest.raises(RuntimeError):
            batcher.recommend(1, top_n=2)
        items = batcher.recommend(1, top_n=2)
        assert items.size == 2

    def test_model_fn_resolved_at_flush_time(self):
        """Hot reload between batches is honoured: the batcher scores
        with whatever the provider holds *now*."""
        slot = {"model": ScriptedModel()}
        batcher = MicroBatcher(lambda: slot["model"], max_batch=2)
        batcher.recommend(1, top_n=2)
        replacement = ScriptedModel()
        slot["model"] = replacement
        batcher.recommend(2, top_n=2)
        assert replacement.batch_sizes == [1]
