"""Micro-batcher properties: bit-identity, flush bounds, error fanout."""

from __future__ import annotations

import threading

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
        batcher = MicroBatcher(
            lambda: model, max_batch=max_batch, max_wait=0.002
        )
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
        batcher = MicroBatcher(lambda: model, max_batch=4, max_wait=0.001)
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
    def test_max_wait_flush_always_fires_for_a_lone_request(self):
        """A single request must not starve waiting for company: the
        max-wait window flushes a partial (even singleton) batch."""
        model = ScriptedModel()
        batcher = MicroBatcher(lambda: model, max_batch=64, max_wait=0.01)
        items = batcher.recommend(2, top_n=3)
        assert items.size == 3
        assert model.batch_sizes == [1]

    def test_batches_never_exceed_max_batch(self):
        model = ScriptedModel()
        batcher = MicroBatcher(lambda: model, max_batch=4, max_wait=0.05)

        def call(user):
            def run():
                batcher.recommend(user, top_n=2)
            return run

        assert not run_concurrently([call(u) for u in range(17)])
        assert sum(model.batch_sizes) == 17
        assert max(model.batch_sizes) <= 4

    def test_concurrent_callers_actually_coalesce(self):
        """Under a generous wait window, simultaneous callers must end
        up sharing scoring calls (fewer flushes than requests)."""
        model = ScriptedModel()
        counters = CounterRegistry()
        batcher = MicroBatcher(
            lambda: model, max_batch=8, max_wait=0.05, counters=counters
        )

        def call(user):
            def run():
                batcher.recommend(user, top_n=2)
            return run

        assert not run_concurrently([call(u) for u in range(8)])
        assert counters.get("serve.batch.requests") == 8
        assert counters.get("serve.batch.flushes") < 8

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
        batcher = MicroBatcher(lambda: model, max_batch=1, max_wait=0.0)
        top_n = model.num_items  # the full ranking, so item 0 shows
        items = batcher.recommend(4, top_n=top_n, exclude=exclude)
        expected = model.recommend(4, top_n=top_n, exclude=set(exclude))
        np.testing.assert_array_equal(items, expected)
        assert len(items) == model.num_items - len(exclude)
        assert not set(items.tolist()) & set(exclude.tolist())


class TestFailureFanout:
    def test_scoring_error_reaches_every_caller(self):
        model = ScriptedModel(fail_times=10**9)
        batcher = MicroBatcher(lambda: model, max_batch=4, max_wait=0.01)

        def call(user):
            def run():
                batcher.recommend(user, top_n=2)
            return run

        errors = run_concurrently([call(u) for u in range(4)])
        assert len(errors) == 4
        assert all("backend down" in str(e) for e in errors)

    def test_batcher_recovers_after_a_failed_batch(self):
        model = ScriptedModel(fail_times=1)
        batcher = MicroBatcher(lambda: model, max_batch=4, max_wait=0.005)
        with pytest.raises(RuntimeError):
            batcher.recommend(1, top_n=2)
        items = batcher.recommend(1, top_n=2)
        assert items.size == 2

    def test_model_fn_resolved_at_flush_time(self):
        """Hot reload between batches is honoured: the batcher scores
        with whatever the provider holds *now*."""
        slot = {"model": ScriptedModel()}
        batcher = MicroBatcher(
            lambda: slot["model"], max_batch=2, max_wait=0.001
        )
        batcher.recommend(1, top_n=2)
        replacement = ScriptedModel()
        slot["model"] = replacement
        batcher.recommend(2, top_n=2)
        assert replacement.batch_sizes == [1]
