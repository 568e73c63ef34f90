"""Served answers equal the offline single-user ranking.

A served top-N must equal ``rank_items(model.all_scores(np.array([u]))[0],
exclude, top_n)``, the ranking the serve benchmarks check every live
answer against.  A batch of users is one ``(B, d) @ (d, |V|)`` product,
whose rows need not equal the single-user products bitwise (they do not
on the benchmark fixture), so this pins the contract that matters: the
rankings.  A change to the scoring precision or product shape must fail
here before it reaches a served answer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.eval.metrics import rank_items
from repro.serve import (
    LEVEL_LIVE,
    MicroBatcher,
    RecommendationService,
    StaticModelProvider,
)

from .test_batching import ScoringGate, run_behind_gate

TOP_N = 20
BATCH = 4


class BatchRecorder:
    """Delegates scoring to ``model``, records each call's user count,
    and holds a call open while ``gate`` says so."""

    def __init__(self, model):
        self.model = model
        self.batch_sizes = []
        self.gate = ScoringGate()
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self.model, name)

    def all_scores(self, users):
        with self._lock:
            self.batch_sizes.append(len(users))
        self.gate.pass_through()
        return self.model.all_scores(users)


@pytest.fixture(scope="module")
def trained(small_dataset, small_split):
    rng = np.random.default_rng(0)
    backbone = MODEL_BUILDERS["LightGCN"](small_dataset, small_split, 16, rng)
    model = IMCAT(
        backbone, small_dataset, small_split.train,
        IMCATConfig(pretrain_epochs=1), rng=rng,
    )
    IMCATTrainer(
        model, small_split,
        IMCATTrainConfig(epochs=2, batch_size=256, eval_every=2, seed=0),
    ).fit()
    train_items = small_split.train.items_of_user()
    offline = {
        user: rank_items(
            model.all_scores(np.array([user]))[0], train_items[user], TOP_N
        )
        for user in range(model.num_users)
    }
    return model, train_items, offline


def batched_rounds(num_users: int):
    """Every user, in rounds of ``BATCH + 1`` distinct users (the last
    one topped up from the first): one lead plus one full batch."""
    size = BATCH + 1
    users = list(range(num_users))
    rounds = [users[i : i + size] for i in range(0, num_users, size)]
    rounds[-1] += users[: size - len(rounds[-1])]
    return rounds


def answer_behind_gate(batcher, scorer, recommend, users):
    """Score ``users[0]`` alone with its scoring held open, queue the
    rest behind it so they flush as one batch; ``{user: answer}``."""
    scorer.gate = ScoringGate()
    results = {}

    def call(user):
        def run():
            results[user] = recommend(user)
        return run

    errors = run_behind_gate(
        batcher, scorer.gate, call(users[0]), [call(u) for u in users[1:]]
    )
    assert not errors, errors
    return results


def test_batched_answers_equal_offline_ranking(trained):
    model, train_items, offline = trained
    scorer = BatchRecorder(model)
    batcher = MicroBatcher(lambda: scorer, max_batch=BATCH)
    answered = 0
    rounds = batched_rounds(model.num_users)
    for users in rounds:
        # MicroBatcher.recommend tests ``exclude`` for truth, so it takes
        # a set; the service converts the array itself.
        results = answer_behind_gate(
            batcher, scorer,
            lambda u: batcher.recommend(
                u, top_n=TOP_N, exclude=set(train_items[u].tolist())
            ),
            users,
        )
        for user in users:
            np.testing.assert_array_equal(
                results[user], offline[user], err_msg=f"user {user}"
            )
            answered += 1
    assert answered >= model.num_users
    assert scorer.batch_sizes == [1, BATCH] * len(rounds), scorer.batch_sizes


def test_service_answers_equal_offline_ranking(trained):
    model, train_items, offline = trained
    service = RecommendationService(model)
    for user in range(model.num_users):
        response = service.recommend(user, top_n=TOP_N, exclude=train_items[user])
        assert response.level == LEVEL_LIVE
        np.testing.assert_array_equal(
            response.items, offline[user], err_msg=f"user {user}"
        )


def test_batched_service_answers_equal_offline_ranking(trained):
    # The serve-uniform arrangement: a service scoring through a batcher.
    model, train_items, offline = trained
    scorer = BatchRecorder(model)
    provider = StaticModelProvider(scorer)
    batcher = MicroBatcher(provider.model, max_batch=BATCH)
    service = RecommendationService(provider, batcher=batcher)
    rounds = batched_rounds(model.num_users)
    for users in rounds:
        results = answer_behind_gate(
            batcher, scorer,
            lambda u: service.recommend(u, top_n=TOP_N, exclude=train_items[u]),
            users,
        )
        for user in users:
            assert results[user].level == LEVEL_LIVE
            np.testing.assert_array_equal(
                results[user].items, offline[user], err_msg=f"user {user}"
            )
    assert scorer.batch_sizes == [1, BATCH] * len(rounds), scorer.batch_sizes
