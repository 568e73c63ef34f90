"""Evaluator ``approximate=True``: exactness at full probe, bounded
drift at partial probe, staleness rejection."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.eval import Evaluator
from repro.models import BPRMF
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.retrieval import ApproximateScorer, IndexMismatch, build_index

NUM_PARTITIONS = 8
#: Partial-probe metric drift bound.  Restricting candidates changes
#: which distractors compete with the relevant items, so partial-probe
#: metrics move in *either* direction — the property is boundedness,
#: not one-sided loss.
TOLERANCE = 0.1


@pytest.fixture(scope="module")
def setup(request):
    small_split = request.getfixturevalue("small_split")
    dataset = request.getfixturevalue("small_dataset")
    model = BPRMF(
        dataset.num_users, dataset.num_items, 16,
        rng=np.random.default_rng(0),
    )
    evaluator = Evaluator(small_split.train, small_split.valid)
    index = build_index(
        model,
        num_partitions=NUM_PARTITIONS,
        popularity=small_split.train.item_degrees(),
        popular_head=20,
        seed=0,
    )
    return model, evaluator, index


def test_full_probe_reproduces_exact_metrics(setup):
    model, evaluator, index = setup
    exact = evaluator.evaluate(model)
    approx = evaluator.evaluate(
        model,
        approximate=True,
        index=index,
        n_probe=index.num_partitions,
    )
    for key, value in exact.metrics.items():
        assert approx.metrics[key] == pytest.approx(value, abs=1e-12), key


def test_partial_probe_within_tolerance(setup):
    model, evaluator, index = setup
    exact = evaluator.evaluate(model)
    approx = evaluator.evaluate(
        model, approximate=True, index=index, n_probe=NUM_PARTITIONS // 2
    )
    for key, value in exact.metrics.items():
        assert abs(approx.metrics[key] - value) <= TOLERANCE, (
            f"{key}: approximate {approx.metrics[key]:.4f} drifts more "
            f"than {TOLERANCE} from exact {value:.4f}"
        )


def test_builds_index_on_the_fly_when_none_given(setup):
    model, evaluator, _ = setup
    result = evaluator.evaluate(model, approximate=True, n_probe=2)
    assert set(result.metrics) == {"recall@20", "ndcg@20"}


def test_stale_index_rejected(setup):
    model, evaluator, index = setup
    clone = BPRMF(
        model.num_users, model.num_items, 16,
        rng=np.random.default_rng(99),
    )
    with pytest.raises(IndexMismatch):
        evaluator.evaluate(
            clone, approximate=True, index=index, n_probe=2
        )


def test_approximate_pass_leaves_model_scores_untouched(setup):
    # The evaluator masks the scorer's fresh array in place; the model's
    # own score array must not see the training-item mask.
    model, evaluator, index = setup
    served = []
    original = model.all_scores

    def recording(users):
        out = original(users)
        served.append((out, out.copy()))
        return out

    model.all_scores = recording
    try:
        evaluator.evaluate(model, approximate=True, index=index, n_probe=2)
    finally:
        del model.all_scores
    assert served
    for out, before in served:
        assert out.tobytes() == before.tobytes()


def test_shortlist_histogram_takes_one_call_per_batch(setup, monkeypatch):
    model, _, index = setup
    calls = {"observe": 0, "observe_many": 0}
    for name in calls:
        original = getattr(Histogram, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Histogram, name, counted)
    registry = MetricsRegistry()
    previous = obs.set_metrics(registry)
    try:
        users = np.arange(min(40, model.num_users))
        scores = ApproximateScorer(model, index, n_probe=2).all_scores(users)
    finally:
        obs.set_metrics(previous)
    assert calls == {"observe": 0, "observe_many": 1}
    hist = registry.histograms()["retrieval.shortlist_items"]
    assert hist.count == len(users)
    assert hist.sum == float(np.isfinite(scores).sum())
