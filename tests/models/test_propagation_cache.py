"""One propagation cache with one freshness rule.

Every reader of a model's final representations (``user_repr``,
``item_repr``, ``pair_scores``, ``all_scores`` and the retrieval
fingerprint) shares one cached ``propagate()`` result.  The cache is
rebuilt whenever a parameter is written through the library or the
grad mode changes.  These tests pin that rule:

- a restored or stepped model answers exactly like an unscored model
  holding the same weights;
- scoring does not disturb the gradients of a following training step;
- evaluation and serving propagate once per parameter version.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import load_model, save_model
from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig
from repro.data.sampling import TripletBatch
from repro.eval import Evaluator
from repro.models.base import Recommender
from repro.nn import SGD, Adam
from repro.retrieval import model_fingerprint
from repro.serve import (
    LEVEL_LIVE,
    MicroBatcher,
    RecommendationService,
    StaticModelProvider,
    default_restore,
)

from ..helpers import reference_all_scores

EMBED_DIM = 16

#: Models whose scorer is not an inner product of final representations;
#: they keep their own ``all_scores``.
NON_FACTORISED = {"NeuMF", "FM", "RippleNet", "CFA", "DSPR"}


def _imcat_lightgcn(dataset, split, embed_dim, rng):
    backbone = MODEL_BUILDERS["LightGCN"](dataset, split, embed_dim, rng)
    return IMCAT(backbone, dataset, split.train, IMCATConfig(), rng=rng)


BUILDERS = {**MODEL_BUILDERS, "L-IMCAT": _imcat_lightgcn}
FACTORISED = sorted(name for name in BUILDERS if name not in NON_FACTORISED)


@pytest.fixture
def build(small_dataset, small_split):
    def make(name):
        return BUILDERS[name](
            small_dataset, small_split, EMBED_DIM, np.random.default_rng(0)
        )

    return make


def _outputs(model) -> dict:
    """Every cache reader's answer; the representations are read with
    the tape on, as a training step reads them."""
    users = np.arange(model.num_users)
    items = (users * 7 + 3) % model.num_items
    return {
        "user_repr": model.user_repr().data.copy(),
        "item_repr": model.item_repr().data.copy(),
        "pair_scores": model.pair_scores(users, items).data.copy(),
        "all_scores": model.all_scores(users),
        "fingerprint": model_fingerprint(model),
    }


def _assert_same_bits(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, expected in want.items():
        actual = got[key]
        if isinstance(expected, str):
            assert actual == expected, key
            continue
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), key
        assert actual.tobytes() == expected.tobytes(), key


def _perturbed(model):
    rng = np.random.default_rng(1)
    model.load_state_dict({
        name: value + rng.normal(0.0, 0.1, value.shape)
        for name, value in model.state_dict().items()
    })
    return model


def _bpr_loss(model):
    rng = np.random.default_rng(2)
    batch = TripletBatch(
        rng.integers(0, model.num_users, 64),
        rng.integers(0, model.num_items, 64),
        rng.integers(0, model.num_items, 64),
    )
    return getattr(model, "backbone", model).bpr_loss(batch)


def _count_propagations(model) -> list:
    """Record every ``propagate`` call of ``model`` (or its backbone)."""
    model = getattr(model, "backbone", model)
    calls = []
    propagate = model.propagate

    def counted():
        calls.append(1)
        return propagate()

    model.propagate = counted
    return calls


@pytest.mark.parametrize(
    "how", ["load_state_dict", "load_model", "default_restore"]
)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_restore_refreshes_every_reader(build, name, how, tmp_path):
    target = build(name)
    before = _outputs(target)
    source = _perturbed(build(name))
    if how == "load_state_dict":
        target.load_state_dict(source.state_dict())
    else:
        if how == "load_model":
            load_model(target, save_model(source, str(tmp_path / "model")))
        else:
            default_restore(target, {
                "model": source.state_dict(),
                "model_extra": source.get_extra_state(),
            })
        # Both loaders rebuild the parameter-derived graphs (DGCF, KGAT).
        source.refresh_epoch(0)
    want = _outputs(source)
    assert want["all_scores"].tobytes() != before["all_scores"].tobytes()
    _assert_same_bits(_outputs(target), want)


@pytest.mark.parametrize("optimizer", [Adam, SGD], ids=["adam", "sgd"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_optimizer_step_refreshes_every_reader(build, name, optimizer):
    model, twin = build(name), build(name)
    before = _outputs(model)
    step = optimizer(list(model.parameters()), lr=0.1)
    step.zero_grad()
    _bpr_loss(model).backward()
    step.step()
    twin.load_state_dict(model.state_dict())
    want = _outputs(twin)
    assert want["all_scores"].tobytes() != before["all_scores"].tobytes()
    _assert_same_bits(_outputs(model), want)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_scoring_leaves_training_gradients(build, name):
    model, twin = build(name), build(name)
    model.all_scores(np.arange(model.num_users))
    for each in (model, twin):
        each.zero_grad()
        _bpr_loss(each).backward()
    grads = [param.grad for param in model.parameters()]
    want = [param.grad for param in twin.parameters()]
    assert any(grad is not None and np.any(grad) for grad in grads)
    for grad, expected in zip(grads, want):
        assert (grad is None) == (expected is None)
        if expected is not None:
            assert grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", FACTORISED)
def test_all_scores_match_a_fresh_propagation(build, name):
    model = build(name)
    users = np.arange(model.num_users)
    model.user_repr()  # a tape-on entry must not stand in for scoring
    got = model.all_scores(users)
    assert got.tobytes() == reference_all_scores(model, users).tobytes()


def test_graph_models_override_only_propagate(build):
    for name in MODEL_BUILDERS:
        cls = type(build(name))
        assert cls.user_repr is Recommender.user_repr, name
        assert cls.item_repr is Recommender.item_repr, name
        overrides = cls.all_scores is not Recommender.all_scores
        assert overrides == (name in NON_FACTORISED), name


@pytest.mark.parametrize("name", ["LightGCN", "L-IMCAT"])
def test_evaluation_propagates_once_per_parameter_version(
    build, name, small_split
):
    model = build(name)
    evaluator = Evaluator(small_split.train, small_split.valid)
    chunk = -(-len(evaluator.eval_users) // 4)
    assert len(evaluator.eval_users) > 2 * chunk  # at least 3 chunks
    calls = _count_propagations(model)
    first = evaluator.evaluate(model, chunk_size=chunk).metrics
    assert len(calls) == 1
    assert evaluator.evaluate(model, chunk_size=chunk).metrics == first
    assert len(calls) == 1
    step = Adam(list(model.parameters()), lr=0.1)
    _bpr_loss(model).backward()
    step.step()
    assert len(calls) == 2  # the training forward's own propagation
    evaluator.evaluate(model, chunk_size=chunk)
    assert len(calls) == 3


def test_served_requests_propagate_once(build, small_split):
    model = build("LightGCN")
    train_items = [
        set(items.tolist()) for items in small_split.train.items_of_user()
    ]
    users = [(7 * request) % model.num_users for request in range(50)]
    expected = [
        model.recommend(user, top_n=10, exclude=train_items[user])
        for user in users
    ]
    calls = _count_propagations(model)
    model.begin_step()
    provider = StaticModelProvider(model)
    service = RecommendationService(
        provider, batcher=MicroBatcher(provider.model)
    )
    for user, want in zip(users, expected):
        response = service.recommend(user, top_n=10, exclude=train_items[user])
        assert response.level == LEVEL_LIVE
        assert response.items.tolist() == want.tolist()
    assert len(calls) == 1
