"""Backward consumes its graph, as PyTorch's default does.

``Tensor.backward`` releases every non-leaf node once its closure has
run: the closure, the parents and the non-leaf ``.grad`` go, ``.data``
stays.  Leaves keep their gradients.  A later backward that reaches a
released node fails closed before it writes any gradient, instead of
re-running a closure on a gradient that already flowed once.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data import generate_preset, split_dataset
from repro.nn import Tensor
from repro.nn import functional as F


def _graph(root: Tensor) -> list:
    """Every node reachable from ``root`` (before backward runs)."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


class TestRelease:
    def test_intermediates_are_released_and_leaves_keep_grads(self):
        rng = np.random.default_rng(0)
        weight = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        const = Tensor(rng.normal(size=(4, 3)))
        rows = np.array([0, 2, 2, 4])
        hidden = F.embedding_lookup(weight, rows) * const + bias
        loss = (hidden.tanh() ** 2).mean()
        nodes = _graph(loss)
        inner = [n for n in nodes if n._parents]
        leaves = [n for n in nodes if not n._parents]
        assert len(inner) > 4
        assert {id(weight), id(bias), id(const)} <= {id(n) for n in leaves}

        value = loss.item()
        loss.backward()

        for node in inner:
            assert node._parents == ()
            assert node._backward is None
            assert node.grad is None
            assert node.data is not None
        for leaf in leaves:
            assert leaf._parents == ()
            if leaf.requires_grad:
                assert leaf.grad.shape == leaf.shape
            else:
                assert leaf.grad is None
        assert loss.item() == value

    def test_leaf_root_keeps_its_grad(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        leaf.backward(np.full(3, 2.0))
        np.testing.assert_array_equal(leaf.grad, [2.0, 2.0, 2.0])
        leaf.backward(np.full(3, 1.0))
        np.testing.assert_array_equal(leaf.grad, [3.0, 3.0, 3.0])


class TestFailClosed:
    def test_second_backward_through_shared_intermediate_raises(self):
        # Before release, the second call re-ran ``full``'s closure on the
        # sum of both seeds and left ``t.grad == [2, 2, 10, 10]``.
        t = Tensor(np.zeros(4), requires_grad=True)
        full = t * 1.0
        full[:2].backward([1, 1])
        np.testing.assert_array_equal(t.grad, [1, 1, 0, 0])
        with pytest.raises(RuntimeError, match=r"'Tensor\.__mul__'.*rebuild"):
            full[2:].backward([10, 10])
        np.testing.assert_array_equal(t.grad, [1, 1, 0, 0])

    def test_backward_twice_on_the_same_root_raises(self):
        t = Tensor(np.ones(2), requires_grad=True)
        loss = (t * t).sum()
        loss.backward()
        before = t.grad.copy()
        with pytest.raises(RuntimeError, match="Tensor.sum"):
            loss.backward()
        np.testing.assert_array_equal(t.grad, before)

    def test_refused_call_leaves_every_leaf_grad_unchanged(self):
        # The graph reaches a live branch before the released node; the
        # live branch's leaf must not receive a gradient either.
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        shared = a.exp()
        shared.sum().backward()
        grad_a = a.grad.copy()
        with pytest.raises(RuntimeError, match="Tensor.exp"):
            ((b * 3.0) + shared).sum().backward()
        np.testing.assert_array_equal(a.grad, grad_a)
        assert b.grad is None

    def test_stale_propagation_cache_raises_without_begin_step(
        self, small_dataset, small_split
    ):
        model = MODEL_BUILDERS["LightGCN"](
            small_dataset, small_split, 8, np.random.default_rng(0)
        )
        users = np.arange(4)
        items = np.arange(4)
        model.pair_scores(users, items).sum().backward()
        grads = {name: p.grad.copy() for name, p in model.named_parameters()}
        # Same parameters, same grad mode, no begin_step(): the cached
        # propagation is the released graph of the first backward.
        with pytest.raises(RuntimeError, match="rebuild the forward"):
            model.pair_scores(users, items).sum().backward()
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.grad, grads[name])
        model.begin_step()
        model.pair_scores(users, items).sum().backward()
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.grad, 2 * grads[name])


def test_step_graph_is_gone_before_the_next_forward():
    """Live memory at each step's entry excludes the previous step's tape.

    Before release, the previous step's graph stayed alive until the
    trainer rebound ``loss``, so a step began with ~35 MB of a 58 MB peak
    still allocated; now it begins with ~2 MB.  The bound is against the
    largest step peak so far, because the cycling item batch makes every
    fifth step a short one with a small peak.
    """
    dataset = generate_preset("hetrec-del", scale=0.2, seed=0)
    split = split_dataset(dataset, seed=0)
    rng = np.random.default_rng(0)
    backbone = MODEL_BUILDERS["LightGCN"](dataset, split, 32, rng)
    model = IMCAT(
        backbone, dataset, split.train, IMCATConfig(pretrain_epochs=1), rng=rng
    )
    inner = model.training_loss
    readings = []

    def traced(*args, **kwargs):
        readings.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return inner(*args, **kwargs)

    model.training_loss = traced
    config = IMCATTrainConfig(epochs=2, batch_size=256, eval_every=100, seed=0)
    tracemalloc.start()
    try:
        IMCATTrainer(model, split, config).fit()
    finally:
        tracemalloc.stop()

    assert len(readings) > 10
    largest_peak = 0
    for step in range(1, len(readings)):
        live_at_entry, previous_peak = readings[step]
        largest_peak = max(largest_peak, previous_peak)
        assert live_at_entry < largest_peak / 4, (
            f"step {step}: {live_at_entry / 2**20:.1f} MB live at entry, "
            f"largest step peak {largest_peak / 2**20:.1f} MB"
        )

