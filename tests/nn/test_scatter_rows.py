"""Differential tests: the row-scatter kernel against ``np.add.at``.

``scatter_rows`` is the adjoint of every row gather on the training path
(``F.embedding_lookup``, integer-array ``Tensor.__getitem__``) and the sum
inside ``F.segment_mean``.  It must reproduce ``np.add.at`` into zeros bit
for bit, so swapping it in changes no trained parameter and no loss.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.models import TrainConfig, fit_bpr
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.tensor import scatter_rows

from ..helpers import reference_getitem, reference_scatter, reference_scatter_rows


def _same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


@st.composite
def scatter_cases(draw):
    num_rows = draw(st.integers(1, 6))
    index_shape = draw(
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7)
    )
    index = draw(
        hnp.arrays(
            np.int64, index_shape, elements=st.integers(-num_rows, num_rows - 1)
        )
    )
    trailing = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = draw(
        hnp.arrays(
            dtype,
            index_shape + trailing,
            elements=st.floats(width=32, allow_nan=False),
        )
    )
    return index, values, num_rows


class TestScatterRows:
    @given(scatter_cases())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_add_at(self, case):
        index, values, num_rows = case
        _same_bits(
            scatter_rows(index, values, num_rows),
            reference_scatter_rows(index, values, num_rows),
        )

    def test_rows_sum_in_index_order(self):
        # Reassociating 1e16 + 1 - 1e16 would give 0 or 2; index order gives 0.
        values = np.array([[1e16], [1.0], [-1e16], [1.0]])
        index = np.array([0, 0, 0, 1])
        out = scatter_rows(index, values, 2)
        _same_bits(out, reference_scatter_rows(index, values, 2))
        assert out.tolist() == [[0.0], [1.0]]

    def test_signed_zero_starts_from_positive_zero(self):
        values = np.array([-0.0, -0.0])
        out = scatter_rows(np.array([1, 1]), values, 3)
        _same_bits(out, reference_scatter_rows(np.array([1, 1]), values, 3))

    def test_zero_dim_index(self):
        values = np.arange(3.0)
        _same_bits(
            scatter_rows(np.array(-1), values, 4),
            reference_scatter_rows(np.array(-1), values, 4),
        )

    @pytest.mark.parametrize("bad", [3, -4])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(IndexError, match="out of bounds"):
            scatter_rows(np.array([0, bad]), np.ones((2, 2)), 3)
        with pytest.raises(IndexError):
            reference_scatter_rows(np.array([0, bad]), np.ones((2, 2)), 3)

    def test_non_integer_index_raises(self):
        with pytest.raises(IndexError, match="integer"):
            scatter_rows(np.array([0.0, 1.0]), np.ones((2, 2)), 3)


def _getitem_grads(getitem, data, index, seed):
    tensor = Tensor(data.copy(), requires_grad=True)
    out = getitem(tensor, index)
    out.backward(seed)
    return out.data, tensor.grad


_RNG = np.random.default_rng(0)
_DATA = _RNG.normal(size=(5, 4))

#: name -> index, one per kind ``Tensor.__getitem__`` routes.
GETITEM_INDICES = {
    "int-array": np.array([0, 3, 3, -1, 0, 4, 3, -2, 0, -5]),
    "int-array-2d": np.array([[1, 1, 2], [-4, 2, 1]]),
    "int-array-empty": np.array([], dtype=np.int64),
    "int-array-uint": np.array([4, 4, 2], dtype=np.uint8),
    "int": 2,
    "np-int": np.int64(-1),
    "slice": slice(1, 4),
    "slice-step": slice(None, None, -2),
    "ellipsis": Ellipsis,
    "none": None,
    "tuple-basic": (slice(0, 3), 1),
    "tuple-none-ellipsis": (None, Ellipsis, slice(1, 3)),
    "bool-rows": np.array([True, False, True, True, False]),
    "bool-full": _DATA > 0,
    "tuple-arrays": (np.array([0, 0, 4]), np.array([1, 1, 3])),
    "tuple-slice-array": (slice(None), np.array([3, 0, 3])),
    "tuple-array-int": (np.array([2, 2]), 1),
    "list": [1, 1, 0],
}


class TestGetitemGradients:
    @pytest.mark.parametrize("name", sorted(GETITEM_INDICES))
    def test_bitwise_equal_to_add_at_kernel(self, name):
        index = GETITEM_INDICES[name]
        seed = np.random.default_rng(4).normal(size=np.shape(_DATA[index]))
        got = _getitem_grads(Tensor.__getitem__, _DATA, index, seed)
        want = _getitem_grads(reference_getitem, _DATA, index, seed)
        for actual, expected in zip(got, want):
            _same_bits(actual, expected)

    def test_slices_split_like_index_arrays(self):
        # LightGCN splits its final table with slices; the gradient must
        # carry the bits of the ``np.arange`` split it replaced.
        rng = np.random.default_rng(1)
        data = rng.normal(size=(7, 3))
        seeds = rng.normal(size=(3, 3)), rng.normal(size=(4, 3))

        def grad(split):
            # One backward over both parts: a graph supports one backward,
            # and LightGCN's loss reaches both halves through one scalar.
            table = Tensor(data.copy(), requires_grad=True)
            full = table * 1.0
            first, second = (
                (part * seed).sum() for part, seed in zip(split(full), seeds)
            )
            (first + second).backward()
            return table.grad

        _same_bits(
            grad(lambda t: (t[:3], t[3:7])),
            grad(lambda t: (t[np.arange(3)], t[np.arange(3, 7)])),
        )

    def test_owned_buffer_never_aliases_the_seed(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        seed = np.ones((3, 2))
        out = table[:] + table[np.array([0, 1, 2])]
        out.backward(seed)
        assert table.grad is not seed
        assert np.array_equal(seed, np.ones((3, 2)))
        assert np.array_equal(table.grad, np.full((3, 2), 2.0))


class TestOpsOnTheKernel:
    def test_embedding_lookup_backward(self):
        rng = np.random.default_rng(2)
        weight_data = rng.normal(size=(6, 3)).astype(np.float32)
        idx = rng.integers(-6, 6, size=(4, 5))
        seed = rng.normal(size=(4, 5, 3)).astype(np.float32)
        grads = []
        for enabled in (False, True):
            weight = Tensor(weight_data.copy(), requires_grad=True)
            with reference_scatter(enabled):
                F.embedding_lookup(weight, idx).backward(seed)
            grads.append(weight.grad)
        _same_bits(*grads)

    def test_segment_mean_forward(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 8))
        ids = rng.integers(0, 9, size=40)
        with reference_scatter():
            expected = F.segment_mean(Tensor(x), ids, 11).data
        _same_bits(F.segment_mean(Tensor(x), ids, 11).data, expected)


# ----------------------------------------------------------------------
# end to end: trained parameters and losses with either kernel
# ----------------------------------------------------------------------
EMBED_DIM = 8


def _digest(model) -> str:
    sha = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


def _losses(history) -> list:
    return [float(entry["loss"]).hex() for entry in history]


def _fit_imcat(dataset, split):
    rng = np.random.default_rng(0)
    backbone = MODEL_BUILDERS["LightGCN"](dataset, split, EMBED_DIM, rng)
    model = IMCAT(
        backbone, dataset, split.train, IMCATConfig(pretrain_epochs=1), rng=rng
    )
    result = IMCATTrainer(
        model,
        split,
        IMCATTrainConfig(epochs=3, batch_size=256, eval_every=2, seed=0),
    ).fit()
    return _digest(model), _losses(result.history)


def _fit_backbone(name):
    def fit(dataset, split):
        model = MODEL_BUILDERS[name](
            dataset, split, EMBED_DIM, np.random.default_rng(0)
        )
        result = fit_bpr(
            model,
            split,
            TrainConfig(epochs=1, batch_size=256, eval_every=1, seed=0),
        )
        return _digest(model), _losses(result.history)

    return fit


FITS = {"L-IMCAT": _fit_imcat, **{n: _fit_backbone(n) for n in MODEL_BUILDERS}}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_is_bitwise_equal_under_add_at_kernel(name, small_dataset, small_split):
    fit = FITS[name]
    digest, losses = fit(small_dataset, small_split)
    assert losses and all(loss != float("nan").hex() for loss in losses)
    with reference_scatter():
        assert fit(small_dataset, small_split) == (digest, losses)
