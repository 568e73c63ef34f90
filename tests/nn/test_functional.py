"""Unit + property tests for repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.nn import functional as F

from ..helpers import (
    assert_gradcheck,
    reference_batched_linear,
    reference_bpr_loss,
    reference_info_nce,
)


def finite_matrix(rows=st.integers(2, 5), cols=st.integers(2, 5)):
    return rows.flatmap(
        lambda r: cols.flatmap(
            lambda c: hnp.arrays(
                np.float64,
                (r, c),
                elements=st.floats(-5, 5, allow_nan=False),
            )
        )
    )


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_values_stable(self):
        out = F.softmax(Tensor(np.array([[1000.0, -1000.0]])))
        assert np.all(np.isfinite(out.data))

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        assert_gradcheck(lambda: (F.softmax(x) * Tensor(w)).sum(), [x])

    @given(finite_matrix())
    @settings(max_examples=25, deadline=None)
    def test_probabilities_property(self, data):
        out = F.softmax(Tensor(data)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data),
            atol=1e-12,
        )

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        assert_gradcheck(lambda: (F.log_softmax(x) * Tensor(w)).sum(), [x])

    def test_stable_for_large_inputs(self):
        out = F.log_softmax(Tensor(np.array([[1e4, 0.0]])))
        assert np.all(np.isfinite(out.data))


class TestLogSumExp:
    def test_matches_numpy(self, rng):
        x = rng.normal(size=(3, 5))
        from scipy.special import logsumexp as scipy_lse

        np.testing.assert_allclose(
            F.logsumexp(Tensor(x), axis=1).data, scipy_lse(x, axis=1)
        )

    def test_keepdims(self, rng):
        out = F.logsumexp(Tensor(rng.normal(size=(3, 5))), axis=1, keepdims=True)
        assert out.shape == (3, 1)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert_gradcheck(lambda: F.logsumexp(x, axis=1).sum(), [x])


class TestLogSigmoid:
    def test_matches_naive_in_safe_range(self, rng):
        x = rng.normal(size=(10,))
        np.testing.assert_allclose(
            F.log_sigmoid(Tensor(x)).data,
            np.log(1.0 / (1.0 + np.exp(-x))),
            atol=1e-12,
        )

    def test_stable_for_extreme_inputs(self):
        out = F.log_sigmoid(Tensor(np.array([-1e4, 1e4])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(-1e4)
        assert out.data[1] == pytest.approx(0.0)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(6,)), requires_grad=True)
        assert_gradcheck(lambda: F.log_sigmoid(x).sum(), [x])

    def test_always_negative(self, rng):
        out = F.log_sigmoid(Tensor(rng.normal(size=(50,)) * 3))
        assert np.all(out.data <= 0)


class TestL2Normalize:
    def test_unit_norm_rows(self, rng):
        out = F.l2_normalize(Tensor(rng.normal(size=(4, 6))))
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1), np.ones(4)
        )

    def test_zero_vector_stays_zero(self):
        out = F.l2_normalize(Tensor(np.zeros((2, 3))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        assert_gradcheck(lambda: (F.l2_normalize(x) * Tensor(w)).sum(), [x])

    def test_scale_invariance(self, rng):
        x = rng.normal(size=(3, 4))
        a = F.l2_normalize(Tensor(x)).data
        b = F.l2_normalize(Tensor(7.5 * x)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestEmbeddingLookup:
    def test_forward_matches_indexing(self, rng):
        w = Tensor(rng.normal(size=(6, 3)))
        idx = np.array([0, 5, 2])
        np.testing.assert_allclose(
            F.embedding_lookup(w, idx).data, w.data[idx]
        )

    def test_repeated_indices_accumulate_grads(self):
        w = Tensor(np.zeros((3, 2)), requires_grad=True)
        F.embedding_lookup(w, np.array([1, 1, 1])).sum().backward()
        np.testing.assert_allclose(w.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(w.grad[0], [0.0, 0.0])

    def test_2d_index_shape(self, rng):
        w = Tensor(rng.normal(size=(6, 3)))
        out = F.embedding_lookup(w, np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 3)

    def test_gradcheck(self, rng):
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        assert_gradcheck(
            lambda: (F.embedding_lookup(w, idx) ** 2).sum(), [w]
        )


class TestSegmentMean:
    def test_manual_example(self):
        x = Tensor(np.array([[1.0], [3.0], [5.0]]))
        out = F.segment_mean(x, np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(out.data, [[2.0], [5.0], [0.0]])

    def test_empty_segment_is_zero(self):
        x = Tensor(np.ones((2, 3)))
        out = F.segment_mean(x, np.array([2, 2]), 4)
        np.testing.assert_allclose(out.data[0], 0.0)
        np.testing.assert_allclose(out.data[2], 1.0)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([0, 0, 1, 2, 2])
        assert_gradcheck(lambda: (F.segment_mean(x, ids, 4) ** 2).sum(), [x])

    @given(st.integers(1, 20), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_mean_of_constant_rows_is_constant(self, n, segs):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, segs, size=n)
        x = Tensor(np.ones((n, 2)) * 3.0)
        out = F.segment_mean(x, ids, segs).data
        present = np.unique(ids)
        np.testing.assert_allclose(out[present], 3.0)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_probability_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.0, rng, training=True)
        np.testing.assert_allclose(out.data, x.data)

    def test_invalid_probability_raises(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_expectation_preserved(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_grad_respects_mask(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10, 10)), requires_grad=True)
        out = F.dropout(x, 0.5, rng, training=True)
        out.sum().backward()
        # Gradient is zero exactly where the output was dropped.
        np.testing.assert_allclose((x.grad == 0), (out.data == 0))


class TestBPRLoss:
    def test_positive_margin_gives_small_loss(self):
        pos = Tensor(np.full(4, 10.0))
        neg = Tensor(np.zeros(4))
        assert F.bpr_loss(pos, neg).item() < 0.01

    def test_symmetric_scores_give_log2(self):
        pos = Tensor(np.zeros(4))
        neg = Tensor(np.zeros(4))
        assert F.bpr_loss(pos, neg).item() == pytest.approx(np.log(2.0))

    def test_gradcheck(self, rng):
        pos = Tensor(rng.normal(size=(5,)), requires_grad=True)
        neg = Tensor(rng.normal(size=(5,)), requires_grad=True)
        assert_gradcheck(lambda: F.bpr_loss(pos, neg), [pos, neg])

    def test_gradient_direction(self):
        pos = Tensor(np.zeros(1), requires_grad=True)
        neg = Tensor(np.zeros(1), requires_grad=True)
        F.bpr_loss(pos, neg).backward()
        assert pos.grad[0] < 0  # increasing pos decreases loss
        assert neg.grad[0] > 0


class TestInfoNCE:
    def test_perfect_alignment_lower_than_random(self, rng):
        q = F.l2_normalize(Tensor(rng.normal(size=(6, 4))))
        aligned = F.info_nce(q, q, 0.5).item()
        shuffled = F.info_nce(
            q, Tensor(q.data[rng.permutation(6)]), 0.5
        ).item()
        assert aligned < shuffled

    def test_row_weights_scale_loss(self, rng):
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(rng.normal(size=(4, 3)))
        base = F.info_nce(q, k, 1.0).item()
        half = F.info_nce(q, k, 1.0, row_weights=np.full(4, 0.5)).item()
        assert half == pytest.approx(0.5 * base)

    def test_positive_mask_shape_checked(self, rng):
        q = Tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="positive_mask"):
            F.info_nce(q, q, 1.0, positive_mask=np.ones((3, 3), dtype=bool))

    def test_mask_includes_self_automatically(self, rng):
        q = Tensor(rng.normal(size=(3, 2)))
        mask = np.zeros((3, 3), dtype=bool)  # empty: falls back to identity
        loss_a = F.info_nce(q, q, 1.0, positive_mask=mask).item()
        loss_b = F.info_nce(q, q, 1.0).item()
        assert loss_a == pytest.approx(loss_b)

    def test_wider_positives_change_loss(self, rng):
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(rng.normal(size=(4, 3)))
        mask = np.eye(4, dtype=bool)
        mask[0, 1] = True
        base = F.info_nce(q, k, 1.0).item()
        wide = F.info_nce(q, k, 1.0, positive_mask=mask).item()
        assert wide != pytest.approx(base)

    def test_gradcheck_with_mask_and_weights(self, rng):
        q = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        mask = np.eye(4, dtype=bool)
        mask[1, 2] = mask[2, 0] = True
        weights = np.array([0.4, 0.1, 0.3, 0.2])
        assert_gradcheck(
            lambda: F.info_nce(q, k, 0.7, row_weights=weights, positive_mask=mask),
            [q, k],
        )

    def test_loss_nonnegative_for_identity_pairs(self, rng):
        q = F.l2_normalize(Tensor(rng.normal(size=(5, 8))))
        assert F.info_nce(q, q, 1.0).item() >= 0.0


class TestHelpers:
    def test_matmul_const_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = rng.normal(size=(4, 2))
        assert_gradcheck(lambda: (F.matmul_const(x, c) ** 2).sum(), [x])

    def test_scale_rows_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = np.array([0.5, 2.0, 0.0])
        assert_gradcheck(lambda: (F.scale_rows(x, w) ** 2).sum(), [x])

    def test_scale_rows_zero_weight_blocks_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        F.scale_rows(x, np.array([0.0, 1.0])).sum().backward()
        np.testing.assert_allclose(x.grad[0], 0.0)

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = F.mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)


def _edge_case(op, case, rng):
    """Inputs for one (op, edge case) cell.

    Returns ``(run, reference, leaves)``: the op and its primitive chain
    as zero-argument loss builders over the same ``leaves``.
    """
    dtype = np.float32 if case == "float32" else np.float64
    rows = 0 if case == "empty" else 5

    def leaf(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    if op == "bpr_loss":
        pos = leaf(rows)
        if case == "shared":
            neg = pos
        elif case == "mismatched":
            neg = leaf(1)  # would broadcast against pos
        else:
            neg = leaf(rows)
        return (
            lambda: F.bpr_loss(pos, neg),
            lambda: reference_bpr_loss(pos, neg),
            [pos] if pos is neg else [pos, neg],
        )
    if op == "info_nce":
        queries = leaf(rows, 3)
        if case == "shared":
            keys = queries
        elif case == "mismatched":
            keys = leaf(rows - 1, 3)
        else:
            keys = leaf(rows, 3)
        mask = np.eye(rows, dtype=bool)
        if rows:
            mask[0, 2] = mask[3, 1] = True  # widened positives (Eq. 17)
        weights = rng.uniform(0.5, 1.5, size=rows)
        return (
            lambda: F.info_nce(queries, keys, 0.6, weights, mask),
            lambda: reference_info_nce(queries, keys, 0.6, weights, mask),
            [queries] if queries is keys else [queries, keys],
        )
    x = leaf(3, rows, 4)
    weights = [leaf(2, 4) for _ in range(3)]
    biases = [leaf(2) for _ in range(3)]

    def squared(out):
        # A non-uniform output gradient, so every slice is exercised.
        return (out * out).sum()

    return (
        lambda: squared(F.batched_linear(x, weights, biases)),
        lambda: squared(reference_batched_linear(x, weights, biases)),
        [x] + weights + biases,
    )


def _loss_and_grads(builder, leaves):
    for tensor in leaves:
        tensor.zero_grad()
    loss = builder()
    loss.backward()
    return loss.data, [tensor.grad for tensor in leaves]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: Edge cases of the single-node ops; ``True`` marks the cases the op
#: rejects with ``ValueError``.
EDGE_CASES = {
    ("bpr_loss", "empty"): True,
    ("bpr_loss", "shared"): False,
    ("bpr_loss", "float32"): False,
    ("bpr_loss", "mismatched"): True,
    ("info_nce", "empty"): True,
    ("info_nce", "shared"): False,
    ("info_nce", "float32"): False,
    ("info_nce", "mismatched"): True,
    ("batched_linear", "empty"): False,
    ("batched_linear", "float32"): False,
}


@pytest.mark.parametrize("op,case", sorted(EDGE_CASES))
def test_single_op_edge_cases_match_primitive_chain(op, case, rng):
    run, reference, leaves = _edge_case(op, case, rng)
    if EDGE_CASES[op, case]:
        with pytest.raises(ValueError):
            run()
        if case == "empty":
            # The primitive chain has no value here either.
            with pytest.raises((ValueError, ZeroDivisionError)):
                reference()
        return
    loss_ref, grads_ref = _loss_and_grads(reference, leaves)
    loss, grads = _loss_and_grads(run, leaves)
    assert _same_bits(loss, loss_ref)
    for grad, grad_ref in zip(grads, grads_ref):
        assert _same_bits(grad, grad_ref)
    if op == "info_nce" and case == "shared":
        # The shared input's gradient is the query-side plus the key-side
        # contribution, each computed here on a separate copy.
        queries = leaves[0]
        keys = Tensor(queries.data.copy(), requires_grad=True)
        queries.zero_grad()
        F.info_nce(queries, keys, 0.6).backward()
        split = queries.grad + keys.grad
        queries.zero_grad()
        F.info_nce(queries, queries, 0.6).backward()
        assert _same_bits(queries.grad, split)
    if case != "float32":
        assert_gradcheck(run, leaves)
