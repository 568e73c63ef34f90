"""Numeric sanitizer (`detect_anomaly`) and grad-mode context tests."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.nn import (
    NumericAnomalyError,
    Tensor,
    detect_anomaly,
    enable_grad,
    is_anomaly_enabled,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)
from repro.models import LightGCN
from repro.nn import functional as F

from ..helpers import tiny_dataset

# These tests deliberately produce NaN/Inf to exercise the sanitizer;
# NumPy's own RuntimeWarnings about them are expected noise.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class TestGradModeContexts:
    def test_no_grad_disables_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_no_grad_is_reentrant_with_one_instance(self):
        ctx = no_grad()
        with ctx:
            with ctx:
                assert not is_grad_enabled()
            # Inner exit must restore the *inner* previous state
            # (False), not clobber it with the outer one.
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_enable_grad_inside_no_grad(self):
        with no_grad():
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()

    def test_set_grad_enabled_modes(self):
        with set_grad_enabled(False):
            assert not is_grad_enabled()
            with set_grad_enabled(True):
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_as_decorator(self):
        @no_grad()
        def score(x):
            assert not is_grad_enabled()
            return x * 3.0

        x = Tensor([1.0], requires_grad=True)
        out = score(x)
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_decorated_function_recursion_safe(self):
        @no_grad()
        def recurse(x, depth):
            assert not is_grad_enabled()
            if depth == 0:
                return x
            return recurse(x * 1.0, depth - 1)

        recurse(Tensor([1.0], requires_grad=True), 3)
        assert is_grad_enabled()


def _run(*targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestModesArePerThread:
    @pytest.mark.parametrize(
        "context, query, default",
        [(no_grad, is_grad_enabled, True),
         (detect_anomaly, is_anomaly_enabled, False)],
        ids=["grad", "anomaly"],
    )
    def test_interleaved_contexts_restore_each_threads_mode(
        self, context, query, default
    ):
        """A-enter, B-enter, A-exit, B-exit: with one process-wide flag
        B's exit restored the value it saw on entry (A's), leaving the
        mode flipped for every thread."""
        a_entered, b_entered, a_exited, b_exited = (
            threading.Event() for _ in range(4)
        )
        seen = {}

        def thread_a():
            with context():
                a_entered.set()
                b_entered.wait(10)
                seen["a_inside"] = query()
            a_exited.set()
            b_exited.wait(10)
            seen["a_after"] = query()

        def thread_b():
            a_entered.wait(10)
            with context():
                b_entered.set()
                a_exited.wait(10)
                seen["b_inside"] = query()
            b_exited.set()
            seen["b_after"] = query()

        _run(thread_a, thread_b)
        assert seen == {
            "a_inside": not default, "a_after": default,
            "b_inside": not default, "b_after": default,
        }
        assert query() is default

    def test_new_thread_starts_from_defaults(self):
        seen = []
        with no_grad(), detect_anomaly():
            _run(lambda: seen.append((is_grad_enabled(), is_anomaly_enabled())))
        assert seen == [(True, False)]

    def test_concurrent_scoring_leaves_training_gradients(self):
        """Serving threads scoring one shared model must not switch
        recording off for the thread that trains it."""
        data = tiny_dataset()
        model = LightGCN(
            data.num_users, data.num_items, (data.user_ids, data.item_ids),
            embed_dim=8, rng=np.random.default_rng(0),
        )
        users = np.arange(data.num_users)

        def score():
            for _ in range(200):
                model.all_scores(users)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run(*([score] * 4))
        finally:
            sys.setswitchinterval(interval)
        assert is_grad_enabled()
        model.pair_scores(data.user_ids, data.item_ids).sum().backward()
        grads = [param.grad for param in model.parameters()]
        assert all(grad is not None and np.any(grad) for grad in grads)


class TestForwardAnomaly:
    def test_log_zero_names_op(self):
        x = Tensor([0.0, 1.0], requires_grad=True)
        with detect_anomaly():
            with pytest.raises(NumericAnomalyError, match="Tensor.log"):
                x.log()

    def test_divide_by_zero_names_op(self):
        x = Tensor([1.0], requires_grad=True)
        with detect_anomaly():
            with pytest.raises(NumericAnomalyError, match="__truediv__"):
                x / Tensor([0.0])

    def test_error_reports_parent_shapes(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with detect_anomaly():
            with pytest.raises(NumericAnomalyError, match=r"\(2, 3\)"):
                x.log()

    def test_functional_ops_are_covered(self):
        # A leaf carrying Inf is legal (leaves are unchecked); the first
        # *op* producing a non-finite value is log_softmax itself.
        x = Tensor([[np.inf, 1.0]], requires_grad=True)
        with detect_anomaly():
            with pytest.raises(NumericAnomalyError, match="log_softmax"):
                F.log_softmax(x)

    def test_no_raise_when_disabled(self):
        x = Tensor([0.0], requires_grad=True)
        out = x.log()
        assert np.isneginf(out.data).all()

    def test_enabled_flag_false_is_noop(self):
        x = Tensor([0.0], requires_grad=True)
        with detect_anomaly(enabled=False):
            assert not is_anomaly_enabled()
            x.log()

    def test_reentrant(self):
        ctx = detect_anomaly()
        with ctx:
            with ctx:
                assert is_anomaly_enabled()
            assert is_anomaly_enabled()
        assert not is_anomaly_enabled()


class TestBackwardAnomaly:
    def test_pow_at_zero_flags_backward(self):
        # Forward sqrt-of-zero is finite; the 0.5 * x**-0.5 backward
        # divides by zero — the sanitizer must name the pow op.
        x = Tensor([0.0, 4.0], requires_grad=True)
        with detect_anomaly():
            out = (x**0.5).sum()
            with pytest.raises(NumericAnomalyError, match="__pow__"):
                out.backward()

    def test_clean_backward_passes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with detect_anomaly():
            loss = F.softmax(x.log()).sum()
            loss.backward()
        assert np.isfinite(x.grad).all()


class TestTrainerIntegration:
    def _fit(self, small_dataset, small_split, poison):
        from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
        from repro.models import BPRMF

        rng = np.random.default_rng(0)
        backbone = BPRMF(small_dataset.num_users, small_dataset.num_items, 16, rng)
        model = IMCAT(
            backbone,
            small_dataset,
            small_split.train,
            IMCATConfig(num_intents=4, align_batch_size=32),
            rng=rng,
        )
        if poison:
            # Inject Inf into the backbone user embedding: the first
            # forward op touching it must be named by the sanitizer.
            next(iter(backbone.parameters())).data[:] = np.inf
        trainer = IMCATTrainer(
            model,
            small_split,
            IMCATTrainConfig(
                epochs=1, batch_size=128, eval_every=1, detect_anomaly=True
            ),
        )
        return trainer.fit()

    def test_anomaly_mode_pinpoints_injected_inf(self, small_dataset, small_split):
        with pytest.raises(NumericAnomalyError, match="forward output of"):
            self._fit(small_dataset, small_split, poison=True)
        # The context must be popped even when fit raises.
        assert not is_anomaly_enabled()

    def test_clean_run_completes_under_anomaly_mode(
        self, small_dataset, small_split
    ):
        result = self._fit(small_dataset, small_split, poison=False)
        assert result.epochs_run == 1
