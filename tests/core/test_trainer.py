"""Tests for the two-phase IMCAT trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.core.clustering import cluster_balance
from repro.eval import Evaluator
from repro.models import BPRMF


def make_trainer(dataset, split, epochs=8, pretrain=3, **config_kw):
    rng = np.random.default_rng(0)
    backbone = BPRMF(dataset.num_users, dataset.num_items, 16, rng)
    config = IMCATConfig(
        num_intents=4, pretrain_epochs=pretrain, align_batch_size=32,
        cluster_refresh_every=5, **config_kw,
    )
    model = IMCAT(backbone, dataset, split.train, config, rng=rng)
    trainer = IMCATTrainer(
        model, split,
        IMCATTrainConfig(epochs=epochs, batch_size=128, eval_every=2, patience=10),
    )
    return model, trainer


class TestPhases:
    def test_clustering_activates_after_pretraining(
        self, small_dataset, small_split
    ):
        model, trainer = make_trainer(small_dataset, small_split, epochs=5, pretrain=2)
        assert not model.clustering_active
        trainer.fit()
        assert model.clustering_active

    def test_clustering_never_activates_if_pretrain_longer(
        self, small_dataset, small_split
    ):
        model, trainer = make_trainer(
            small_dataset, small_split, epochs=3, pretrain=100
        )
        trainer.fit()
        assert not model.clustering_active

    def test_clusters_refreshed_during_training(self, small_dataset, small_split):
        model, trainer = make_trainer(small_dataset, small_split, epochs=6, pretrain=1)
        trainer.fit()
        # After activation + refreshes, tags spread across clusters.
        assert len(np.unique(model.tag_clusters)) > 1


class TestOutcome:
    def test_result_fields(self, small_dataset, small_split):
        model, trainer = make_trainer(small_dataset, small_split, epochs=4)
        result = trainer.fit()
        assert result.epochs_run == 4
        assert result.wall_time > 0
        assert len(result.history) == 4
        assert result.best_epoch >= 0

    def test_improves_over_untrained(self, small_dataset, small_split):
        evaluator = Evaluator(
            small_split.train, small_split.valid, top_n=(20,), metrics=("recall",)
        )
        untrained, _ = make_trainer(small_dataset, small_split)
        before = evaluator.evaluate(untrained)["recall@20"]
        model, trainer = make_trainer(small_dataset, small_split, epochs=25)
        trainer.config.learning_rate = 5e-3
        trainer.fit()
        after = evaluator.evaluate(model)["recall@20"]
        assert after > before

    def test_best_state_restored(self, small_dataset, small_split):
        model, trainer = make_trainer(small_dataset, small_split, epochs=6)
        result = trainer.fit()
        evaluator = Evaluator(
            small_split.train, small_split.valid, top_n=(20,), metrics=("recall",)
        )
        assert evaluator.evaluate(model)["recall@20"] == pytest.approx(
            result.best_metric
        )

    def test_deterministic_given_seed(self, small_dataset, small_split):
        def run():
            model, trainer = make_trainer(small_dataset, small_split, epochs=3)
            trainer.fit()
            return model.backbone.user_embedding.weight.data.copy()

        np.testing.assert_allclose(run(), run())


class TestPerfInstrumentation:
    def test_result_carries_phase_breakdown(self, small_dataset, small_split):
        _, trainer = make_trainer(small_dataset, small_split, epochs=4)
        result = trainer.fit()
        assert result.perf is not None
        for phase in ("sampling", "forward", "backward", "eval"):
            assert result.perf.timers[phase]["count"] > 0
        # Evaluator phases nest under the trainer's eval scope.
        assert result.perf.timers["eval/score"]["count"] > 0
        assert result.perf.counters["steps"] > 0
        assert result.perf.counters["triplets"] >= result.perf.counters["steps"]
        assert result.perf.counters["evals"] == 2  # eval_every=2, epochs=4

    def test_external_registry_receives_timings(self, small_dataset, small_split):
        from repro.perf import StopwatchRegistry

        perf = StopwatchRegistry()
        rng = np.random.default_rng(0)
        backbone = BPRMF(small_dataset.num_users, small_dataset.num_items, 16, rng)
        model = IMCAT(
            backbone, small_dataset, small_split.train,
            IMCATConfig(num_intents=4, pretrain_epochs=1, align_batch_size=32),
            rng=rng,
        )
        trainer = IMCATTrainer(
            model, small_split,
            IMCATTrainConfig(epochs=2, batch_size=128, eval_every=2),
            perf=perf,
        )
        trainer.fit()
        assert perf.count("forward") > 0
        assert perf.count("cluster-refresh") > 0

    def test_perf_report_formats(self, small_dataset, small_split):
        _, trainer = make_trainer(small_dataset, small_split, epochs=2)
        result = trainer.fit()
        text = result.perf.format(title="imcat run")
        assert text.startswith("imcat run")
        assert "forward" in text


class TestClusterBalance:
    def test_equal_clusters_read_one(self):
        labels = np.repeat(np.arange(4), 5)
        assert cluster_balance(labels, 4) == pytest.approx(1.0)

    def test_single_cluster_reads_zero(self):
        assert cluster_balance(np.full(20, 2), 4) == 0.0

    def test_fit_exports_gauge_and_span_attribute(
        self, small_dataset, small_split
    ):
        registry = obs.MetricsRegistry()
        previous = obs.set_metrics(registry)
        try:
            model, trainer = make_trainer(
                small_dataset, small_split, epochs=4, pretrain=1
            )
            trainer.tracer = obs.Tracer()
            trainer.fit()
        finally:
            obs.set_metrics(previous)
        gauge = registry.gauge("trainer.cluster_balance")
        expected = cluster_balance(model.tag_clusters, 4)
        assert gauge.updates > 0
        assert gauge.value == expected
        assert 0.0 < expected <= 1.0
        refreshes = [
            r["attributes"]["balance"]
            for r in trainer.tracer.records()
            if r["name"] == "cluster-refresh"
        ]
        # Before clustering activates every tag sits in cluster 0.
        assert refreshes[0] == 0.0
        assert refreshes[-1] == expected
