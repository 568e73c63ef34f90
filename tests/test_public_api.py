"""Public API conformance: exports resolve and are documented."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = ["repro.nn", "repro.data", "repro.models", "repro.core",
               "repro.eval", "repro.bench", "repro.perf", "repro.ckpt",
               "repro.testing", "repro.obs", "repro.train"]


class TestExports:
    def test_version_present(self):
        assert repro.__version__

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_symbols_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} has no __all__"
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{module_name}.{symbol} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_sorted(self, module_name):
        module = importlib.import_module(module_name)
        assert list(module.__all__) == sorted(module.__all__), (
            f"{module_name}.__all__ is not sorted"
        )

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_classes_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(symbol)
        assert not undocumented, (
            f"{module_name}: public items without docstrings: {undocumented}"
        )

    def test_nn_has_one_execution_path(self):
        # Training runs one set of autograd ops; there is no mode to flip.
        nn = importlib.import_module("repro.nn")
        for removed in ("fusion", "fused_mode", "is_fused", "set_fused"):
            assert not hasattr(nn, removed), removed
        for op in ("batched_linear", "bpr_loss", "info_nce", "nce_weights"):
            assert callable(getattr(nn.functional, op)), op

    def test_package_docstring_mentions_paper(self):
        assert "IMCAT" in (repro.__doc__ or "")

    def test_io_helpers_exported(self):
        assert callable(repro.save_model)
        assert callable(repro.load_model)


class TestModuleDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        SUBPACKAGES
        + [
            "repro.nn.tensor", "repro.nn.functional", "repro.nn.optim",
            "repro.nn.sparse", "repro.nn.layers", "repro.nn.module",
            "repro.data.dataset", "repro.data.synthetic",
            "repro.data.preprocess", "repro.data.split",
            "repro.data.sampling", "repro.data.loaders", "repro.data.stats",
            "repro.models.base", "repro.models.bprmf", "repro.models.neumf",
            "repro.models.lightgcn", "repro.models.training",
            "repro.core.config", "repro.core.intents",
            "repro.core.clustering", "repro.core.alignment",
            "repro.core.set2set", "repro.core.imcat", "repro.core.trainer",
            "repro.core.explain",
            "repro.eval.metrics", "repro.eval.evaluator",
            "repro.eval.groups", "repro.eval.significance",
            "repro.bench.harness", "repro.bench.registry",
            "repro.bench.tables", "repro.bench.hotpaths", "repro.io",
            "repro.perf.timers", "repro.perf.counters", "repro.perf.report",
            "repro.obs.spans", "repro.obs.metrics", "repro.obs.export",
            "repro.obs.profiler", "repro.obs.report",
        ],
    )
    def test_every_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert (module.__doc__ or "").strip(), f"{module_name} undocumented"
