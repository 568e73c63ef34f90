"""Tests for model persistence."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import load_model, save_model
from repro.io import ModelArchiveError
from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig
from repro.models import BPRMF, LightGCN


class TestSaveLoad:
    def test_backbone_roundtrip(self, small_dataset, tmp_path):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16,
            np.random.default_rng(0),
        )
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        other = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16,
            np.random.default_rng(99),
        )
        load_model(other, path)
        np.testing.assert_allclose(
            model.all_scores(np.array([0, 1])),
            other.all_scores(np.array([0, 1])),
        )

    def test_imcat_roundtrip_with_cluster_state(
        self, small_dataset, small_split, tmp_path
    ):
        rng = np.random.default_rng(0)
        backbone = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16, rng
        )
        model = IMCAT(
            backbone, small_dataset, small_split.train,
            IMCATConfig(num_intents=4), rng=rng,
        )
        model.activate_clustering(np.random.default_rng(1))
        path = str(tmp_path / "imcat.npz")
        save_model(model, path)

        rng2 = np.random.default_rng(5)
        other = IMCAT(
            BPRMF(small_dataset.num_users, small_dataset.num_items, 16, rng2),
            small_dataset, small_split.train,
            IMCATConfig(num_intents=4), rng=rng2,
        )
        load_model(other, path)
        np.testing.assert_array_equal(model.tag_clusters, other.tag_clusters)
        assert other.clustering_active
        np.testing.assert_allclose(
            model.all_scores(np.array([0])), other.all_scores(np.array([0]))
        )

    def test_extension_added_if_missing(self, small_dataset, tmp_path):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        base = str(tmp_path / "weights")
        save_model(model, base + ".npz")
        load_model(model, base)  # resolves to .npz

    def test_architecture_mismatch_rejected(self, small_dataset, tmp_path):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16,
            np.random.default_rng(0),
        )
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        wrong = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            load_model(wrong, path)

    def test_lightgcn_scores_preserved(self, small_dataset, small_split, tmp_path):
        interactions = (small_split.train.user_ids, small_split.train.item_ids)
        model = LightGCN(
            small_dataset.num_users, small_dataset.num_items,
            interactions, 16, rng=np.random.default_rng(0),
        )
        path = str(tmp_path / "gcn.npz")
        save_model(model, path)
        other = LightGCN(
            small_dataset.num_users, small_dataset.num_items,
            interactions, 16, rng=np.random.default_rng(7),
        )
        load_model(other, path)
        np.testing.assert_allclose(
            model.all_scores(np.array([2])), other.all_scores(np.array([2]))
        )


class TestPathNormalization:
    """Regressions for the double-suffix / exists-ordering bugs: the old
    helpers appended ``.npz`` without checking whether it was already
    there, so ``save_model(m, "w.npz")`` + ``load_model(m, "w.npz.npz")``
    silently missed the file (np.savez had written ``w.npz``)."""

    def _model(self, small_dataset):
        return BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )

    def test_save_returns_single_suffix_path(self, small_dataset, tmp_path):
        model = self._model(small_dataset)
        written = save_model(model, str(tmp_path / "w"))
        assert written == str(tmp_path / "w.npz")
        assert os.path.exists(written)

    def test_load_tolerates_doubled_suffix(self, small_dataset, tmp_path):
        model = self._model(small_dataset)
        save_model(model, str(tmp_path / "w.npz"))
        load_model(self._model(small_dataset), str(tmp_path / "w.npz.npz"))

    def test_save_collapses_doubled_suffix(self, small_dataset, tmp_path):
        model = self._model(small_dataset)
        written = save_model(model, str(tmp_path / "w.npz.npz"))
        assert written == str(tmp_path / "w.npz")
        assert os.listdir(tmp_path) == ["w.npz"]

    def test_legacy_bare_named_file_still_loads(self, small_dataset, tmp_path):
        # Archives written before normalisation may sit under the bare
        # name; the literal spelling must keep working.
        model = self._model(small_dataset)
        written = save_model(model, str(tmp_path / "legacy"))
        os.rename(written, str(tmp_path / "legacy"))
        load_model(self._model(small_dataset), str(tmp_path / "legacy"))

    def test_missing_file_raises_with_normalized_name(
        self, small_dataset, tmp_path
    ):
        with pytest.raises(FileNotFoundError):
            load_model(self._model(small_dataset), str(tmp_path / "absent"))


class TestAllModelsRoundtrip:
    """Every registered model must survive save -> fresh construct ->
    load with bit-identical scores."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_roundtrip_preserves_scores(
        self, name, small_dataset, small_split, tmp_path
    ):
        builder = MODEL_BUILDERS[name]
        model = builder(small_dataset, small_split, 8, np.random.default_rng(0))
        users = np.arange(min(4, small_dataset.num_users))
        expected = model.all_scores(users)
        path = save_model(model, str(tmp_path / f"{name}.npz"))

        fresh = builder(small_dataset, small_split, 8, np.random.default_rng(9))
        load_model(fresh, path)
        np.testing.assert_array_equal(expected, fresh.all_scores(users))

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_load_overwrites_scrambled_params(
        self, name, small_dataset, small_split, tmp_path
    ):
        builder = MODEL_BUILDERS[name]
        model = builder(small_dataset, small_split, 8, np.random.default_rng(0))
        users = np.arange(min(4, small_dataset.num_users))
        expected = model.all_scores(users)
        path = save_model(model, str(tmp_path / f"{name}.npz"))

        noise = np.random.default_rng(123)
        for param in model.parameters():
            param.data += noise.normal(scale=0.5, size=param.data.shape)
        load_model(model, path)
        np.testing.assert_array_equal(expected, model.all_scores(users))


class TestRecommendHelper:
    def test_returns_topn(self, small_dataset):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        items = model.recommend(0, top_n=5)
        assert len(items) == 5

    def test_excludes_items(self, small_dataset):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        full = model.recommend(0, top_n=3)
        excluded = model.recommend(0, top_n=3, exclude={int(full[0])})
        assert int(full[0]) not in excluded


class TestDamagedArchive:
    """A damaged archive raises one typed error, never wrong weights."""

    def test_every_single_bit_flip_is_caught_or_harmless(self, tmp_path):
        model = BPRMF(6, 9, 4, np.random.default_rng(0))
        blob = open(save_model(model, str(tmp_path / "m.npz")), "rb").read()
        expected = {k: v.copy() for k, v in model.state_dict().items()}
        target = BPRMF(6, 9, 4, np.random.default_rng(1))
        path = str(tmp_path / "flipped.npz")
        outcomes = {"error": 0, "identical": 0}
        for bit in range(8 * len(blob)):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with open(path, "wb") as handle:
                handle.write(damaged)
            for param in target.parameters():
                param.data[...] = 0.0
            try:
                load_model(target, path)
            except ModelArchiveError:
                outcomes["error"] += 1
                continue
            state = target.state_dict()
            assert set(state) == set(expected), f"bit {bit}"
            for key, value in expected.items():
                assert state[key].dtype == value.dtype, f"bit {bit}: {key}"
                np.testing.assert_array_equal(
                    state[key], value, err_msg=f"bit {bit}: {key}"
                )
            outcomes["identical"] += 1
        assert outcomes["error"] > 0 and sum(outcomes.values()) == 8 * len(blob)

    def test_truncated_and_garbage_archives(self, tmp_path):
        model = BPRMF(6, 9, 4, np.random.default_rng(0))
        blob = open(save_model(model, str(tmp_path / "m.npz")), "rb").read()
        path = str(tmp_path / "bad.npz")
        for payload in (blob[: len(blob) // 2], b"", b"not a zip at all"):
            with open(path, "wb") as handle:
                handle.write(payload)
            with pytest.raises(ModelArchiveError):
                load_model(model, path)

    def test_missing_file_is_not_an_archive_error(self, tmp_path):
        model = BPRMF(6, 9, 4, np.random.default_rng(0))
        with pytest.raises(FileNotFoundError):
            load_model(model, str(tmp_path / "absent.npz"))

    def test_archive_error_is_a_value_error(self):
        assert issubclass(ModelArchiveError, ValueError)
