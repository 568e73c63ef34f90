"""Index persistence: atomic save, torn-write detection, pruning."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ckpt import checksum, encode_state
from repro.retrieval import (
    index_path,
    load_index,
    prune_indexes,
    save_index,
)
from repro.retrieval import store


def _write_envelope(directory, step, envelope) -> None:
    with open(index_path(str(directory), step), "wb") as handle:
        handle.write(encode_state(envelope))


class TestRoundTrip:
    def test_save_then_load_preserves_routing(self, index, tmp_path):
        path = save_index(index, str(tmp_path), step=7)
        assert path == index_path(str(tmp_path), 7)
        assert os.path.exists(path)
        loaded = load_index(str(tmp_path))
        users = np.random.default_rng(0).normal(
            size=(4, index.centroids.shape[1])
        )
        for user in users:
            np.testing.assert_array_equal(
                loaded.candidates(user, 2), index.candidates(user, 2)
            )
        assert loaded.fingerprint == index.fingerprint

    def test_no_tmp_file_left_behind(self, index, tmp_path):
        save_index(index, str(tmp_path), step=1)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_missing_directory_is_a_miss(self, tmp_path):
        assert load_index(str(tmp_path / "nowhere")) is None

    def test_loads_newest_step_first(self, index, tmp_path):
        save_index(index, str(tmp_path), step=1)
        newer = index
        newer.strategy = "kmeans-newer"
        save_index(newer, str(tmp_path), step=2)
        assert load_index(str(tmp_path)).strategy == "kmeans-newer"

    def test_exact_step_pin(self, index, tmp_path):
        save_index(index, str(tmp_path), step=3)
        assert load_index(str(tmp_path), step=3) is not None
        assert load_index(str(tmp_path), step=4) is None

    def test_load_verifies_the_saved_body_without_re_encoding(
        self, index, tmp_path, monkeypatch
    ):
        save_index(index, str(tmp_path), step=1)
        calls = []

        def counting_encode(state):
            calls.append(state)
            return encode_state(state)

        monkeypatch.setattr(store, "encode_state", counting_encode)
        loaded = load_index(str(tmp_path))
        assert loaded is not None
        assert loaded.fingerprint == index.fingerprint
        assert calls == []


class TestCorruption:
    def test_flipped_body_bit_is_a_miss_with_warning(self, index, tmp_path):
        good = encode_state(index.state_dict())
        body = np.frombuffer(good, dtype=np.uint8).copy()
        body[len(body) // 2] ^= 0b100
        _write_envelope(tmp_path, 1, {"sha256": checksum(good), "body": body})
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert load_index(str(tmp_path)) is None

    def test_older_envelope_is_a_miss_with_warning(self, index, tmp_path):
        # Indexes saved before the envelope carried its body bytes held
        # the decoded state under "index"; they are rebuilt, not trusted.
        state = index.state_dict()
        _write_envelope(
            tmp_path, 1, {"sha256": checksum(encode_state(state)), "index": state}
        )
        with pytest.warns(RuntimeWarning, match="older index envelope"):
            assert load_index(str(tmp_path)) is None

    def test_torn_write_skipped_with_warning(self, index, tmp_path):
        path = save_index(index, str(tmp_path), step=1)
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        with pytest.warns(RuntimeWarning, match="skipping unusable"):
            assert load_index(str(tmp_path)) is None

    def test_torn_newest_falls_back_to_older_good_payload(
        self, index, tmp_path
    ):
        save_index(index, str(tmp_path), step=1)
        newest = save_index(index, str(tmp_path), step=2)
        with open(newest, "wb") as handle:
            handle.write(b"garbage")
        with pytest.warns(RuntimeWarning, match="skipping unusable"):
            loaded = load_index(str(tmp_path))
        assert loaded is not None
        assert loaded.fingerprint == index.fingerprint

    def test_fingerprint_mismatch_skipped_with_warning(self, index, tmp_path):
        save_index(index, str(tmp_path), step=1)
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            assert (
                load_index(str(tmp_path), expected_fingerprint="other")
                is None
            )


class TestPruning:
    def test_prune_drops_unretained_steps(self, index, tmp_path):
        for step in (1, 2, 3):
            save_index(index, str(tmp_path), step=step)
        prune_indexes(str(tmp_path), keep_steps=[2])
        remaining = sorted(os.listdir(tmp_path))
        assert remaining == [os.path.basename(index_path(str(tmp_path), 2))]

    def test_prune_of_missing_directory_is_noop(self, tmp_path):
        prune_indexes(str(tmp_path / "nowhere"), keep_steps=[1])
