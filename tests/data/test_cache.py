"""Tests for dataset caching: round-trips, argument fingerprints,
torn-write recovery, and fuzzed archives."""

from __future__ import annotations

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import testing
from repro.data import (
    DatasetCacheError,
    cached_generate,
    dataset_fingerprint,
    generate_preset,
    load_dataset_file,
    save_dataset,
)

from ..helpers import tiny_dataset


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    testing.reset()


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        tiny = tiny_dataset()
        path = str(tmp_path / "ds.npz")
        save_dataset(tiny, path)
        loaded = load_dataset_file(path)
        assert loaded.name == tiny.name
        np.testing.assert_array_equal(loaded.user_ids, tiny.user_ids)
        np.testing.assert_array_equal(loaded.tag_ids, tiny.tag_ids)
        assert loaded.num_users == tiny.num_users

    def test_extension_appended(self, tmp_path):
        tiny = tiny_dataset()
        base = str(tmp_path / "nosuffix")
        save_dataset(tiny, base)
        loaded = load_dataset_file(base)
        assert loaded.num_interactions == tiny.num_interactions


class TestCachedGenerate:
    def test_miss_then_hit(self, tmp_path):
        path = str(tmp_path / "cache.npz")
        calls = []

        def generator(name, scale, seed):
            calls.append(1)
            return generate_preset(name, scale=scale, seed=seed)

        first = cached_generate(generator, path, "hetrec-del", scale=0.03, seed=0)
        second = cached_generate(generator, path, "hetrec-del", scale=0.03, seed=0)
        assert len(calls) == 1  # second call served from disk
        np.testing.assert_array_equal(first.user_ids, second.user_ids)

    def test_different_args_regenerate(self, tmp_path):
        path = str(tmp_path / "cache.npz")
        calls = []

        def generator(name, scale, seed):
            calls.append((name, scale, seed))
            return generate_preset(name, scale=scale, seed=seed)

        cached_generate(generator, path, "hetrec-del", scale=0.03, seed=0)
        # Same path, different seed: a hit here would silently serve the
        # wrong dataset — the fingerprint forces a regeneration.
        with pytest.warns(RuntimeWarning, match="different arguments"):
            second = cached_generate(
                generator, path, "hetrec-del", scale=0.03, seed=1
            )
        assert calls == [("hetrec-del", 0.03, 0), ("hetrec-del", 0.03, 1)]
        expected = generate_preset("hetrec-del", scale=0.03, seed=1)
        np.testing.assert_array_equal(second.user_ids, expected.user_ids)
        # The archive now carries the new fingerprint: hit again.
        cached_generate(generator, path, "hetrec-del", scale=0.03, seed=1)
        assert len(calls) == 2

    def test_legacy_archive_without_fingerprint_regenerates(self, tmp_path):
        path = str(tmp_path / "cache.npz")
        save_dataset(tiny_dataset(), path)  # no fingerprint stored
        calls = []

        def generator():
            calls.append(1)
            return tiny_dataset()

        with pytest.warns(RuntimeWarning, match="different arguments"):
            cached_generate(generator, path)
        assert len(calls) == 1

    def test_fingerprint_is_argument_sensitive(self):
        base = dataset_fingerprint("a", scale=0.1, seed=0)
        assert base == dataset_fingerprint("a", scale=0.1, seed=0)
        assert base == dataset_fingerprint("a", seed=0, scale=0.1)  # kw order
        assert base != dataset_fingerprint("a", scale=0.2, seed=0)
        assert base != dataset_fingerprint("b", scale=0.1, seed=0)


class TestCorruptionRecovery:
    def test_torn_write_raises_dataset_cache_error(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        with testing.FaultyWrites(
            testing.DATA_CACHE_WRITE, mode="truncate", fraction=0.4
        ) as fault:
            save_dataset(tiny_dataset(), path)
            assert fault.corrupted
        with pytest.raises(DatasetCacheError, match="unreadable"):
            load_dataset_file(path)

    def test_garbled_write_raises_dataset_cache_error(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        with testing.FaultyWrites(
            testing.DATA_CACHE_WRITE, mode="garble", fraction=0.5
        ):
            save_dataset(tiny_dataset(), path)
        with pytest.raises(DatasetCacheError):
            load_dataset_file(path)

    def test_missing_file_keeps_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_file(str(tmp_path / "absent.npz"))

    def test_cached_generate_deletes_and_regenerates(self, tmp_path):
        path = str(tmp_path / "cache.npz")
        calls = []

        def generator():
            calls.append(1)
            return tiny_dataset()

        with testing.FaultyWrites(
            testing.DATA_CACHE_WRITE, mode="truncate", fraction=0.3
        ):
            cached_generate(generator, path)  # lands corrupt on disk
        with pytest.warns(RuntimeWarning, match="regenerating"):
            recovered = cached_generate(generator, path)
        assert len(calls) == 2
        tiny = tiny_dataset()
        np.testing.assert_array_equal(recovered.user_ids, tiny.user_ids)
        # The rewrite healed the cache: the next call is a clean hit.
        cached_generate(generator, path)
        assert len(calls) == 2

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        save_dataset(tiny_dataset(), str(tmp_path / "ds.npz"))
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []


_FUZZ_ARGS = ("hetrec-del",)
_FUZZ_KWARGS = dict(scale=0.03, seed=0)


def _same_dataset(a, b) -> bool:
    return (a.name, a.num_users, a.num_items, a.num_tags) == (
        b.name, b.num_users, b.num_items, b.num_tags
    ) and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("user_ids", "item_ids", "tag_item_ids", "tag_ids")
    )


@pytest.fixture(scope="module")
def cache_archive():
    """The bytes of a real ``cached_generate`` archive, fingerprint
    included, and the freshly generated dataset it holds."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cache.npz")
        dataset = cached_generate(
            generate_preset, path, *_FUZZ_ARGS, **_FUZZ_KWARGS
        )
        with open(path, "rb") as handle:
            return handle.read(), dataset


@st.composite
def damaged_archives(draw, archive: bytes):
    """``archive`` with bytes flipped, cut off, or junk appended."""
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "truncate":
        return archive[: draw(st.integers(0, len(archive) - 1))]
    if kind == "append":
        return archive + draw(st.binary(min_size=1, max_size=64))
    data = bytearray(archive)
    flips = draw(
        st.lists(
            st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        )
    )
    for position, mask in flips:
        data[position] ^= mask
    return bytes(data)


class TestCacheFuzz:
    """Whatever happens to the bytes on disk, the reader either refuses
    them with :class:`DatasetCacheError` or returns the dataset that was
    written, and :func:`cached_generate` always serves the right one."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_damaged_archive_never_loads_wrong_data(self, cache_archive, data):
        archive, written = cache_archive
        damaged = data.draw(damaged_archives(archive))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "cache.npz")
            with open(path, "wb") as handle:
                handle.write(damaged)
            try:
                loaded = load_dataset_file(path)
            except DatasetCacheError:
                refused = True
            else:
                refused = False
                assert _same_dataset(loaded, written)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                served = cached_generate(
                    generate_preset, path, *_FUZZ_ARGS, **_FUZZ_KWARGS
                )
        assert _same_dataset(served, written)
        if refused:
            assert any(
                issubclass(w.category, RuntimeWarning)
                and "regenerating" in str(w.message)
                for w in caught
            )

    def test_every_single_bit_flip(self, cache_archive, tmp_path):
        """Exhaustive over one bit per byte.  Flipping the low bit of byte
        808 of this archive (inside ``item_ids``' deflate stream) once
        loaded different ids: ``np.load`` stopped short of the point
        where zipfile checks the member's CRC-32."""
        archive, written = cache_archive
        path = str(tmp_path / "cache.npz")
        for position in range(len(archive)):
            data = bytearray(archive)
            data[position] ^= 1
            with open(path, "wb") as handle:
                handle.write(data)
            try:
                loaded = load_dataset_file(path)
            except DatasetCacheError:
                continue
            assert _same_dataset(loaded, written), position
