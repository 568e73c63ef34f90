"""Stream-identity tests: the vectorised generator against the per-slot loop.

``generate`` draws each item's tag slots as one ``rng.random(n)`` block
looked up in a per-factor inverse CDF, where the reference calls
``rng.choice(members, p=w / w.sum())`` once per slot.  The two consume
the same RNG stream only while ``Generator.choice`` draws one double per
sample and inverts the CDF it builds from ``p``; these tests pin both the
datasets and that assumption, so a NumPy release that changes ``choice``
fails here instead of silently changing every dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import PRESETS, SyntheticConfig, generate, preset

from ..helpers import reference_generate

_ID_FIELDS = ("user_ids", "item_ids", "tag_item_ids", "tag_ids")
_TRUTH_FIELDS = (
    "user_preferences",
    "item_factors",
    "tag_factors",
    "item_popularity",
)


def _same_bits(actual: np.ndarray, expected: np.ndarray, what: str) -> None:
    layout = (actual.dtype, actual.shape)
    assert layout == (expected.dtype, expected.shape), what
    assert actual.tobytes() == expected.tobytes(), f"{what} differs bitwise"


def _assert_stream_identical(config: SyntheticConfig, seed: int) -> None:
    dataset, truth = generate(config, seed=seed, return_ground_truth=True)
    ref_dataset, ref_truth = reference_generate(
        config, seed=seed, return_ground_truth=True
    )
    assert (dataset.name, dataset.num_users, dataset.num_items,
            dataset.num_tags) == (ref_dataset.name, ref_dataset.num_users,
                                  ref_dataset.num_items, ref_dataset.num_tags)
    for field in _ID_FIELDS:
        _same_bits(getattr(dataset, field), getattr(ref_dataset, field), field)
    for field in _TRUTH_FIELDS:
        _same_bits(getattr(truth, field), getattr(ref_truth, field), field)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_match_reference(name, seed):
    _assert_stream_identical(preset(name, scale=0.02), seed)


def test_perfbench_dataset_matches_reference():
    """``hetrec-del`` at full scale, the dataset every benchmark trains on."""
    _assert_stream_identical(preset("hetrec-del"), seed=0)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(num_factors=1),
        dict(tag_offtopic=0.0),
        dict(tag_offtopic=1.0),
    ],
    ids=["one-factor", "never-offtopic", "always-offtopic"],
)
def test_edge_configs_match_reference(overrides):
    config = SyntheticConfig("t", 40, 60, 40, mean_item_tags=6, **overrides)
    _assert_stream_identical(config, seed=3)


@pytest.mark.parametrize("size", [1, 2, 7, 300])
def test_choice_is_one_double_inverse_cdf(size):
    """The assumption itself: ``choice`` with ``p`` draws one double per
    sample and returns ``members[cdf.searchsorted(u, side="right")]``."""
    members = np.arange(size) * 3 + 5
    w = (np.arange(size) + 1.0) ** -0.8
    p = w / w.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    by_choice = np.random.default_rng(11)
    by_cdf = np.random.default_rng(11)
    for _ in range(200):
        expected = members[cdf.searchsorted(by_cdf.random(), side="right")]
        assert by_choice.choice(members, p=p) == expected, (
            f"numpy {np.__version__} Generator.choice(members, p=p) no "
            "longer matches one-double inverse-CDF sampling; "
            "repro.data.generate relies on it to reproduce every dataset"
        )
    assert by_choice.random() == by_cdf.random(), (
        f"numpy {np.__version__} Generator.choice(members, p=p) consumes "
        "more than one double per sample; repro.data.generate relies on "
        "one to reproduce every dataset"
    )
