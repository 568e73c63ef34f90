"""Tests for the calibrated synthetic generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    DATASET_ORDER,
    PAPER_STATISTICS,
    PRESETS,
    SyntheticConfig,
    generate,
    generate_preset,
    preset,
)


class TestPresets:
    def test_all_seven_datasets_present(self):
        assert len(DATASET_ORDER) == 7
        assert set(DATASET_ORDER) == set(PRESETS) == set(PAPER_STATISTICS)

    def test_preset_lookup_case_insensitive(self):
        assert preset("HetRec-MV").name == "hetrec-mv"

    def test_unknown_preset_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            preset("no-such-dataset")

    def test_preset_entity_counts_match_table1(self):
        for name in DATASET_ORDER:
            config = preset(name)
            stats = PAPER_STATISTICS[name]
            assert config.num_users == stats["users"]
            assert config.num_items == stats["items"]
            assert config.num_tags == stats["tags"]

    def test_scaled_shrinks_counts(self):
        config = preset("yelp-tag", scale=0.1)
        assert config.num_users == int(39856 * 0.1)
        assert config.mean_user_degree == PRESETS["yelp-tag"].mean_user_degree

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            preset("yelp-tag").scaled(0.0)

    def test_scaled_enforces_minimums(self):
        config = preset("hetrec-fm").scaled(1e-6)
        assert config.num_users >= 30
        assert config.num_tags >= config.num_factors * 4


class TestGeneration:
    def test_deterministic_given_seed(self):
        config = SyntheticConfig("t", 50, 80, 40, mean_user_degree=8)
        a = generate(config, seed=3)
        b = generate(config, seed=3)
        np.testing.assert_array_equal(a.user_ids, b.user_ids)
        np.testing.assert_array_equal(a.tag_ids, b.tag_ids)

    def test_different_seeds_differ(self):
        config = SyntheticConfig("t", 50, 80, 40, mean_user_degree=8)
        a = generate(config, seed=3)
        b = generate(config, seed=4)
        assert not np.array_equal(a.item_ids, b.item_ids)

    def test_every_user_has_interactions(self):
        ds = generate(SyntheticConfig("t", 40, 60, 32, mean_user_degree=5), seed=0)
        assert np.all(ds.user_degrees() >= 1)

    def test_every_item_has_tags(self):
        ds = generate(SyntheticConfig("t", 40, 60, 32, mean_user_degree=5), seed=0)
        assert np.all(np.bincount(ds.tag_item_ids, minlength=ds.num_items) >= 1)

    def test_no_duplicate_tags_per_item(self):
        ds = generate(SyntheticConfig("t", 40, 60, 32), seed=0)
        for item in range(ds.num_items):
            tags = ds.tags_of_item()[item]
            assert len(tags) == len(np.unique(tags))

    def test_mean_degree_near_target(self):
        config = SyntheticConfig("t", 300, 400, 64, mean_user_degree=20)
        ds = generate(config, seed=1)
        mean_degree = ds.num_interactions / ds.num_users
        assert 14 < mean_degree < 28  # lognormal with sigma=0.8

    def test_popularity_is_long_tailed(self):
        config = SyntheticConfig("t", 400, 500, 64, mean_user_degree=25)
        ds = generate(config, seed=1)
        degrees = np.sort(ds.item_degrees())[::-1]
        top_share = degrees[: len(degrees) // 10].sum() / degrees.sum()
        assert top_share > 0.3  # top 10% of items draw >30% of interactions


class TestGroundTruth:
    def test_ground_truth_shapes(self):
        config = SyntheticConfig("t", 40, 60, 32, num_factors=4)
        ds, truth = generate(config, seed=0, return_ground_truth=True)
        assert truth.user_preferences.shape == (40, 4)
        assert truth.item_factors.shape == (60,)
        assert truth.tag_factors.shape == (32,)
        np.testing.assert_allclose(truth.user_preferences.sum(axis=1), 1.0)

    def test_tags_concentrate_on_item_factor(self):
        """The planted structure: an item's tags mostly share its factor."""
        config = SyntheticConfig(
            "t", 60, 120, 48, num_factors=4, tag_offtopic=0.1, mean_item_tags=5
        )
        ds, truth = generate(config, seed=0, return_ground_truth=True)
        matches = 0
        total = 0
        for item in range(ds.num_items):
            for tag in ds.tags_of_item()[item]:
                matches += truth.tag_factors[tag] == truth.item_factors[item]
                total += 1
        assert matches / total > 0.7

    def test_interactions_follow_preferences(self):
        """Users interact mostly with items of their preferred factors."""
        config = SyntheticConfig(
            "t", 80, 150, 48, num_factors=4, user_concentration=0.1,
            noise=0.0, mean_user_degree=12,
        )
        ds, truth = generate(config, seed=0, return_ground_truth=True)
        aligned = 0
        total = 0
        for u, v in zip(ds.user_ids, ds.item_ids):
            # Item factor within the user's top-2 preferred factors?
            top2 = np.argsort(truth.user_preferences[u])[-2:]
            aligned += truth.item_factors[v] in top2
            total += 1
        assert aligned / total > 0.6

    def test_generate_preset_round_trip(self):
        ds = generate_preset("hetrec-del", scale=0.05, seed=0)
        assert ds.name == "hetrec-del"
        assert ds.num_users == max(int(1274 * 0.05), 30)


class TestConfigValidation:
    """Configs the generator cannot honour are rejected up front, naming
    the field, instead of crashing mid-generation or skewing the data."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_users", 0),
            ("num_items", 1),
            ("num_factors", 0),
            ("num_tags", 3),  # fewer tags than the default 8 factors
            ("item_offtopic", 1.2),
            ("tag_offtopic", -0.1),
            ("noise", 1.5),
            ("mean_user_degree", 0.0),
            ("mean_item_tags", -1.0),
            ("user_concentration", 0.0),
            ("degree_sigma", -0.5),
            ("popularity_exponent", float("nan")),
        ],
    )
    def test_rejects_field(self, field, value):
        base = dict(name="x", num_users=40, num_items=60, num_tags=40)
        with pytest.raises(ValueError, match=f"^{field} must"):
            SyntheticConfig(**{**base, field: value})

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError, match="^noise must"):
            SyntheticConfig("x", 40, 60, 40, noise=float("nan"))

    def test_boundary_values_generate(self):
        config = SyntheticConfig(
            "x", 1, 2, 1, num_factors=1, item_offtopic=1.0,
            tag_offtopic=0.0, noise=1.0,
        )
        ds = generate(config, seed=0)
        assert ds.num_interactions == 1 and ds.num_tags == 1

    def test_presets_and_scaled_presets_stay_valid(self):
        for name in DATASET_ORDER:
            for scale in (1e-6, 0.05, 1.0):
                preset(name, scale=scale)  # raises if invalid
