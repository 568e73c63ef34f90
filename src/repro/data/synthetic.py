"""Calibrated synthetic dataset generator.

The paper evaluates on seven public datasets (Table I).  This offline
environment has no network access, so we substitute a generative model
that plants exactly the structures IMCAT's mechanisms rely on:

1. **Latent intent structure.**  A ground-truth set of ``num_factors``
   latent factors plays the role of user intents.  Users hold a Dirichlet
   preference over factors; each item has a dominant factor; each tag
   belongs to one factor.  Items receive tags mostly from their dominant
   factor, so tag clusters genuinely explain interaction factors — the
   hypothesis behind IRM (Section IV.A.2).
2. **Power-law popularity.**  Item popularity follows a Zipf law, giving
   the long-tail degree distribution of Fig. 7; user activity follows a
   heavy-tailed lognormal, giving cold-start users for Fig. 8.
3. **Noise interactions.**  A configurable fraction of interactions is
   uniform-random ("random clicks"), the noise source the paper argues
   intent disentanglement is robust to.

Presets mirror the seven Table I datasets.  Each preset stores the
paper-scale statistics for reporting and a generator configuration; a
``scale`` parameter shrinks user/item/tag counts proportionally so the
benchmark harness stays CPU-friendly while preserving average degrees.

**Stream contract.**  A dataset is fixed by its config and seed, so the
generator's use of the RNG stream is part of its output.  Each item's
tag slots are drawn the way ``Generator.choice(members, p=w / w.sum())``
draws one sample, without calling it per slot: one double per slot,
mapped through the factor's inverse CDF (``(w / w.sum()).cumsum()``
normalised by its last entry, ``searchsorted(side="right")``).  NumPy
does not promise that ``choice`` keeps this algorithm, so
``tests/data/test_generate_stream.py`` checks ``generate`` bit for bit
against the per-slot ``rng.choice`` loop, and checks the inverse-CDF
assumption directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from .dataset import TagRecDataset


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the generative model.

    Attributes:
        name: dataset name.
        num_users / num_items / num_tags: entity counts.
        num_factors: ground-truth latent intents.
        mean_user_degree: average interactions per user (drives ``#UI``).
        mean_item_tags: average tags per item (drives ``#IT``).
        user_concentration: Dirichlet concentration of user preferences;
            smaller values give more focused (single-intent) users.
        item_offtopic: probability mass an item spreads over non-dominant
            factors.
        tag_offtopic: probability an item draws a tag outside its dominant
            factor.
        popularity_exponent: Zipf exponent of item popularity.
        degree_sigma: lognormal sigma of user activity (heavier tail for
            larger values).
        noise: fraction of interactions replaced by uniform random picks.
    """

    name: str
    num_users: int
    num_items: int
    num_tags: int
    num_factors: int = 8
    mean_user_degree: float = 20.0
    mean_item_tags: float = 4.0
    user_concentration: float = 0.3
    item_offtopic: float = 0.15
    tag_offtopic: float = 0.1
    popularity_exponent: float = 1.0
    degree_sigma: float = 0.8
    noise: float = 0.02

    def __post_init__(self) -> None:
        """Reject parameters the generator cannot honour.

        Raises:
            ValueError: naming the first offending field.
        """
        for field, minimum in (
            ("num_users", 1),
            ("num_items", 2),  # every user keeps at least one non-pick
            ("num_factors", 1),
        ):
            if not getattr(self, field) >= minimum:
                raise ValueError(
                    f"{field} must be >= {minimum}, "
                    f"got {getattr(self, field)}"
                )
        if self.num_tags < self.num_factors:  # no factor without a tag
            raise ValueError(
                f"num_tags must be >= num_factors ({self.num_factors}), "
                f"got {self.num_tags}"
            )
        for field in ("item_offtopic", "tag_offtopic", "noise"):
            if not 0.0 <= getattr(self, field) <= 1.0:
                raise ValueError(
                    f"{field} must be in [0, 1], got {getattr(self, field)}"
                )
        for field in (
            "mean_user_degree", "mean_item_tags", "user_concentration"
        ):
            if not getattr(self, field) > 0:
                raise ValueError(
                    f"{field} must be positive, got {getattr(self, field)}"
                )
        if not self.degree_sigma >= 0:
            raise ValueError(
                f"degree_sigma must be >= 0, got {self.degree_sigma}"
            )
        if not np.isfinite(self.popularity_exponent):
            raise ValueError(
                "popularity_exponent must be finite, "
                f"got {self.popularity_exponent}"
            )

    def scaled(self, scale: float) -> "SyntheticConfig":
        """Shrink entity counts by ``scale`` keeping average degrees."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return replace(
            self,
            num_users=max(int(self.num_users * scale), 30),
            num_items=max(int(self.num_items * scale), 50),
            num_tags=max(int(self.num_tags * scale), self.num_factors * 4),
        )


@dataclass(frozen=True)
class SyntheticGroundTruth:
    """Ground-truth latent structure, exposed for diagnostics and tests."""

    user_preferences: np.ndarray  # (num_users, num_factors)
    item_factors: np.ndarray  # (num_items,) dominant factor per item
    tag_factors: np.ndarray  # (num_tags,) factor owning each tag
    item_popularity: np.ndarray  # (num_items,) sampling weight


def generate(
    config: SyntheticConfig,
    seed: int = 0,
    return_ground_truth: bool = False,
):
    """Sample a :class:`TagRecDataset` from the generative model.

    The output is a pure function of ``config`` and ``seed``: every
    array comes from one ``np.random.default_rng(seed)`` stream in a
    fixed order.  Per item the stream holds, in turn, one double per tag
    slot for the off-topic coin, one integer per slot for the off-topic
    factor, and one double per slot looked up in the factor's tag CDF,
    the draw ``rng.choice(members, p=w / w.sum())`` would make (see the
    module docstring and ``tests/data/test_generate_stream.py``).

    Args:
        config: generator parameters.
        seed: RNG seed (all randomness flows from it).
        return_ground_truth: also return the latent structure.

    Returns:
        The dataset, or ``(dataset, ground_truth)`` when requested.
    """
    rng = np.random.default_rng(seed)
    n_u, n_v, n_t, n_f = (
        config.num_users,
        config.num_items,
        config.num_tags,
        config.num_factors,
    )

    # --- latent structure -------------------------------------------------
    user_pref = rng.dirichlet(np.full(n_f, config.user_concentration), size=n_u)
    item_factor = rng.integers(0, n_f, size=n_v)
    item_profile = np.full((n_v, n_f), config.item_offtopic / max(n_f - 1, 1))
    item_profile[np.arange(n_v), item_factor] = 1.0 - config.item_offtopic

    # Zipf popularity over a random item permutation.
    ranks = rng.permutation(n_v) + 1.0
    popularity = ranks ** (-config.popularity_exponent)
    popularity /= popularity.sum()

    # --- interactions -----------------------------------------------------
    mu = np.log(config.mean_user_degree) - config.degree_sigma**2 / 2.0
    degrees = np.maximum(
        rng.lognormal(mu, config.degree_sigma, size=n_u).astype(int), 1
    )
    degrees = np.minimum(degrees, n_v - 1)

    user_ends = np.cumsum(degrees)
    user_ids = np.repeat(np.arange(n_u, dtype=np.int64), degrees)
    item_ids = np.empty(user_ends[-1], dtype=np.int64)
    chunk = 512
    for start in range(0, n_u, chunk):
        stop = min(start + chunk, n_u)
        scores = user_pref[start:stop] @ item_profile.T  # (chunk, n_v)
        scores *= popularity
        # Mix in uniform noise clicks.
        mix = config.noise * (scores.sum(axis=1, keepdims=True) / n_v)
        scores *= 1.0 - config.noise
        scores += mix
        # Gumbel-top-k sampling without replacement per user.
        gumbel = rng.gumbel(size=scores.shape)
        np.maximum(scores, 1e-300, out=scores)
        np.log(scores, out=scores)
        scores += gumbel
        for row, user in enumerate(range(start, stop)):
            k = degrees[user]
            end = user_ends[user]
            item_ids[end - k:end] = np.argpartition(scores[row], -k)[-k:]

    # --- tag vocabulary ---------------------------------------------------
    tag_factor = np.arange(n_t) % n_f
    rng.shuffle(tag_factor)

    # --- item-tag assignments ----------------------------------------------
    counts = np.maximum(rng.poisson(config.mean_item_tags, size=n_v), 1)
    slot_ends = np.cumsum(counts)
    offtopic_draw = np.empty(slot_ends[-1])
    any_factor = np.empty(slot_ends[-1], dtype=np.int64)
    tag_draw = np.empty(slot_ends[-1])
    for v in range(n_v):
        lo, hi = slot_ends[v] - counts[v], slot_ends[v]
        rng.random(out=offtopic_draw[lo:hi])
        any_factor[lo:hi] = rng.integers(0, n_f, size=counts[v])
        rng.random(out=tag_draw[lo:hi])
    slot_item = np.repeat(np.arange(n_v, dtype=np.int64), counts)
    # Dominant factor with prob 1 - tag_offtopic, else uniform factor.
    slot_factor = np.where(
        offtopic_draw < config.tag_offtopic, any_factor, item_factor[slot_item]
    )
    slot_tag = np.empty(slot_ends[-1], dtype=np.int64)
    for f in range(n_f):
        members = np.where(tag_factor == f)[0]
        # Zipf popularity of tags within the factor, drawn through the
        # inverse CDF that ``Generator.choice(members, p=w / w.sum())``
        # builds.
        w = (np.arange(len(members)) + 1.0) ** -0.8
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        slots = slot_factor == f
        slot_tag[slots] = members[
            cdf.searchsorted(tag_draw[slots], side="right")
        ]
    # Sort tags within each item and drop repeats.
    order = np.lexsort((slot_tag, slot_item))
    tag_item_ids = slot_item[order]
    tag_ids = slot_tag[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (tag_item_ids[1:] != tag_item_ids[:-1]) | (
        tag_ids[1:] != tag_ids[:-1]
    )
    tag_item_ids = tag_item_ids[keep]
    tag_ids = tag_ids[keep]

    dataset = TagRecDataset(
        num_users=n_u,
        num_items=n_v,
        num_tags=n_t,
        user_ids=user_ids,
        item_ids=item_ids,
        tag_item_ids=tag_item_ids,
        tag_ids=tag_ids,
        name=config.name,
    )
    if return_ground_truth:
        truth = SyntheticGroundTruth(
            user_preferences=user_pref,
            item_factors=item_factor,
            tag_factors=tag_factor,
            item_popularity=popularity,
        )
        return dataset, truth
    return dataset


# ---------------------------------------------------------------------------
# Presets matching Table I of the paper
# ---------------------------------------------------------------------------

#: Paper-scale statistics from Table I, kept for reporting/benchmarks.
PAPER_STATISTICS: Dict[str, Dict[str, float]] = {
    "hetrec-mv": {
        "users": 2107, "items": 3872, "tags": 2071,
        "ui": 471482, "ui_density": 5.78, "ui_avg_degree": 223.77,
        "it": 38742, "it_density": 0.48, "it_avg_degree": 10.01,
    },
    "hetrec-fm": {
        "users": 1026, "items": 5817, "tags": 2283,
        "ui": 57976, "ui_density": 0.97, "ui_avg_degree": 56.51,
        "it": 77925, "it_density": 0.59, "it_avg_degree": 13.40,
    },
    "hetrec-del": {
        "users": 1274, "items": 5169, "tags": 4595,
        "ui": 19951, "ui_density": 0.30, "ui_avg_degree": 15.66,
        "it": 62147, "it_density": 0.26, "it_avg_degree": 12.02,
    },
    "citeulike": {
        "users": 4011, "items": 12408, "tags": 1579,
        "ui": 94512, "ui_density": 0.19, "ui_avg_degree": 23.56,
        "it": 125013, "it_density": 0.64, "it_avg_degree": 10.08,
    },
    "lastfm-tag": {
        "users": 18149, "items": 14548, "tags": 6822,
        "ui": 582791, "ui_density": 0.22, "ui_avg_degree": 32.11,
        "it": 97201, "it_density": 0.10, "it_avg_degree": 13.79,
    },
    "amzbook-tag": {
        "users": 50022, "items": 22370, "tags": 2345,
        "ui": 731777, "ui_density": 0.07, "ui_avg_degree": 14.63,
        "it": 246175, "it_density": 0.47, "it_avg_degree": 11.00,
    },
    "yelp-tag": {
        "users": 39856, "items": 26669, "tags": 1073,
        "ui": 1009922, "ui_density": 0.10, "ui_avg_degree": 25.34,
        "it": 569780, "it_density": 1.99, "it_avg_degree": 21.36,
    },
}

#: Generator presets calibrated so that at ``scale=1.0`` the entity counts
#: and average degrees match Table I.  ``mean_user_degree`` matches the
#: per-user interaction average; ``mean_item_tags`` matches ``#IT / |V|``.
PRESETS: Dict[str, SyntheticConfig] = {
    "hetrec-mv": SyntheticConfig(
        name="hetrec-mv", num_users=2107, num_items=3872, num_tags=2071,
        num_factors=8, mean_user_degree=223.77, mean_item_tags=10.0,
        popularity_exponent=0.8,
    ),
    "hetrec-fm": SyntheticConfig(
        name="hetrec-fm", num_users=1026, num_items=5817, num_tags=2283,
        num_factors=8, mean_user_degree=56.51, mean_item_tags=13.4,
    ),
    "hetrec-del": SyntheticConfig(
        name="hetrec-del", num_users=1274, num_items=5169, num_tags=4595,
        num_factors=16, mean_user_degree=15.66, mean_item_tags=12.0,
        popularity_exponent=1.1,
    ),
    "citeulike": SyntheticConfig(
        name="citeulike", num_users=4011, num_items=12408, num_tags=1579,
        num_factors=8, mean_user_degree=23.56, mean_item_tags=10.1,
    ),
    "lastfm-tag": SyntheticConfig(
        name="lastfm-tag", num_users=18149, num_items=14548, num_tags=6822,
        num_factors=8, mean_user_degree=32.11, mean_item_tags=13.8,
    ),
    "amzbook-tag": SyntheticConfig(
        name="amzbook-tag", num_users=50022, num_items=22370, num_tags=2345,
        num_factors=8, mean_user_degree=14.63, mean_item_tags=11.0,
        popularity_exponent=1.2,
    ),
    "yelp-tag": SyntheticConfig(
        name="yelp-tag", num_users=39856, num_items=26669, num_tags=1073,
        num_factors=8, mean_user_degree=25.34, mean_item_tags=21.4,
        popularity_exponent=1.1,
    ),
}

#: Names in the order the paper's tables list them.
DATASET_ORDER = [
    "hetrec-mv",
    "hetrec-fm",
    "hetrec-del",
    "citeulike",
    "lastfm-tag",
    "amzbook-tag",
    "yelp-tag",
]


def preset(name: str, scale: Optional[float] = None) -> SyntheticConfig:
    """Look up a dataset preset, optionally scaled down.

    Raises:
        KeyError: for unknown dataset names, listing the valid choices.
    """
    key = name.lower()
    if key not in PRESETS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(PRESETS)}"
        )
    config = PRESETS[key]
    if scale is not None and scale != 1.0:
        config = config.scaled(scale)
    return config


def generate_preset(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    return_ground_truth: bool = False,
):
    """Generate a preset dataset at the given scale."""
    return generate(
        preset(name, scale), seed=seed, return_ground_truth=return_ground_truth
    )
