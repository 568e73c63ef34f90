"""Intent-level explanation of recommendations.

One motivation for IRM (Section IV.A) is interpretability: with user
and item embeddings decomposed into ``K`` intent sub-embeddings, the
relevance score of an inner-product scorer decomposes exactly as

    y(u, v) = sum_k  u^k . v^k

so each intent's share of the score is observable, and each intent is
anchored to a concrete tag cluster.  This module exposes that
decomposition plus per-cluster tag summaries, turning "user u was
recommended item v" into "…mostly due to intent 2, whose tags are
{delicious, yummy, …}".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn import no_grad
from .imcat import IMCAT
from .intents import split_intents


@dataclass(frozen=True)
class IntentExplanation:
    """Per-intent decomposition of one user-item relevance score."""

    user: int
    item: int
    total_score: float
    intent_scores: np.ndarray  # (K,)
    item_tag_counts: np.ndarray  # (K,) |T^k(v)|

    @property
    def dominant_intent(self) -> int:
        """The intent contributing the largest score share."""
        return int(np.argmax(self.intent_scores))

    def shares(self) -> np.ndarray:
        """Softmax-normalised intent contributions (sums to 1)."""
        scores = self.intent_scores - self.intent_scores.max()
        exps = np.exp(scores)
        return exps / exps.sum()


def explain_pair(model: IMCAT, user: int, item: int) -> IntentExplanation:
    """Decompose ``y(u, v)`` into per-intent contributions.

    Uses the backbone's final representations; exact for inner-product
    scorers (BPRMF, LightGCN) and a first-order attribution for NeuMF.
    """
    k = model.config.num_intents
    with no_grad():
        u_vec = model.backbone.user_repr().data[user]
        v_vec = model.backbone.item_repr().data[item]
    u_blocks = split_intents(u_vec[None, :], k)[0]  # (K, d/K)
    v_blocks = split_intents(v_vec[None, :], k)[0]
    intent_scores = (u_blocks * v_blocks).sum(axis=1)
    tags = model._tags_of_item[item]
    counts = np.zeros(k, dtype=np.int64)
    if len(tags):
        np.add.at(counts, model.tag_clusters[tags], 1)
    return IntentExplanation(
        user=user,
        item=item,
        total_score=float(intent_scores.sum()),
        intent_scores=intent_scores,
        item_tag_counts=counts,
    )


def cluster_summary(
    model: IMCAT,
    tag_names: Optional[Dict[int, str]] = None,
    top: int = 8,
) -> List[Dict[str, object]]:
    """Summarise each tag cluster: size and most central member tags.

    Centrality is the distance to the learned cluster centre (or the
    cluster mean when end-to-end clustering is disabled).

    Args:
        model: a trained :class:`IMCAT`.
        tag_names: optional id -> name mapping for readable output.
        top: number of member tags to list per cluster.
    """
    embeddings = model.tag_embedding.weight.data
    clusters = model.tag_clusters
    summaries: List[Dict[str, object]] = []
    for k in range(model.config.num_intents):
        members = np.where(clusters == k)[0]
        if len(members) == 0:
            summaries.append({"intent": k, "size": 0, "tags": []})
            continue
        if model.config.use_end_to_end_clustering:
            center = model.clustering.centers.data[k]
        else:
            center = embeddings[members].mean(axis=0)
        distances = np.linalg.norm(embeddings[members] - center, axis=1)
        order = members[np.argsort(distances)][:top]
        names = [
            tag_names.get(int(t), f"tag{t}") if tag_names else f"tag{int(t)}"
            for t in order
        ]
        summaries.append({"intent": k, "size": int(len(members)), "tags": names})
    return summaries


def explain_recommendations(
    model: IMCAT,
    user: int,
    items: Sequence[int],
) -> List[IntentExplanation]:
    """Explain a ranked list of recommendations for one user."""
    return [explain_pair(model, user, int(item)) for item in items]
