"""Ranking metrics for top-N recommendation.

The paper reports Recall@N and NDCG@N (Section V.B); precision, hit
rate, and MAP are included for completeness.  All metrics operate on a
ranked list of recommended item ids and the set of held-out relevant
items for one user, then get averaged over users by the evaluator.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np


def recall_at_n(ranked: Sequence[int], relevant: Set[int], n: int) -> float:
    """Fraction of the relevant items that appear in the top-``n``."""
    if not relevant:
        return 0.0
    hits = sum(1 for item in ranked[:n] if item in relevant)
    return hits / len(relevant)


def precision_at_n(ranked: Sequence[int], relevant: Set[int], n: int) -> float:
    """Fraction of the top-``n`` recommendations that are relevant."""
    if n <= 0:
        return 0.0
    hits = sum(1 for item in ranked[:n] if item in relevant)
    return hits / n


def hit_rate_at_n(ranked: Sequence[int], relevant: Set[int], n: int) -> float:
    """1.0 if any relevant item appears in the top-``n``."""
    return 1.0 if any(item in relevant for item in ranked[:n]) else 0.0


def ndcg_at_n(ranked: Sequence[int], relevant: Set[int], n: int) -> float:
    """Normalised discounted cumulative gain with binary relevance.

    The ideal DCG places ``min(|relevant|, n)`` hits at the top of the
    list, which makes the metric 1.0 for a perfect ranking.
    """
    if not relevant:
        return 0.0
    dcg = 0.0
    for rank, item in enumerate(ranked[:n]):
        if item in relevant:
            dcg += 1.0 / np.log2(rank + 2.0)
    ideal_hits = min(len(relevant), n)
    idcg = sum(1.0 / np.log2(rank + 2.0) for rank in range(ideal_hits))
    return dcg / idcg if idcg > 0 else 0.0


def average_precision_at_n(ranked: Sequence[int], relevant: Set[int], n: int) -> float:
    """Mean of precision values at each hit position (MAP component)."""
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranked[:n]):
        if item in relevant:
            hits += 1
            total += hits / (rank + 1.0)
    denom = min(len(relevant), n)
    return total / denom if denom else 0.0


METRIC_FUNCTIONS = {
    "recall": recall_at_n,
    "ndcg": ndcg_at_n,
    "precision": precision_at_n,
    "hit_rate": hit_rate_at_n,
    "map": average_precision_at_n,
}


def rank_items(
    scores: np.ndarray, exclude: Iterable[int], top_n: int
) -> np.ndarray:
    """Return the ``top_n`` item indices by score, skipping ``exclude``.

    ``exclude`` holds the user's training items (any iterable of item
    indices, e.g. a set or an index array): the task definition
    (Section III.A) requires the recommended set to be disjoint from the
    training set.  Implemented with ``argpartition`` for O(|V|) selection
    followed by an O(top_n log top_n) sort, both on the negated scores:
    excluded and ``-inf`` items then tie at ``+inf`` past the selected
    prefix, where ``argpartition`` stays linear however many there are.
    """
    negated = -np.asarray(scores, dtype=np.float64)
    excluded = exclude if isinstance(exclude, np.ndarray) else list(exclude)
    if len(excluded):
        negated[excluded] = np.inf
    k = min(top_n, len(negated))
    top = np.argpartition(negated, k - 1)[:k]
    ranked = top[np.argsort(negated[top])]
    # Excluded items must never be recommended, even when fewer than
    # ``top_n`` candidates remain.
    return ranked[np.isfinite(negated[ranked])]
