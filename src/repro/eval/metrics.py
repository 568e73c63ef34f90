"""Ranking metrics for top-N recommendation.

The paper reports Recall@N and NDCG@N (Section V.B); precision, hit
rate, and MAP are included for completeness.  All metrics operate on a
ranked list of recommended item ids and the set of held-out relevant
items for one user, then get averaged over users by the evaluator.

Two selections produce those lists: :func:`rank_items` ranks one score
row (serving and the per-user reference evaluation), and
:func:`top_k_rows` ranks a whole chunk of rows for the vectorized
evaluator.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np


#: Lanes of :func:`top_k_rows`' prefilter (see there).
TOP_K_LANES = 16


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
    for rank, item in enumerate(ranked[:n]):  # lint: reference-path
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
    for rank, item in enumerate(ranked[:n]):  # lint: reference-path
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

    The vectorized evaluator's kernel agrees row for row: on a chunk
    whose excluded entries are set to ``-inf``, the ids of
    :func:`top_k_rows` with finite values are this ranking
    (``tests/eval/test_top_k_rows.py``).
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


def _top_k_sorted(scores: np.ndarray, k: int):
    """Row-wise top ``k`` by full-row selection: negate, ``argpartition``
    at ``k - 1``, then ``argsort`` the selected prefix (``rank_items``'
    sequence on a 2-D array).  Returns ``(ids, values)``."""
    negated = -scores
    part = np.argpartition(negated, k - 1, axis=1)[:, :k]
    order = np.argsort(np.take_along_axis(negated, part, axis=1), axis=1)
    ids = np.take_along_axis(part, order, axis=1)
    return ids, np.take_along_axis(scores, ids, axis=1)


def top_k_rows(scores: np.ndarray, k: int):
    """The ``k`` best entries of every row, best first: ``(ids, values)``.

    Returns exactly what negating ``scores``, ``argpartition``-ing each
    row at ``k - 1`` and ``argsort``-ing the selected prefix returns
    (ids and values, ties, ``NaN`` and ``±inf`` included), with ``k``
    clipped to the row length.  ``values`` are the entries of
    ``scores`` at ``ids``.

    Prefilter: row ``r`` is read as :data:`TOP_K_LANES` contiguous lanes
    of ``w = n // TOP_K_LANES`` items; block ``j`` holds item ``j`` of
    every lane, and one elementwise maximum across the lanes gives
    every block's maximum.  An item outside the ``k`` blocks with the
    largest maxima has ``k`` block maxima at least as large, from
    ``k`` other items, so when values are distinct those blocks hold
    the whole top ``k``: the selection then runs over their
    ``TOP_K_LANES * k`` items plus the ``n % TOP_K_LANES`` tail instead
    of the whole row.  A row is ranked by full-row selection instead
    when the fast answer may depend on how ties are broken:

    - a candidate is ``NaN``;
    - two selected values are equal;
    - more than ``k`` candidates reach the ``k``-th value;
    - more than ``k`` block maxima reach the ``k``-th value (an item
      outside the candidates may then tie with, or beat, it).

    Rows shorter than ``TOP_K_LANES * k`` use full-row selection
    directly.  ``scores`` is never written to.
    """
    scores = np.ascontiguousarray(scores)
    rows, n = scores.shape
    k = min(int(k), n)
    if k <= 0:
        return np.empty((rows, 0), dtype=np.intp), scores[:, :0].copy()
    if n < TOP_K_LANES * k:
        return _top_k_sorted(scores, k)
    width = n // TOP_K_LANES
    body = TOP_K_LANES * width
    block_max = scores[:, :body].reshape(rows, TOP_K_LANES, width).max(axis=1)
    blocks = np.argpartition(block_max, width - k, axis=1)[:, width - k :]
    # Candidates as indices into the flattened chunk: item j + l * width
    # of every selected block j and lane l, then the tail.
    row_start = np.arange(0, rows * n, n, dtype=np.intp)[:, None]
    lanes = np.arange(0, body, width, dtype=np.intp)[:, None]
    flat = ((blocks + row_start)[:, None, :] + lanes).reshape(rows, -1)
    if body < n:
        tail = row_start + np.arange(body, n, dtype=np.intp)
        flat = np.concatenate([flat, tail], axis=1)
    cand_values = scores.reshape(-1).take(flat)
    c = flat.shape[1]
    pick = np.argpartition(cand_values, c - k, axis=1)[:, c - k :]
    picked = np.take_along_axis(cand_values, pick, axis=1)
    order = np.argsort(picked, axis=1)[:, ::-1]
    values = np.take_along_axis(picked, order, axis=1)
    ids = np.take_along_axis(flat, pick, axis=1)
    ids = np.take_along_axis(ids, order, axis=1) - row_start
    kth = values[:, -1:]
    tied = (
        # NaN sorts above every number, so a NaN candidate is selected
        # and ranked first.
        np.isnan(values[:, 0])
        | (values[:, 1:] == values[:, :-1]).any(axis=1)
        | (np.count_nonzero(cand_values >= kth, axis=1) > k)
        | (np.count_nonzero(block_max >= kth, axis=1) > k)
    )
    if tied.any():
        redo = np.flatnonzero(tied)
        ids[redo], values[redo] = _top_k_sorted(scores[redo], k)
    return ids, values
