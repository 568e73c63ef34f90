"""ISA: intent-aware set-to-set alignment (Section IV.C).

For each intent ``k`` two items are *similar* when the Jaccard index of
their cluster-``k`` tag sets exceeds the threshold ``delta`` (Eq. 15).
Similar items widen each other's positive sets in the contrastive loss
(Eqs. 16-17), which multiplies the supervision received by long-tail
items — the items sharing tags with a cold item lend it their users.

The similarity structure is stored as one boolean CSR matrix per intent
and recomputed whenever the hard tag-cluster memberships change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp


def cluster_tag_matrix(
    tags_of_item: Sequence[np.ndarray],
    tag_clusters: np.ndarray,
    intent: int,
    num_items: int,
    num_tags: int,
) -> sp.csr_matrix:
    """Binary item x tag matrix restricted to one cluster's tags.

    One array pass over the concatenated item -> tag lists; a tag listed
    twice for an item sums to 2, as in any COO -> CSR conversion.
    """
    lists = tags_of_item[:num_items]
    lengths = np.fromiter(map(len, lists), dtype=np.intp, count=num_items)
    # The leading empty block types an all-empty (or empty) list as int.
    tags = np.concatenate([np.empty(0, dtype=np.intp), *lists]).astype(
        np.intp, copy=False
    )
    items = np.repeat(np.arange(num_items), lengths)
    keep = tag_clusters[tags] == intent
    return sp.coo_matrix(
        (np.ones(int(keep.sum())), (items[keep], tags[keep])),
        shape=(num_items, num_tags),
    ).tocsr()


def jaccard_similar_pairs(
    membership: sp.csr_matrix, threshold: float
) -> sp.csr_matrix:
    """Boolean item x item matrix of pairs with Jaccard > ``threshold``.

    Eq. (15): ``s_{j,j'} = |T(j) ∩ T(j')| / |T(j) ∪ T(j')|``.  Only pairs
    with non-empty intersection can pass a positive threshold, so the
    sparse product ``B B^T`` enumerates exactly the candidates.  The
    diagonal (self pairs) is excluded — Eq. 17 already counts the item's
    own pairing.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    sizes = np.asarray(membership.sum(axis=1)).ravel()
    intersection = (membership @ membership.T).tocoo()
    rows, cols, inter = intersection.row, intersection.col, intersection.data
    union = sizes[rows] + sizes[cols] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard = np.where(union > 0, inter / np.maximum(union, 1e-12), 0.0)
    keep = (jaccard > threshold) & (rows != cols)
    result = sp.coo_matrix(
        (np.ones(keep.sum(), dtype=bool), (rows[keep], cols[keep])),
        shape=intersection.shape,
    )
    return result.tocsr()


class SetToSetIndex:
    """Per-intent similar-item structure with positive sampling.

    Args:
        tags_of_item: per-item tag index arrays.
        tag_clusters: hard cluster membership per tag.
        num_intents: K.
        num_items / num_tags: entity counts.
        threshold: the Jaccard threshold ``delta``.
    """

    def __init__(
        self,
        tags_of_item: Sequence[np.ndarray],
        tag_clusters: np.ndarray,
        num_intents: int,
        num_items: int,
        num_tags: int,
        threshold: float,
    ) -> None:
        self.num_intents = num_intents
        self.threshold = threshold
        self._similar: List[sp.csr_matrix] = []
        for k in range(num_intents):
            membership = cluster_tag_matrix(
                tags_of_item, tag_clusters, k, num_items, num_tags
            )
            self._similar.append(jaccard_similar_pairs(membership, threshold))

    def similar_items(self, item: int, intent: int) -> np.ndarray:
        """``S_j^k``: indices of items similar to ``item`` under ``intent``."""
        matrix = self._similar[intent]
        start, stop = matrix.indptr[item], matrix.indptr[item + 1]
        return matrix.indices[start:stop]

    def num_similar(self, intent: int) -> int:
        """Total number of similar pairs recorded for one intent."""
        return int(self._similar[intent].nnz)

    def batch_positive_mask(
        self,
        item_batch: np.ndarray,
        intent: int,
        rng: np.random.Generator,
        max_positives: int = 4,
    ) -> Optional[np.ndarray]:
        """In-batch positive mask for Eq. (17), ``(B, B)`` boolean.

        ``mask[a, b]`` marks batch position ``b`` as a positive for the
        anchor at position ``a``: either the same item or a sampled
        member of ``P_a^k`` (at most ``max_positives`` per anchor).
        Returns ``None`` when the batch contains no similar pair, so the
        caller can skip mask handling entirely.
        """
        block = self._similar[intent][item_batch][:, item_batch]
        if block.nnz == 0:
            return None
        mask = np.asarray(block.todense(), dtype=bool)
        np.fill_diagonal(mask, False)
        # Cap |P_j^k| by down-sampling only the (few) over-budget rows.
        counts = mask.sum(axis=1)
        for row in np.where(counts > max_positives)[0]:
            cols = np.where(mask[row])[0]
            keep = rng.choice(cols, size=max_positives, replace=False)
            mask[row] = False
            mask[row, keep] = True
        mask |= np.eye(len(item_batch), dtype=bool)
        return mask
