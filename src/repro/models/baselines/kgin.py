"""KGIN baseline (Wang et al., 2021): intents behind interactions.

KGIN models each user-item interaction as a distribution over latent
intents, where every intent is an attentive combination of KG relation
embeddings, and enforces intent independence.  With tags as relations,
each intent ``p_k`` is a softmax-weighted combination of tag embeddings;
users aggregate their items through intent channels, items aggregate
their tags — a relational path-aware aggregation of depth two.

KGIN is the closest competitor to IMCAT (it also models intents) but
couples them to GNN message passing rather than contrastive alignment.
"""

from __future__ import annotations

import numpy as np

from ...data.dataset import TagRecDataset
from ...nn import Parameter, Tensor, sparse_matmul
from ...nn import functional as F
from ...nn.init import xavier_uniform
from ...nn.sparse import build_interaction_matrix, row_normalize
from ..base import TagAwareRecommender


class KGIN(TagAwareRecommender):
    """Intent-aware relational aggregation over user-item-tag relations.

    Args:
        dataset: supplies tag assignments.
        train_interactions: ``(user_ids, item_ids)`` training edges.
        num_intents: latent intents (paper's own K; default 4).
        independence_weight: weight of the intent-independence loss.
    """

    def __init__(
        self,
        dataset: TagRecDataset,
        train_interactions=None,
        embed_dim: int = 64,
        num_intents: int = 4,
        independence_weight: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(dataset, embed_dim, rng)
        self.num_intents = num_intents
        self.independence_weight = independence_weight
        # Intent-over-relation attention logits (K x |T|).
        self.intent_logits = Parameter(
            xavier_uniform((num_intents, dataset.num_tags), rng)
        )
        # Per-user intent preference logits (|U| x K).
        self.user_intent_logits = Parameter(
            np.zeros((dataset.num_users, num_intents))
        )
        if train_interactions is None:
            user_ids, item_ids = dataset.user_ids, dataset.item_ids
        else:
            user_ids, item_ids = map(np.asarray, train_interactions)
        ui = build_interaction_matrix(
            user_ids, item_ids, dataset.num_users, dataset.num_items
        )
        it = build_interaction_matrix(
            dataset.tag_item_ids, dataset.tag_ids,
            dataset.num_items, dataset.num_tags,
        )
        self._u_from_v = row_normalize(ui)
        self._v_from_t = row_normalize(it)

    def intent_vectors(self) -> Tensor:
        """``(K, d)`` intents as attentive combinations of tag embeddings."""
        attention = F.softmax(self.intent_logits, axis=1)
        return attention @ self.tag_embedding.all()

    def propagate(self):
        """Two-stage relational aggregation; returns (users, items)."""
        v0 = self.item_embedding.all()
        t0 = self.tag_embedding.all()
        # Items aggregate their tags (relational message).
        v1 = v0 + sparse_matmul(self._v_from_t, t0)
        # Users aggregate items through intent channels:
        # u = sum_k beta_{u,k} * (agg_{i in N(u)} p_k * v_i)
        #   = base * (beta @ intents) — the per-intent sum collapses to
        # one matmul because every channel shares the same base message.
        intents = self.intent_vectors()  # (K, d)
        beta = F.softmax(self.user_intent_logits, axis=1)  # (|U|, K)
        base = sparse_matmul(self._u_from_v, v1)  # (|U|, d)
        u1 = base * (beta @ intents)
        u_final = (self.user_embedding.all() + u1) * 0.5
        v_final = (v0 + v1) * 0.5
        return u_final, v_final

    def propagate_reference(self):  # lint: reference-path
        """Per-intent loop implementation of :meth:`propagate`, kept as
        the equivalence baseline for tests and the hot-path benchmarks."""
        v0 = self.item_embedding.all()
        t0 = self.tag_embedding.all()
        v1 = v0 + sparse_matmul(self._v_from_t, t0)
        intents = self.intent_vectors()
        beta = F.softmax(self.user_intent_logits, axis=1)
        base = sparse_matmul(self._u_from_v, v1)
        u1 = None
        for k in range(self.num_intents):
            channel = base * intents[np.array([k])]  # (|U|, d)
            weighted = channel * beta[:, np.array([k])]
            u1 = weighted if u1 is None else u1 + weighted
        u_final = (self.user_embedding.all() + u1) * 0.5
        v_final = (v0 + v1) * 0.5
        return u_final, v_final

    def independence_loss(self) -> Tensor:
        """Pairwise squared cosine between intent vectors.

        A cheap stand-in for KGIN's distance-correlation regulariser with
        the same fixed point (mutually orthogonal intents).
        """
        intents = F.l2_normalize(self.intent_vectors())
        gram = intents @ intents.T  # (K, K)
        off_diag_mask = 1.0 - np.eye(self.num_intents)
        return ((gram * Tensor(off_diag_mask)) ** 2).sum() * (
            1.0 / max(self.num_intents * (self.num_intents - 1), 1)
        )

    def extra_loss(self, rng: np.random.Generator) -> Tensor:
        return self.independence_loss() * self.independence_weight
