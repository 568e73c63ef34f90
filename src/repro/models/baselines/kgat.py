"""KGAT baseline (Wang et al., 2019): knowledge graph attention network.

KGAT unifies the collaborative graph and the KG into one
collaborative-knowledge graph and runs attentive graph convolution,
with attention coefficients

    pi(h, r, t) = (W e_t)^T tanh(W e_h + r)

learned jointly with a TransR objective.  Here the graph spans
user-item and item-tag edges (tag-as-KG convention); attention is
recomputed at every epoch from the current embeddings (a standard
efficiency choice — KGAT itself alternates attention refresh and
propagation phases), and the TransR loss rides on ``extra_loss``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...data.dataset import TagRecDataset
from ...nn import Linear, Parameter, Tensor, concat, no_grad, sparse_matmul
from ...nn import functional as F
from ...nn.init import xavier_uniform
from ...nn.sparse import row_normalize
from ..base import TagAwareRecommender


class KGAT(TagAwareRecommender):
    """Attentive convolution over the collaborative-knowledge graph.

    Args:
        dataset: supplies tag edges; pass training interactions so test
            edges never enter the graph.
        train_interactions: ``(user_ids, item_ids)``.
        num_layers: propagation depth (paper setup: 2).
        kg_weight: TransR loss weight.
    """

    def __init__(
        self,
        dataset: TagRecDataset,
        train_interactions=None,
        embed_dim: int = 64,
        num_layers: int = 2,
        kg_weight: float = 1.0,
        kg_batch_size: int = 512,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(dataset, embed_dim, rng)
        self.num_layers = num_layers
        self.kg_weight = kg_weight
        self.kg_batch_size = kg_batch_size
        self.attention_proj = Linear(embed_dim, embed_dim, rng, bias=False)
        self.relation_ui = Parameter(xavier_uniform((embed_dim,), rng))
        self.relation_it = Parameter(xavier_uniform((embed_dim,), rng))
        if train_interactions is None:
            user_ids, item_ids = dataset.user_ids, dataset.item_ids
        else:
            user_ids, item_ids = map(np.asarray, train_interactions)
        self._edges = self._collect_edges(dataset, user_ids, item_ids)
        self._num_nodes = dataset.num_users + dataset.num_items + dataset.num_tags
        self._adjacency: sp.csr_matrix | None = None
        self._pairs_items = dataset.tag_item_ids
        self._pairs_tags = dataset.tag_ids
        self.refresh_epoch(0)

    def _collect_edges(self, dataset, user_ids, item_ids):
        """Directed edge list (head, tail, relation_id) over all nodes."""
        n_u, n_v = dataset.num_users, dataset.num_items
        heads = np.concatenate([
            user_ids,                       # user -> item
            item_ids + n_u,                 # item -> user
            dataset.tag_item_ids + n_u,     # item -> tag
            dataset.tag_ids + n_u + n_v,    # tag -> item
        ])
        tails = np.concatenate([
            item_ids + n_u,
            user_ids,
            dataset.tag_ids + n_u + n_v,
            dataset.tag_item_ids + n_u,
        ])
        relations = np.concatenate([
            np.zeros(len(user_ids), dtype=np.int64),
            np.zeros(len(item_ids), dtype=np.int64),
            np.ones(len(dataset.tag_item_ids), dtype=np.int64),
            np.ones(len(dataset.tag_ids), dtype=np.int64),
        ])
        return heads, tails, relations

    def _all_entities(self) -> np.ndarray:
        return np.vstack([
            self.user_embedding.all().data,
            self.item_embedding.all().data,
            self.tag_embedding.all().data,
        ])

    def refresh_epoch(self, epoch: int) -> None:
        """Recompute attention coefficients into a row-softmax adjacency."""
        with no_grad():
            entities = self._all_entities()
            heads, tails, relations = self._edges
            w = self.attention_proj.weight.data
            rel = np.where(
                relations[:, None] == 0,
                self.relation_ui.data[None, :],
                self.relation_it.data[None, :],
            )
            head_term = np.tanh(entities[heads] @ w.T + rel)
            tail_term = entities[tails] @ w.T
            logits = (head_term * tail_term).sum(axis=1)
            # Row-wise softmax via exp + row normalisation (stable shift).
            logits -= logits.max()
            weights = np.exp(logits)
            adj = sp.coo_matrix(
                (weights, (heads, tails)),
                shape=(self._num_nodes, self._num_nodes),
            ).tocsr()
            self._adjacency = row_normalize(adj)
        self.begin_step()

    def propagate(self):
        ego = concat(
            [
                self.user_embedding.all(),
                self.item_embedding.all(),
                self.tag_embedding.all(),
            ],
            axis=0,
        )
        layers = [ego]
        current = ego
        for _ in range(self.num_layers):
            current = sparse_matmul(self._adjacency, current)
            layers.append(current)
        total = layers[0]
        for layer in layers[1:]:
            total = total + layer
        final = total * (1.0 / len(layers))
        n_u, n_v = self.num_users, self.num_items
        return (
            final[np.arange(n_u)],
            final[np.arange(n_u, n_u + n_v)],
            final[np.arange(n_u + n_v, self._num_nodes)],
        )

    def tag_repr(self) -> Tensor:
        return self._cached()[2]

    def extra_loss(self, rng: np.random.Generator) -> Tensor:
        """TransR ranking loss over sampled item-tag triples."""
        n = min(self.kg_batch_size, len(self._pairs_items))
        index = rng.integers(0, len(self._pairs_items), size=n)
        items = self._pairs_items[index]
        pos_tags = self._pairs_tags[index]
        neg_tags = rng.integers(0, self.num_tags, size=n)

        def score(tags):
            v = self.attention_proj(self.item_embedding(items))
            t = self.attention_proj(self.tag_embedding(tags))
            diff = v + self.relation_it - t
            return -(diff * diff).sum(axis=1)

        return F.bpr_loss(score(pos_tags), score(neg_tags)) * self.kg_weight
