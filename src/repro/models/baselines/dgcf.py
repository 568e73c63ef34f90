"""DGCF baseline (Wang et al., 2020): disentangled graph CF.

The paper's intent-aware initialisation (Section IV.A.1) "follows [10]"
— this model.  DGCF splits user/item embeddings into ``K`` intent
chunks and propagates each chunk over its own *intent-weighted* graph:
the weight of edge ``(u, v)`` in channel ``k`` grows with the affinity
of the two endpoints' ``k``-th chunks, and the channels compete through
a softmax over intents per edge.  An independence regulariser keeps the
channels distinct.

This implementation keeps DGCF's defining loop — per-edge intent
routing re-estimated from the current embeddings each epoch — with a
single propagation layer per channel, and exposes the standard
:class:`Recommender` contract so it slots into the harness.  It is a
natural extra baseline for Table II: IMCAT's IRM without the
multi-source alignment.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...nn import Tensor, concat, no_grad, sparse_matmul
from ...nn import functional as F
from ...nn.sparse import row_normalize
from ..base import Recommender
from ...core.intents import independence_loss, validate_intent_dims


class DGCF(Recommender):
    """Disentangled graph collaborative filtering.

    Args:
        num_users / num_items: entity counts.
        interactions: ``(user_ids, item_ids)`` training edges.
        embed_dim: total embedding size ``d``.
        num_intents: number of disentangled channels ``K``.
        independence_weight: weight of the channel-independence loss.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        interactions,
        embed_dim: int = 64,
        num_intents: int = 4,
        num_layers: int = 2,
        independence_weight: float = 0.01,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(num_users, num_items, embed_dim, rng)
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.num_intents = num_intents
        self.num_layers = num_layers
        self.intent_dim = validate_intent_dims(embed_dim, num_intents)
        self.independence_weight = independence_weight
        user_ids, item_ids = map(np.asarray, interactions)
        self._edges = (user_ids, item_ids)
        self._channel_adjs: list[sp.csr_matrix] | None = None
        self._block_adj: sp.csr_matrix | None = None
        self.refresh_epoch(0)

    # ------------------------------------------------------------------
    # intent routing
    # ------------------------------------------------------------------
    def refresh_epoch(self, epoch: int) -> None:
        """Re-estimate per-edge intent weights from current embeddings.

        For every edge and intent, the logit is the inner product of the
        endpoints' intent chunks; a softmax over intents routes the edge
        mass.  Each channel's bipartite adjacency is then row-normalised.
        """
        user_ids, item_ids = self._edges
        with no_grad():
            u = self.user_embedding.all().data[user_ids]
            v = self.item_embedding.all().data[item_ids]
            k, dim = self.num_intents, self.intent_dim
            # One strided view per side: logits[e, i] = u_i(e) · v_i(e).
            logits = (
                u.reshape(len(user_ids), k, dim)
                * v.reshape(len(user_ids), k, dim)
            ).sum(axis=2)
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)

        total = self.num_users + self.num_items
        adjs = []
        for intent in range(k):
            w = weights[:, intent]
            rows = np.concatenate([user_ids, item_ids + self.num_users])
            cols = np.concatenate([item_ids + self.num_users, user_ids])
            data = np.concatenate([w, w])
            adj = sp.coo_matrix((data, (rows, cols)), shape=(total, total))
            adjs.append(row_normalize(adj.tocsr()))
        self._channel_adjs = adjs
        # All K channels propagate through one block-diagonal operator
        # over channel-major stacked chunks (see propagate()).
        self._block_adj = sp.block_diag(adjs, format="csr")
        self.begin_step()

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def propagate(self):
        """Multi-layer disentangled propagation per channel; concat chunks.

        Each channel runs ``num_layers`` propagation steps through its
        intent-routed graph and averages all layers (including layer 0),
        the original DGCF/LightGCN layer-combination rule.

        The K per-channel propagations run as *one* sparse matmul per
        layer: chunks are stacked channel-major into a ``(K·N, d/K)``
        matrix and pushed through the block-diagonal adjacency, so the
        work per layer no longer grows a Python loop with K.
        """
        ego = concat(
            [self.user_embedding.all(), self.item_embedding.all()], axis=0
        )
        k, dim = self.num_intents, self.intent_dim
        n = self.num_users + self.num_items
        chunk = ego.reshape(n, k, dim).transpose(1, 0, 2).reshape(k * n, dim)
        layers = [chunk]
        current = chunk
        for _ in range(self.num_layers):
            current = sparse_matmul(self._block_adj, current)
            layers.append(current)
        total = layers[0]
        for layer in layers[1:]:
            total = total + layer
        total = total * (1.0 / len(layers))
        final = total.reshape(k, n, dim).transpose(1, 0, 2).reshape(n, k * dim)
        users = final[np.arange(self.num_users)]
        items = final[
            np.arange(self.num_users, self.num_users + self.num_items)
        ]
        return users, items

    def propagate_reference(self):  # lint: reference-path
        """Per-channel loop implementation of :meth:`propagate`, kept as
        the equivalence baseline for tests and the hot-path benchmarks."""
        ego = concat(
            [self.user_embedding.all(), self.item_embedding.all()], axis=0
        )
        dim = self.intent_dim
        channels = []
        for intent in range(self.num_intents):
            chunk = ego[:, intent * dim : (intent + 1) * dim]
            layers = [chunk]
            current = chunk
            for _ in range(self.num_layers):
                current = sparse_matmul(self._channel_adjs[intent], current)
                layers.append(current)
            total = layers[0]
            for layer in layers[1:]:
                total = total + layer
            channels.append(total * (1.0 / len(layers)))
        final = concat(channels, axis=1)
        users = final[np.arange(self.num_users)]
        items = final[
            np.arange(self.num_users, self.num_users + self.num_items)
        ]
        return users, items

    def extra_loss(self, rng: np.random.Generator) -> Tensor:
        """Independence across intent chunks on a sampled item batch."""
        items = rng.choice(self.num_items, size=min(256, self.num_items),
                           replace=False)
        batch = F.embedding_lookup(self.item_embedding.all(), items)
        return (
            independence_loss(batch, self.num_intents, dim=self.intent_dim)
            * self.independence_weight
        )
