"""LightGCN backbone (He et al., 2020).

The GNN backbone of the paper (Section V.C; two convolution layers for
all GNN methods, Section V.D).  LightGCN removes feature transforms and
non-linearities from graph convolution: each layer multiplies the
stacked user/item embeddings by the symmetric-normalised bipartite
adjacency, and the final representation is the mean over layers
(including layer 0).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..nn import Tensor, concat, sparse_matmul
from ..nn.sparse import build_interaction_matrix, normalized_bipartite_adjacency
from .base import Recommender


class LightGCN(Recommender):
    """Simplified graph convolution collaborative filtering.

    Args:
        num_users / num_items: entity counts.
        interactions: training interactions as ``(user_ids, item_ids)``
            arrays or a prebuilt CSR matrix.
        embed_dim: embedding size ``d``.
        num_layers: propagation depth (paper: 2).
        rng: initialisation RNG.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        interactions,
        embed_dim: int = 64,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(num_users, num_items, embed_dim, rng)
        if num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {num_layers}")
        self.num_layers = num_layers
        if isinstance(interactions, sp.spmatrix):
            matrix = interactions.tocsr()
        else:
            user_ids, item_ids = interactions
            matrix = build_interaction_matrix(
                np.asarray(user_ids), np.asarray(item_ids), num_users, num_items
            )
        self.adjacency = normalized_bipartite_adjacency(matrix)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def propagate(self) -> tuple[Tensor, Tensor]:
        """Run ``num_layers`` propagation steps; returns (users, items).

        The result participates in autograd; readers share it through
        the base class's cache (see :mod:`repro.models.base`).
        """
        ego = concat([self.user_embedding.all(), self.item_embedding.all()], axis=0)
        layers = [ego]
        current = ego
        for _ in range(self.num_layers):
            current = sparse_matmul(self.adjacency, current)
            layers.append(current)
        stacked = layers[0]
        for layer in layers[1:]:
            stacked = stacked + layer
        final = stacked * (1.0 / len(layers))
        users = final[: self.num_users]
        items = final[self.num_users : self.num_users + self.num_items]
        return users, items
