"""TGCN baseline (Chen et al., 2020): tag graph convolutional network.

TGCN builds one unified graph over user, item, and tag nodes and runs
type-aware neighbour aggregation: an item aggregates its user neighbours
and its tag neighbours *separately* before mixing the type-specific
messages.  This implementation follows the LightGCN simplification the
paper applies to all GNN methods (no feature transforms, two layers)
while keeping TGCN's defining type-aware mixing, realised as learnable
per-type scalars.
"""

from __future__ import annotations

import numpy as np

from ...data.dataset import TagRecDataset
from ...nn import Parameter, Tensor, sparse_matmul
from ...nn import functional as F
from ...nn.sparse import build_interaction_matrix, row_normalize
from ..base import TagAwareRecommender


class TGCN(TagAwareRecommender):
    """Type-aware graph convolution over the user-item-tag graph.

    Args:
        dataset: supplies both the interaction and tag graphs (training
            interactions only).
        train_interactions: ``(user_ids, item_ids)`` for the propagation
            graph; defaults to the dataset's interactions.
        embed_dim: embedding size.
        num_layers: propagation depth (paper: 2).
    """

    def __init__(
        self,
        dataset: TagRecDataset,
        train_interactions=None,
        embed_dim: int = 64,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(dataset, embed_dim, rng)
        self.num_layers = num_layers
        if train_interactions is None:
            user_ids, item_ids = dataset.user_ids, dataset.item_ids
        else:
            user_ids, item_ids = train_interactions
        ui = build_interaction_matrix(
            np.asarray(user_ids), np.asarray(item_ids),
            dataset.num_users, dataset.num_items,
        )
        it = build_interaction_matrix(
            dataset.tag_item_ids, dataset.tag_ids,
            dataset.num_items, dataset.num_tags,
        )
        # Row-stochastic per-relation propagation operators.
        self._u_from_v = row_normalize(ui)           # users <- items
        self._v_from_u = row_normalize(ui.T.tocsr())  # items <- users
        self._v_from_t = row_normalize(it)           # items <- tags
        self._t_from_v = row_normalize(it.T.tocsr())  # tags <- items
        # Type-aware mixing weights (softmax over message types per layer).
        self.type_logits = Parameter(np.zeros((num_layers, 2)))

    def propagate(self):
        """Type-aware message passing; returns (user, item, tag) tensors."""
        u = self.user_embedding.all()
        v = self.item_embedding.all()
        t = self.tag_embedding.all()
        u_layers, v_layers, t_layers = [u], [v], [t]
        for layer in range(self.num_layers):
            mix = F.softmax(self.type_logits[layer].reshape(1, 2), axis=1)
            w_user = mix[0, 0].reshape(1, 1)
            w_tag = mix[0, 1].reshape(1, 1)
            u_next = sparse_matmul(self._u_from_v, v)
            v_from_users = sparse_matmul(self._v_from_u, u)
            v_from_tags = sparse_matmul(self._v_from_t, t)
            v_next = v_from_users * w_user + v_from_tags * w_tag
            t_next = sparse_matmul(self._t_from_v, v)
            u, v, t = u_next, v_next, t_next
            u_layers.append(u)
            v_layers.append(v)
            t_layers.append(t)

        def average(layers):
            total = layers[0]
            for layer in layers[1:]:
                total = total + layer
            return total * (1.0 / len(layers))

        return average(u_layers), average(v_layers), average(t_layers)

    def tag_repr(self) -> Tensor:
        return self._cached()[2]
