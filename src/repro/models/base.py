"""Recommender interface shared by backbones, baselines, and IMCAT.

IMCAT is model-agnostic (Section IV): any model exposing user/item
representations and a pairwise scorer can be wrapped.  The contract is:

- ``propagate()`` — the one method a graph model overrides: its final
  ``(users, items[, tags])`` representations as autograd tensors.  The
  default returns the two embedding tables;
- ``user_repr()`` / ``item_repr()`` — the first two entries of the
  cached ``propagate()`` result;
- ``pair_scores(users, items)`` — differentiable relevance scores
  ``ŷ_{uv}`` for index arrays;
- ``bpr_loss(batch)`` — the ranking loss of Eq. (1) on a triplet batch;
- ``all_scores(users)`` — dense evaluation scores without gradients.

One cache holds the ``propagate()`` result, and every reader above
(plus retrieval and serving, through them) shares it.  It is reused
until an optimizer step, :meth:`~repro.nn.Module.load_state_dict`, a
``begin_step()`` call, or a change of the calling thread's grad mode.
Code that writes parameter ``.data`` directly, or rebuilds a graph that
``propagate()`` reads, must call ``begin_step()`` afterwards.  A backward
releases the graph it consumed, so a cached grad-mode entry that a
backward already went through raises at the next backward instead of
feeding it; the trainers call ``begin_step()`` before every step.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..data.dataset import TagRecDataset
from ..data.sampling import TripletBatch
from ..nn import Embedding, Module, Tensor, is_grad_enabled, no_grad
from ..nn import functional as F


class Recommender(Module):
    """Base class for all recommendation models.

    Args:
        num_users / num_items: entity counts.
        embed_dim: embedding size ``d`` (paper default 64).
        rng: RNG used for Xavier initialisation.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        embed_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if embed_dim <= 0:
            raise ValueError(f"embed_dim must be positive, got {embed_dim}")
        self.num_users = num_users
        self.num_items = num_items
        self.embed_dim = embed_dim
        self.user_embedding = Embedding(num_users, embed_dim, rng)
        self.item_embedding = Embedding(num_items, embed_dim, rng)
        self._cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # representations
    # ------------------------------------------------------------------
    def propagate(self) -> Tuple[Tensor, ...]:
        """Final ``(users, items[, tags])`` representations.

        Graph models override this; the default is the embedding
        tables themselves.
        """
        return self.user_embedding.all(), self.item_embedding.all()

    def _cached(self) -> Tuple[Tensor, ...]:
        """The :meth:`propagate` result for the current parameters.

        The entry is keyed on the grad mode it was built under and the
        version of every parameter.  It is published with one attribute
        assignment, so concurrent readers see a whole entry or none, and
        two threads racing to fill it compute the same values.
        """
        key = (
            is_grad_enabled(),
            tuple(param.version for param in self.parameters()),
        )
        entry = self._cache
        if entry is None or entry[0] != key:
            entry = (key, self.propagate())
            self._cache = entry
        return entry[1]

    def user_repr(self) -> Tensor:
        """Final user representations ``(|U|, d)`` (autograd tensor)."""
        return self._cached()[0]

    def item_repr(self) -> Tensor:
        """Final item representations ``(|V|, d)`` (autograd tensor)."""
        return self._cached()[1]

    def refresh_epoch(self, epoch: int) -> None:
        """Hook called at the start of each epoch (e.g. to re-sample
        augmented graphs in SSL baselines).  Default: no-op."""

    def begin_step(self) -> None:
        """Drop the cached propagation.  Called before each training
        step, so every step's loss is built on a fresh graph.

        A backward releases the graph it consumed (one backward per
        graph), so without this call a second backward through the
        cached grad-mode entry raises :class:`RuntimeError` rather than
        feeding the released graph a second time.
        """
        self._cache = None

    # ------------------------------------------------------------------
    # non-parameter state
    # ------------------------------------------------------------------
    def persistent_buffers(self) -> Dict[str, np.ndarray]:
        """Non-parameter arrays that inference needs (e.g. RippleNet's
        sampled ripple sets).  Saved alongside parameters by
        :func:`repro.io.save_model`.  Default: none."""
        return {}

    def load_persistent_buffers(self, buffers: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`persistent_buffers` output.  Default: rejects
        anything, so archives never silently drop state the model cannot
        absorb."""
        if buffers:
            raise ValueError(
                f"{type(self).__name__} has no persistent buffers but the "
                f"archive carries {sorted(buffers)}"
            )

    def get_extra_state(self) -> Optional[Dict[str, Any]]:
        """Non-parameter *training* state for full checkpoints (e.g. the
        augmentation RNG of SSL baselines).  Default: none.  See
        :mod:`repro.ckpt`."""
        return None

    def set_extra_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`get_extra_state` output on resume."""
        raise ValueError(
            f"{type(self).__name__} carries no extra training state but a "
            f"checkpoint supplied some"
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Differentiable ``ŷ_{uv}`` for aligned index arrays.

        Default implementation: inner product of final representations.
        """
        u = F.embedding_lookup(self.user_repr(), users)
        v = F.embedding_lookup(self.item_repr(), items)
        return (u * v).sum(axis=1)

    def bpr_loss(self, batch: TripletBatch) -> Tensor:
        """Pairwise ranking loss (Eq. 1) on a triplet batch."""
        pos = self.pair_scores(batch.anchors, batch.positives)
        neg = self.pair_scores(batch.anchors, batch.negatives)
        return F.bpr_loss(pos, neg)

    def extra_loss(self, rng: np.random.Generator) -> Optional[Tensor]:
        """Model-specific auxiliary loss added per batch (e.g. TransR for
        CKE, InfoNCE for SGL).  Default: none."""
        return None

    def all_scores(self, users: np.ndarray) -> np.ndarray:
        """Dense scores for evaluation; gradients are not recorded."""
        with no_grad():
            users_final, items_final = self._cached()[:2]
            return users_final.data[users] @ items_final.data.T

    def recommend(
        self,
        user: int,
        top_n: int = 20,
        exclude: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Top-``top_n`` item indices for one user, best first.

        Args:
            user: user index.
            top_n: list length ``N``.
            exclude: item indices to skip (typically the user's training
                items, per the task definition of Section III.A): any
                iterable, e.g. a set or a row of
                ``TagRecDataset.items_of_user()``.
        """
        from ..eval.metrics import rank_items

        scores = self.all_scores(np.array([user]))[0]
        return rank_items(scores, () if exclude is None else exclude, top_n)

    def l2_reg(self, batch: TripletBatch) -> Tensor:
        """Squared L2 norm of the batch's base embeddings (optional
        explicit regulariser; the paper uses optimizer weight decay)."""
        u = self.user_embedding(batch.anchors)
        p = self.item_embedding(batch.positives)
        n = self.item_embedding(batch.negatives)
        return ((u * u).sum() + (p * p).sum() + (n * n).sum()) * (
            0.5 / max(len(batch), 1)
        )


class TagAwareRecommender(Recommender):
    """Base class for models that also embed the tag vocabulary."""

    def __init__(
        self,
        dataset: TagRecDataset,
        embed_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(dataset.num_users, dataset.num_items, embed_dim, rng)
        self.num_tags = dataset.num_tags
        self.tag_embedding = Embedding(dataset.num_tags, embed_dim, rng)

    def tag_repr(self) -> Tensor:
        """Tag representations ``(|T|, d)``."""
        return self.tag_embedding.all()

    def tag_pair_scores(self, items: np.ndarray, tags: np.ndarray) -> Tensor:
        """Relevance ``ŷ_{vt}`` for the item-tag BPR task (Eq. 2)."""
        v = F.embedding_lookup(self.item_repr(), items)
        t = F.embedding_lookup(self.tag_repr(), tags)
        return (v * t).sum(axis=1)

    def tag_bpr_loss(self, batch: TripletBatch) -> Tensor:
        """Item-tag ranking loss ``L_VT`` (Eq. 2)."""
        pos = self.tag_pair_scores(batch.anchors, batch.positives)
        neg = self.tag_pair_scores(batch.anchors, batch.negatives)
        return F.bpr_loss(pos, neg)
