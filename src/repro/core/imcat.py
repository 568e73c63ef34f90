"""The IMCAT model: backbone + IRM + IMCA + ISA (Section IV).

:class:`IMCAT` wraps any :class:`~repro.models.base.Recommender`
backbone (the paper demonstrates BPRMF, NeuMF, and LightGCN) and adds

- a tag embedding table and the item-tag ranking loss ``L_VT`` (Eq. 2);
- the self-supervised tag clustering head and ``L_KL`` (Eq. 6);
- the intent-aware contrastive alignment ``L_CA*`` (Eqs. 11-17);
- the intent-independence regulariser (Section V.D).

The joint objective (Eq. 18) is assembled per training step by
:meth:`IMCAT.training_loss`; phase scheduling (pre-training, cluster
refresh) lives in :class:`repro.core.trainer.IMCATTrainer`.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .. import obs
from ..data.dataset import TagRecDataset
from ..data.sampling import TripletBatch
from ..models.base import Recommender
from ..nn import Embedding, Module, Tensor, no_grad
from ..nn import functional as F
from .alignment import IntentAlignment, TagAggregator, UserAggregator
from .clustering import TagClustering, kmeans
from .config import IMCATConfig
from .intents import independence_loss
from .set2set import SetToSetIndex


class IMCAT(Module):
    """Intent-aware multi-source contrastive alignment wrapper.

    Args:
        backbone: any recommender exposing the :class:`Recommender`
            contract; its embeddings receive the auxiliary signal.
        dataset: the *full* dataset (supplies tag assignments).
        train: the training interactions (supplies the user aggregation
            of Eq. 7 — test users must never leak into it).
        config: IMCAT hyper-parameters.
        rng: initialisation RNG.
    """

    def __init__(
        self,
        backbone: Recommender,
        dataset: TagRecDataset,
        train: TagRecDataset,
        config: Optional[IMCATConfig] = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config or IMCATConfig()
        self.backbone = backbone
        self.num_users = backbone.num_users
        self.num_items = backbone.num_items
        self.num_tags = dataset.num_tags
        self.embed_dim = backbone.embed_dim

        self.tag_embedding = Embedding(dataset.num_tags, backbone.embed_dim, rng)
        self.clustering = TagClustering(
            self.config.num_intents, backbone.embed_dim, eta=self.config.eta, rng=rng
        )
        self.alignment = IntentAlignment(backbone.embed_dim, self.config, rng)
        # d/K, validated once here — hot-path intent slicing below skips
        # the per-call divisibility check.
        self.intent_dim = self.alignment.intent_dim

        self._users_of_item = train.users_of_item()
        self._tags_of_item = dataset.tags_of_item()
        self._user_aggregator = UserAggregator(
            self._users_of_item,
            self.config.max_users_per_item,
            rng,
            mode=self.config.user_aggregation,
        )
        self._tag_aggregator = TagAggregator(
            self._tags_of_item, self.config.num_intents
        )

        # Observability: the trainer injects its tracer here so the
        # per-phase loss spans land in the same trace; ``None`` falls
        # back to the process-global tracer (disabled by default).
        self.tracer: Optional[obs.Tracer] = None

        # Mutable training state managed by the trainer.
        self.clustering_active = False
        self.tag_clusters = np.zeros(dataset.num_tags, dtype=np.int64)
        self.isa_index: Optional[SetToSetIndex] = None
        self._kl_target: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # delegation to the backbone
    # ------------------------------------------------------------------
    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self.backbone.pair_scores(users, items)

    def all_scores(self, users: np.ndarray) -> np.ndarray:
        return self.backbone.all_scores(users)

    def recommend(
        self, user: int, top_n: int = 20, exclude: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """Top-``top_n`` items for one user (delegates to the backbone),
        so an IMCAT wrapper can sit directly behind :mod:`repro.serve`."""
        return self.backbone.recommend(user, top_n=top_n, exclude=exclude)

    def begin_step(self) -> None:
        self.backbone.begin_step()

    def refresh_epoch(self, epoch: int) -> None:
        self.backbone.refresh_epoch(epoch)

    def user_repr(self) -> Tensor:
        return self.backbone.user_repr()

    def item_repr(self) -> Tensor:
        return self.backbone.item_repr()

    # ------------------------------------------------------------------
    # learned-structure export (consumed by repro.retrieval)
    # ------------------------------------------------------------------
    def item_intent_assignments(self) -> Optional[np.ndarray]:
        """Hard intent id per item from the learned tag clusters.

        Each item inherits the majority intent of its tags' hard
        cluster memberships (Eq. 6's assignments, refreshed by the
        trainer); tagless items carry ``-1`` so consumers can route
        them separately.  ``None`` before the clustering phase
        activates — there is no learned structure to export yet.
        """
        if not self.clustering_active:
            return None
        assignments = np.full(self.num_items, -1, dtype=np.int64)
        for item, tags in enumerate(self._tags_of_item):
            if len(tags):
                votes = np.bincount(
                    self.tag_clusters[tags],
                    minlength=self.config.num_intents,
                )
                assignments[item] = int(votes.argmax())
        return assignments

    # ------------------------------------------------------------------
    # loss components
    # ------------------------------------------------------------------
    def ui_loss(self, batch: TripletBatch) -> Tensor:
        """``L_UV`` (Eq. 1), delegated to the backbone's scorer."""
        return self.backbone.bpr_loss(batch)

    def vt_loss(self, batch: TripletBatch) -> Tensor:
        """``L_VT`` (Eq. 2): BPR over item-tag pairs.

        Items use the backbone's base item embeddings; tags use IMCAT's
        own table (backbones are tag-agnostic).
        """
        v = self.backbone.item_embedding(batch.anchors)
        pos = self.tag_embedding(batch.positives)
        neg = self.tag_embedding(batch.negatives)
        pos_scores = (v * pos).sum(axis=1)
        neg_scores = (v * neg).sum(axis=1)
        return F.bpr_loss(pos_scores, neg_scores)

    def kl_loss(self) -> Tensor:
        """``L_KL`` (Eq. 6) over the full tag table (zero before the
        clustering phase activates).

        The target distribution is the one cached at the last cluster
        refresh, keeping the self-training signal stable between
        refreshes (Section V.D's every-10-iterations schedule).
        """
        if not self.clustering_active or not self.config.use_end_to_end_clustering:
            return Tensor(np.zeros(()))
        loss = self.clustering.kl_loss(
            self.tag_embedding.all(), target=self._kl_target
        )
        # Per-tag normalisation keeps gamma's effect independent of the
        # vocabulary size (Eq. 6 sums over |T| tags).
        return loss * (1.0 / max(self.num_tags, 1))

    def alignment_loss(
        self, item_batch: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        """``L_CA*`` (Eq. 16) on one batch of items."""
        config = self.config
        if not config.use_alignment:
            return Tensor(np.zeros(()))
        user_final = self.backbone.user_repr()
        item_final = self.backbone.item_repr()
        batch_item_embeddings = item_final[item_batch]
        u_agg = self._user_aggregator(
            item_batch,
            user_final,
            item_embeddings=(
                batch_item_embeddings
                if config.user_aggregation == "attention"
                else None
            ),
        )
        t_agg, counts = self._tag_aggregator(
            item_batch, self.tag_embedding.all(), self.tag_clusters
        )
        masks = None
        if config.use_isa and self.isa_index is not None:
            masks = [
                self.isa_index.batch_positive_mask(
                    item_batch, k, rng, config.max_positives
                )
                for k in range(config.num_intents)
            ]
        return self.alignment.alignment_loss(
            item_batch,
            u_agg,
            batch_item_embeddings,
            t_agg,
            counts,
            positive_masks=masks,
        )

    def intent_independence_loss(self, item_batch: np.ndarray) -> Tensor:
        """Independence of intent sub-embeddings on the batch items."""
        if self.config.num_intents <= 1:
            return Tensor(np.zeros(()))
        items = self.backbone.item_embedding(item_batch)
        return independence_loss(
            items, self.config.num_intents, dim=self.intent_dim
        )

    def training_loss(
        self,
        ui_batch: TripletBatch,
        it_batch: TripletBatch,
        item_batch: np.ndarray,
        rng: np.random.Generator,
    ) -> Tensor:
        """The joint objective of Eq. (18).

        Each active component is wrapped in a trace span (``loss:bpr`` /
        ``loss:tag`` / ``loss:align`` / ``loss:kl`` /
        ``loss:independence``), so a recorded run attributes forward
        time to the paper's individual objectives.
        """
        config = self.config
        tracer = obs.resolve_tracer(self.tracer)
        with tracer.span("loss:bpr"):
            loss = self.ui_loss(ui_batch)
        if config.alpha > 0:
            with tracer.span("loss:tag"):
                loss = loss + self.vt_loss(it_batch) * config.alpha
        if config.beta > 0 and config.use_alignment:
            with tracer.span("loss:align"):
                loss = loss + self.alignment_loss(item_batch, rng) * config.beta
        if config.gamma > 0 and self.clustering_active:
            with tracer.span("loss:kl"):
                loss = loss + self.kl_loss() * config.gamma
        if config.independence_weight > 0 and config.num_intents > 1:
            with tracer.span("loss:independence"):
                loss = loss + (
                    self.intent_independence_loss(item_batch)
                    * config.independence_weight
                )
        return loss

    # ------------------------------------------------------------------
    # cluster lifecycle (driven by the trainer)
    # ------------------------------------------------------------------
    def activate_clustering(self, rng: np.random.Generator) -> None:
        """Warm-start the cluster centres after pre-training."""
        self.clustering.initialize_from(self.tag_embedding.all().data, rng)
        self.clustering_active = True
        self.refresh_clusters(rng)

    def _assign_clusters(self, rng: np.random.Generator) -> np.ndarray:
        """Hard tag memberships under the configured clustering mode."""
        tag_table = self.tag_embedding.all().data
        if self.config.use_end_to_end_clustering:
            return self.clustering.hard_assignments(tag_table)
        # "Naive solution" ablation: periodic K-means decoupled from the
        # training objective (Section IV.A.2's strawman).
        _, labels = kmeans(tag_table, self.config.num_intents, rng=rng)
        return labels

    def refresh_clusters(self, rng: np.random.Generator) -> None:
        """Recompute hard memberships and rebuild the ISA index.

        Section V.D: memberships are refreshed every 10 iterations to
        avoid instability; before the clustering phase all tags sit in
        cluster 0 (equivalent to intent-unaware alignment).
        """
        # Redraw the user subsample of popular items alongside the
        # cluster refresh so the aggregation stays stochastic.
        self._user_aggregator.resample(rng)
        if self.clustering_active:
            self.tag_clusters = self._assign_clusters(rng)
            if self.config.use_end_to_end_clustering:
                with no_grad():
                    q = self.clustering.soft_assignments(
                        self.tag_embedding.all().detach()
                    )
                    self._kl_target = self.clustering.target_distribution(q.data)
        if self.config.use_isa:
            self.isa_index = SetToSetIndex(
                self._tags_of_item,
                self.tag_clusters,
                self.config.num_intents,
                self.num_items,
                self.num_tags,
                self.config.delta,
            )

    # ------------------------------------------------------------------
    # checkpointable non-parameter state
    # ------------------------------------------------------------------
    def get_extra_state(self) -> dict:
        """Non-parameter training state for :mod:`repro.ckpt` snapshots.

        Intent-cluster state is *training* state, not just weights: the
        hard memberships, the clustering-phase flag, the cached KL
        target of Eq. 6, and the stochastic user subsample all shape the
        next gradient step, so a bit-exact resume must carry them.  The
        ISA index is derived deterministically from the memberships and
        is rebuilt on load rather than stored.
        """
        return {
            "clustering_active": self.clustering_active,
            "tag_clusters": self.tag_clusters.copy(),
            "kl_target": (
                None if self._kl_target is None else self._kl_target.copy()
            ),
            "user_subsample": self._user_aggregator.subsample_state(),
        }

    def set_extra_state(self, state: dict) -> None:
        """Restore state captured by :meth:`get_extra_state`."""
        self.clustering_active = bool(state["clustering_active"])
        self.tag_clusters = np.asarray(state["tag_clusters"], dtype=np.int64)
        kl_target = state["kl_target"]
        self._kl_target = None if kl_target is None else np.asarray(kl_target)
        self._user_aggregator.load_subsample_state(state["user_subsample"])
        if self.config.use_isa:
            self.isa_index = SetToSetIndex(
                self._tags_of_item,
                self.tag_clusters,
                self.config.num_intents,
                self.num_items,
                self.num_tags,
                self.config.delta,
            )
