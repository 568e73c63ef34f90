"""Self-supervised end-to-end tag clustering (Section IV.A.2).

Learnable cluster centres ``mu in R^{K x d}`` produce a Student-t soft
assignment ``Q`` of every tag to every cluster (Eq. 4).  A sharpened
target distribution ``Q̂`` (Eq. 5) provides the self-supervision signal,
and the KL divergence between them (Eq. 6) is minimised jointly with
the recommendation objectives, pulling tag embeddings toward cohesive
clusters.  Hard memberships — ``argmax_k Q_lk`` — identify each intent's
tag cluster.

A plain Lloyd's K-means is included both to initialise the centres
after pre-training and as the paper's "naive solution" ablation
baseline.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..nn import Module, Parameter, Tensor, as_tensor, no_grad


class TagClustering(Module):
    """End-to-end Student-t clustering head over tag embeddings.

    Args:
        num_clusters: K, matching the number of user intents.
        embed_dim: tag embedding size ``d``.
        eta: Student-t temperature (degrees of freedom) of Eq. 4.
        rng: initialisation RNG for the cluster centres.
    """

    def __init__(
        self,
        num_clusters: int,
        embed_dim: int,
        eta: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_clusters = num_clusters
        self.eta = eta
        self.centers = Parameter(rng.normal(0.0, 0.1, size=(num_clusters, embed_dim)))

    # ------------------------------------------------------------------
    # Eq. (4): Student-t soft assignment
    # ------------------------------------------------------------------
    def soft_assignments(self, tag_embeddings: Tensor) -> Tensor:
        """``Q`` with ``Q_lk`` the probability of tag l in cluster k."""
        tags = as_tensor(tag_embeddings)
        n = tags.shape[0]
        # Squared distances ||t_l - mu_k||^2, shape (n, K).
        diff = tags.reshape(n, 1, -1) - self.centers.reshape(
            1, self.num_clusters, -1
        )
        sq_dist = (diff * diff).sum(axis=2)
        power = -(self.eta + 1.0) / 2.0
        kernel = (sq_dist * (1.0 / self.eta) + 1.0) ** power
        return kernel / kernel.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    # Eq. (5): sharpened target distribution (no gradient)
    # ------------------------------------------------------------------
    @staticmethod
    def target_distribution(q: np.ndarray) -> np.ndarray:
        """``Q̂`` strengthening cluster cohesion; treated as constant."""
        q = np.asarray(q, dtype=np.float64)
        weight = q**2 / np.maximum(q.sum(axis=0, keepdims=True), 1e-12)
        return weight / np.maximum(weight.sum(axis=1, keepdims=True), 1e-12)

    # ------------------------------------------------------------------
    # Eq. (6): KL self-training loss
    # ------------------------------------------------------------------
    def kl_loss(
        self, tag_embeddings: Tensor, target: np.ndarray | None = None
    ) -> Tensor:
        """``KL(Q̂ || Q)`` with the target detached.

        Pass a pre-computed ``target`` to keep it *fixed between cluster
        refreshes* (the DEC self-training schedule the paper follows —
        recomputing Q̂ every step makes the objective chase its own
        sharpening and diverge).  Without one, the target is derived
        from the current assignments.
        """
        q = self.soft_assignments(tag_embeddings)
        if target is None:
            target = self.target_distribution(q.data)
        q_safe = q.clip(1e-12, 1.0)
        log_ratio = Tensor(np.log(np.maximum(target, 1e-12))) - q_safe.log()
        return (Tensor(target) * log_ratio).sum()

    def hard_assignments(self, tag_embeddings) -> np.ndarray:
        """``argmax_k Q_lk`` per tag (Section IV.A.2, hard allocation)."""
        with no_grad():
            q = self.soft_assignments(as_tensor(tag_embeddings))
            return np.argmax(q.data, axis=1)

    def initialize_from(self, tag_embeddings: np.ndarray, rng: np.random.Generator) -> None:
        """Set the centres by K-means on the (pre-trained) tag embeddings.

        The paper pre-trains without the clustering loss first so the tag
        embeddings are informative; this provides the warm start when the
        loss activates.
        """
        centers, _ = kmeans(
            np.asarray(tag_embeddings), self.num_clusters, rng=rng
        )
        self.centers.data[...] = centers


def kmeans(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator | None = None,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's K-means with k-means++ seeding.

    The paper's "naive solution" baseline: iteratively re-clustering tag
    embeddings decoupled from the downstream objective.  Also used to
    warm-start :class:`TagClustering`.

    Returns:
        ``(centers, labels)`` with shapes ``(K, d)`` and ``(n,)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("kmeans needs at least one point")
    rng = rng if rng is not None else np.random.default_rng(0)
    k = min(num_clusters, n)

    # k-means++ seeding.
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(0, n)]
    closest_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=k - c)]
            break
        probs = closest_sq / total
        centers[c] = points[rng.choice(n, p=probs)]
        dist = ((points - centers[c]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, dist)

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        # Assign step.
        distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        # Update step.
        new_centers = centers.copy()
        for c in range(k):
            members = points[new_labels == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if (new_labels == labels).all() and shift < tol:
            labels = new_labels
            break
        labels = new_labels

    if k < num_clusters:
        # Degenerate case: fewer points than requested clusters.
        pad = np.repeat(centers[-1:], num_clusters - k, axis=0)
        centers = np.vstack([centers, pad])
    return centers, labels


def cluster_balance(labels: np.ndarray, num_clusters: int) -> float:
    """Normalised entropy of the hard cluster sizes.

    ``1.0`` when every cluster holds the same number of tags and ``0.0``
    when all tags sit in one cluster: the collapse signal end-to-end
    intent clustering must watch (ELCRec, arXiv 2401.05975).  A single
    cluster, or no tags at all, cannot be unbalanced and reads ``1.0``.
    """
    labels = np.asarray(labels)
    if num_clusters <= 1 or labels.size == 0:
        return 1.0
    sizes = np.bincount(labels, minlength=num_clusters)
    shares = sizes[sizes > 0] / labels.size
    return float(-(shares * np.log(shares)).sum() / np.log(num_clusters))
