"""Candidate-generation indexes: exact baseline and cluster routing.

The catalogue is partitioned once at build time — by IMCAT's learned
intent/tag-cluster structure when the model exposes it, by K-means over
the item representations otherwise — and each partition carries the
centroid of its member vectors.  At query time the user vector is
scored against the *centroids* (``K`` dot products instead of ``|V|``),
the top ``n_probe`` partitions are probed, and only their members (plus
a small global-popularity head, so degraded or cold users never see an
empty shortlist) go on to exact scoring.  ``candidate_mask`` is the one
shortlist definition; the per-user id lists are its non-zero columns.

:class:`ExactIndex` implements the same contract over the full
catalogue and is the always-correct baseline every approximate result
is measured against: ``n_probe = num_partitions`` on a
:class:`ClusterIndex` reproduces it exactly.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from ..core.clustering import kmeans
from ..nn import no_grad

#: Index payload format version (bumped on incompatible layout changes).
INDEX_FORMAT_VERSION = 1

#: Partitioning strategies accepted by :func:`build_index`.
STRATEGIES = ("auto", "intent", "kmeans")


class IndexMismatch(RuntimeError):
    """The index was built from a different model than the one queried."""


def item_vectors(model) -> np.ndarray:
    """Final item representations as a plain ``(|V|, d)`` float array."""
    with no_grad():
        return np.asarray(model.item_repr().data, dtype=np.float64)


def user_vectors(model, users: np.ndarray) -> np.ndarray:
    """Final user representations for ``users`` as ``(B, d)`` floats."""
    with no_grad():
        return np.asarray(
            model.user_repr().data[np.asarray(users)], dtype=np.float64
        )


def model_fingerprint(model) -> str:
    """Identity of the item space an index was built from.

    SHA-256 over the item representation matrix (shape + bytes): any
    retrain, hot reload, or parameter mutation changes it, which is how
    staleness is detected before an index routes a single query.
    """
    vectors = np.ascontiguousarray(item_vectors(model))
    digest = hashlib.sha256()
    digest.update(str(vectors.shape).encode("utf-8"))
    digest.update(vectors.tobytes())
    return digest.hexdigest()


class _MaskShortlists:
    """Per-user shortlists derived from ``candidate_mask`` rows."""

    def candidates(
        self, user_vector: np.ndarray, n_probe: int = 2
    ) -> np.ndarray:
        """Sorted shortlist item ids for one user vector."""
        return np.flatnonzero(self.candidate_mask(user_vector, n_probe)[0])

    def candidate_lists(
        self, user_matrix: np.ndarray, n_probe: int = 2
    ) -> List[np.ndarray]:
        """Per-row sorted shortlists for a ``(B, d)`` batch of users."""
        mask = self.candidate_mask(user_matrix, n_probe)
        return [np.flatnonzero(row) for row in mask]


class ExactIndex(_MaskShortlists):
    """Brute-force baseline: every query scores the full catalogue."""

    strategy = "exact"

    def __init__(self, num_items: int, fingerprint: str = "") -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        self.num_items = num_items
        self.fingerprint = fingerprint
        self.num_partitions = 1

    @classmethod
    def build(cls, model) -> "ExactIndex":
        return cls(model.num_items, fingerprint=model_fingerprint(model))

    def candidate_mask(
        self, user_matrix: np.ndarray, n_probe: int = 1
    ) -> np.ndarray:
        """All-True ``(B, |V|)`` mask, whatever ``n_probe`` says."""
        rows = len(np.atleast_2d(user_matrix))
        return np.ones((rows, self.num_items), dtype=bool)

    def state_dict(self) -> dict:
        return {
            "format": INDEX_FORMAT_VERSION,
            "kind": "exact",
            "num_items": self.num_items,
            "fingerprint": self.fingerprint,
        }


class ClusterIndex(_MaskShortlists):
    """Partitioned catalogue with one routing centroid per partition.

    Args:
        item_partitions: ``(|V|,)`` hard partition id per item in
            ``[0, num_partitions)``.
        centroids: ``(K, d)`` routing centroids (rows of empty
            partitions are ignored — their routing score is ``-inf``).
        popular_head: item ids unconditionally unioned into every
            shortlist (global-popularity fallback; may be empty).
        fingerprint: :func:`model_fingerprint` of the source model.
        strategy: how the partitions were derived (bookkeeping only).
    """

    def __init__(
        self,
        item_partitions: np.ndarray,
        centroids: np.ndarray,
        popular_head: Optional[np.ndarray] = None,
        fingerprint: str = "",
        strategy: str = "kmeans",
    ) -> None:
        self.item_partitions = np.asarray(item_partitions, dtype=np.int64)
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.num_items = len(self.item_partitions)
        self.num_partitions = len(self.centroids)
        if self.num_items < 1:
            raise ValueError("index needs at least one item")
        if self.num_partitions < 1:
            raise ValueError("index needs at least one partition")
        if self.item_partitions.min() < 0 or (
            self.item_partitions.max() >= self.num_partitions
        ):
            raise ValueError(
                f"item partition ids must lie in [0, {self.num_partitions})"
            )
        self.popular_head = (
            np.empty(0, dtype=np.int64)
            if popular_head is None
            else np.asarray(popular_head, dtype=np.int64)
        )
        if self.popular_head.size and (
            self.popular_head.min() < 0
            or self.popular_head.max() >= self.num_items
        ):
            raise ValueError("popular_head item ids out of range")
        self.fingerprint = fingerprint
        self.strategy = strategy
        self.partition_sizes = np.bincount(
            self.item_partitions, minlength=self.num_partitions
        )
        self._empty = self.partition_sizes == 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, user_matrix: np.ndarray, n_probe: int) -> np.ndarray:
        """Top-``n_probe`` non-empty partitions per user row.

        Returns an ``(B, p)`` int array (``p <= n_probe`` when fewer
        non-empty partitions exist).  Empty partitions never route.
        """
        user_matrix = np.atleast_2d(np.asarray(user_matrix, dtype=np.float64))
        if n_probe < 1:
            raise ValueError(f"n_probe must be >= 1, got {n_probe}")
        affinity = user_matrix @ self.centroids.T
        affinity[:, self._empty] = -np.inf
        non_empty = int((~self._empty).sum())
        p = min(n_probe, max(non_empty, 1))
        part = np.argpartition(affinity, -p, axis=1)[:, -p:]
        # Best-first order so truncated probing is deterministic.
        part_scores = np.take_along_axis(affinity, part, axis=1)
        order = np.argsort(part_scores, axis=1)[:, ::-1]
        return np.take_along_axis(part, order, axis=1)

    def candidate_mask(
        self, user_matrix: np.ndarray, n_probe: int = 2
    ) -> np.ndarray:
        """``(B, |V|)`` shortlist mask: probed members ∪ popular head."""
        probes = self.route(user_matrix, n_probe)
        probed = np.zeros((len(probes), self.num_partitions), dtype=bool)
        np.put_along_axis(probed, probes, True, axis=1)
        mask = probed[:, self.item_partitions]
        mask[:, self.popular_head] = True
        return mask

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "format": INDEX_FORMAT_VERSION,
            "kind": "cluster",
            "item_partitions": self.item_partitions.copy(),
            "centroids": self.centroids.copy(),
            "popular_head": self.popular_head.copy(),
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ClusterIndex":
        if state.get("format") != INDEX_FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format {state.get('format')!r} "
                f"(this build reads {INDEX_FORMAT_VERSION})"
            )
        if state.get("kind") != "cluster":
            raise ValueError(f"not a cluster index payload: {state.get('kind')!r}")
        return cls(
            item_partitions=state["item_partitions"],
            centroids=state["centroids"],
            popular_head=state["popular_head"],
            fingerprint=state["fingerprint"],
            strategy=state.get("strategy", "kmeans"),
        )


def _intent_partitions(model) -> Optional[np.ndarray]:
    """Per-item hard intent from the model's learned tag clusters.

    ``None`` when the model does not expose
    ``item_intent_assignments()`` (non-IMCAT models) or has not
    activated clustering yet.
    """
    exporter = getattr(model, "item_intent_assignments", None)
    if exporter is None:
        return None
    assignments = exporter()
    if assignments is None:
        return None
    return np.asarray(assignments, dtype=np.int64)


def build_index(
    model,
    num_partitions: int = 16,
    strategy: str = "auto",
    popularity: Optional[np.ndarray] = None,
    popular_head: int = 50,
    seed: int = 0,
) -> ClusterIndex:
    """Build a :class:`ClusterIndex` from a trained model.

    Args:
        model: any :class:`repro.models.base.Recommender`-shaped model
            (``item_repr`` / ``user_repr``).  IMCAT wrappers with an
            active clustering phase contribute their learned tag-cluster
            structure under the ``"intent"``/``"auto"`` strategies.
        num_partitions: partition count for the K-means strategy (the
            intent strategy inherits the model's ``K``).
        strategy: ``"intent"`` (hard tag-cluster/intent assignment per
            item, Eq. 8-10 structure), ``"kmeans"`` (Lloyd's over item
            vectors), or ``"auto"`` (intent when available, else
            K-means).
        popularity: per-item interaction counts; the top
            ``popular_head`` items form the always-probed head.  ``None``
            leaves the head empty.
        popular_head: size of the popularity head.
        seed: K-means seeding RNG.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}"
        )
    vectors = item_vectors(model)
    partitions = None
    chosen = strategy
    if strategy in ("auto", "intent"):
        partitions = _intent_partitions(model)
        if partitions is not None:
            chosen = "intent"
            k = int(partitions.max()) + 1 if partitions.size else 1
            # Tagless items carry -1: route them to their nearest intent
            # centroid so every item lives in exactly one partition.
            known = partitions >= 0
            if not known.any():
                partitions = None
            else:
                centroids = np.zeros((k, vectors.shape[1]))
                for part in range(k):
                    members = known & (partitions == part)
                    if members.any():
                        centroids[part] = vectors[members].mean(axis=0)
                if (~known).any():
                    orphan = vectors[~known]
                    nearest = (
                        (orphan[:, None, :] - centroids[None, :, :]) ** 2
                    ).sum(axis=2).argmin(axis=1)
                    partitions = partitions.copy()
                    partitions[~known] = nearest
        elif strategy == "intent":
            raise ValueError(
                "strategy='intent' needs a model exposing "
                "item_intent_assignments() with an active clustering phase"
            )
    if partitions is None:
        chosen = "kmeans"
        k = min(num_partitions, len(vectors))
        _, partitions = kmeans(vectors, k, rng=np.random.default_rng(seed))
        partitions = partitions[: len(vectors)]
    num_parts = int(partitions.max()) + 1
    centroids = np.zeros((num_parts, vectors.shape[1]))
    for part in range(num_parts):
        members = partitions == part
        if members.any():
            centroids[part] = vectors[members].mean(axis=0)
    head = np.empty(0, dtype=np.int64)
    if popularity is not None and popular_head > 0:
        popularity = np.asarray(popularity, dtype=np.float64)
        if len(popularity) != len(vectors):
            raise ValueError(
                f"popularity has {len(popularity)} entries for "
                f"{len(vectors)} items"
            )
        head_size = min(popular_head, len(popularity))
        head = np.argpartition(popularity, -head_size)[-head_size:]
        head = head[np.argsort(popularity[head])[::-1]].astype(np.int64)
    return ClusterIndex(
        item_partitions=partitions,
        centroids=centroids,
        popular_head=head,
        fingerprint=model_fingerprint(model),
        strategy=chosen,
    )
