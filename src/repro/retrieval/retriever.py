"""Query-time retrieval: shortlist, exact-score, rank, degrade safely.

Three layers over one index:

- :class:`Retriever` — model + index bound together for one-user
  ``recommend`` calls: probe the centroids, exact-score only the
  shortlist, escalate to full scoring when the shortlist cannot fill
  the request (``top_n`` larger than the candidate pool);
- :class:`ApproximateScorer` — an ``all_scores``-compatible adapter the
  :class:`repro.eval.Evaluator` ranks through unchanged: the model's
  dense ``all_scores`` with off-shortlist entries masked to ``-inf``,
  so ``n_probe = num_partitions`` reproduces exact evaluation
  bit-for-bit (only :class:`Retriever` is sub-linear);
- :class:`RetrievalTier` — the serving-side lifecycle wrapper behind
  :class:`repro.serve.RecommendationService`: version-tracked index
  reuse/rebuild across hot reloads, and *every* failure mode (stale
  index, build error, thin shortlist) returns ``None`` so the service
  falls back to exact scoring instead of erroring.

Everything reports through :mod:`repro.obs`: ``retrieval:*`` trace
spans plus shortlist-size/probe-count histograms and routing counters.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Set

import numpy as np

from .. import obs
from ..concurrency import new_rlock, shared_state
from ..nn import no_grad
from .index import (
    ClusterIndex,
    ExactIndex,
    IndexMismatch,
    build_index,
    model_fingerprint,
    user_vectors,
)


def _shortlist_scores(model, user: int, items: np.ndarray) -> np.ndarray:
    """The model's own scores restricted to ``items`` (no gradients)."""
    users = np.full(len(items), int(user), dtype=np.int64)
    with no_grad():
        return np.asarray(model.pair_scores(users, items).data, dtype=np.float64)


class Retriever:
    """Sub-linear ``recommend`` over one model/index pair.

    Args:
        model: the scoring model the index was built from.
        index: a :class:`ClusterIndex` or :class:`ExactIndex`.
        n_probe: partitions probed per query.
        validate: verify the index fingerprint against the model up
            front (one hash of the item table) and raise
            :class:`IndexMismatch` on a stale pairing.
        tracer: optional :class:`repro.obs.Tracer` (process-global
            fallback).
    """

    def __init__(
        self,
        model: Any,
        index: Any,
        n_probe: int = 2,
        validate: bool = True,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        if n_probe < 1:
            raise ValueError(f"n_probe must be >= 1, got {n_probe}")
        if validate and index.fingerprint:
            live = model_fingerprint(model)
            if live != index.fingerprint:
                raise IndexMismatch(
                    f"index fingerprint {index.fingerprint[:12]}… does not "
                    f"match the live model ({live[:12]}…); rebuild the index"
                )
        self.model = model
        self.index = index
        self.n_probe = n_probe
        self.tracer = obs.resolve_tracer(tracer)
        #: Items exact-scored by the last ``recommend`` call (the cost
        #: the whole subsystem exists to shrink).
        self.last_scored = 0

    def shortlist(self, user: int) -> np.ndarray:
        """Candidate item ids for ``user`` (probed ∪ popularity head)."""
        vector = user_vectors(self.model, np.array([int(user)]))[0]
        return self.index.candidates(vector, self.n_probe)

    def recommend(
        self,
        user: int,
        top_n: int = 20,
        exclude: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Top-``top_n`` items for ``user`` from the probed shortlist.

        When exclusions leave fewer than ``top_n`` candidates and the
        shortlist does not already cover the catalogue, the query
        escalates to exact scoring (counted, never silent) — a request
        must not shrink because routing was narrow.
        """
        excluded: Set[int] = set(int(i) for i in exclude) if exclude else set()
        metrics = obs.get_metrics()
        with self.tracer.span(
            "retrieval:request", user=int(user), n_probe=self.n_probe
        ) as span:
            metrics.add("retrieval.requests")
            with self.tracer.span("retrieval:probe"):
                candidates = self.shortlist(user)
            metrics.histogram("retrieval.shortlist_items").observe(
                float(len(candidates))
            )
            metrics.histogram("retrieval.probes").observe(float(self.n_probe))
            drop = (
                np.isin(candidates, np.fromiter(excluded, dtype=np.int64))
                if excluded
                else np.zeros(len(candidates), dtype=bool)
            )
            usable = int(len(candidates) - drop.sum())
            if usable < top_n and len(candidates) < self.index.num_items:
                metrics.add("retrieval.escalations")
                span.set_attributes(escalated=True)
                self.last_scored = self.index.num_items
                return self.model.recommend(
                    user, top_n=top_n, exclude=excluded
                )
            with self.tracer.span(
                "retrieval:score", candidates=len(candidates)
            ):
                scores = _shortlist_scores(self.model, user, candidates)
            self.last_scored = len(candidates)
            metrics.histogram("retrieval.scored_items").observe(
                float(len(candidates))
            )
            scores = np.where(drop, -np.inf, scores)
            order = np.argsort(scores)[::-1][:top_n]
            ranked = candidates[order]
            keep = np.isfinite(scores[order])
            span.set_attributes(
                shortlist=len(candidates), returned=int(keep.sum())
            )
            return ranked[keep]


class ApproximateScorer:
    """``all_scores`` adapter ranking only the probed shortlist.

    Drop-in for any consumer of the evaluator contract: returns
    ``np.where(index.candidate_mask(...), model.all_scores(users), -inf)``,
    a fresh array on every call that the caller may write to (the
    evaluator masks it in place without a copy).
    Scoring is the model's own dense BLAS pass, so this measures what
    ranking through the routing returns, not a scoring saving.

    Attributes:
        scored_items: shortlist entries ranked so far (routing width,
            not pairs computed).
        queries: users answered so far (``scored_items / queries`` is
            the per-query shortlist size the bench reports).
    """

    def __init__(
        self,
        model: Any,
        index: Any,
        n_probe: int = 2,
        validate: bool = True,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        if validate and index.fingerprint:
            live = model_fingerprint(model)
            if live != index.fingerprint:
                raise IndexMismatch(
                    "approximate scorer given a stale index "
                    f"({index.fingerprint[:12]}… vs live {live[:12]}…)"
                )
        self.model = model
        self.index = index
        self.n_probe = max(int(n_probe), 1)
        self.tracer = obs.resolve_tracer(tracer)
        self.scored_items = 0
        self.queries = 0
        self.num_items = index.num_items

    def all_scores(self, users: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        metrics = obs.get_metrics()
        with self.tracer.span(
            "retrieval:batch", users=len(users), n_probe=self.n_probe
        ):
            with self.tracer.span("retrieval:probe"):
                mask = self.index.candidate_mask(
                    user_vectors(self.model, users), self.n_probe
                )
            with self.tracer.span("retrieval:score"), no_grad():
                scores = np.asarray(
                    self.model.all_scores(users), dtype=np.float64
                )
            lengths = mask.sum(axis=1)
            self.scored_items += int(lengths.sum())
            self.queries += len(users)
            metrics.histogram("retrieval.shortlist_items").observe_many(lengths)
            return np.where(mask, scores, -np.inf)


@shared_state(guard="_lock")
class RetrievalTier:
    """Serving-side index lifecycle: reuse, rebuild, degrade — never raise.

    Thread safety: the cached ``(index, version)`` pair changes hands
    under a reentrant mutex, so a hot reload observed by one request
    thread cannot race another into serving a new model through the old
    model's routing (the check-then-act in :meth:`index_for` is exactly
    the LNT009 shape when unguarded).  Holding the lock across a
    rebuild also means concurrent requests share one build instead of
    racing duplicate ones.

    Args:
        n_probe: partitions probed per request.
        num_partitions / strategy / popular_head / seed: forwarded to
            :func:`build_index` when the tier (re)builds.
        index: optional prebuilt index (pinned to the provider version
            observed at first use).
        auto_build: build an index from the live model when none is
            available or the model version moved; with ``False`` a
            stale/missing index just reports ``None`` (exact fallback).
        popularity: per-item counts for the popularity head of built
            indexes.
        counters: a :class:`repro.perf.CounterRegistry`-shaped sink for
            routing outcomes (the service injects its own, so tier
            counters land in ``health()``).
    """

    def __init__(
        self,
        n_probe: int = 2,
        num_partitions: int = 16,
        strategy: str = "auto",
        popular_head: int = 50,
        seed: int = 0,
        index: Optional[Any] = None,
        auto_build: bool = True,
        popularity: Optional[np.ndarray] = None,
        counters: Optional[Any] = None,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        if n_probe < 1:
            raise ValueError(f"n_probe must be >= 1, got {n_probe}")
        self.n_probe = n_probe
        self.num_partitions = num_partitions
        self.strategy = strategy
        self.popular_head = popular_head
        self.seed = seed
        self.auto_build = auto_build
        self.popularity = popularity
        self.counters = counters
        self.tracer = obs.resolve_tracer(tracer)
        self._lock = new_rlock("retrieval.RetrievalTier")
        self._index = index
        self._version: Optional[str] = None

    def _count(self, name: str) -> None:
        if self.counters is not None:
            self.counters.add(name)
        obs.get_metrics().add(name)

    def index_for(self, provider: Any, model: Any) -> Optional[Any]:
        """The index to serve with, or ``None`` (→ exact fallback).

        Preference order: an index the provider swaps atomically with
        the model (:class:`CheckpointModelProvider` with retrieval
        enabled) → the tier's cached index while the provider version
        is unchanged → a fresh build (when ``auto_build``).
        """
        provided = getattr(provider, "index", None)
        if callable(provided):
            index = provided()
            if index is not None:
                return index
        version = provider.version()
        with self._lock:
            if self._index is not None:
                if self._version is None:
                    # Pin a prebuilt index to the version it first serves.
                    self._version = version
                if self._version == version:
                    return self._index
                self._count("serve.retrieval.stale")
                self._index = None
            if not self.auto_build:
                return None
            with self.tracer.span("retrieval:build", version=version):
                self._index = build_index(
                    model,
                    num_partitions=self.num_partitions,
                    strategy=self.strategy,
                    popularity=self.popularity,
                    popular_head=self.popular_head,
                    seed=self.seed,
                )
            self._version = version
            self._count("serve.retrieval.builds")
            return self._index

    def recommend(
        self,
        provider: Any,
        user: int,
        top_n: int,
        exclude: Optional[Set[int]] = None,
    ) -> Optional[np.ndarray]:
        """Answer through the index, or ``None`` to fall back to exact.

        Absorbs every retrieval-layer failure (stale index, build
        error, mismatched fingerprint) into a counted fallback; model
        scoring errors still propagate so the service's retry/breaker
        semantics see them unchanged.
        """
        try:
            model = provider.model()
            index = self.index_for(provider, model)
            if index is None:
                self._count("serve.retrieval.fallback")
                return None
            retriever = Retriever(
                model,
                index,
                n_probe=self.n_probe,
                validate=False,  # version tracking covers staleness
                tracer=self.tracer,
            )
            items = retriever.recommend(user, top_n=top_n, exclude=exclude)
        except IndexMismatch:
            self._count("serve.retrieval.stale")
            with self._lock:
                self._index = None
            return None
        except Exception:
            self._count("serve.retrieval.errors")
            return None
        if items.size == 0 and top_n > 0:
            # An empty approximate answer is worse than exact cost.
            self._count("serve.retrieval.fallback")
            return None
        self._count("serve.retrieval.served")
        return items
