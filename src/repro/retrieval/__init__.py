"""Cluster-routed approximate retrieval (sub-linear candidate generation).

The catalogue is partitioned once at index-build time — by IMCAT's
learned tag-cluster/intent structure when available, by K-means over the
item representations otherwise — and queries route through partition
centroids: score ``K`` centroids instead of ``|V|`` items, probe the top
``n_probe`` partitions, and shortlist their members (∪ a small
global-popularity head).  Only :class:`Retriever` exact-scores the
shortlist alone; approximate evaluation does the dense ``all_scores``
work and masks it, so its ``scored_items`` is routing width, not pairs
computed.  ``n_probe = num_partitions`` reproduces :class:`ExactIndex`.

Entry points:

- :func:`build_index` / :func:`save_index` / :func:`load_index` — build
  from a trained model and round-trip through a :mod:`repro.ckpt`
  directory;
- :class:`Retriever` — sub-linear ``recommend`` for one model/index
  pair;
- :class:`ApproximateScorer` — the ``all_scores`` adapter behind
  ``Evaluator.evaluate(..., approximate=True)``;
- :class:`RetrievalTier` — the serving-side lifecycle wrapper used by
  :class:`repro.serve.RecommendationService` (never raises; falls back
  to exact scoring).

``python -m repro.retrieval smoke`` runs a tiny build→probe→recall
assertion suite (the ``make retrieval-smoke`` gate);
:func:`run_retrieval_suite` produces the recall-vs-cost curve stored
in ``benchmarks/BENCH_retrieval.json``.
"""

from .benchmark import (
    format_retrieval_table,
    ranking_overlap,
    run_retrieval_suite,
    save_retrieval_results,
)
from .index import (
    INDEX_FORMAT_VERSION,
    STRATEGIES,
    ClusterIndex,
    ExactIndex,
    IndexMismatch,
    build_index,
    item_vectors,
    model_fingerprint,
    user_vectors,
)
from .retriever import ApproximateScorer, Retriever, RetrievalTier
from .store import index_path, load_index, prune_indexes, save_index

__all__ = [
    "INDEX_FORMAT_VERSION",
    "STRATEGIES",
    "ApproximateScorer",
    "ClusterIndex",
    "ExactIndex",
    "IndexMismatch",
    "RetrievalTier",
    "Retriever",
    "build_index",
    "format_retrieval_table",
    "index_path",
    "item_vectors",
    "load_index",
    "model_fingerprint",
    "prune_indexes",
    "ranking_overlap",
    "run_retrieval_suite",
    "save_index",
    "save_retrieval_results",
    "user_vectors",
]
