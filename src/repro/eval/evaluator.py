"""Full-ranking evaluation masking training items.

Evaluation protocol of Section V.B: for each user with a non-empty test
set, rank all items not in the user's training set and measure
Recall@N / NDCG@N against the held-out items.  Scores come from the
model's ``all_scores()`` in user chunks so NeuMF-style pairwise scorers
stay memory-bounded.

The default :meth:`Evaluator.evaluate` path is fully vectorized: one
chunk is masked with a precomputed CSR interaction structure, its
top-``N`` selected by :func:`repro.eval.metrics.top_k_rows` (a block
maximum prefilter that selects among ``16 * N`` candidates per row and
re-ranks rows with ties by full-row selection, so the ranking equals a
full-row ``argpartition`` + ``argsort`` on every input), and all
metrics computed from a chunk-wide hit matrix — no per-user Python.
The original per-user loop survives as
:meth:`Evaluator.evaluate_reference` for equivalence tests and the
hot-path benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..data.dataset import TagRecDataset
from ..nn import no_grad
from ..perf import StopwatchRegistry
from .metrics import METRIC_FUNCTIONS, rank_items, top_k_rows


@dataclass
class EvalResult:
    """Mean metrics plus the per-user values for significance tests."""

    metrics: Dict[str, float]
    per_user: Dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    user_ids: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0, int))

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def summary(self) -> str:
        return ", ".join(f"{k}={v:.4f}" for k, v in sorted(self.metrics.items()))


def csr_over_users(
    items_of_user: Sequence[np.ndarray], users: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, flat sorted columns) restricted to ``users``.

    Row ``i`` of the structure holds the sorted item ids of
    ``users[i]``.
    """
    lengths = np.fromiter(
        (len(items_of_user[u]) for u in users), dtype=np.int64, count=len(users)
    )
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    if lengths.sum():
        flat = np.concatenate([np.sort(items_of_user[u]) for u in users])
    else:
        flat = np.empty(0, dtype=np.int64)
    return indptr, flat.astype(np.int64)


def fill_csr_rows(
    target: np.ndarray,
    indptr: np.ndarray,
    flat: np.ndarray,
    start: int,
    value,
) -> None:
    """Set ``target[i, j] = value`` for every column ``j`` of CSR row
    ``start + i``, for every row ``i`` of ``target``: one scatter."""
    rows = target.shape[0]
    bounds = indptr[start : start + rows + 1]
    row_ids = np.repeat(np.arange(rows, dtype=np.int64), np.diff(bounds))
    target[row_ids, flat[bounds[0] : bounds[-1]]] = value


class Evaluator:
    """Evaluates a scoring model on a train/test interaction pair.

    Args:
        train: training interactions (masked out of the ranking).
        test: held-out interactions defining relevance.
        top_n: cutoff list, e.g. ``(20,)`` for the paper's tables.
        metrics: metric names from :data:`METRIC_FUNCTIONS`.
        user_subset: optionally restrict to a user subset (cold-start
            analysis, Fig. 8).
    """

    def __init__(
        self,
        train: TagRecDataset,
        test: TagRecDataset,
        top_n: Sequence[int] = (20,),
        metrics: Sequence[str] = ("recall", "ndcg"),
        user_subset: Optional[Iterable[int]] = None,
    ) -> None:
        unknown = [m for m in metrics if m not in METRIC_FUNCTIONS]
        if unknown:
            raise ValueError(
                f"unknown metrics {unknown}; available: {sorted(METRIC_FUNCTIONS)}"
            )
        self._train_items = train.items_of_user()
        self._test_items = test.items_of_user()
        self.num_items = train.num_items
        self.top_n = tuple(top_n)
        self.metric_names = tuple(metrics)
        allowed = set(user_subset) if user_subset is not None else None
        self.eval_users = np.asarray(
            [
                u
                for u in range(test.num_users)
                if len(self._test_items[u]) > 0
                and (allowed is None or u in allowed)
            ],
            dtype=np.int64,
        )
        # Precomputed CSR structures over the evaluation users: training
        # items (the -inf mask) and test items (the relevance sets,
        # globally-sorted keys for vectorized membership).
        self._mask_indptr, self._mask_flat = csr_over_users(
            self._train_items, self.eval_users
        )
        self._rel_indptr, self._rel_flat = csr_over_users(
            self._test_items, self.eval_users
        )
        self._rel_counts = np.diff(self._rel_indptr)

    # ------------------------------------------------------------------
    # vectorized fast path
    # ------------------------------------------------------------------
    def evaluate(
        self,
        model,
        chunk_size: int = 256,
        perf: Optional[StopwatchRegistry] = None,
        tracer: Optional[obs.Tracer] = None,
        approximate: bool = False,
        index=None,
        n_probe: int = 2,
    ) -> EvalResult:
        """Evaluate ``model`` (anything exposing ``all_scores(users)``).

        ``all_scores(users)`` must return an ``(len(users), |V|)`` score
        array without tracking gradients.

        Args:
            model: the scorer.
            chunk_size: users ranked per ``all_scores`` call.
            perf: optional timer registry; when given, the phases
                ``score`` / ``rank`` / ``metrics`` are recorded.
            tracer: optional :class:`repro.obs.Tracer` (falls back to
                the process-global tracer); records per-chunk
                ``eval:score`` / ``eval:rank`` spans and one
                ``metric:<name>@<n>`` span per configured metric.
            approximate: rank only the cluster-routed shortlist of each
                user (see :mod:`repro.retrieval`) instead of the full
                catalogue.  Each chunk is still scored densely by
                ``model.all_scores``; off-shortlist items are masked to
                ``-inf`` and never enter the top-N, shortlisted ones keep
                the exact scores bit-for-bit, so ``n_probe =
                num_partitions`` reproduces the exact per-user metrics.
                This measures routing quality, not a scoring saving.
            index: a prebuilt :class:`repro.retrieval.ClusterIndex`
                (``None`` builds one from ``model`` on the fly).  A
                fingerprint mismatch with ``model`` raises
                :class:`repro.retrieval.IndexMismatch` — approximate
                eval against a stale index would silently misreport.
            n_probe: partitions probed per user in approximate mode.
        """
        perf = perf if perf is not None else StopwatchRegistry()
        tracer = obs.resolve_tracer(tracer)
        if approximate:
            # Local import: retrieval depends on ckpt/obs, the eval
            # layer must stay importable without it.
            from ..retrieval import ApproximateScorer, build_index

            if index is None:
                index = build_index(model)
            model = ApproximateScorer(
                model, index, n_probe=n_probe, tracer=tracer
            )
        max_n = max(self.top_n)
        chunks: Dict[str, List[np.ndarray]] = {
            f"{m}@{n}": [] for m in self.metric_names for n in self.top_n
        }
        for start in range(0, len(self.eval_users), chunk_size):
            users = self.eval_users[start : start + chunk_size]
            with perf.timed("score"), tracer.span("eval:score", users=len(users)):
                # Scoring runs under no_grad so a model that forgets to
                # detach cannot grow the tape across the full |U| x |V|
                # ranking.  The chunk is masked in place below, so a
                # model's array is copied (it may be cached or shared);
                # the ApproximateScorer built above returns a fresh one.
                with no_grad():
                    raw = model.all_scores(users)
                if approximate:
                    scores = np.asarray(raw, dtype=np.float64)
                else:
                    scores = np.array(raw, dtype=np.float64)
            if scores.shape[0] != len(users):
                raise ValueError(
                    f"all_scores returned {scores.shape[0]} rows for "
                    f"{len(users)} users"
                )
            with perf.timed("rank"), tracer.span("eval:rank"):
                hits = self._rank_chunk(scores, start, len(users), max_n)
            with perf.timed("metrics"):
                relevant = self._rel_counts[start : start + len(users)]
                for key, values in self._chunk_metrics(
                    hits, relevant, tracer
                ).items():
                    chunks[key].append(values)
        per_user = {
            key: (
                np.concatenate(vals)
                if vals
                else np.empty(0, dtype=np.float64)
            )
            for key, vals in chunks.items()
        }
        means = {
            key: float(vals.mean()) if len(vals) else 0.0
            for key, vals in per_user.items()
        }
        return EvalResult(metrics=means, per_user=per_user, user_ids=self.eval_users)

    def _rank_chunk(
        self, scores: np.ndarray, start: int, rows: int, max_n: int
    ) -> np.ndarray:
        """Mask, select, and label the top ``max_n`` of one chunk.

        Writes ``-inf`` over each user's training items in ``scores``
        (the evaluator's own copy) and ranks the chunk with
        :func:`top_k_rows`.  Returns the boolean ``(rows, k)`` hit
        matrix: ``hits[i, j]`` means the j-th ranked item of user i is
        one of its test items.  Slots holding a non-finite score
        (possible when the training mask leaves fewer than ``max_n``
        items) are always False — masked items rank after every
        candidate exactly as in :func:`rank_items`'s trim, so positions
        of real candidates are unaffected.
        """
        fill_csr_rows(scores, self._mask_indptr, self._mask_flat, start, -np.inf)
        ranked, values = top_k_rows(scores, max_n)
        # Membership of every ranked slot in its user's test set: one
        # dense boolean scatter of the chunk's relevance lists, then a
        # gather at the ranked positions (measurably faster than a
        # searchsorted over (row, item) keys).
        relevance = np.zeros((rows, scores.shape[1]), dtype=bool)
        fill_csr_rows(relevance, self._rel_indptr, self._rel_flat, start, True)
        hits = relevance[np.arange(rows)[:, None], ranked]
        return hits & np.isfinite(values)

    def _chunk_metrics(
        self,
        hits: np.ndarray,
        relevant: np.ndarray,
        tracer: Optional[obs.Tracer] = None,
    ) -> Dict[str, np.ndarray]:
        """All configured metrics for one chunk from its hit matrix."""
        tracer = obs.resolve_tracer(tracer)
        hits = hits.astype(np.float64)
        k = hits.shape[1]
        discounts = 1.0 / np.log2(np.arange(k, dtype=np.float64) + 2.0)
        cum_discount = np.concatenate([[0.0], np.cumsum(discounts)])
        cum_hits = np.cumsum(hits, axis=1)
        relevant = relevant.astype(np.float64)
        out: Dict[str, np.ndarray] = {}
        for n in self.top_n:
            m = min(n, k)
            hits_n = cum_hits[:, m - 1] if m > 0 else np.zeros(len(hits))
            ideal = np.minimum(relevant, n)
            for metric in self.metric_names:
                key = f"{metric}@{n}"
                with tracer.span(f"metric:{key}"):
                    if metric == "recall":
                        out[key] = hits_n / np.maximum(relevant, 1.0)
                    elif metric == "precision":
                        out[key] = hits_n / n if n > 0 else np.zeros(len(hits))
                    elif metric == "hit_rate":
                        out[key] = (hits_n > 0).astype(np.float64)
                    elif metric == "ndcg":
                        dcg = (hits[:, :m] * discounts[:m]).sum(axis=1)
                        idcg = cum_discount[
                            np.minimum(ideal, k).astype(np.int64)
                        ]
                        out[key] = np.divide(
                            dcg, idcg, out=np.zeros_like(dcg), where=idcg > 0
                        )
                    elif metric == "map":
                        ranks = np.arange(1, m + 1, dtype=np.float64)
                        ap = (
                            hits[:, :m] * cum_hits[:, :m] / ranks
                        ).sum(axis=1)
                        out[key] = np.divide(
                            ap, ideal, out=np.zeros_like(ap), where=ideal > 0
                        )
                    else:  # pragma: no cover - guarded in __init__
                        raise AssertionError(f"unhandled metric {metric!r}")
        return out

    # ------------------------------------------------------------------
    # reference path (per-user Python loop, kept for equivalence tests
    # and as the baseline of the hot-path benchmarks)
    # ------------------------------------------------------------------
    def evaluate_reference(  # lint: reference-path
        self, model, chunk_size: int = 256
    ) -> EvalResult:
        """The original per-user implementation of :meth:`evaluate`."""
        max_n = max(self.top_n)
        columns: Dict[str, List[float]] = {
            f"{m}@{n}": [] for m in self.metric_names for n in self.top_n
        }
        for start in range(0, len(self.eval_users), chunk_size):
            users = self.eval_users[start : start + chunk_size]
            with no_grad():
                scores = np.asarray(model.all_scores(users))
            if scores.shape[0] != len(users):
                raise ValueError(
                    f"all_scores returned {scores.shape[0]} rows for "
                    f"{len(users)} users"
                )
            for row, user in enumerate(users):
                exclude = set(self._train_items[user].tolist())
                relevant = set(self._test_items[user].tolist())
                ranked = rank_items(scores[row], exclude, max_n)
                for metric in self.metric_names:
                    func = METRIC_FUNCTIONS[metric]
                    for n in self.top_n:
                        columns[f"{metric}@{n}"].append(func(ranked, relevant, n))
        per_user = {key: np.asarray(vals) for key, vals in columns.items()}
        means = {
            key: float(vals.mean()) if len(vals) else 0.0
            for key, vals in per_user.items()
        }
        return EvalResult(metrics=means, per_user=per_user, user_ids=self.eval_users)
