"""Recall-vs-cost measurement for cluster-routed retrieval.

:func:`run_retrieval_suite` trains a small model, builds a
:class:`ClusterIndex`, and sweeps ``n_probe``: each point records the
per-query shortlist reduction (routing width, not scoring work), the
top-K overlap with the exact ranking (the serving-side "recall@K"),
and the full evaluation metrics and median warm-pass wall clock through
:class:`repro.eval.Evaluator` in exact and ``approximate=True`` modes.
``benchmarks/bench_retrieval.py`` persists the payload as
``BENCH_retrieval.json``; ``python -m repro.retrieval smoke`` asserts
the correctness spine of the same sweep at a tiny scale.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Sequence

import numpy as np

from ..eval.evaluator import csr_over_users, fill_csr_rows
from .index import build_index
from .retriever import ApproximateScorer

#: Warm evaluation passes timed per sweep point (the median is kept).
TIMED_PASSES = 5


def _median_pass(run) -> tuple:
    """``(median seconds, result)`` of ``run()`` over warm passes."""
    result, seconds = run(), []
    for _ in range(TIMED_PASSES):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return float(np.median(seconds)), result


def _top_k_sets(scores: np.ndarray, k: int) -> list:
    """Per-row top-``k`` column sets (``-inf`` entries never qualify)."""
    k = min(k, scores.shape[1])
    part = np.argpartition(scores, -k, axis=1)[:, -k:]
    part_scores = np.take_along_axis(scores, part, axis=1)
    out = []
    for row in range(len(scores)):
        valid = part[row][np.isfinite(part_scores[row])]
        out.append(set(valid.tolist()))
    return out


def ranking_overlap(
    model,
    scorer: ApproximateScorer,
    users: np.ndarray,
    mask_items: Optional[Sequence[np.ndarray]] = None,
    top_k: int = 50,
    chunk_size: int = 256,
) -> float:
    """Mean top-``top_k`` overlap between exact and approximate rankings.

    ``mask_items`` (per-user training items) are masked out of both
    rankings, mirroring the evaluation protocol.  The overlap of user
    ``u`` is ``|approx_k(u) ∩ exact_k(u)| / |exact_k(u)|`` — the
    serving-side recall@K of the approximate tier.
    """
    if mask_items is not None:
        indptr, flat = csr_over_users(mask_items, users)
    overlaps = []
    for start in range(0, len(users), chunk_size):
        chunk = users[start : start + chunk_size]
        exact = np.asarray(model.all_scores(chunk), dtype=np.float64).copy()
        approx = scorer.all_scores(chunk)
        if mask_items is not None:
            fill_csr_rows(exact, indptr, flat, start, -np.inf)
            fill_csr_rows(approx, indptr, flat, start, -np.inf)
        exact_sets = _top_k_sets(exact, top_k)
        approx_sets = _top_k_sets(approx, top_k)
        for exact_set, approx_set in zip(exact_sets, approx_sets):
            if exact_set:
                overlaps.append(len(exact_set & approx_set) / len(exact_set))
    return float(np.mean(overlaps)) if overlaps else 0.0


def run_retrieval_suite(
    dataset_name: str = "hetrec-del",
    scale: float = 0.5,
    epochs: int = 30,
    embed_dim: int = 32,
    batch_size: int = 512,
    num_partitions: int = 16,
    n_probes: Sequence[int] = (1, 2, 3, 4, 6, 8, 12, 16),
    top_k: int = 50,
    sample_users: int = 256,
    popular_head: int = 25,
    seed: int = 7,
) -> Dict[str, object]:
    """Train, index, sweep ``n_probe``; returns a JSON-safe payload."""
    # Local imports: the suite pulls in the training stack, which the
    # serving-time retrieval path must not pay for.
    from ..bench.harness import BenchSettings, prepare_split
    from ..eval import Evaluator
    from ..models import BPRMF, TrainConfig, fit_bpr

    settings = BenchSettings(
        scale=scale, embed_dim=embed_dim, epochs=epochs, batch_size=batch_size,
        train_seed=seed,
    )
    dataset, split = prepare_split(dataset_name, settings)
    rng = np.random.default_rng(seed)
    model = BPRMF(dataset.num_users, dataset.num_items, embed_dim, rng)
    fit_bpr(
        model,
        split,
        TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            seed=seed,
            eval_every=max(epochs, 1),
        ),
    )

    evaluator = Evaluator(
        split.train, split.test, top_n=(top_k,), metrics=("recall", "ndcg")
    )
    exact_seconds, exact_result = _median_pass(
        lambda: evaluator.evaluate(model)
    )

    index = build_index(
        model,
        num_partitions=num_partitions,
        strategy="auto",
        popularity=split.train.item_degrees(),
        popular_head=popular_head,
        seed=seed,
    )
    train_items = split.train.items_of_user()
    users = rng.choice(
        dataset.num_users,
        size=min(sample_users, dataset.num_users),
        replace=False,
    )

    curve = []
    for n_probe in sorted(set(int(p) for p in n_probes)):
        if n_probe < 1 or n_probe > index.num_partitions:
            continue
        scorer = ApproximateScorer(model, index, n_probe=n_probe)
        overlap = ranking_overlap(
            model, scorer, users, mask_items=train_items, top_k=top_k
        )
        mean_scored = (
            scorer.scored_items / scorer.queries if scorer.queries else 0.0
        )
        approx_seconds, approx_result = _median_pass(
            lambda: evaluator.evaluate(
                model, approximate=True, index=index, n_probe=n_probe
            )
        )
        curve.append(
            {
                "n_probe": n_probe,
                "recall_at_k_vs_exact": overlap,
                "mean_scored_items": mean_scored,
                "scored_reduction": (
                    dataset.num_items / mean_scored if mean_scored else 0.0
                ),
                "eval_seconds": approx_seconds,
                "eval_speedup": (
                    exact_seconds / approx_seconds if approx_seconds else 0.0
                ),
                f"recall@{top_k}": approx_result[f"recall@{top_k}"],
                f"ndcg@{top_k}": approx_result[f"ndcg@{top_k}"],
                "recall_delta": (
                    approx_result[f"recall@{top_k}"]
                    - exact_result[f"recall@{top_k}"]
                ),
                "ndcg_delta": (
                    approx_result[f"ndcg@{top_k}"]
                    - exact_result[f"ndcg@{top_k}"]
                ),
            }
        )

    qualifying = [
        point
        for point in curve
        if point["recall_at_k_vs_exact"] >= 0.95
    ]
    best = (
        max(qualifying, key=lambda point: point["scored_reduction"])
        if qualifying
        else None
    )
    return {
        "settings": {
            "dataset": dataset_name,
            "scale": scale,
            "epochs": epochs,
            "embed_dim": embed_dim,
            "num_items": dataset.num_items,
            "num_users": dataset.num_users,
            "num_partitions": index.num_partitions,
            "strategy": index.strategy,
            "popular_head": popular_head,
            "top_k": top_k,
            "sample_users": int(len(users)),
            "seed": seed,
        },
        "exact": {
            f"recall@{top_k}": exact_result[f"recall@{top_k}"],
            f"ndcg@{top_k}": exact_result[f"ndcg@{top_k}"],
            "eval_seconds": exact_seconds,
            "scored_per_query": dataset.num_items,
        },
        "curve": curve,
        "best_qualifying": best,
    }


def save_retrieval_results(payload: Dict[str, object], path: str) -> None:
    """Persist a suite payload as ``BENCH_retrieval.json``-style JSON."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def format_retrieval_table(payload: Dict[str, object]) -> str:
    """Text rendering of the recall-vs-cost curve."""
    from ..bench.tables import format_table

    top_k = payload["settings"]["top_k"]
    rows = [
        [
            point["n_probe"],
            point["mean_scored_items"],
            point["scored_reduction"],
            point["recall_at_k_vs_exact"],
            point[f"recall@{top_k}"],
            point["eval_speedup"],
        ]
        for point in payload["curve"]
    ]
    settings = payload["settings"]
    return format_table(
        [
            "n_probe",
            "scored/query",
            "reduction",
            f"overlap@{top_k}",
            f"recall@{top_k}",
            "eval speedup",
        ],
        rows,
        title=(
            f"retrieval ({settings['dataset']} @ scale={settings['scale']}, "
            f"{settings['num_partitions']} partitions, "
            f"{settings['strategy']})"
        ),
    )
