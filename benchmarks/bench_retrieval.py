"""Cluster-routed retrieval: shortlist reduction vs ranking recall.

Not a paper table — this bench tracks the approximate-retrieval tier's
own acceptance contract: sweeping ``n_probe`` over a trained model's
index must yield at least one operating point whose shortlist is >= 5x
smaller than the catalogue while keeping top-K overlap with the exact
ranking at >= 0.95, and the full-probe point must reproduce the exact
evaluation metrics bit-for-bit.  The shortlist reduction is routing
width: approximate evaluation still does the model's dense scoring, so
its wall clock (median of warm passes) must stay within 2x of the
exact pass's.  The sweep is persisted to ``BENCH_retrieval.json`` next
to this file at the default full scale.

Knobs: ``REPRO_BENCH_SCALE`` shrinks the dataset (the file is only
written at the default scale so the recorded curve stays comparable
across runs).
"""

from __future__ import annotations

import os

from repro.retrieval import (
    format_retrieval_table,
    run_retrieval_suite,
    save_retrieval_results,
)

from .conftest import env_float, run_once

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_retrieval.json")

#: Acceptance contract (ISSUE 6): some probed operating point must cut
#: per-query scored items by >= 5x at >= 0.95 top-K agreement.
MIN_SCORED_REDUCTION = 5.0
MIN_OVERLAP = 0.95
#: The best qualifying point's approximate evaluation pass may take at
#: most this multiple of the exact pass's wall clock.
MAX_APPROX_SLOWDOWN = 2.0
#: Full-probe evaluation must agree with exact to FP roundoff.
MAX_FULL_PROBE_DELTA = 1e-12
#: The bench's own default scale (REPRO_BENCH_SCALE overrides).
DEFAULT_SCALE = 0.5


def test_retrieval_recall_speedup(benchmark):
    scale = env_float("REPRO_BENCH_SCALE", DEFAULT_SCALE)

    payload = run_once(benchmark, lambda: run_retrieval_suite(scale=scale))
    print()
    print(format_retrieval_table(payload))

    curve = payload["curve"]
    assert curve, "n_probe sweep produced no operating points"

    # Full probe == exact: the last point probes every partition.
    full = curve[-1]
    assert full["n_probe"] == payload["settings"]["num_partitions"]
    assert full["recall_at_k_vs_exact"] == 1.0
    assert abs(full["recall_delta"]) <= MAX_FULL_PROBE_DELTA
    assert abs(full["ndcg_delta"]) <= MAX_FULL_PROBE_DELTA

    # Overlap must be monotone in n_probe (wider shortlists only help).
    overlaps = [point["recall_at_k_vs_exact"] for point in curve]
    assert all(
        b >= a - 1e-12 for a, b in zip(overlaps, overlaps[1:])
    ), f"overlap not monotone in n_probe: {overlaps}"

    best = payload["best_qualifying"]
    assert best is not None, (
        f"no operating point reaches overlap >= {MIN_OVERLAP}; "
        f"curve: {[(p['n_probe'], p['recall_at_k_vs_exact']) for p in curve]}"
    )
    assert best["scored_reduction"] >= MIN_SCORED_REDUCTION, (
        f"best qualifying point scores only "
        f"{best['scored_reduction']:.2f}x fewer items "
        f"(floor {MIN_SCORED_REDUCTION}x) at n_probe={best['n_probe']}"
    )

    exact_seconds = payload["exact"]["eval_seconds"]
    assert best["eval_seconds"] <= MAX_APPROX_SLOWDOWN * exact_seconds, (
        f"approximate pass at n_probe={best['n_probe']} takes "
        f"{best['eval_seconds']:.4f}s against {exact_seconds:.4f}s exact "
        f"(ceiling {MAX_APPROX_SLOWDOWN}x)"
    )

    if scale == DEFAULT_SCALE:
        save_retrieval_results(payload, RESULTS_PATH)
        print(f"recorded: {RESULTS_PATH}")
