"""``python -m repro.retrieval`` — smoke-test or benchmark the index.

``smoke`` (the ``make retrieval-smoke`` contract) builds a small index
and asserts the correctness spine in a few seconds: full-probe routing
reproduces exact evaluation's per-user metrics bit-for-bit, shortlist
recall is monotone in ``n_probe``, every user (including cold ones)
gets a non-empty shortlist, thin shortlists escalate, and the index
round-trips through a checkpoint directory unchanged.  Exit code 0
means every assertion held.

``bench`` runs the full recall-vs-cost sweep
(:func:`repro.retrieval.run_retrieval_suite`) and writes
``BENCH_retrieval.json``; ``benchmarks/bench_retrieval.py`` is a thin
alias for it.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from ..data import generate_preset, split_dataset
from ..eval import Evaluator
from ..models import BPRMF
from .benchmark import (
    format_retrieval_table,
    ranking_overlap,
    run_retrieval_suite,
    save_retrieval_results,
)
from .index import build_index
from .retriever import ApproximateScorer, Retriever
from .store import load_index, save_index


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.retrieval",
        description="smoke-test or benchmark cluster-routed retrieval",
    )
    sub = parser.add_subparsers(dest="command")
    smoke = sub.add_parser("smoke", help="tiny build→probe→recall assertions")
    smoke.add_argument("--dataset", default="hetrec-del")
    smoke.add_argument("--scale", type=float, default=0.05)
    smoke.add_argument("--embed-dim", type=int, default=16)
    smoke.add_argument("--partitions", type=int, default=8)
    smoke.add_argument("--seed", type=int, default=7)
    bench = sub.add_parser("bench", help="recall-vs-cost n_probe sweep")
    bench.add_argument("--dataset", default="hetrec-del")
    bench.add_argument("--scale", type=float, default=0.5)
    bench.add_argument("--epochs", type=int, default=30)
    bench.add_argument("--embed-dim", type=int, default=32)
    bench.add_argument("--partitions", type=int, default=16)
    bench.add_argument("--top-k", type=int, default=50)
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument(
        "--out", default="benchmarks/BENCH_retrieval.json", metavar="FILE"
    )
    return parser


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"  {status:4s} {label}{suffix}")
    return ok


def run_smoke(args) -> int:
    dataset = generate_preset(args.dataset, scale=args.scale, seed=1)
    split = split_dataset(dataset, seed=2)
    rng = np.random.default_rng(args.seed)
    model = BPRMF(dataset.num_users, dataset.num_items, args.embed_dim, rng)
    model.eval()
    index = build_index(
        model,
        num_partitions=args.partitions,
        strategy="auto",
        popularity=split.train.item_degrees(),
        popular_head=10,
        seed=args.seed,
    )
    print(
        f"index: {dataset.num_items} items in {index.num_partitions} "
        f"partitions ({index.strategy}), head={index.popular_head.size}"
    )
    ok = True

    evaluator = Evaluator(
        split.train, split.test, top_n=(10,), metrics=("recall", "ndcg")
    )
    exact = evaluator.evaluate(model)
    full = evaluator.evaluate(
        model, approximate=True, index=index, n_probe=index.num_partitions
    )
    agree = np.array_equal(exact.user_ids, full.user_ids) and all(
        np.array_equal(exact.per_user[key], full.per_user[key])
        for key in exact.per_user
    )
    ok &= _check(
        "full probe ≡ exact eval (per user, bitwise)", agree,
        f"exact {exact.summary()} vs full-probe {full.summary()}",
    )

    users = np.arange(dataset.num_users, dtype=np.int64)
    overlaps = []
    for n_probe in range(1, index.num_partitions + 1):
        scorer = ApproximateScorer(model, index, n_probe=n_probe)
        overlaps.append(
            ranking_overlap(model, scorer, users, top_k=10)
        )
    monotone = all(
        later >= earlier - 1e-9
        for earlier, later in zip(overlaps, overlaps[1:])
    )
    ok &= _check(
        "recall monotone in n_probe", monotone and overlaps[-1] >= 1.0 - 1e-9,
        f"overlap@10 sweep {['%.3f' % o for o in overlaps]}",
    )

    retriever = Retriever(model, index, n_probe=1)
    sizes = [retriever.shortlist(int(u)).size for u in users]
    ok &= _check(
        "every user has candidates", min(sizes) > 0,
        f"min shortlist {min(sizes)}, mean {np.mean(sizes):.1f}",
    )

    wide = retriever.recommend(0, top_n=dataset.num_items)
    ok &= _check(
        "thin shortlist escalates to exact",
        wide.size == dataset.num_items,
        f"asked {dataset.num_items}, got {wide.size}",
    )

    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp, step=3)
        loaded = load_index(tmp, expected_fingerprint=index.fingerprint)
        round_trip = loaded is not None and all(
            np.array_equal(
                loaded.candidates(vec, 2), index.candidates(vec, 2)
            )
            for vec in np.eye(args.embed_dim)[:4]
        )
        ok &= _check("ckpt round-trip preserves routing", round_trip)

    if not ok:
        print("\nFAIL: retrieval smoke assertions failed", file=sys.stderr)
        return 1
    print("\nOK: retrieval smoke passed")
    return 0


def run_bench(args) -> int:
    payload = run_retrieval_suite(
        dataset_name=args.dataset,
        scale=args.scale,
        epochs=args.epochs,
        embed_dim=args.embed_dim,
        num_partitions=args.partitions,
        top_k=args.top_k,
        seed=args.seed,
    )
    print(format_retrieval_table(payload))
    best = payload["best_qualifying"]
    if best is None:
        print(
            "note: no sweep point reached recall 0.95; "
            "widest point kept for the curve"
        )
    else:
        print(
            f"best qualifying: n_probe={best['n_probe']} scores "
            f"{best['scored_reduction']:.1f}x fewer items at "
            f"overlap {best['recall_at_k_vs_exact']:.3f}"
        )
    save_retrieval_results(payload, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return run_bench(args)
    if args.command in (None, "smoke"):
        if args.command is None:
            args = build_parser().parse_args(["smoke"])
        return run_smoke(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
