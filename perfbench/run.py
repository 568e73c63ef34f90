"""Repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps the program's public layer
boundaries, records spans and reports the per-layer metrics instead.
Every metric is printed by name with its unit, and the last line of
standard output is the JSON result.  Details, spans and the
environment go to ``.perfbench_out/``.  The run exits non-zero without a
result when the program's sources are missing or it cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import measure
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "rank", "serve-zipf", "serve-uniform")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def per_layer(ctx, result: dict) -> dict:
    """Every per-layer metric of the traced run (0 where a layer did no
    work on this workload)."""
    spans = ctx.recorder.spans
    table, total = tracing.layer_table(spans, workloads.LAYER_OF,
                                       other="bench.other_s")
    grouped = tracing.by_name(spans)
    extra = ctx.extra

    def count(name: str) -> int:
        return len(grouped.get(name, ()))

    def values(name: str):
        return [s[tracing.VALUE] for s in grouped.get(name, ())]

    def durations(name: str, keep=lambda span: True):
        return [s[tracing.END] - s[tracing.START] for s in grouped.get(name, ())
                if keep(s)]

    def mean(xs) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    measure_span = grouped["bench.measure"][0]
    in_measure = lambda s: s[tracing.START] >= measure_span[tracing.START]  # noqa: E731
    propagate_measured = len(durations("LightGCN.propagate", in_measure))
    in_process = extra.get("serve_requests_in_process", 0)
    scored = values("ApproximateScorer.all_scores")
    # The hot-key share of the reference slices, where the latencies
    # come from (the saturation bursts send uniform traffic).
    hot = extra.get("reference_hotkey", {})
    hits, misses = hot.get("hits", 0), hot.get("misses", 0)
    rtt_total = sum(durations("ProcWorker.recommend"))
    worker_total = sum(values("ProcWorker.recommend"))
    batch = extra.get("batch", {})
    levels = extra.get("levels", {})
    phases = extra.get("phases", [])
    num_items = extra.get("num_items", 0)
    out = {name: table.get(name, 0.0) for name in set(workloads.LAYER_OF.values())}
    out.update({
        "core.cluster_refresh_calls": count("IMCAT.refresh_clusters"),
        "models.propagate_calls": count("LightGCN.propagate"),
        "models.propagate_per_request": (
            propagate_measured / in_process if in_process else 0.0),
        "models.all_scores_users_per_call": mean(values("LightGCN.all_scores")),
        "eval.exact_pass_s": mean(durations(
            "Evaluator.evaluate", lambda s: s[tracing.VALUE] == 0.0)),
        "retrieval.approx_pass_s": mean(durations(
            "Evaluator.evaluate", lambda s: s[tracing.VALUE] == 1.0)),
        "retrieval.scored_per_user": mean(scored),
        "retrieval.scored_share": mean(scored) / num_items if num_items else 0.0,
        "ckpt.save_bytes": mean(values("CheckpointManager.save")),
        "serve.hotkey_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "serve.worker_s": worker_total,
        "serve.transport_s": rtt_total - worker_total if rtt_total else 0.0,
        "serve.batch_users_mean": (
            batch["requests"] / batch["flushes"] if batch.get("flushes") else 0.0),
        "serve.max_rps": extra.get("max_rps", 0.0),
        "serve.rerouted": extra.get("rerouted", 0),
        "serve.rung_live": levels.get("live", 0),
        "serve.rung_stale": levels.get("stale", 0),
        "serve.rung_popularity": levels.get("popularity", 0),
        "serve.sender_late_tail_ms": (
            phases[0]["late_tail"] * 1000.0 if phases else 0.0),
        "serve.reload_window_tail_ms": sum(
            p["latency_tail"] * 1000.0 for p in phases
            if p["name"] == "reload-window"),
        # The tail is no steadier than the host from run to run (see
        # README), so it is reported here, without a bound.
        "latency_tail_ms": result["latency"]["tail"],
        "bench.other_s": table.get("bench.other_s", 0.0),
        "bench.traced_total_s": total,
        "bench.trace_overhead_ratio": (
            extra["span_cost_s"] * len(spans) / total if total else 0.0),
    })
    summed = sum(v for k, v in table.items())
    ctx.check(abs(summed - total) <= workloads.SELF_TIME_TOLERANCE * total,
              f"layer self times sum to {summed:.6f}s, traced total {total:.6f}s")
    extra["layer_table"] = dict(sorted(table.items(), key=lambda kv: -kv[1]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.obs

    default_threads = measure.blas_threads()
    pinned_threads = measure.set_blas_threads(workloads.BLAS_THREADS)
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ctx = workloads.Context(ROOT, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    ctx.extra["blas_threads"] = {"default": default_threads,
                                 "set": pinned_threads}
    started = time.perf_counter()
    try:
        if args.trace:
            ctx.extra["span_cost_s"] = tracing.calibrate_overhead()
            workloads.install_wrappers(ctx.recorder)
        ctx.check(not repro.obs.get_tracer().enabled,
                  "the program's own tracer is on")
        result = workloads.RUNNERS[args.workload](ctx)
        ctx.check(not repro.obs.get_tracer().enabled,
                  "the program's own tracer is on")
        if args.trace:
            metrics = per_layer(ctx, result)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            latency = result["latency"]
            metrics = {
                "setup_s": ctx.extra["setup_s"],
                "peak_rss_mb": ctx.extra.get("peak_rss_mb") or measure.peak_rss_mb(),
                "throughput_per_s": result["throughput_per_s"],
                "latency_p50_ms": latency["p50"],
                "quality": result["quality"],
            }
            ctx.extra["latency_tail_pct"] = latency["tail_pct"]
            ctx.extra["latency_samples"] = latency["n"]
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        ctx.recorder.restore()
        ctx.close()

    missing = [n for n in names if n not in metrics or not math.isfinite(metrics[n])]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ctx.recorder.dump(os.path.join(out_dir, f"{stem}.spans.jsonl"))
    env = measure.environment(ROOT)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "failures": ctx.failures, "details": ctx.extra,
        "wall_s": time.perf_counter() - started,
    }
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} blas={env['blas'].get('name')} "
          f"threads={env['blas'].get('threads')} commit={env['git_commit'][:12]}")
    if args.trace:
        for layer, seconds in ctx.extra["layer_table"].items():
            print(f"#   self {layer:32s} {seconds:10.4f} s")
    for failure in ctx.failures:
        print(f"# CHECK FAILED: {failure}")
    for name in names:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    final = {
        "correct": not ctx.failures,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in names},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
