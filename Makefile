# Development targets.  Tiers:
#   lint        tier-0: project static analysis (rules LNT001-LNT005)
#   test        tier-1: the unit/integration suite under tests/
#   bench-smoke tier-2: hot-path perf smoke gated on benchmarks/BENCH_hotpaths.json
#   bench       the full pytest benchmark suite (paper tables/figures)
#   load-smoke  scale-out gate: 4-worker sharded pool under Zipf load +
#               chaos must hold its SLOs (zero errors, p99, rung budget)
#   proc-smoke  process-isolation gate: SIGKILL/hang chaos against a
#               4-worker *subprocess* pool with supervision must end
#               with zero errors and every victim respawned

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test bench bench-smoke bench-hotpaths baseline train-resume serve-smoke load-smoke proc-smoke obs-smoke retrieval-smoke concurrency-smoke examples

lint:
	$(PYTHON) -m repro.lint src tests benchmarks examples

test: lint
	$(PYTHON) -m pytest -x -q

# Concurrency gate: the whole-program lock-discipline pass
# (LNT006-LNT010) must exit 0 over src/, and the threaded test subset
# (including the process worker's pipelined data channel and the
# micro-batcher's flush rule) must run clean under the lockset
# race/deadlock sanitizer.
concurrency-smoke:
	$(PYTHON) -m repro.lint --concurrency src
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -q \
		tests/testing/test_lockset.py tests/serve/test_concurrency.py \
		"tests/serve/test_proc.py::TestPipelining" \
		tests/serve/test_batching.py tests/serve/test_offline_equality.py \
		tests/perf/test_thread_safety.py tests/analysis

bench-smoke:
	$(PYTHON) -m repro.bench smoke

bench-hotpaths:
	$(PYTHON) -m pytest benchmarks/bench_hotpaths.py -q -s

baseline:
	$(PYTHON) -m repro.bench smoke --update-baseline

bench:
	$(PYTHON) -m pytest benchmarks -q -s

# Checkpoint/resume smoke: train 4 epochs with snapshots, then resume the
# same run from the newest snapshot and extend it to 8 epochs.
train-resume:
	rm -rf .ckpt-smoke
	$(PYTHON) -m repro run --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 4 --batch-size 256 \
		--checkpoint-dir .ckpt-smoke --checkpoint-every 2
	$(PYTHON) -m repro run --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 8 --batch-size 256 \
		--checkpoint-dir .ckpt-smoke --resume
	rm -rf .ckpt-smoke

# Serving smoke: train a tiny model, answer a request stream with crash
# and latency chaos injected mid-run, and fail unless every request was
# answered (degraded, never erroring) and the breaker opened + recovered.
# The second run serves through the cluster-routed retrieval tier and
# fails unless indexed answers were actually served.
serve-smoke:
	$(PYTHON) -m repro.serve --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 2 --batch-size 256 \
		--requests 40 --deadline-ms 50 --chaos
	$(PYTHON) -m repro.serve --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 2 --batch-size 256 \
		--requests 40 --deadline-ms 50 --retrieval --n-probe 2

# Scale-out load smoke: train a tiny model, fan it out over a 4-worker
# sharded pool (jump-hash routing + per-worker micro-batching), and
# drive a seeded Zipf trace through it while a worker crash and a
# scoring latency spike are armed mid-run.  Fails unless every request
# is answered (zero errors), p99 stays inside the SLO, and the
# degradation-rung budget holds; the run's operating point is written
# to a scratch BENCH file to exercise the bench-out path end to end.
load-smoke:
	$(PYTHON) -m repro.serve --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 2 --batch-size 256 \
		--workers 4 --rps 400 --requests 240 --chaos \
		--bench-out .load-smoke-bench.json
	rm -f .load-smoke-bench.json

# Process-isolation smoke: the SIGKILL chaos acceptance suite — a Zipf
# trace against a 4-worker pool of forked subprocesses while workers
# are SIGKILL'd and stalled mid-run.  Fails unless the run ends with
# zero errors, every victim is respawned by the supervisor (or
# circuit-disabled), and the supervision counters export cleanly.  The
# hard wall-clock timeout guards against a supervision regression
# turning into a hung CI job.
proc-smoke:
	timeout 300 $(PYTHON) -m pytest tests/serve/test_proc_load.py -q
	timeout 120 $(PYTHON) -m repro.serve --dataset hetrec-del \
		--method BPRMF --scale 0.02 --epochs 2 --batch-size 256 \
		--backend process --workers 4 --rps 400 --requests 240 --chaos

# Retrieval smoke: build a cluster-routed index over a small catalogue
# and assert the correctness spine — full-probe routing reproduces exact
# evaluation, recall is monotone in n_probe, cold users get candidates,
# thin shortlists escalate, and the index round-trips through a
# checkpoint directory.
retrieval-smoke:
	$(PYTHON) -m repro.retrieval smoke

# Observability smoke: run a 1-epoch traced training, then prove the
# artifacts are machine-readable — the trace renders through the report
# CLI and the Prometheus exposition parses back.
obs-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	$(PYTHON) -m repro run --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 1 --batch-size 256 \
		--trace-out .obs-smoke/trace.jsonl \
		--metrics-out .obs-smoke/metrics.prom
	$(PYTHON) -m repro.obs report .obs-smoke/trace.jsonl \
		--metrics .obs-smoke/metrics.prom
	rm -rf .obs-smoke

# Examples smoke: every script under examples/ must run to completion.
# Together they drive the library boundary end to end (every graph
# backbone, save/load, serving, explain_pair), which no unit test runs
# as a whole; each script gets a hard wall-clock timeout.
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		timeout 300 $(PYTHON) $$script || exit 1; \
	done
