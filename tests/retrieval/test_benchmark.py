"""Benchmark plumbing and the ``python -m repro.retrieval`` CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.models import BPRMF
from repro.retrieval import (
    ApproximateScorer,
    build_index,
    format_retrieval_table,
    ranking_overlap,
    run_retrieval_suite,
    save_retrieval_results,
)
from repro.retrieval.__main__ import main


@pytest.fixture(scope="module")
def payload():
    """One tiny end-to-end sweep shared by the payload tests."""
    return run_retrieval_suite(
        scale=0.05,
        epochs=2,
        embed_dim=16,
        num_partitions=4,
        n_probes=(1, 2, 4),
        top_k=10,
        sample_users=32,
        popular_head=10,
    )


class TestSuitePayload:
    def test_curve_covers_requested_probes(self, payload):
        assert [point["n_probe"] for point in payload["curve"]] == [1, 2, 4]

    def test_full_probe_point_is_exact(self, payload):
        full = payload["curve"][-1]
        assert full["recall_at_k_vs_exact"] == pytest.approx(1.0)
        assert full["recall_delta"] == pytest.approx(0.0, abs=1e-12)
        assert full["scored_reduction"] == pytest.approx(1.0)

    def test_reduction_decreases_with_probes(self, payload):
        reductions = [p["scored_reduction"] for p in payload["curve"]]
        assert all(
            b <= a + 1e-9 for a, b in zip(reductions, reductions[1:])
        )

    def test_payload_is_json_safe_and_formats(self, payload, tmp_path):
        path = tmp_path / "BENCH_retrieval.json"
        save_retrieval_results(payload, str(path))
        restored = json.loads(path.read_text())
        assert restored["settings"]["dataset"] == "hetrec-del"
        table = format_retrieval_table(payload)
        assert "n_probe" in table and "reduction" in table


class TestRankingOverlap:
    def test_full_probe_overlap_is_one(self):
        model = BPRMF(10, 40, 8, rng=np.random.default_rng(0))
        index = build_index(model, num_partitions=4)
        scorer = ApproximateScorer(
            model, index, n_probe=index.num_partitions
        )
        users = np.arange(10)
        assert ranking_overlap(
            model, scorer, users, top_k=5
        ) == pytest.approx(1.0)

    def test_masked_items_do_not_count(self):
        model = BPRMF(10, 40, 8, rng=np.random.default_rng(0))
        index = build_index(model, num_partitions=4)
        scorer = ApproximateScorer(
            model, index, n_probe=index.num_partitions
        )
        users = np.arange(10)
        mask = [np.arange(5) for _ in range(10)]
        assert ranking_overlap(
            model, scorer, users, mask_items=mask, top_k=5
        ) == pytest.approx(1.0)


    def test_masking_equals_the_per_user_loop(self):
        # The CSR scatter replaced a per-user loop; the overlap must be
        # the loop's, bit for bit, with unsorted and repeated items and
        # chunks that split the users.
        model = BPRMF(40, 300, 8, rng=np.random.default_rng(1))
        index = build_index(model, num_partitions=4)
        scorer = ApproximateScorer(model, index, n_probe=2)
        rng = np.random.default_rng(2)
        mask = [rng.integers(0, 300, size=int(rng.integers(0, 40)))
                for _ in range(40)]
        users = rng.permutation(40)[:33]

        def looped():
            overlaps = []
            for start in range(0, len(users), 8):
                chunk = users[start : start + 8]
                exact = model.all_scores(chunk).astype(np.float64)
                approx = scorer.all_scores(chunk)
                for row, user in enumerate(chunk):
                    exact[row, mask[user]] = -np.inf
                    approx[row, mask[user]] = -np.inf
                for e, a in zip(exact, approx):
                    want = set(np.argsort(-e, kind="stable")[:10].tolist())
                    want = {i for i in want if np.isfinite(e[i])}
                    got = set(np.argsort(-a, kind="stable")[:10].tolist())
                    got = {i for i in got if np.isfinite(a[i])}
                    if want:
                        overlaps.append(len(want & got) / len(want))
            return float(np.mean(overlaps))

        got = ranking_overlap(
            model, scorer, users, mask_items=mask, top_k=10, chunk_size=8
        )
        assert got == looped()


class TestCli:
    def test_smoke_exits_zero(self, capsys):
        assert main(["smoke", "--scale", "0.02", "--partitions", "4"]) == 0
        out = capsys.readouterr().out
        assert "OK: retrieval smoke passed" in out

    def test_default_command_is_smoke(self, capsys):
        assert main([]) == 0
        assert "retrieval smoke passed" in capsys.readouterr().out

    def test_bench_writes_payload(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--scale", "0.05",
                "--epochs", "2",
                "--embed-dim", "16",
                "--partitions", "4",
                "--top-k", "10",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["curve"]
        assert "n_probe" in capsys.readouterr().out
