"""Tests for the ``python -m repro.bench`` smoke runner."""

from __future__ import annotations

import copy

import pytest

import repro.bench.__main__ as bench_main
from repro.bench.__main__ import build_parser, main
from repro.bench.hotpaths import run_hotpath_suite


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_smoke_defaults(self):
        args = build_parser().parse_args(["smoke"])
        assert args.scale == 1.0
        assert args.tolerance == 2.0
        assert not args.update_baseline


class TestMain:
    SMALL = ["--scale", "0.05", "--repeats", "1"]

    def test_smoke_without_baseline_passes(self, tmp_path, capsys):
        baseline = str(tmp_path / "missing.json")
        code = main(["smoke", *self.SMALL, "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 0
        assert "gate skipped" in out
        assert "hot-path smoke OK" in out

    def test_update_baseline_then_gate(self, tmp_path, capsys, monkeypatch):
        # The test covers the update -> gate plumbing, not the host's
        # speed: both runs see one fixed measurement, so a noisy
        # single-repeat timing cannot trip the 2x throughput gate.
        measured = run_hotpath_suite(scale=0.05, repeats=1)
        monkeypatch.setattr(
            bench_main, "run_hotpath_suite",
            lambda **kwargs: copy.deepcopy(measured),
        )
        baseline = str(tmp_path / "base.json")
        assert main(["smoke", *self.SMALL, "--baseline", baseline,
                     "--update-baseline"]) == 0
        # Second run gates against the freshly recorded baseline.
        assert main(["smoke", *self.SMALL, "--baseline", baseline]) == 0
        assert "hot-path smoke OK" in capsys.readouterr().out

    def test_scale_mismatch_skips_gate(self, tmp_path, capsys):
        baseline = str(tmp_path / "base.json")
        main(["smoke", *self.SMALL, "--baseline", baseline, "--update-baseline"])
        code = main(["smoke", "--scale", "0.04", "--repeats", "1",
                     "--baseline", baseline])
        assert code == 0
        assert "gate skipped" in capsys.readouterr().out

    def test_hotpaths_command_never_gates(self, tmp_path, capsys):
        baseline = str(tmp_path / "missing.json")
        code = main(["hotpaths", *self.SMALL, "--baseline", baseline])
        assert code == 0
        assert "hot paths" in capsys.readouterr().out
