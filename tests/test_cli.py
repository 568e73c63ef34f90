"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_dataset_and_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "hetrec-del"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "netflix", "--method", "BPRMF"]
            )

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "hetrec-del", "--method", "SVD++"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "hetrec-del", "--method", "BPRMF"]
        )
        assert args.scale == 0.05
        assert args.epochs == 40
        assert args.dp_workers == 0
        assert args.dp_backend == "fork"

    def test_rejects_unknown_dp_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "hetrec-del", "--method", "BPRMF",
                 "--dp-backend", "threads"]
            )


class TestCommands:
    def test_list_prints_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "L-IMCAT" in out
        assert "hetrec-del" in out
        assert "w/o UIT" in out

    def test_stats_prints_table(self, capsys):
        assert main(["stats", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "yelp-tag" in out

    def test_run_executes_cell(self, capsys):
        code = main([
            "run", "--dataset", "hetrec-del", "--method", "BPRMF",
            "--scale", "0.04", "--epochs", "2", "--embed-dim", "16",
            "--batch-size", "128",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BPRMF" in out
        assert "R@20" in out

    def test_run_fused_dp_executes_cell(self, capsys):
        code = main([
            "run", "--dataset", "hetrec-del", "--method", "BPRMF",
            "--scale", "0.04", "--epochs", "2", "--embed-dim", "16",
            "--batch-size", "128", "--dp-workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BPRMF" in out
        assert "R@20" in out
