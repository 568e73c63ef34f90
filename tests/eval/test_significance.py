"""Tests for the paired t-test helper."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.eval import TTestResult, paired_t_test


class TestPairedTTest:
    def test_clear_difference_significant(self):
        rng = np.random.default_rng(0)
        base = rng.normal(0.5, 0.05, size=200)
        better = base + 0.1 + rng.normal(0, 0.01, size=200)
        result = paired_t_test(better, base)
        assert result.significant(0.01)
        assert result.mean_difference == pytest.approx(0.1, abs=0.01)
        assert result.statistic > 0

    def test_identical_vectors_not_significant(self):
        values = np.ones(50) * 0.3
        result = paired_t_test(values, values.copy())
        assert result.p_value == 1.0
        assert not result.significant()

    def test_noise_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=100)
        b = a + rng.normal(0, 1.0, size=100) * 0.01 - 0.0001
        result = paired_t_test(a, b)
        # Tiny asymmetric shift in huge noise: p should not be extreme.
        assert result.p_value > 1e-6

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            paired_t_test(np.ones(3), np.ones(4))

    def test_too_few_users_rejected(self):
        with pytest.raises(ValueError, match="two users"):
            paired_t_test(np.ones(1), np.ones(1))

    def test_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(2)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        ours = paired_t_test(a, b)
        ref_stat, ref_p = stats.ttest_rel(a, b)
        assert ours.statistic == pytest.approx(ref_stat)
        assert ours.p_value == pytest.approx(ref_p)


def test_import_repro_does_not_load_scipy_stats():
    # scipy.stats is only needed inside paired_t_test; importing it with
    # the package roughly doubled the memory and time of ``import repro``.
    code = "import sys, repro; print('scipy.stats' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"
