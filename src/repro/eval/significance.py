"""Statistical significance testing between per-user metric vectors.

The paper reports paired t-tests at ``p <= 0.01`` between L-IMCAT and the
best baseline on each dataset (Table II caption).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a paired t-test between two methods."""

    statistic: float
    p_value: float
    mean_difference: float

    def significant(self, alpha: float = 0.01) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value <= alpha


def paired_t_test(values_a: np.ndarray, values_b: np.ndarray) -> TTestResult:
    """Paired t-test over per-user metric values.

    Args:
        values_a: per-user metric of method A (e.g. L-IMCAT).
        values_b: per-user metric of method B (best baseline), same users
            in the same order.

    Raises:
        ValueError: on length mismatch or fewer than two users.
    """
    values_a = np.asarray(values_a, dtype=np.float64)
    values_b = np.asarray(values_b, dtype=np.float64)
    if values_a.shape != values_b.shape:
        raise ValueError(
            f"paired t-test needs equal-length vectors, got "
            f"{values_a.shape} and {values_b.shape}"
        )
    if len(values_a) < 2:
        raise ValueError("paired t-test needs at least two users")
    diff = values_a - values_b
    if np.allclose(diff, 0.0):
        return TTestResult(statistic=0.0, p_value=1.0, mean_difference=0.0)
    # Deferred: scipy.stats roughly doubles the memory and time of
    # ``import repro``, and only this call needs it.
    from scipy import stats

    statistic, p_value = stats.ttest_rel(values_a, values_b)
    return TTestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        mean_difference=float(diff.mean()),
    )
