"""Differential tests: ``top_k_rows`` against full-row selection.

The kernel must return exactly the ids and values of
:func:`tests.helpers.reference_top_k_rows` (the selection the evaluator
ran before the kernel) on every input: heavy integer ties, ``±inf``,
``NaN``, rows with fewer than ``k`` finite entries, ``k >= n``,
catalogues below the prefilter's ``16 * k`` threshold, lengths that
are not a multiple of 16, and a single row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import TOP_K_LANES, rank_items, top_k_rows
from tests.helpers import reference_top_k_rows

#: Value families drawn by :func:`score_matrix`.
KINDS = ("normal", "ties", "few_values", "masked", "special", "few_finite")


def assert_same_selection(scores: np.ndarray, k: int) -> None:
    ids, values = top_k_rows(scores, k)
    ref_ids, ref_values = reference_top_k_rows(scores, k)
    assert ids.dtype == ref_ids.dtype and values.dtype == ref_values.dtype
    np.testing.assert_array_equal(ids, ref_ids)
    # Bitwise, so -0.0 against 0.0 or a NaN payload would show.
    assert values.tobytes() == ref_values.tobytes()


def make_scores(kind: str, rows: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(rows, n))
    if kind == "ties":
        return rng.integers(0, int(rng.integers(1, 40)), size=(rows, n)).astype(
            np.float64
        )
    if kind == "few_values":
        return rng.choice([-0.0, 0.0, 1.0, 2.5], size=(rows, n))
    if kind == "masked":
        scores = rng.normal(size=(rows, n))
        scores[rng.random((rows, n)) < rng.random()] = -np.inf
        return scores
    if kind == "special":
        scores = rng.integers(0, 6, size=(rows, n)).astype(np.float64)
        draw = rng.random((rows, n))
        scores[draw < 0.03] = np.nan
        scores[(draw >= 0.03) & (draw < 0.06)] = np.inf
        scores[draw > 0.85] = -np.inf
        return scores
    # few_finite: fewer finite entries than most k, the rest -inf.
    scores = np.full((rows, n), -np.inf)
    for row in range(rows):
        keep = rng.choice(n, size=int(rng.integers(0, min(n, 30) + 1)), replace=False)
        scores[row, keep] = rng.normal(size=len(keep))
    return scores


@st.composite
def score_matrix(draw):
    kind = draw(st.sampled_from(KINDS))
    rows = draw(st.integers(1, 5))
    k = draw(st.integers(1, 60))
    n = draw(
        st.one_of(
            st.integers(1, 2 * TOP_K_LANES * k + 40),
            st.integers(-15, 15).map(lambda d: max(TOP_K_LANES * k + d, 1)),
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return make_scores(kind, rows, n, seed), k


class TestMatchesFullRowSelection:
    @given(score_matrix())
    @settings(max_examples=1000, deadline=None)
    def test_random_matrices(self, case):
        scores, k = case
        assert_same_selection(scores, k)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [5169, 16 * 20, 16 * 20 + 15, 16 * 20 - 1])
    def test_catalogue_sizes(self, kind, n):
        assert_same_selection(make_scores(kind, 64, n, seed=n), 20)

    @pytest.mark.parametrize("k", [1, 7, 20, 60])
    def test_all_equal_rows(self, k):
        assert_same_selection(np.zeros((3, 2000)), k)
        assert_same_selection(np.full((3, 2000), -np.inf), k)

    @pytest.mark.parametrize("n", [1, 5, 20, 21])
    def test_k_at_least_n(self, n):
        scores = make_scores("ties", 4, n, seed=n)
        assert_same_selection(scores, 20)
        assert top_k_rows(scores, 20)[0].shape == (4, min(n, 20))

    def test_single_row(self):
        assert_same_selection(make_scores("normal", 1, 3001, seed=1), 20)

    def test_nan_and_inf_in_the_tail(self):
        # n % 16 tail items join every row's candidates directly.
        scores = make_scores("normal", 3, 16 * 40 + 9, seed=2)
        scores[0, -1] = np.nan
        scores[1, -2] = np.inf
        scores[2, -3:] = np.inf
        assert_same_selection(scores, 20)

    def test_distinct_rows_take_the_prefilter(self):
        # Sanity check on the property the fast path relies on: with
        # distinct values the answer is the sorted top k of the row.
        scores = np.random.default_rng(3).permutation(5000).reshape(1, -1) * 1.0
        ids, values = top_k_rows(scores, 20)
        np.testing.assert_array_equal(values[0], np.arange(4999, 4979, -1))
        np.testing.assert_array_equal(scores[0, ids[0]], values[0])

    def test_zero_k_and_input_untouched(self):
        scores = make_scores("special", 3, 700, seed=4)
        before = scores.copy()
        ids, values = top_k_rows(scores, 0)
        assert ids.shape == (3, 0) and values.shape == (3, 0)
        top_k_rows(scores, 20)
        assert scores.tobytes() == before.tobytes()

    def test_non_contiguous_input(self):
        scores = make_scores("ties", 6, 900, seed=5)[::2, :850]
        assert_same_selection(scores, 20)


class TestRowForRowWithRankItems:
    @pytest.mark.parametrize("kind", ["normal", "ties", "few_values", "masked"])
    def test_masked_chunk_equals_rank_items(self, kind):
        rng = np.random.default_rng(6)
        scores = make_scores(kind, 16, 2100, seed=7)
        excluded = [rng.choice(2100, size=int(rng.integers(0, 50)), replace=False)
                    for _ in range(16)]
        masked = scores.copy()
        for row, items in enumerate(excluded):
            masked[row, items] = -np.inf
        ids, values = top_k_rows(masked, 20)
        for row, items in enumerate(excluded):
            expected = rank_items(scores[row], items, 20)
            np.testing.assert_array_equal(ids[row][np.isfinite(values[row])], expected)
