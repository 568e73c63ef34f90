"""``cluster_tag_matrix`` against the per-item loop it replaced."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import cluster_tag_matrix
from repro.data import generate_preset


def loop_cluster_tag_matrix(tags_of_item, tag_clusters, intent, num_items, num_tags):
    rows, cols = [], []
    for item in range(num_items):
        tags = tags_of_item[item]
        if len(tags) == 0:
            continue
        in_cluster = tags[tag_clusters[tags] == intent]
        rows.extend([item] * len(in_cluster))
        cols.extend(in_cluster.tolist())
    data = np.ones(len(rows))
    return sp.coo_matrix((data, (rows, cols)), shape=(num_items, num_tags)).tocsr()


def _same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("num_intents", [1, 4])
def test_matches_loop_on_generated_dataset(num_intents):
    dataset = generate_preset("hetrec-del", scale=0.1, seed=3)
    tags_of_item = dataset.tags_of_item()
    clusters = np.random.default_rng(0).integers(0, num_intents, dataset.num_tags)
    for intent in range(num_intents + 1):  # the last intent is empty
        args = (tags_of_item, clusters, intent, dataset.num_items, dataset.num_tags)
        _same_csr(cluster_tag_matrix(*args), loop_cluster_tag_matrix(*args))


def test_duplicate_tags_sum_and_empty_lists():
    tags_of_item = [np.array([2, 2, 0]), np.array([], dtype=np.int64), np.array([1])]
    clusters = np.array([0, 0, 0])
    args = (tags_of_item, clusters, 0, 3, 3)
    _same_csr(cluster_tag_matrix(*args), loop_cluster_tag_matrix(*args))
    assert cluster_tag_matrix(*args)[0, 2] == 2.0
    empty = ([np.array([]) for _ in range(2)], clusters, 0, 2, 3)
    _same_csr(cluster_tag_matrix(*empty), loop_cluster_tag_matrix(*empty))
