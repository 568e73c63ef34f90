"""Sparse graph operators for GNN backbones.

LightGCN, TGCN, KGAT, SGL, etc. all propagate embeddings through a
normalised adjacency matrix.  The adjacency is constant during one
forward pass, so the only gradient path is through the dense operand:
``d/dX (A @ X) = A.T @ G``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, as_tensor


def sparse_matmul(adj: sp.spmatrix, x: Tensor) -> Tensor:
    """Differentiable ``adj @ x`` for a constant sparse ``adj``."""
    x = as_tensor(x)
    adj = adj.tocsr()
    out_data = adj @ x.data
    adj_t = adj.T.tocsr()

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_owned(adj_t @ g)

    return Tensor._make(out_data, (x,), backward)


def build_interaction_matrix(
    user_ids: np.ndarray,
    item_ids: np.ndarray,
    num_users: int,
    num_items: int,
) -> sp.csr_matrix:
    """Binary user-item interaction matrix ``Y`` as CSR."""
    data = np.ones(len(user_ids), dtype=np.float64)
    mat = sp.coo_matrix(
        (data, (user_ids, item_ids)), shape=(num_users, num_items)
    )
    mat.sum_duplicates()
    mat.data[:] = 1.0
    return mat.tocsr()


def normalized_bipartite_adjacency(interactions: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric-normalised bipartite adjacency used by LightGCN.

    Builds the ``(|U|+|V|) x (|U|+|V|)`` block matrix
    ``[[0, R], [R.T, 0]]`` and normalises it as ``D^-1/2 A D^-1/2``.
    Zero-degree nodes get zero rows (their embeddings pass through the
    residual/self term in the model).
    """
    num_users, num_items = interactions.shape
    upper = sp.hstack(
        [sp.csr_matrix((num_users, num_users)), interactions], format="csr"
    )
    lower = sp.hstack(
        [interactions.T.tocsr(), sp.csr_matrix((num_items, num_items))],
        format="csr",
    )
    adj = sp.vstack([upper, lower], format="csr")
    return symmetric_normalize(adj)


def symmetric_normalize(adj: sp.csr_matrix) -> sp.csr_matrix:
    """``D^-1/2 A D^-1/2`` with zero-degree rows left as zeros."""
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    d_mat = sp.diags(inv_sqrt)
    return (d_mat @ adj @ d_mat).tocsr()


def row_normalize(adj: sp.csr_matrix) -> sp.csr_matrix:
    """``D^-1 A`` row-stochastic normalisation."""
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return (sp.diags(inv) @ adj).tocsr()


def drop_edges(
    adj: sp.csr_matrix, drop_ratio: float, rng: np.random.Generator
) -> sp.csr_matrix:
    """Randomly drop a fraction of edges (SGL's edge-dropout, "ED").

    Returns a new matrix with ``drop_ratio`` of the non-zeros removed.
    The result is *not* re-normalised; callers normalise afterwards.
    """
    if not 0.0 <= drop_ratio < 1.0:
        raise ValueError(f"drop_ratio must be in [0, 1), got {drop_ratio}")
    coo = adj.tocoo()
    keep = rng.random(coo.nnz) >= drop_ratio
    return sp.coo_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=adj.shape
    ).tocsr()


def drop_nodes(
    adj: sp.csr_matrix, drop_ratio: float, rng: np.random.Generator
) -> sp.csr_matrix:
    """Drop a fraction of *nodes* with all their edges (SGL's "ND").

    A dropped row index loses every incident edge — both the edges it
    owns as a row and those pointing at it as a column (the matrix is
    treated as an adjacency over one shared node universe).
    """
    if not 0.0 <= drop_ratio < 1.0:
        raise ValueError(f"drop_ratio must be in [0, 1), got {drop_ratio}")
    num_rows, num_cols = adj.shape
    keep_rows = rng.random(num_rows) >= drop_ratio
    keep_cols = (
        keep_rows if num_rows == num_cols else rng.random(num_cols) >= drop_ratio
    )
    coo = adj.tocoo()
    keep = keep_rows[coo.row] & keep_cols[coo.col]
    return sp.coo_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=adj.shape
    ).tocsr()


def random_walk_edges(
    adj: sp.csr_matrix,
    drop_ratio: float,
    rng: np.random.Generator,
    num_layers: int,
) -> list[sp.csr_matrix]:
    """Per-layer independent edge dropouts (SGL's random-walk, "RW").

    Where ED shares one subgraph across all propagation layers, RW
    re-samples the dropped edges for every layer, which is equivalent to
    a layer-dependent random-walk normalisation.  Returns one matrix per
    layer; callers normalise each.
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    return [drop_edges(adj, drop_ratio, rng) for _ in range(num_layers)]
