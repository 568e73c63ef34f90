"""Differentiable functional operations built on :class:`repro.nn.Tensor`.

These are the composite operations the IMCAT model relies on: stable
softmax / log-softmax, L2 normalisation, embedding lookup with
scatter-add gradients, segment means for per-item aggregation, dropout,
and the training hot path of Eq. (18) as single-node ops — the BPR loss,
the InfoNCE block, and the K per-intent projections batched into one
matmul.  Each of those records one tape node that runs the NumPy
operations of the primitive chain it stands for, in the same order, so
it carries that chain's bits.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, as_tensor, scatter_rows


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp reduction."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    exps = np.exp(x.data - m)
    sums = exps.sum(axis=axis, keepdims=True)
    out_keep = np.log(sums) + m
    out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    soft = exps / sums

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            grad = g if keepdims else np.expand_dims(g, axis=axis)
            x._accumulate(soft * grad)

    return Tensor._make(out_data, (x,), backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))`` — the BPR loss kernel."""
    x = as_tensor(x)
    # log sigmoid(x) = -softplus(-x) = min(x, 0) - log(1 + exp(-|x|))
    out_data = np.minimum(x.data, 0.0) - np.log1p(np.exp(-np.abs(x.data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (1.0 - sig))

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * sig)

    return Tensor._make(out_data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit: ``x`` if positive else ``alpha (e^x - 1)``."""
    x = as_tensor(x)
    exp_term = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, exp_term)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            slope = np.where(x.data > 0, 1.0, exp_term + alpha)
            x._accumulate(g * slope)

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = as_tensor(x)
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data**3)
    tanh_inner = np.tanh(inner)
    out_data = 0.5 * x.data * (1.0 + tanh_inner)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            sech2 = 1.0 - tanh_inner**2
            d_inner = c * (1.0 + 3 * 0.044715 * x.data**2)
            grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x.data * sech2 * d_inner
            x._accumulate(g * grad)

    return Tensor._make(out_data, (x,), backward)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise ``x`` along ``axis``.

    The paper normalises the projected tag aggregation and item
    sub-embedding before element-wise addition so that neither source
    dominates by magnitude (Section IV.B.2).
    """
    x = as_tensor(x)
    norm = np.sqrt((x.data**2).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    out_data = x.data / denom

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate((g - out_data * dot) / denom)

    return Tensor._make(out_data, (x,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding table.

    Gradients are scattered back with :func:`repro.nn.tensor.scatter_rows`
    so repeated indices accumulate correctly (the semantics of
    ``torch.nn.Embedding``), in index order.
    """
    weight = as_tensor(weight)
    idx = np.asarray(indices)
    out_data = weight.data[idx]

    def backward(g: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate_owned(scatter_rows(idx, g, weight.shape[0]))

    return Tensor._make(out_data, (weight,), backward)


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows of ``x`` grouped by ``segment_ids``.

    Empty segments produce zero rows.  This implements the
    ``aggregate``(·) operator of Eqs. (7) and (8): averaging the
    embeddings of the users who interacted with an item, or of the tags
    of an item falling in one cluster.

    Args:
        x: ``(n, d)`` tensor of row vectors.
        segment_ids: ``(n,)`` integer array assigning each row to a segment.
        num_segments: total number of output segments.
    """
    x = as_tensor(x)
    ids = np.asarray(segment_ids)
    counts = np.bincount(ids, minlength=num_segments).astype(x.data.dtype)
    safe = np.maximum(counts, 1.0)
    sums = scatter_rows(ids, x.data, num_segments)
    out_data = sums / safe[:, None]

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g[ids] / safe[ids, None])

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` and rescale."""
    if not training or p <= 0.0:
        return as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    out_data = x.data * mask

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._make(out_data, (x,), backward)


def matmul_const(x: Tensor, const: np.ndarray) -> Tensor:
    """Multiply by a constant (non-differentiated) matrix: ``x @ const``."""
    x = as_tensor(x)
    c = np.asarray(const)
    out_data = x.data @ c

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ c.T)

    return Tensor._make(out_data, (x,), backward)


def scale_rows(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scale each row of ``x`` by a constant per-row weight.

    Used for the relatedness re-weighting ``M_{j,k}`` of Eq. (12): the
    weights are derived from tag counts and are not differentiated.
    """
    x = as_tensor(x)
    w = np.asarray(weights, dtype=x.data.dtype)
    if w.ndim == 1:
        w = w[:, None] if x.ndim == 2 else w
    out_data = x.data * w

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * w)

    return Tensor._make(out_data, (x,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    pred = as_tensor(pred)
    diff = pred - Tensor(np.asarray(target, dtype=pred.dtype))
    return (diff * diff).mean()


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian Personalized Ranking loss (Eq. 1 / Eq. 2).

    ``-mean(log sigmoid(pos - neg))`` over the batch, recorded as one
    tape node.  Forward and backward run the NumPy operations of the
    primitive chain ``-log_sigmoid(pos - neg).mean()`` in the same order
    and dtypes, so loss and gradients carry the same bits as that chain.

    Raises:
        ValueError: if the score arrays differ in shape or are empty.
    """
    pos = as_tensor(pos_scores)
    neg = as_tensor(neg_scores)
    if pos.shape != neg.shape:
        raise ValueError(
            f"bpr_loss needs matching score shapes, got {pos.shape} "
            f"and {neg.shape}"
        )
    if pos.size == 0:
        raise ValueError("bpr_loss needs at least one score pair")
    inv = 1.0 / pos.size
    d = pos.data + (-neg.data)
    # log_sigmoid(d) = min(d, 0) - log1p(exp(-|d|)); its backward needs
    # sigmoid(d), taken at forward time like F.log_sigmoid does.
    log_sig = np.minimum(d, 0.0) - np.log1p(np.exp(-np.abs(d)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(d, -500, 500)))
    # The chain's sum becomes a float64 tensor before the mean's scale.
    out_data = np.asarray(-(np.float64(log_sig.sum()) * inv))

    def backward(g: np.ndarray) -> None:
        grad_d = np.asarray((-g) * inv, dtype=log_sig.dtype) * (1.0 - sig)
        if pos.requires_grad:
            pos._accumulate(grad_d)
        if neg.requires_grad:
            neg._accumulate(-grad_d)

    return Tensor._make(out_data, (pos, neg), backward)


def nce_weights(
    n: int,
    positive_mask: Optional[np.ndarray],
    row_weights: Optional[np.ndarray],
) -> np.ndarray:
    """The constant ``(n, n)`` positive-set weight matrix of Eq. (17).

    Row ``j`` spreads weight ``1 / |P_j|`` over its positives ``P_j``
    (the self-pair always included), scaled by ``row_weights[j]``.
    """
    if positive_mask is None:
        positive_mask = np.eye(n, dtype=bool)
    else:
        positive_mask = np.asarray(positive_mask, dtype=bool)
        if positive_mask.shape != (n, n):
            raise ValueError(
                f"positive_mask shape {positive_mask.shape} != ({n}, {n})"
            )
        # Ensure the self-pair is always a positive.
        positive_mask = positive_mask | np.eye(n, dtype=bool)
    pos_counts = positive_mask.sum(axis=1).astype(np.float64)
    weights = positive_mask.astype(np.float64) / pos_counts[:, None]
    if row_weights is not None:
        weights = weights * np.asarray(row_weights, dtype=np.float64)[:, None]
    return weights


def info_nce(
    queries: Tensor,
    keys: Tensor,
    temperature: float,
    row_weights: Optional[np.ndarray] = None,
    positive_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """InfoNCE loss between ``queries`` and ``keys`` (Eqs. 12-13, 17).

    Row ``j`` of ``queries`` is aligned with row ``j`` of ``keys`` by
    default; a boolean ``positive_mask[j, j']`` widens the positive set
    (used by the ISA module, Eq. 17 — the loss averages over all marked
    positives per row).  All other columns act as in-batch negatives.

    The whole block is one tape node running the NumPy operations of the
    primitive chain ``-(log_softmax((q @ k.T) * (1 / tau)) * W).sum()``
    in the same order and dtypes, so it carries that chain's bits.
    ``queries`` and ``keys`` may be the same tensor; its gradient then
    receives both contributions.

    Args:
        queries: ``(n, d)`` tensor.
        keys: ``(n, d)`` tensor.
        temperature: InfoNCE smoothing factor ``tau``.
        row_weights: optional ``(n,)`` constant weights (``M_{j,k}``).
        positive_mask: optional ``(n, n)`` boolean positives; defaults to
            the identity.

    Returns:
        Scalar loss (sum over rows, matching the paper's formulation).

    Raises:
        ValueError: if ``temperature`` is not strictly positive — a
            zero/negative tau silently flips or explodes the softmax,
            the classic source of NaN collapse in contrastive stacks —
            or if the inputs are not two equal-shape, non-empty
            ``(n, d)`` matrices.
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    queries = as_tensor(queries)
    keys = as_tensor(keys)
    if queries.ndim != 2 or keys.shape != queries.shape:
        raise ValueError(
            f"info_nce needs two (n, d) matrices of one shape, got "
            f"{queries.shape} and {keys.shape}"
        )
    n = queries.shape[0]
    if n == 0:
        raise ValueError("info_nce needs at least one row")
    inv_tau = np.asarray(1.0 / temperature)
    raw = queries.data @ keys.data.transpose(1, 0)
    logits = raw * inv_tau
    # log_softmax(axis=1), max-shifted exactly like F.log_softmax.
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    soft = np.exp(log_probs)
    # Average log-prob over each row's positive set (Eq. 17 outer mean).
    weights = nce_weights(n, positive_mask, row_weights)
    out_data = np.asarray(-((log_probs * weights).sum()))

    def backward(g: np.ndarray) -> None:
        grad_lp = weights * (-g)
        grad_logits = grad_lp - soft * grad_lp.sum(axis=1, keepdims=True)
        grad_raw = np.asarray(grad_logits * inv_tau, dtype=raw.dtype)
        if queries.requires_grad:
            queries._accumulate(grad_raw @ keys.data)
        if keys.requires_grad:
            keys._accumulate(
                (queries.data.transpose(1, 0) @ grad_raw).transpose(1, 0)
            )

    return Tensor._make(out_data, (queries, keys), backward)


def batched_linear(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Optional[Sequence[Tensor]] = None,
) -> Tensor:
    """``K`` affine maps ``x[k] @ weights[k].T + biases[k]`` as one op.

    The per-intent projections of Eqs. (10) and (14) in one ``(K, B, d)``
    batched matmul.  Each slice runs the same product as the ``Linear``
    call ``x[k] @ W_k.T (+ b_k)``, and each parameter gets exactly one
    gradient contribution, so outputs and gradients carry the bits of
    the K separate calls.

    Args:
        x: ``(K, B, d_in)`` stacked per-intent inputs.
        weights: K weight tensors of shape ``(d_out, d_in)``.
        biases: optional K bias tensors of shape ``(d_out,)``.
    """
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[0] != len(weights):
        raise ValueError(
            f"batched_linear needs a (K, B, d_in) input for {len(weights)} "
            f"weights, got shape {x.shape}"
        )
    w_stack = np.stack([w.data for w in weights])
    # The transpose must stay a strided view: Linear multiplies by the
    # view ``weight.T``, and BLAS on a contiguous copy may round apart.
    out_data = np.matmul(x.data, w_stack.swapaxes(1, 2))
    if biases is not None:
        for i, b in enumerate(biases):
            np.add(out_data[i], b.data, out=out_data[i])

    def backward(g: np.ndarray) -> None:
        if biases is not None:
            for i, b in enumerate(biases):
                if b.requires_grad:
                    b._accumulate(g[i].sum(axis=0))
        if x.requires_grad:
            x._accumulate(np.matmul(g, w_stack))
        grad_w = np.matmul(np.swapaxes(x.data, -1, -2), g)
        for i, w in enumerate(weights):
            if w.requires_grad:
                w._accumulate(grad_w[i].transpose(1, 0))

    parents = (x, *weights) + (tuple(biases) if biases is not None else ())
    return Tensor._make(out_data, parents, backward)
