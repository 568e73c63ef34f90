"""Shared test utilities: numerical gradient checking, tiny datasets,
primitive-chain references for the single-node loss ops, the
``np.add.at`` reference for the row-scatter kernel, the per-slot
``rng.choice`` reference for the synthetic generator, the full-row
selection reference for the evaluator's top-k kernel, the
union-of-members shortlist reference for retrieval, and the legacy
deflate checkpoint encoder."""

from __future__ import annotations

import contextlib
import io
import json
from typing import Callable, Optional, Sequence

import numpy as np
import pytest

from repro.ckpt import manager as ckpt_manager
from repro.ckpt.serialize import FORMAT_VERSION, TREE_KEY
from repro.ckpt.serialize import _encode as _encode_tree
from repro.core import intent_view
from repro.core.alignment import IntentAlignment, relatedness_weights
from repro.data import TagRecDataset
from repro.data.synthetic import SyntheticConfig, SyntheticGroundTruth
from repro.nn import Tensor, no_grad, stack
from repro.nn import functional as F
from repro.nn import tensor as tensor_module


def numerical_gradient(
    func: Callable[[], float], array: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``func`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index", "zerosize_ok"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = func()
        array[index] = original - eps
        minus = func()
        array[index] = original
        grad[index] = (plus - minus) / (2.0 * eps)
        iterator.iternext()
    return grad


def assert_gradcheck(
    loss_builder: Callable[[], "object"],
    tensors: list,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> None:
    """Check autograd gradients of a scalar loss against finite differences.

    Args:
        loss_builder: zero-argument callable rebuilding the loss tensor
            from the *current* data of ``tensors`` (it is re-invoked for
            every finite-difference probe).
        tensors: tensors with ``requires_grad=True`` to check.
    """
    loss = loss_builder()
    for tensor in tensors:
        tensor.zero_grad()
    loss.backward()
    for tensor in tensors:
        expected = numerical_gradient(lambda: loss_builder().item(), tensor.data)
        actual = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        np.testing.assert_allclose(actual, expected, atol=atol, rtol=rtol)


def tiny_dataset(seed: int = 0) -> TagRecDataset:
    """A deterministic hand-sized dataset for unit tests.

    4 users, 6 items, 5 tags; every index range is exercised, items 0-1
    are popular, item 5 has no tags (edge case for Eq. 8).
    """
    return TagRecDataset(
        num_users=4,
        num_items=6,
        num_tags=5,
        user_ids=np.array([0, 0, 0, 1, 1, 2, 2, 3, 3, 3]),
        item_ids=np.array([0, 1, 2, 0, 1, 0, 3, 1, 4, 5]),
        tag_item_ids=np.array([0, 0, 1, 1, 2, 3, 3, 4]),
        tag_ids=np.array([0, 1, 0, 2, 3, 3, 4, 1]),
        name="tiny",
    )


# ----------------------------------------------------------------------
# primitive-chain references: ``F.bpr_loss``, ``F.info_nce`` and
# ``F.batched_linear`` must carry exactly these chains' bits
# ----------------------------------------------------------------------
def reference_bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """``-mean(log sigmoid(pos - neg))`` as six primitive tape nodes."""
    return -F.log_sigmoid(pos_scores - neg_scores).mean()


def reference_info_nce(
    queries: Tensor,
    keys: Tensor,
    temperature: float,
    row_weights: Optional[np.ndarray] = None,
    positive_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """InfoNCE as the matmul / scale / log-softmax / weight / sum chain."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    logits = (queries @ keys.T) * (1.0 / temperature)
    log_probs = F.log_softmax(logits, axis=1)
    weights = F.nce_weights(logits.shape[0], positive_mask, row_weights)
    return -(log_probs * Tensor(weights)).sum()


def reference_batched_linear(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Optional[Sequence[Tensor]] = None,
) -> Tensor:
    """K separate ``Linear`` calls ``x[k] @ W_k.T (+ b_k)``, stacked."""
    outputs = []
    for k, weight in enumerate(weights):
        out = x[k] @ weight.T
        if biases is not None:
            out = out + biases[k]
        outputs.append(out)
    return stack(outputs)


def reference_alignment_loss(
    self: IntentAlignment,
    item_batch,
    user_aggregation,
    item_embeddings,
    tag_aggregation_all,
    tag_counts,
    positive_masks=None,
) -> Tensor:
    """``IntentAlignment.alignment_loss`` as one pass per intent ``k``.

    The reference for the stacked ``(K, B, ·)`` production body: views
    are sliced per intent, and each intent runs its own tag projection
    (Eq. 10) and projection head (Eq. 14) as separate ``Linear`` calls.
    """
    config = self.config
    if not config.use_alignment:
        return Tensor(np.zeros(()))
    batch_size = len(item_batch)
    k_count = config.num_intents
    dim = self.intent_dim
    weights = (
        relatedness_weights(tag_counts)
        if config.use_relatedness
        else np.ones((batch_size, k_count)) / k_count
    )

    def project(k, view):
        return getattr(self, f"head{k}")(view) if config.use_nlt else view

    total = None
    for k in range(k_count):
        components = []
        if config.align_tag:
            rows = np.arange(batch_size) * k_count + k
            projected = getattr(self, f"tag_proj{k}")(tag_aggregation_all[rows])
            has_tags = (tag_counts[:, k] > 0).astype(np.float64)[:, None]
            components.append(F.scale_rows(F.l2_normalize(projected), has_tags))
        if config.align_item:
            item_sub = intent_view(item_embeddings, k, k_count, dim=dim)
            components.append(F.l2_normalize(item_sub))
        z_view = components[0]
        for part in components[1:]:
            z_view = z_view + part
        u_view = intent_view(user_aggregation, k, k_count, dim=dim)
        u_proj = F.l2_normalize(project(k, u_view))
        z_proj = F.l2_normalize(project(k, z_view))
        mask = positive_masks[k] if positive_masks is not None else None
        row_w = weights[:, k]
        if config.alignment_objective == "byol":
            term = self._byol_term(k, u_proj, z_proj, row_w)
        else:
            u2it = reference_info_nce(
                u_proj, z_proj, config.tau, row_weights=row_w, positive_mask=mask
            )
            it2u = reference_info_nce(
                z_proj,
                u_proj,
                config.tau,
                row_weights=row_w,
                positive_mask=mask.T if mask is not None else None,
            )
            term = u2it + it2u
        total = term if total is None else total + term
    return total * (1.0 / (2.0 * k_count * max(batch_size, 1)))


@contextlib.contextmanager
def reference_ops(enabled: bool = True):
    """Run the primitive-chain references in place of ``F.bpr_loss``,
    ``F.info_nce`` and ``IntentAlignment.alignment_loss`` while active
    (a no-op when ``enabled`` is false)."""
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(F, "bpr_loss", reference_bpr_loss)
            patch.setattr(F, "info_nce", reference_info_nce)
            patch.setattr(
                IntentAlignment, "alignment_loss", reference_alignment_loss
            )
        yield


# ----------------------------------------------------------------------
# row-scatter reference: ``np.add.at``, the kernel ``scatter_rows`` and
# ``Tensor.__getitem__`` must reproduce bit for bit
# ----------------------------------------------------------------------
def reference_scatter_rows(
    index: np.ndarray, values: np.ndarray, num_rows: int
) -> np.ndarray:
    """``np.add.at`` of ``values`` into zeros, grouped by ``index``."""
    out = np.zeros(
        (num_rows,) + values.shape[np.ndim(index):], dtype=values.dtype
    )
    np.add.at(out, index, values)
    return out


def reference_getitem(tensor: Tensor, index) -> Tensor:
    """``tensor[index]`` scattering every gradient back with ``np.add.at``."""
    out_data = tensor.data[index]

    def backward(g: np.ndarray) -> None:
        if tensor.requires_grad:
            full = np.zeros_like(tensor.data)
            np.add.at(full, index, g)
            tensor._accumulate(full)

    return Tensor._make(out_data, (tensor,), backward)


@contextlib.contextmanager
def reference_scatter(enabled: bool = True):
    """Run :func:`reference_scatter_rows` and :func:`reference_getitem`
    in place of ``scatter_rows`` and ``Tensor.__getitem__`` while active
    (a no-op when ``enabled`` is false)."""
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(tensor_module, "scatter_rows", reference_scatter_rows)
            patch.setattr(F, "scatter_rows", reference_scatter_rows)
            patch.setattr(Tensor, "__getitem__", reference_getitem)
        yield


# ----------------------------------------------------------------------
# synthetic-generator reference: one ``rng.choice`` per item-tag slot,
# the RNG stream the vectorised ``generate`` must consume bit for bit
# ----------------------------------------------------------------------
def reference_generate(
    config: SyntheticConfig,
    seed: int = 0,
    return_ground_truth: bool = False,
):
    """:func:`repro.data.generate` as a per-item, per-slot loop."""
    rng = np.random.default_rng(seed)
    n_u, n_v, n_t, n_f = (
        config.num_users,
        config.num_items,
        config.num_tags,
        config.num_factors,
    )

    # --- latent structure -------------------------------------------------
    user_pref = rng.dirichlet(np.full(n_f, config.user_concentration), size=n_u)
    item_factor = rng.integers(0, n_f, size=n_v)
    item_profile = np.full((n_v, n_f), config.item_offtopic / max(n_f - 1, 1))
    item_profile[np.arange(n_v), item_factor] = 1.0 - config.item_offtopic

    # Zipf popularity over a random item permutation.
    ranks = rng.permutation(n_v) + 1.0
    popularity = ranks ** (-config.popularity_exponent)
    popularity /= popularity.sum()

    # --- interactions -----------------------------------------------------
    mu = np.log(config.mean_user_degree) - config.degree_sigma**2 / 2.0
    degrees = np.maximum(
        rng.lognormal(mu, config.degree_sigma, size=n_u).astype(int), 1
    )
    degrees = np.minimum(degrees, n_v - 1)

    user_chunks = []
    item_chunks = []
    chunk = 512
    for start in range(0, n_u, chunk):
        stop = min(start + chunk, n_u)
        affinity = user_pref[start:stop] @ item_profile.T  # (chunk, n_v)
        weights = affinity * popularity[None, :]
        # Mix in uniform noise clicks.
        weights = (1.0 - config.noise) * weights + config.noise * (
            weights.sum(axis=1, keepdims=True) / n_v
        )
        # Gumbel-top-k sampling without replacement per user.
        gumbel = rng.gumbel(size=weights.shape)
        scores = np.log(np.maximum(weights, 1e-300)) + gumbel
        for row, user in enumerate(range(start, stop)):
            k = degrees[user]
            picked = np.argpartition(scores[row], -k)[-k:]
            user_chunks.append(np.full(k, user, dtype=np.int64))
            item_chunks.append(picked.astype(np.int64))
    user_ids = np.concatenate(user_chunks)
    item_ids = np.concatenate(item_chunks)

    # --- tag vocabulary ---------------------------------------------------
    tag_factor = np.arange(n_t) % n_f
    rng.shuffle(tag_factor)
    # Zipf popularity of tags within each factor.
    tag_weight = np.zeros(n_t)
    for f in range(n_f):
        members = np.where(tag_factor == f)[0]
        tag_weight[members] = (np.arange(len(members)) + 1.0) ** -0.8
    tags_by_factor = [np.where(tag_factor == f)[0] for f in range(n_f)]

    # --- item-tag assignments ----------------------------------------------
    tag_item_chunks = []
    tag_chunks = []
    counts = np.maximum(rng.poisson(config.mean_item_tags, size=n_v), 1)
    for v in range(n_v):
        n_assign = counts[v]
        # Dominant factor with prob 1 - tag_offtopic, else uniform factor.
        factors = np.where(
            rng.random(n_assign) < config.tag_offtopic,
            rng.integers(0, n_f, size=n_assign),
            item_factor[v],
        )
        chosen = np.empty(n_assign, dtype=np.int64)
        for pos, f in enumerate(factors):
            members = tags_by_factor[f]
            w = tag_weight[members]
            chosen[pos] = rng.choice(members, p=w / w.sum())
        chosen = np.unique(chosen)
        tag_item_chunks.append(np.full(len(chosen), v, dtype=np.int64))
        tag_chunks.append(chosen)
    tag_item_ids = np.concatenate(tag_item_chunks)
    tag_ids = np.concatenate(tag_chunks)

    dataset = TagRecDataset(
        num_users=n_u,
        num_items=n_v,
        num_tags=n_t,
        user_ids=user_ids,
        item_ids=item_ids,
        tag_item_ids=tag_item_ids,
        tag_ids=tag_ids,
        name=config.name,
    )
    if return_ground_truth:
        truth = SyntheticGroundTruth(
            user_preferences=user_pref,
            item_factors=item_factor,
            tag_factors=tag_factor,
            item_popularity=popularity,
        )
        return dataset, truth
    return dataset


# ----------------------------------------------------------------------
# top-k reference: the full-row selection ``Evaluator._rank_chunk`` ran
# before ``top_k_rows``, which the kernel must reproduce on every input
# ----------------------------------------------------------------------
def reference_top_k_rows(scores: np.ndarray, k: int):
    """``(ids, values)`` of each row's top ``k``, best first: negate,
    ``argpartition`` at ``k - 1``, ``argsort`` the selected prefix."""
    negated = -np.asarray(scores)
    k = min(k, negated.shape[1])
    part = np.argpartition(negated, k - 1, axis=1)[:, :k]
    part_scores = np.take_along_axis(negated, part, axis=1)
    order = np.argsort(part_scores, axis=1)
    ranked = np.take_along_axis(part, order, axis=1)
    return ranked, np.take_along_axis(np.asarray(scores), ranked, axis=1)


# ----------------------------------------------------------------------
# retrieval references: the union-of-members shortlist and the per-pair
# scoring the dense ``candidate_mask`` path must agree with
# ----------------------------------------------------------------------
def reference_shortlists(
    index, user_matrix: np.ndarray, n_probe: int
) -> list:
    """Per-row shortlists as the union of each probed partition's
    members with the popular head (sorted, duplicates dropped)."""
    return [
        np.unique(
            np.concatenate(
                [np.flatnonzero(index.item_partitions == part) for part in row]
                + [index.popular_head]
            )
        )
        for row in index.route(user_matrix, n_probe)
    ]


def reference_mask(
    index, user_matrix: np.ndarray, n_probe: int
) -> np.ndarray:
    """:func:`reference_shortlists` as a ``(B, |V|)`` boolean mask."""
    lists = reference_shortlists(index, user_matrix, n_probe)
    mask = np.zeros((len(lists), index.num_items), dtype=bool)
    for row, items in enumerate(lists):
        mask[row, items] = True
    return mask


def reference_pair_scores(
    model, users: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``model.pair_scores`` on every masked ``(user, item)`` pair,
    ``-inf`` elsewhere: the flat pair-gather scoring of the shortlist."""
    rows, items = np.nonzero(mask)
    scores = np.full(mask.shape, -np.inf)
    with no_grad():
        scores[rows, items] = model.pair_scores(users[rows], items).data
    return scores


def reference_all_scores(model, users: np.ndarray) -> np.ndarray:
    """Dense scores from one fresh ``propagate()`` under ``no_grad``: the
    body every factorised model's ``all_scores`` ran before scoring
    shared the propagation cache.  An IMCAT wrapper scores through its
    backbone."""
    model = getattr(model, "backbone", model)
    with no_grad():
        reps = model.propagate()
        return reps[0].data[users] @ reps[1].data.T


# ----------------------------------------------------------------------
# legacy checkpoint payloads: what ``encode_state`` wrote before it
# switched to stored (uncompressed) zip members
# ----------------------------------------------------------------------
def legacy_encode_state(state) -> bytes:
    """``encode_state`` as it was when payloads were deflate-compressed:
    the same tree walk and structure document, written with
    ``np.savez_compressed``.  ``decode_state`` must keep reading it."""
    arrays = {}
    tree = _encode_tree(state, arrays)
    document = json.dumps({"version": FORMAT_VERSION, "tree": tree})
    arrays[TREE_KEY] = np.frombuffer(document.encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


@contextlib.contextmanager
def legacy_checkpoints():
    """Make every :class:`repro.ckpt.CheckpointManager` save write
    legacy deflate payloads while active."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ckpt_manager, "encode_state", legacy_encode_state)
        yield


def legacy_fixture_state() -> dict:
    """The tree committed as ``tests/fixtures/ckpt_v1_deflate.npz``
    (``legacy_encode_state`` of this value).

    It covers every node tag (``d``, ``l``, ``tu``, ``nd``, ``v``),
    float64 bits JSON and zip must both carry verbatim (NaN, -0.0, inf,
    a subnormal), an int64 array, NumPy scalars, and a PCG64 state whose
    128-bit words only survive as JSON integers.
    """
    rng = np.random.default_rng(20231)
    rng.integers(0, 100, size=5)
    return {
        "step": 7,
        "loss": 0.1,
        "name": "fixture",
        "flags": [True, False, None],
        "weights": np.array(
            [[np.nan, -0.0, 0.0, np.inf], [-np.inf, 5e-324, np.pi, -1.5]]
        ),
        "ids": np.arange(-3, 5, dtype=np.int64),
        "scalars": {"f": np.float64(-0.0), "i": np.int64(-(2**40))},
        "nested": [1, (2.5, np.array([np.nan, 1.0])), ["x", {}]],
        "pair": (np.zeros((0, 2)), ()),
        "rng": rng.bit_generator.state,
    }
