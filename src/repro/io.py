"""Model persistence: save/load parameter state as compressed ``.npz``.

Works with any :class:`repro.nn.Module` via its ``state_dict`` —
backbones, baselines, and the full IMCAT wrapper.  Non-parameter state
that inference needs rides along: IMCAT's hard tag clusters and
clustering-phase flag, plus any model's ``persistent_buffers()`` (e.g.
RippleNet's sampled ripple sets).  After loading, models that derive
caches from their parameters (KGAT attention, DGCF intent routing) are
refreshed so a reloaded model scores identically to the saved one.

Every member is read to its end with :meth:`zipfile.ZipFile.read`, so
its CRC-32 is checked, and any damaged archive raises one error,
:class:`ModelArchiveError` (a ``ValueError``); a missing file still
raises ``FileNotFoundError``.

Paths are normalised once: both helpers append the ``.npz`` suffix if
missing and tolerate callers that append it twice (``np.savez`` would
otherwise silently write ``name.npz`` while a later
``load_model(model, "name.npz.npz")`` missed it).  Full training-state
snapshots (optimizer, RNG streams, counters) live in :mod:`repro.ckpt`;
this module intentionally stores only what inference needs.
"""

from __future__ import annotations

import io
import os
import zipfile
from typing import Dict

import numpy as np

from .nn import Module

_META_PREFIX = "__meta__"
_BUFFER_PREFIX = "__buf__"
_SUFFIX = ".npz"
_MEMBER_SUFFIX = ".npy"


class ModelArchiveError(ValueError):
    """A :func:`save_model` archive that cannot be decoded (torn,
    truncated or bit-flipped)."""


def _normalize_path(path: str) -> str:
    """Collapse repeated ``.npz`` suffixes and ensure exactly one."""
    while path.endswith(_SUFFIX + _SUFFIX):
        path = path[: -len(_SUFFIX)]
    if not path.endswith(_SUFFIX):
        path = f"{path}{_SUFFIX}"
    return path


def _resolve_existing(path: str) -> str:
    """The on-disk file for a load request, however the caller spelled it.

    Tries the normalised name first (what :func:`save_model` writes),
    then the caller's literal spelling, so pre-normalisation archives
    saved under bare names keep loading.
    """
    normalized = _normalize_path(path)
    if os.path.exists(normalized):
        return normalized
    if os.path.exists(path):
        return path
    return normalized  # let the reader raise a precise FileNotFoundError


def save_model(model: Module, path: str) -> str:
    """Serialise ``model``'s parameters (and IMCAT state) to ``path``.

    Returns the normalised path actually written (always one ``.npz``
    suffix, regardless of how the caller spelled it).
    """
    payload = dict(model.state_dict())
    if hasattr(model, "tag_clusters"):
        payload[f"{_META_PREFIX}tag_clusters"] = np.asarray(model.tag_clusters)
        payload[f"{_META_PREFIX}clustering_active"] = np.asarray(
            getattr(model, "clustering_active", False)
        )
    if hasattr(model, "persistent_buffers"):
        for name, array in model.persistent_buffers().items():
            payload[f"{_BUFFER_PREFIX}{name}"] = np.asarray(array)
    path = _normalize_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez_compressed(path, **payload)
    return path


def _read_archive(path: str) -> Dict[str, np.ndarray]:
    """Every member of the archive at ``path``, keyed by array name.

    ``np.load`` stops reading a deflate member at the array's last
    byte, which can fall short of the stream's end, where zipfile checks
    the CRC-32; ``ZipFile.read`` reads each member to its end.
    """
    try:
        with zipfile.ZipFile(path) as members:
            infos = members.infolist()
            if any(info.comment for info in infos):
                # save_model writes no comments; a damaged comment length
                # in the central directory swallows the entries after it.
                raise zipfile.BadZipFile("member with a comment")
            return {
                info.filename[: -len(_MEMBER_SUFFIX)]: np.lib.format.read_array(
                    io.BytesIO(members.read(info)), allow_pickle=False
                )
                for info in infos
            }
    except FileNotFoundError:
        raise
    except Exception as err:
        # A damaged zip surfaces anything from BadZipFile through
        # zlib.error, NotImplementedError and RuntimeError to ValueError;
        # collapse them into one catchable failure mode.
        raise ModelArchiveError(
            f"model archive {path!r} is unreadable ({type(err).__name__}: {err})"
        ) from err


def load_model(model: Module, path: str) -> Module:
    """Load parameters saved by :func:`save_model` into ``model``.

    The module must have the same architecture (same parameter names
    and shapes).  Returns the model for chaining.

    Raises:
        ModelArchiveError: the archive is damaged.
        FileNotFoundError: no archive at ``path``.
    """
    path = _resolve_existing(path)
    archive = _read_archive(path)
    state = {}
    buffers = {}
    for key, array in archive.items():
        if key.startswith(_META_PREFIX):
            continue
        if key.startswith(_BUFFER_PREFIX):
            buffers[key[len(_BUFFER_PREFIX):]] = array
            continue
        state[key] = array
    model.load_state_dict(state)
    if hasattr(model, "load_persistent_buffers"):
        model.load_persistent_buffers(buffers)
    elif buffers:
        raise ValueError(
            f"archive carries buffers {sorted(buffers)} but "
            f"{type(model).__name__} cannot load them"
        )
    clusters_key = f"{_META_PREFIX}tag_clusters"
    if clusters_key in archive and hasattr(model, "tag_clusters"):
        model.tag_clusters = archive[clusters_key].astype(np.int64)
        model.clustering_active = bool(
            archive[f"{_META_PREFIX}clustering_active"]
        )
    if hasattr(model, "refresh_epoch"):
        # Rebuild parameter-derived caches (KGAT attention adjacency,
        # DGCF intent channels) from the loaded parameters.
        model.refresh_epoch(0)
    return model
