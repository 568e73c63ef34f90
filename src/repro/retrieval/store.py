"""Index persistence inside a :mod:`repro.ckpt` checkpoint directory.

An index file rides next to the model snapshots it was built from:
``index-<step>.npz`` in the same directory, written with the same
atomic temp-file + ``os.replace`` protocol and the same loss-free
:func:`repro.ckpt.encode_state` payload as the snapshots, so
:class:`repro.serve.CheckpointModelProvider` can promote a checkpoint
and its index as one unit: load the matching index if its checksum
holds, rebuild and save it back otherwise.

The file is an envelope ``{"sha256", "body"}``: ``body`` is the encoded
index state as ``uint8`` bytes and ``sha256`` its digest, so a load
verifies the very bytes that were checksummed and never re-encodes.
Like every :mod:`repro.ckpt` payload the archive members are stored
uncompressed (about 6% more disk than deflate, for a write at disk
speed).  An index written in the older envelope (``{"sha256",
"index"}``, checksummed over a re-encoding) is a miss, rebuilt and saved
back in this form by the provider.
"""

from __future__ import annotations

import os
import re
import warnings
from typing import Optional

import numpy as np

from ..ckpt import checksum, decode_state, encode_state
from .index import ClusterIndex

#: Index payload naming inside a checkpoint directory.
INDEX_PREFIX = "index-"
_INDEX_PATTERN = re.compile(r"^index-(\d+)\.npz$")
_TMP_SUFFIX = ".tmp"


def index_path(directory: str, step: int) -> str:
    """Canonical payload path for the index of checkpoint ``step``."""
    return os.path.join(directory, f"{INDEX_PREFIX}{int(step):010d}.npz")


def save_index(index: ClusterIndex, directory: str, step: int = 0) -> str:
    """Atomically persist ``index`` next to checkpoint ``step``.

    The payload embeds the checksum of its body so a torn write is
    detected at load time and treated as a miss (rebuild), never an
    error.
    """
    os.makedirs(directory, exist_ok=True)
    body = encode_state(index.state_dict())
    payload = encode_state(
        {"sha256": checksum(body), "body": np.frombuffer(body, dtype=np.uint8)}
    )
    path = index_path(directory, step)
    tmp = f"{path}{_TMP_SUFFIX}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def _candidate_paths(directory: str, step: Optional[int]):
    if step is not None:
        path = index_path(directory, step)
        return [path] if os.path.exists(path) else []
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _INDEX_PATTERN.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(found, reverse=True)]


def load_index(
    directory: str,
    step: Optional[int] = None,
    expected_fingerprint: Optional[str] = None,
) -> Optional[ClusterIndex]:
    """Load a persisted index, or ``None`` when no usable one exists.

    Walks newest-first (or the exact ``step`` when given), skipping
    unreadable, torn, or fingerprint-mismatched payloads with a warning
    — a missing or stale index is a *miss*, never an error, because the
    caller can always rebuild from the live model.
    """
    for path in _candidate_paths(directory, step):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            envelope = decode_state(data)
            if "body" not in envelope:
                raise ValueError("older index envelope without a body checksum")
            body = envelope["body"].tobytes()
            if checksum(body) != envelope["sha256"]:
                raise ValueError("payload checksum mismatch (torn write)")
            index = ClusterIndex.from_state(decode_state(body))
        except Exception as err:
            warnings.warn(
                f"skipping unusable retrieval index {path!r}: {err}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        if (
            expected_fingerprint is not None
            and index.fingerprint != expected_fingerprint
        ):
            warnings.warn(
                f"retrieval index {path!r} was built from a different "
                f"model (fingerprint mismatch); ignoring it",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        return index
    return None


def prune_indexes(directory: str, keep_steps) -> None:
    """Drop index payloads whose checkpoint step is no longer retained."""
    keep = {int(step) for step in keep_steps}
    if not os.path.isdir(directory):
        return
    for name in os.listdir(directory):
        match = _INDEX_PATTERN.match(name)
        if match and int(match.group(1)) not in keep:
            os.remove(os.path.join(directory, name))
