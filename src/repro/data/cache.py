"""Dataset caching: persist a :class:`TagRecDataset` as compressed npz.

Loading an archive is far cheaper than generating its dataset, measured
on a 2-core host: 7 ms against 0.3-0.4 s to generate ``hetrec-del`` at
scale 1.0, and 18 ms against 1.6-2.0 s for ``yelp-tag`` at 0.2.  Members
stay deflated: the ``hetrec-del`` archive is 7x smaller (173 kB against
1.2 MB stored), for 50-60 ms of compression per save against about 1 ms
stored, paid once per cache miss.

The file stores the four index arrays plus entity counts, the name,
and — when written through :func:`cached_generate` — a fingerprint of
the generator arguments, so a cache hit is only honoured when it was
built with the *same* arguments (a stale file from a different
scale/seed/preset regenerates instead of silently serving wrong data).

Robustness mirrors :mod:`repro.ckpt`: writes are atomic (temp file +
``os.replace``) and routed through the :data:`repro.testing.
DATA_CACHE_WRITE` fault site, and a torn or garbled archive raises
:class:`DatasetCacheError` on load — which :func:`cached_generate`
turns into delete-and-regenerate rather than a crash.  Every member is
read to its end, so its CRC-32 is checked; ``tests/data/test_cache.py``
fuzzes flipped, truncated and extended archives against this.
"""

from __future__ import annotations

import io
import os
import warnings
import zipfile
from typing import Optional, Tuple

import numpy as np

from .. import testing
from ..ckpt import config_fingerprint
from .dataset import TagRecDataset

_FINGERPRINT_KEY = "__args_fingerprint__"


class DatasetCacheError(RuntimeError):
    """A cache archive exists but cannot be read (torn write, garbling,
    or a foreign file); distinct from ``FileNotFoundError``."""


def _normalize(path: str) -> str:
    return path if path.endswith(".npz") else f"{path}.npz"


def dataset_fingerprint(*args, **kwargs) -> str:
    """Digest of a generator call's arguments (order-insensitive for
    keywords), stored in the archive and compared on cache hits."""
    return config_fingerprint(list(args), dict(kwargs))


def save_dataset(
    dataset: TagRecDataset, path: str, fingerprint: Optional[str] = None
) -> str:
    """Write ``dataset`` to ``path`` (``.npz`` appended if missing).

    The write is atomic — a crash mid-write leaves at most a temp file,
    never a half-written archive under the final name.  Returns the
    path actually written.
    """
    path = _normalize(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = dict(
        num_users=dataset.num_users,
        num_items=dataset.num_items,
        num_tags=dataset.num_tags,
        user_ids=dataset.user_ids,
        item_ids=dataset.item_ids,
        tag_item_ids=dataset.tag_item_ids,
        tag_ids=dataset.tag_ids,
        name=np.asarray(dataset.name),
    )
    if fingerprint is not None:
        payload[_FINGERPRINT_KEY] = np.asarray(fingerprint)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **payload)
    data = testing.filter_bytes(testing.DATA_CACHE_WRITE, buffer.getvalue())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def _read_archive(path: str) -> Tuple[TagRecDataset, Optional[str]]:
    """Decode one archive into (dataset, stored fingerprint or None)."""
    try:
        # np.load stops reading a deflate member at the array's last
        # byte, which can fall short of the stream's end, where zipfile
        # checks the CRC-32: a flipped bit then decodes to different ids
        # without complaint.  ZipFile.read reads each member to its end.
        with zipfile.ZipFile(path) as members:
            archive = {
                name[: -len(".npy")]: np.lib.format.read_array(
                    io.BytesIO(members.read(name))
                )
                for name in members.namelist()
            }
        stored = (
            str(archive[_FINGERPRINT_KEY])
            if _FINGERPRINT_KEY in archive
            else None
        )
        dataset = TagRecDataset(
            num_users=int(archive["num_users"]),
            num_items=int(archive["num_items"]),
            num_tags=int(archive["num_tags"]),
            user_ids=archive["user_ids"],
            item_ids=archive["item_ids"],
            tag_item_ids=archive["tag_item_ids"],
            tag_ids=archive["tag_ids"],
            name=str(archive["name"]),
        )
        return dataset, stored
    except FileNotFoundError:
        raise
    except Exception as err:
        # A torn/garbled npz surfaces anything from zipfile.BadZipFile
        # through KeyError to zlib.error; collapse them into one
        # precise, catchable failure mode.
        raise DatasetCacheError(
            f"dataset cache {path!r} is unreadable ({type(err).__name__}: "
            f"{err})"
        ) from err


def load_dataset_file(path: str) -> TagRecDataset:
    """Load a dataset written by :func:`save_dataset`.

    Raises ``FileNotFoundError`` when the file is absent and
    :class:`DatasetCacheError` when it exists but is corrupt.
    """
    if not path.endswith(".npz") and not os.path.exists(path):
        path = f"{path}.npz"
    return _read_archive(path)[0]


def cached_generate(generator, path: str, *args, **kwargs) -> TagRecDataset:
    """Memoise a generator call on disk, keyed by path *and* arguments.

    A cache hit is served only when the archive is readable and its
    stored argument fingerprint matches this call's ``args``/``kwargs``;
    a corrupt file is deleted and regenerated, and an archive built with
    different arguments (or by an older, fingerprint-less writer) is
    regenerated in place.

    Args:
        generator: callable returning a :class:`TagRecDataset`
            (e.g. ``generate_preset``).
        path: cache file location.
        *args, **kwargs: forwarded to ``generator`` on a cache miss.
    """
    target = _normalize(path)
    fingerprint = dataset_fingerprint(*args, **kwargs)
    if os.path.exists(target):
        try:
            dataset, stored = _read_archive(target)
        except DatasetCacheError as err:
            warnings.warn(
                f"{err}; deleting and regenerating",
                RuntimeWarning,
                stacklevel=2,
            )
            os.remove(target)
        else:
            if stored == fingerprint:
                return dataset
            warnings.warn(
                f"dataset cache {target!r} was generated with different "
                f"arguments (stored fingerprint {stored!r} != "
                f"{fingerprint!r}); regenerating",
                RuntimeWarning,
                stacklevel=2,
            )
    dataset = generator(*args, **kwargs)
    save_dataset(dataset, target, fingerprint=fingerprint)
    return dataset
