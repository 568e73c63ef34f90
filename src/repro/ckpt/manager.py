"""Checkpoint manager: atomic snapshots with manifest, retention, and
corruption recovery.

Write protocol (crash-safe by ordering):

1. encode the state tree to one byte string and checksum it;
2. write the payload to ``<name>.tmp`` and ``os.replace`` it over the
   final name — a crash mid-write leaves only a temp file;
3. append the entry (file, step, metric, sha256) to ``manifest.json``
   and rewrite the manifest with the same temp-file + ``os.replace``
   dance — a crash between payload and manifest leaves an orphan
   payload that the manifest never references.

Read protocol: :meth:`CheckpointManager.load_latest` walks the manifest
newest-first, verifies each file's checksum, and falls back to the
previous entry with a warning when a file is missing, truncated, or
garbled.  A corrupt manifest degrades to a directory scan.

Retention keeps the newest ``keep_last`` snapshots plus the best one by
metric.  The fault sites of :mod:`repro.testing` are threaded through
the write path so tests can kill or corrupt any stage.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import obs, testing
from .serialize import checksum, decode_state, encode_state

MANIFEST_NAME = "manifest.json"
_TMP_SUFFIX = ".tmp"


class CheckpointError(RuntimeError):
    """No usable checkpoint, or a checkpoint/config mismatch."""


@dataclass
class Checkpoint:
    """A decoded snapshot plus its manifest bookkeeping."""

    state: Any
    path: str
    step: int
    metric: Optional[float] = None


def read_checkpoint(path: str) -> Any:
    """Decode one checkpoint file; raises :class:`CheckpointError` when
    the file is missing or unreadable (truncated, garbled, wrong format)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return decode_state(data)
    except (OSError, ValueError) as err:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {err}") from err


def _atomic_write(path: str, data: bytes, site: str) -> None:
    """Write bytes via temp file + ``os.replace`` with fault sites armed."""
    data = testing.filter_bytes(site, data)
    tmp = f"{path}{_TMP_SUFFIX}"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    testing.check(testing.CKPT_BEFORE_REPLACE)
    os.replace(tmp, path)
    testing.check(testing.CKPT_AFTER_REPLACE)


class CheckpointManager:
    """Rolling checkpoint store rooted at one directory.

    Args:
        directory: where payloads and ``manifest.json`` live (created on
            demand).
        keep_last: how many newest snapshots retention preserves.
        maximize_metric: whether the best-by-metric snapshot (also kept)
            is the max or the min.
        tracer: optional :class:`repro.obs.Tracer` (falls back to the
            process-global one); records ``ckpt:save`` / ``ckpt:load``
            spans with per-entry ``ckpt:validate`` children.
    """

    def __init__(
        self,
        directory: str,
        keep_last: int = 3,
        maximize_metric: bool = True,
        tracer: Optional["obs.Tracer"] = None,
    ) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = directory
        self.keep_last = keep_last
        self.maximize_metric = maximize_metric
        self.tracer = obs.resolve_tracer(tracer)
        os.makedirs(directory, exist_ok=True)
        self._drop_stale_tmp()
        self._manifest = self._load_manifest()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def entries(self) -> List[Dict[str, Any]]:
        """Manifest entries, oldest first (copies)."""
        return [dict(entry) for entry in self._manifest["checkpoints"]]

    def _load_manifest(self) -> Dict[str, Any]:
        empty = {"version": 1, "checkpoints": []}
        if not os.path.exists(self.manifest_path):
            return empty
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            if not isinstance(manifest, dict) or not isinstance(
                manifest.get("checkpoints"), list
            ):
                raise ValueError("manifest has no checkpoint list")
            return manifest
        except (OSError, ValueError) as err:
            warnings.warn(
                f"checkpoint manifest {self.manifest_path!r} is corrupt "
                f"({err}); rebuilding from directory scan",
                RuntimeWarning,
                stacklevel=2,
            )
            rebuilt = dict(empty)
            rebuilt["checkpoints"] = self._scan_directory()
            return rebuilt

    def _scan_directory(self) -> List[Dict[str, Any]]:
        """Recover entries from on-disk files (no checksums available)."""
        entries = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".npz"):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                state = decode_state(data)
            except (OSError, ValueError) as err:
                warnings.warn(
                    f"skipping unreadable checkpoint {path!r} during "
                    f"manifest rebuild: {err}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            step = state.get("step", 0) if isinstance(state, dict) else 0
            entries.append(
                {"file": name, "step": int(step), "metric": None,
                 "sha256": checksum(data), "saved_at": None}
            )
        entries.sort(key=lambda entry: entry["step"])
        return entries

    def _write_manifest(self) -> None:
        data = json.dumps(self._manifest, indent=2).encode("utf-8")
        _atomic_write(self.manifest_path, data, testing.CKPT_MANIFEST_WRITE)

    def _drop_stale_tmp(self) -> None:
        """Remove temp files left by a crash mid-write."""
        for name in os.listdir(self.directory):
            if name.endswith(_TMP_SUFFIX):
                os.remove(os.path.join(self.directory, name))

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(
        self, state: Any, step: int, metric: Optional[float] = None
    ) -> str:
        """Snapshot ``state`` atomically; returns the payload path.

        The checksum is computed from the intended bytes *before* the
        write, so corruption anywhere downstream (torn write, bit rot)
        is detectable at load time.
        """
        with self.tracer.span("ckpt:save", step=int(step)) as span:
            data = encode_state(state)
            digest = checksum(data)
            name = f"ckpt-{step:010d}.npz"
            path = os.path.join(self.directory, name)
            span.set_attributes(file=name, bytes=len(data))
            _atomic_write(path, data, testing.CKPT_PAYLOAD_WRITE)
            self._manifest["checkpoints"] = [
                entry for entry in self._manifest["checkpoints"]
                if entry["file"] != name
            ]
            self._manifest["checkpoints"].append(
                {
                    "file": name,
                    "step": int(step),
                    "metric": None if metric is None else float(metric),
                    "sha256": digest,
                    "saved_at": time.time(),
                }
            )
            self._prune()
            self._write_manifest()
        return path

    def _prune(self) -> None:
        """Keep the newest ``keep_last`` entries plus the best by metric."""
        entries = self._manifest["checkpoints"]
        if len(entries) <= self.keep_last:
            return
        keep = set(id(entry) for entry in entries[-self.keep_last:])
        scored = [entry for entry in entries if entry["metric"] is not None]
        if scored:
            best = (max if self.maximize_metric else min)(
                scored, key=lambda entry: entry["metric"]
            )
            keep.add(id(best))
        kept, dropped = [], []
        for entry in entries:
            (kept if id(entry) in keep else dropped).append(entry)
        self._manifest["checkpoints"] = kept
        for entry in dropped:
            stale = os.path.join(self.directory, entry["file"])
            if os.path.exists(stale):
                os.remove(stale)

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load_latest(self) -> Optional[Checkpoint]:
        """Decode the newest valid checkpoint, or ``None`` if none exist.

        Invalid entries (missing file, checksum mismatch, undecodable
        payload) are skipped with a warning and the previous snapshot is
        tried, so a torn write degrades to losing at most the newest
        snapshot rather than the whole run.
        """
        with self.tracer.span("ckpt:load") as load_span:
            for entry in reversed(self._manifest["checkpoints"]):
                path = os.path.join(self.directory, entry["file"])
                with self.tracer.span(
                    "ckpt:validate", file=entry["file"]
                ) as span:
                    try:
                        with open(path, "rb") as handle:
                            data = handle.read()
                    except OSError as err:
                        span.set_attribute("outcome", "unreadable")
                        warnings.warn(
                            f"checkpoint {path!r} unreadable ({err}); "
                            f"falling back to the previous snapshot",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    expected = entry.get("sha256")
                    if expected is not None and checksum(data) != expected:
                        span.set_attribute("outcome", "checksum-mismatch")
                        warnings.warn(
                            f"checkpoint {path!r} failed checksum "
                            f"verification (corrupt write or bit rot); "
                            f"falling back to the previous snapshot",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    try:
                        state = decode_state(data)
                    except ValueError as err:
                        span.set_attribute("outcome", "undecodable")
                        warnings.warn(
                            f"checkpoint {path!r} undecodable ({err}); "
                            f"falling back to the previous snapshot",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    span.set_attribute("outcome", "ok")
                load_span.set_attributes(
                    file=entry["file"], step=int(entry.get("step", 0))
                )
                return Checkpoint(
                    state=state,
                    path=path,
                    step=int(entry.get("step", 0)),
                    metric=entry.get("metric"),
                )
            load_span.set_attribute("outcome", "empty")
        return None


def resolve_resume(
    resume_from: Optional[str], manager: Optional[CheckpointManager] = None
) -> Optional[Any]:
    """Resolve a trainer's ``resume_from`` setting to a state tree.

    - ``None``: no resume (returns ``None``);
    - ``"auto"``: newest valid snapshot from ``manager`` (the trainer's
      checkpoint directory); returns ``None`` on a fresh directory so a
      crash-rerun loop needs no special casing;
    - a directory: newest valid snapshot from its manifest (raises
      :class:`CheckpointError` when it has none);
    - a file: that exact snapshot (raises when unreadable).
    """
    if resume_from is None:
        return None
    if resume_from == "auto":
        if manager is None:
            raise CheckpointError(
                "resume_from='auto' requires a checkpoint directory "
                "(set checkpoint_dir)"
            )
        found = manager.load_latest()
        return None if found is None else found.state
    if os.path.isdir(resume_from):
        found = CheckpointManager(resume_from).load_latest()
        if found is None:
            raise CheckpointError(
                f"no valid checkpoint found under directory {resume_from!r}"
            )
        return found.state
    return read_checkpoint(resume_from)
