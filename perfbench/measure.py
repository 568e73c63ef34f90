"""Statistics, memory and environment helpers shared by every workload."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles a tail is reported at, highest first.  A timing is given
#: as its median and the highest of these that has at least
#: ``MIN_BEYOND`` samples above it.
TAIL_CHOICES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of percentile ``pct`` in ``n`` samples."""
    return max(1, math.ceil(n * pct / 100.0))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the ``pct`` nearest rank."""
    return n - nearest_rank(n, pct)


def tail_percentile(n: int, beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest percentile in :data:`TAIL_CHOICES` with ``beyond`` samples
    above it, or ``None`` when ``n`` is too small for any of them."""
    for pct in TAIL_CHOICES:
        if samples_beyond(n, pct) >= beyond:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[nearest_rank(len(ordered), pct) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest supported tail percentile.

    With too few samples for any tail choice the tail is the maximum,
    reported at percentile 100.  Infinite values (failed requests) sort
    last, so a failure counts as a miss of any latency limit.
    """
    n = len(values)
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_pct": 100.0 if pct is None else pct,
        "tail": max(values) if pct is None else percentile(values, pct),
    }


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50.0)


def _vm_hwm_kb(pid: str = "self") -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus the given children.

    Each process contributes its own high-water mark (``VmHWM``); pages
    a forked child still shares with its parent are counted in both.
    """
    own = _vm_hwm_kb()
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = own
    for pid in child_pids:
        child = _vm_hwm_kb(str(pid))
        if child is not None:
            total += child
    return total / 1024.0


def _blas_functions(names: Sequence[str]) -> List[ctypes._CFuncPtr]:
    """The first of ``names`` each loaded OpenBLAS library exports."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            func = getattr(lib, name, None)
            if func is not None:
                found.append(func)
                break
    return found


def blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS will use, if it can be asked."""
    for func in _blas_functions((
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )):
        func.restype = ctypes.c_int
        func.argtypes = []
        return int(func())
    return None


def set_blas_threads(threads: int) -> Optional[int]:
    """Make every loaded OpenBLAS use ``threads`` threads from now on
    (forked children inherit it); returns the count it then reports."""
    for func in _blas_functions((
        "scipy_openblas_set_num_threads64_",
        "openblas_set_num_threads64_",
        "openblas_set_num_threads",
    )):
        func.restype = None
        func.argtypes = [ctypes.c_int]
        func(threads)
    return blas_threads()


def _git_commit(root: str) -> str:
    """HEAD of ``root`` read from ``.git`` directly; ``unknown`` when the
    checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return "unknown"  # no .git here: the checkout is a plain copy
    return "unknown"


def environment(root: str) -> Dict[str, object]:
    """Hardware and library facts a result must carry to be comparable."""
    import numpy
    import scipy

    blas: Dict[str, object] = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {
            "name": info.get("name"),
            "version": info.get("version"),
            "config": info.get("openblas configuration"),
        }
    except (TypeError, AttributeError) as err:  # NumPy without dict config
        blas = {"error": repr(err)}
    blas["threads"] = blas_threads()
    blas["env_threads"] = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    affinity: List[int] = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else []
    return {
        "nproc": len(affinity) or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }
