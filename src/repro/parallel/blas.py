"""Runtime control of OpenBLAS's thread count (the pool's CPU budget).

numpy and scipy each bundle their own OpenBLAS (``libscipy_openblas64_``
and ``libscipy_openblas``), and each starts as many BLAS threads as the
host has cores.  A forked worker pool multiplies that: with ``n``
workers plus the parent, ``n + 1`` processes each run a full set of BLAS
threads on the same cores, and the threads spend the run preempting one
another.  While a :class:`~repro.parallel.pool.ProbeWorkerPool` is
alive, it therefore owns the CPU budget: every process of the pool pins
each loaded OpenBLAS to :func:`budget` threads, and closing the pool
restores the parent's previous counts.

Results do not depend on the thread count: OpenBLAS splits a GEMM over
blocks of the *output*, so every element is one dot product summed in
the same order whatever the number of threads
(``tests/parallel/test_blas_budget.py`` checks this on the conv shapes).

The libraries are found by scanning ``/proc/self/maps`` for loaded
OpenBLAS copies and are driven through ``ctypes`` — no extra dependency.
Where none is found (another BLAS, an OpenBLAS without the
scipy-openblas symbols, no ``/proc``), every function here is a silent
no-op.
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["budget", "limit_threads", "restore_threads", "threads"]

# The get/set pair exported by the scipy-openblas wheels: numpy's
# 64-bit-integer build (``...64_``) and scipy's 32-bit one.
_SYMBOLS = tuple(
    (f"scipy_openblas_get_num_threads{suffix}",
     f"scipy_openblas_set_num_threads{suffix}")
    for suffix in ("64_", "")
)

_MAPS = "/proc/self/maps"

# (library path, get_num_threads, set_num_threads)
_Library = Tuple[str, Any, Any]


def _mapped_openblas_paths() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths: List[str] = []
    try:
        with open(_MAPS) as maps:
            for line in maps:
                fields = line.split(None, 5)
                if len(fields) < 6:
                    continue
                path = fields[5].strip()
                if (
                    "openblas" in os.path.basename(path).lower()
                    and path not in paths
                ):
                    paths.append(path)
    except OSError:
        return []
    return paths


def _libraries() -> List[_Library]:
    """The loaded OpenBLAS copies with their thread-control functions.

    Re-scanned on every call (a few hundred lines of ``maps``): the
    callers run once per pool start/close, and a library loaded after
    an earlier scan must not be missed.
    """
    found: List[_Library] = []
    for path in _mapped_openblas_paths():
        try:
            # RTLD_NOLOAD: take a handle on the mapped copy, never load
            # a second one.
            handle = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            try:
                get = getattr(handle, get_name)
                set_ = getattr(handle, set_name)
            except AttributeError:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            found.append((path, get, set_))
            break
    return found


def threads() -> Optional[int]:
    """The most threads any loaded OpenBLAS may use; None without one."""
    counts = [get() for _, get, _ in _libraries()]
    return max(counts) if counts else None


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def budget(n_workers: int) -> int:
    """BLAS threads per process when ``n_workers`` workers and their
    parent share this process's CPUs."""
    return max(1, _usable_cpus() // (n_workers + 1))


def limit_threads(limit: int) -> Dict[str, int]:
    """Cap every loaded OpenBLAS at ``limit`` threads (never raise one).

    Returns each library's previous count by path, for
    :func:`restore_threads`.
    """
    previous: Dict[str, int] = {}
    for path, get, set_ in _libraries():
        current = get()
        previous[path] = current
        if limit < current:
            set_(limit)
    return previous


def restore_threads(previous: Dict[str, int]) -> None:
    """Set each library back to the count :func:`limit_threads` saw."""
    for path, _, set_ in _libraries():
        if path in previous:
            set_(previous[path])
