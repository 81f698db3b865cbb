"""Per-process OpenBLAS thread control, without ``threadpoolctl``.

Each forked process inherits OpenBLAS's default thread count, one per
usable core, so N worker processes on C cores spin N × C BLAS threads
and spend their GEMMs contending for cores.  This module finds the
OpenBLAS that numpy already loaded (by scanning ``/proc/self/maps``
with ``ctypes``) once, at import time in the parent, and lets a child
cap its own thread count:

* :func:`worker_budget` — the per-process budget for a pool of
  ``workers`` processes: ``min(inherited, max(1, usable_cpus //
  workers))``.  It never raises the parent's setting, so an operator's
  lower ``OPENBLAS_NUM_THREADS`` still wins.
* :func:`set_blas_threads` — apply a budget in the calling process and
  return the count OpenBLAS reads back (usable as a
  ``ProcessPoolExecutor`` initializer).

Setting the count in a freshly forked child makes OpenBLAS rebuild its
thread pool, and an idle pool thread busy-waits for work for about
0.1 s before it sleeps: CPU stolen from the child and its siblings just
as they start serving.  So after setting the count the pool is shut
down again, as OpenBLAS itself does at every ``fork``; it restarts
lazily on the first multi-threaded call, and a budget of one thread
never needs it.

OpenBLAS splits GEMM/GEMV work by output block, so results are
bit-identical across thread counts.  Where no controllable OpenBLAS is
found (another BLAS, or no ``/proc``), everything here is a no-op that
returns ``None``.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, NamedTuple, Optional

import numpy  # noqa: F401  (loads the BLAS this module resolves)

__all__ = ["blas_threads", "set_blas_threads", "usable_cpus", "worker_budget"]

# (setter, getter) pairs, tried in order on every BLAS-looking library:
# upstream OpenBLAS, then the symbol-prefixed ILP64 build that numpy's
# wheels bundle.
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)

# OpenBLAS's own fork handler; exported by its pthreads builds.
_SHUTDOWN = "blas_thread_shutdown_"


class _Controls(NamedTuple):
    set: Callable[[int], None]
    get: Callable[[], int]
    shutdown: Optional[Callable[[], int]]


def _resolve() -> Optional[_Controls]:
    """The thread-count functions of a loaded OpenBLAS, or ``None`` when
    no mapped library exports them."""
    try:
        with open("/proc/self/maps") as maps:
            # "address perms offset dev inode [pathname]"
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return None
    paths = {f[5].strip() for f in fields if len(f) == 6}
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if "blas" not in name or ".so" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                shutdown = getattr(lib, _SHUTDOWN, None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return _Controls(setter, getter, shutdown)
    return None


_CONTROLS: Optional[_Controls] = _resolve()


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count (``None``: not controllable)."""
    if _CONTROLS is None:
        return None
    return int(_CONTROLS.get())


def set_blas_threads(n: Optional[int]) -> Optional[int]:
    """Set this process's OpenBLAS thread count to ``n`` and return the
    count read back.  ``n=None`` (no budget) changes nothing.

    Call it while no other thread of the process runs BLAS, as a pool
    initializer or a forked worker's first step does.
    """
    if _CONTROLS is None:
        return None
    if n is not None:
        _CONTROLS.set(max(1, int(n)))
        if _CONTROLS.shutdown is not None:
            _CONTROLS.shutdown()
    return blas_threads()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


def worker_budget(workers: int) -> Optional[int]:
    """Threads each of ``workers`` processes should run:
    ``min(inherited, max(1, usable_cpus() // workers))``, where
    ``inherited`` is this process's current count.  ``None`` when no
    controllable OpenBLAS was found."""
    inherited = blas_threads()
    if inherited is None:
        return None
    return min(inherited, max(1, usable_cpus() // max(1, int(workers))))
