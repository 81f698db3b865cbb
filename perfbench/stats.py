"""Percentiles, memory and the environment block."""

from __future__ import annotations

import math
import os
import platform
import resource
from typing import Dict, Iterable, Optional, Sequence

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile: the smallest sample with at
    least ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th
    percentile.  A percentile is reported only with ten or more."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def _vm_hwm_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(worker_pids: Iterable[int] = ()) -> float:
    """This process's peak RSS plus each live worker's ``VmHWM``."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        kb += _vm_hwm_kb(pid) or 0
    return kb / 1024.0


def environment() -> Dict[str, object]:
    """What the numbers depend on beyond the code.  Thread variables
    are reported as found; the benchmark never sets them."""
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        found = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": found.get("name"), "version": found.get("version")}
    except (TypeError, AttributeError):
        blas = {"name": None, "version": None}
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
