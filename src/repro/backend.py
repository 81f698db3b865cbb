"""Numeric backend tiers behind the kernel seam.

Every training and back-testing kernel in this repo is written against
plain numpy, which gives two natural execution tiers:

``reference``
    float64 throughout, per-seed GEMMs batched over contiguous weight
    banks (numpy's batched matmul issues the graph path's exact
    BLAS call per contiguous slice; see :mod:`repro.snn.banked`).
    This is the gold standard: stacked (multi-seed) execution through
    this tier is **bit-identical** to one-seed
    :class:`~repro.agents.trainer.PolicyTrainer` runs, and it is the
    only tier any parity gate (``--check``, CI, tests) is allowed to
    use.

``fast``
    float32 tape buffers with BLAS-batched 3-D GEMMs over the seed
    axis.  Results are close to, but not bit-identical with, the
    reference tier: LIF thresholding in float32 can flip individual
    spikes, so trajectories agree only within a documented tolerance
    (see API.md).  The fast tier can never silently substitute for the
    reference tier — callers select it explicitly and parity gates
    refuse it.

Backends are selected per trainer construction, never via global
state, so a fast training run and a reference parity check can coexist
in one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Backend",
    "REFERENCE",
    "FAST",
    "available_backends",
    "resolve_backend",
]


@dataclass(frozen=True)
class Backend:
    """One numeric execution tier.

    Parameters
    ----------
    name:
        Tier name, ``"reference"`` or ``"fast"``.
    precision:
        Numpy dtype name for tape buffers (``"float64"``/``"float32"``).
        Parameters and optimizer state always stay float64; only the
        per-step tape (drives, voltages, spikes, gradients in flight)
        takes this dtype.  Per-seed weight GEMMs always run as one 3-D
        ``np.matmul`` over an ``(S, rows, features)`` stack of
        contiguous per-seed banks — in float64 this issues the graph
        path's exact BLAS call per slice and stays bit-identical (the
        parity suite asserts it).
    """

    name: str
    precision: str

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.precision)

    @property
    def is_reference(self) -> bool:
        return self.name == "reference"


#: Bit-identical gold standard: float64, batched per-seed GEMM banks.
REFERENCE = Backend(name="reference", precision="float64")

#: Accelerated tier: float32 tapes, BLAS-batched seed GEMMs.
FAST = Backend(name="fast", precision="float32")

_BACKENDS = {REFERENCE.name: REFERENCE, FAST.name: FAST}


def available_backends() -> Sequence[str]:
    """Names accepted by :func:`resolve_backend`."""
    return tuple(_BACKENDS)


def resolve_backend(backend: Union[None, str, Backend] = None) -> Backend:
    """Normalise a backend selector to a :class:`Backend`.

    ``None`` resolves to the reference tier — acceleration is always an
    explicit opt-in, so nothing downstream can silently end up on the
    float32 path.
    """
    if backend is None:
        return REFERENCE
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        try:
            return _BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; available: "
                f"{', '.join(available_backends())}"
            ) from None
    raise TypeError(
        f"backend must be None, a name, or a Backend, got {type(backend).__name__}"
    )
