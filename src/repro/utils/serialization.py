"""Lightweight result/model (de)serialisation.

Models are saved as ``.npz`` state dicts; experiment results as JSON
with numpy scalars coerced to Python types.

The module also owns the repo's *tagged-value codec*: config dataclasses
(:class:`~repro.envs.observations.ObservationConfig`,
:class:`~repro.snn.neurons.LIFParameters`,
:class:`~repro.data.splits.ExperimentWindow`, ...) are encoded as JSON
objects carrying a ``"__type__"`` tag so strategy specs and experiment
configurations round-trip through checkpoints and artifact stores.  The
tag table is a registry — the modules that own a config type register it
with :func:`register_tagged_type` — so the codec never imports the rest
of the repo.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Type, Union

import numpy as np

PathLike = Union[str, Path]

# ----------------------------------------------------------------------
# npz / json primitives
#
# All writes are atomic: content lands in a same-directory temp file
# first, then ``os.replace`` publishes it in one step.  A reader (or a
# resume scan) therefore never sees a torn half-written npz/json — it
# sees either the old file, no file, or the complete new file.


def _atomic_replace(path: Path, tmp: Path) -> None:
    try:
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_state_dict(path: PathLike, state: Dict[str, np.ndarray]) -> None:
    """Persist a module state dict to an ``.npz`` archive (atomically)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # np.savez appends ".npz" to names that lack it, so the temp name
    # keeps the suffix to stay predictable.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    try:
        np.savez(tmp, **state)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _atomic_replace(path, tmp)


def load_state_dict(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_state_dict`."""
    with np.load(Path(path)) as archive:
        return {key: archive[key] for key in archive.files}


def _coerce(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    return value


def save_json(path: PathLike, payload: Dict[str, Any]) -> None:
    """Write a JSON result file atomically, coercing numpy types.

    The JSON is compact and key-sorted: ``indent`` would force CPython's
    pure-Python encoder, which doubles the cost of the per-round
    session-state writes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(
            json.dumps(_coerce(payload), sort_keys=True, separators=(",", ":"))
        )
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _atomic_replace(path, tmp)


def load_json(path: PathLike) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# Tagged-value codec

_TAGGED_TYPES: Dict[str, Type] = {}


def register_tagged_type(cls: Type, name: Optional[str] = None) -> Type:
    """Register a dataclass for tagged JSON encoding.

    Idempotent for the same class; registering a *different* class under
    a taken name raises (tags are global identities in checkpoints).
    Returns ``cls`` so it can be used as a class decorator.
    """
    key = name if name is not None else cls.__name__
    existing = _TAGGED_TYPES.get(key)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"tagged type {key!r} is already registered to "
            f"{existing.__module__}.{existing.__qualname__}"
        )
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"tagged type {key!r} must be a dataclass")
    _TAGGED_TYPES[key] = cls
    return cls


def encode_tagged(value: Any) -> Any:
    """Encode ``value`` into JSON-safe data.

    Registered dataclasses become ``{"__type__": name, ...fields}``;
    numpy scalars/arrays become Python scalars/lists; dicts, lists, and
    tuples recurse.  Unknown object types raise ``TypeError`` (callers
    that need "encodable?" as a predicate catch it).
    """
    for name, cls in _TAGGED_TYPES.items():
        if isinstance(value, cls):
            payload = {
                f.name: encode_tagged(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
            payload["__type__"] = name
            return payload
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): encode_tagged(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_tagged(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"value of type {type(value).__name__} is not checkpointable"
    )


def decode_tagged(value: Any) -> Any:
    """Invert :func:`encode_tagged`, rebuilding registered dataclasses."""
    if isinstance(value, dict):
        tag = value.get("__type__")
        if tag is not None:
            cls = _TAGGED_TYPES.get(tag)
            if cls is None:
                raise ValueError(f"unknown tagged type {tag!r} in checkpoint")
            kwargs = {
                k: decode_tagged(v) for k, v in value.items() if k != "__type__"
            }
            return cls(**kwargs)
        return {k: decode_tagged(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_tagged(v) for v in value]
    return value
