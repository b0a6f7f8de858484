"""Serialisation helpers shared by the result cache, manifests and CLI.

Two concerns live here:

* **Exact array round-trips** -- simulated outputs must survive
  process boundaries bit-identically, so in the wire form (pool
  transport, serve replies) arrays travel as base64-encoded
  little-endian raw bytes plus dtype/shape, not as decimal text.  On
  disk the stores keep them as compressed ``.npy`` blobs instead
  (:class:`repro.runtime.cache.BlobStore`).
* **Best-effort JSON sanitising** -- experiment dicts and
  ``RunResult.extra`` mix scalars with live objects (region plans, CSR
  matrices, callables).  :func:`sanitize_extra` keeps what JSON can
  hold, records what it dropped, and is idempotent so a round-tripped
  result re-serialises to the same bytes.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Tuple

import numpy as np

_SCALARS = (str, int, float, bool, type(None))


def array_to_dict(array: np.ndarray) -> Dict[str, Any]:
    """Encode one ndarray exactly (dtype, shape, raw bytes)."""
    contiguous = np.ascontiguousarray(array)
    little = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": str(contiguous.dtype.name),
        "shape": list(contiguous.shape),
        "data_b64": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def array_from_dict(data: Dict[str, Any]) -> np.ndarray:
    """Decode an :func:`array_to_dict` record back to the exact array."""
    dtype = np.dtype(data["dtype"]).newbyteorder("<")
    flat = np.frombuffer(base64.b64decode(data["data_b64"]), dtype=dtype)
    return flat.astype(np.dtype(data["dtype"]), copy=False).reshape(data["shape"])


def _jsonable_or_none(value: Any) -> Tuple[bool, Any]:
    if isinstance(value, _SCALARS):
        return True, value
    if isinstance(value, (np.integer,)):
        return True, int(value)
    if isinstance(value, (np.floating,)):
        return True, float(value)
    if isinstance(value, (np.bool_,)):
        return True, bool(value)
    if isinstance(value, (list, tuple)):
        items = [_jsonable_or_none(v) for v in value]
        if all(ok for ok, _ in items):
            return True, [v for _, v in items]
        return False, None
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            ok, conv = _jsonable_or_none(v)
            if not ok or not isinstance(k, _SCALARS):
                return False, None
            out[str(k)] = conv
        return True, out
    return False, None


def sanitize_extra(extra: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe view of a ``RunResult.extra`` dict.

    Scalars and (nested) containers of scalars pass through; anything
    else (region plans, CSR matrices, arrays) is dropped and its key
    recorded under ``"_dropped"``.  Idempotent: sanitising an already
    sanitised dict returns an equal dict.
    """
    out: Dict[str, Any] = {}
    dropped: List[str] = []
    for key, value in extra.items():
        if key == "_dropped":
            continue
        ok, conv = _jsonable_or_none(value)
        if ok:
            out[key] = conv
        else:
            dropped.append(key)
    previous = extra.get("_dropped", [])
    merged = sorted(set(previous) | set(dropped))
    if merged:
        out["_dropped"] = merged
    return out


def to_jsonable(value: Any) -> Any:
    """Recursively convert a value for ``json.dump``.

    Unlike :func:`sanitize_extra` this never errors: numpy scalars and
    arrays become Python numbers and nested lists, unknown objects
    become their ``repr``.  Meant for experiment-output JSON files and
    manifests, where lossy-but-complete beats exact-but-partial.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(v) for v in value]
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        try:
            return to_jsonable(to_dict())
        except Exception:
            return repr(value)
    return repr(value)
