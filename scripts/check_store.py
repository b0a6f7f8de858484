"""Check the on-disk layout of a result-cache directory.

    python scripts/check_store.py [CACHE_DIR]

``CACHE_DIR`` defaults to the product's default cache directory
(``$REPRO_CACHE_DIR`` or ``~/.cache/hymm-repro``).  Prints the bytes
held by result records, phase traces and output blobs, then exits 1 if

* ``CACHE_DIR/blobs`` is missing, or any result or trace record -- read
  through the store's own reader, since records are compressed -- is
  unreadable or holds an inline array (``data_b64``): every output
  matrix must live in the content-addressed blob store, once;
* any raw ``*.npy`` file lies anywhere in the store: a blob is a
  zlib stream of its ``.npy`` header and top byte plane followed by
  its lower byte planes (``repro.runtime.cache.BlobStore``);
* any blob (``*.npyz``) lies outside ``CACHE_DIR/blobs``: result
  records and phase traces share that one blob store;
* any blob does not hash to its name, does not read back as a whole
  ``.npy`` array, or holds a dtype or shape other than a reference
  naming it says;
* any blob is named by no result or trace record: traces keep no
  output of their own, so every blob is some result's output;
* a trace record names other than exactly one output blob, or its
  ``combination`` part holds simulator state (``buffer``, ``engine``
  or ``dram_next_free``): each layer's one record names the layer's
  output, and only its aggregation part is restored;
* any trace record lies outside ``CACHE_DIR/traces/<fp[0:2]>/<fp>/``
  (``fp`` the 64-hex job fingerprint): each job's traces live in its
  own directory of the cache.
"""

from __future__ import annotations

import hashlib
import re
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.runtime.cache import (
    BLOB_SUFFIX,
    decode_record,
    default_cache_dir,
    inflate_blob,
)

_FINGERPRINT = re.compile(r"[0-9a-f]{64}")

#: Simulator state a trace's combination part must not store: replay
#: restores the aggregation's state over it.
_STATE_KEYS = frozenset({"buffer", "engine", "dram_next_free"})


def _trace_dir_ok(parts: Tuple[str, ...]) -> bool:
    """``parts`` (relative to the cache) name ``traces/<fp[:2]>/<fp>/X``."""
    return (
        len(parts) == 4
        and _FINGERPRINT.fullmatch(parts[2]) is not None
        and parts[1] == parts[2][:2]
    )


def _dicts(value: Any) -> Iterator[Dict[str, Any]]:
    """Every JSON object nested in ``value``, itself included."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _dicts(item)


#: Blob digest -> ``(record path, reference)`` of every reference to it.
Refs = Dict[str, List[Tuple[Path, Dict[str, Any]]]]


def _check_record(path: Path, kind: str, named: Refs, problems: List[str]) -> None:
    """Add the blob references ``path`` holds to ``named``, and what is
    wrong with it to ``problems``."""
    try:
        record = decode_record(path.read_bytes())
    except (OSError, ValueError) as exc:
        problems.append(f"{path} is unreadable: {exc}")
        return
    if any("data_b64" in d for d in _dicts(record)):
        problems.append(f"{path} holds an inline array (data_b64)")
    if kind == "records":
        refs = record.get("result", {}).get("outputs", [])
    else:
        refs = [d for d in _dicts(record) if "blob" in d]
        if len(refs) != 1:
            problems.append(f"{path} is a trace naming {len(refs)} output blobs")
        part = record.get("combination")
        dead = _STATE_KEYS.intersection(part) if isinstance(part, dict) else ()
        if dead:
            problems.append(f"{path} stores combination state {sorted(dead)}")
    for ref in refs:
        if isinstance(ref, dict) and "blob" in ref:
            named.setdefault(ref["blob"], []).append((path, ref))


def _check_blob(path: Path, refs: List[Tuple[Path, Dict[str, Any]]]) -> List[str]:
    """What is wrong with the blob file ``path``, named by ``refs``."""
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != path.stem:
        return [f"{path} does not hash to its name"]
    try:
        dtype, shape, _ = inflate_blob(data)
    except (ValueError, TypeError) as exc:
        return [f"{path} is unreadable: {exc}"]
    if not refs:
        return [f"{path} is a blob no result or trace record names"]
    return [
        f"{path} holds {dtype}{shape}, but {record} names it as "
        f"{ref.get('dtype')}{ref.get('shape')}"
        for record, ref in refs
        if [ref.get("dtype"), ref.get("shape")] != [dtype, shape]
    ]


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else default_cache_dir()
    totals: Dict[str, List[int]] = {
        "records": [0, 0], "traces": [0, 0], "blobs": [0, 0], "other": [0, 0],
    }
    problems: List[str] = []
    named: Refs = {}
    blobs: List[Path] = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        parts = path.relative_to(root).parts
        top = parts[0]
        if top in ("blobs", "traces"):
            kind = top
        elif len(top) == 2 and path.suffix == ".json":
            kind = "records"
        else:
            kind = "other"
        totals[kind][0] += 1
        totals[kind][1] += path.stat().st_size
        if path.suffix == ".npy":
            problems.append(f"{path} is a raw .npy file")
        elif path.suffix == BLOB_SUFFIX:
            if top == "blobs":
                blobs.append(path)
            else:
                problems.append(f"{path} is a blob outside {root / 'blobs'}")
        if kind == "traces" and path.suffix == ".json" and not _trace_dir_ok(parts):
            problems.append(
                f"{path} is a trace record outside "
                f"{root / 'traces'}/<fp[0:2]>/<fp>/"
            )
        if kind in ("records", "traces") and path.suffix == ".json":
            _check_record(path, kind, named, problems)
    for path in blobs:
        problems += _check_blob(path, named.get(path.stem, []))
    for kind, (files, size) in totals.items():
        print(f"{kind:8s} {files:6d} files {size:12,d} bytes")
    if not (root / "blobs").is_dir():
        problems.insert(0, f"{root / 'blobs'} is missing")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
