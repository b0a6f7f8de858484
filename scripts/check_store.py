"""Check the on-disk layout of a result-cache directory.

    python scripts/check_store.py [CACHE_DIR]

``CACHE_DIR`` defaults to the product's default cache directory
(``$REPRO_CACHE_DIR`` or ``~/.cache/hymm-repro``).  Prints the bytes
held by result records, phase traces and output blobs, then exits 1 if

* ``CACHE_DIR/blobs`` is missing, or any ``*.json`` under ``CACHE_DIR``
  holds an inline array (``data_b64``): every output matrix must live
  in the content-addressed blob store, once;
* any ``*.npy`` lies outside ``CACHE_DIR/blobs``: result records and
  phase traces share that one blob store;
* any trace record lies outside ``CACHE_DIR/traces/<fp[0:2]>/<fp>/``
  (``fp`` the 64-hex job fingerprint): each job's traces live in its
  own directory of the cache.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


def _trace_dir_ok(parts: Tuple[str, ...]) -> bool:
    """``parts`` (relative to the cache) name ``traces/<fp[:2]>/<fp>/X``."""
    return (
        len(parts) == 4
        and _FINGERPRINT.fullmatch(parts[2]) is not None
        and parts[1] == parts[2][:2]
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args:
        root = Path(args[0])
    else:
        from repro.runtime import default_cache_dir

        root = default_cache_dir()
    totals: Dict[str, List[int]] = {
        "records": [0, 0], "traces": [0, 0], "blobs": [0, 0], "other": [0, 0],
    }
    problems: List[str] = []
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
        if path.suffix == ".npy" and top != "blobs":
            problems.append(f"{path} is a blob outside {root / 'blobs'}")
        if (kind == "traces" and path.suffix == ".json"
                and not _trace_dir_ok(parts)):
            problems.append(
                f"{path} is a trace record outside "
                f"{root / 'traces'}/<fp[0:2]>/<fp>/"
            )
        if path.suffix == ".json" and "data_b64" in path.read_text(
            encoding="utf-8", errors="replace"
        ):
            problems.append(f"{path} holds an inline array (data_b64)")
    for kind, (files, size) in totals.items():
        print(f"{kind:8s} {files:6d} files {size:12,d} bytes")
    if not (root / "blobs").is_dir():
        problems.insert(0, f"{root / 'blobs'} is missing")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
