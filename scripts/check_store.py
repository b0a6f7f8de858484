"""Check the on-disk layout of a result-cache directory.

    python scripts/check_store.py [CACHE_DIR]

``CACHE_DIR`` defaults to the product's default cache directory
(``$REPRO_CACHE_DIR`` or ``~/.cache/hymm-repro``).  Prints the bytes
held by result records, phase traces and output blobs, then exits 1 if
``CACHE_DIR/blobs`` is missing or any ``*.json`` under ``CACHE_DIR``
holds an inline array (``data_b64``): every output matrix must live in
the content-addressed blob store, once.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional


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
    inline: List[Path] = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        top = path.relative_to(root).parts[0]
        if top in ("blobs", "traces"):
            kind = top
        elif len(top) == 2 and path.suffix == ".json":
            kind = "records"
        else:
            kind = "other"
        totals[kind][0] += 1
        totals[kind][1] += path.stat().st_size
        if path.suffix == ".json" and "data_b64" in path.read_text(
            encoding="utf-8", errors="replace"
        ):
            inline.append(path)
    for kind, (files, size) in totals.items():
        print(f"{kind:8s} {files:6d} files {size:12,d} bytes")
    failed = 0
    if not (root / "blobs").is_dir():
        print(f"FAIL: {root / 'blobs'} is missing", file=sys.stderr)
        failed = 1
    for path in inline:
        print(f"FAIL: {path} holds an inline array (data_b64)", file=sys.stderr)
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
