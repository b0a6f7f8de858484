"""Traced sweep server: ``python perf/serve_launcher.py OUT serve ...``.

Installs the per-layer timers of ``layers.py`` into this process, then
runs the ``repro.serve`` command line with the remaining arguments
(``perf/run.py`` passes ``serve ... --span-file``).  When the server
exits it writes the layer totals, plus the product's import time, to
``OUT``.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from repro.serve.cli import main as serve_main
    import repro.serve.server  # noqa: F401  (the import a served job pays)

    import_s = time.perf_counter() - start
    from layers import LayerRecorder, install

    recorder = install(LayerRecorder())
    code = serve_main(argv)
    doc = recorder.dump()
    doc["import_s"] = import_s
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
