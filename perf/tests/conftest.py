"""Self-tests of the benchmark (``pytest perf/tests``; tier-1 does not
collect them).  The benchmark's modules and the product's ``src`` go on
``sys.path`` the way ``perf/run.py`` puts them there."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERF), str(PERF.parent / "src")]
