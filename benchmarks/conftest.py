"""Benchmark-suite plumbing.

Every bench regenerates one table or figure of the paper, prints it,
and writes it into its marked block of ``EXPERIMENTS.md``
(``<!-- bench:NAME -->`` ... ``<!-- /bench:NAME -->``), so the committed
report holds exactly what the default-scale run measures.  A
``REPRO_FULL_SCALE=1`` run only prints: the committed blocks always
hold the default scales.  Simulations are memoised in-process
(``repro.bench.runner``), so benches that read the same runs (Fig. 7,
8, 9, 11) only pay for them once per session.

The suite attaches no result cache, so every run simulates live and
writes nothing else: phase traces are recorded and replayed only
through a cache, and a session never checks numbers replayed from
traces that older code recorded.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.report import replace_block
from repro.bench.workloads import full_scale_requested

EXPERIMENTS = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"


@pytest.fixture(scope="session")
def emit():
    """Print a report block and write it into EXPERIMENTS.md."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")
        if full_scale_requested():
            return
        document = EXPERIMENTS.read_text(encoding="utf-8")
        EXPERIMENTS.write_text(replace_block(document, name, text), encoding="utf-8")

    return _emit
