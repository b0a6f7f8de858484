"""Benchmark-suite plumbing.

Every bench regenerates one table or figure of the paper, prints it,
and writes it to ``benchmarks/results/<name>.txt`` so the artifacts
survive the run.  Simulations are memoised in-process
(``repro.bench.runner``), so benches that read the same runs (Fig. 7,
8, 9, 11) only pay for them once per session.

The suite attaches no result cache, so every run simulates live and
writes nothing: phase traces are recorded and replayed only through a
cache, and a session never checks numbers replayed from traces that
older code recorded.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def emit():
    """Print a report block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
