"""Wall-clock spans: the process hook into a ``clock="wall"`` tracer.

:mod:`repro.obs` traces *simulated* cycles; this module traces *host*
time -- the other clock.  Both are written by the one
:class:`repro.obs.tracer.ChromeTracer`, distinguished by ``cat``
(``"host"`` here vs ``"phase"``/``"sim"`` there) and by the document
metadata ``clock`` field.  Each span carries the bound correlation ID
in its ``args``, which is the join key ``repro.obs diff`` uses to line
a job's host-time spans up against its simulated-time trace.

The recorder is explicitly installed (serve ``--span-file``) or
absent; with no recorder, :func:`span` is a no-op context manager --
two attribute loads on the hit path, no timestamps taken.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.tracer import ChromeTracer

from .logs import current_correlation_id

#: Category stamped on every wall-clock event (simulated-time traces
#: use "phase"/"sim"/...).
HOST_CATEGORY = "host"

# Process-global recorder: absent by default (spans cost nothing), set
# by entry points that want a wall-clock trace out.
_recorder: Optional[ChromeTracer] = None


def install_recorder(recorder: Optional[ChromeTracer]) -> Optional[ChromeTracer]:
    """Install (or, with None, remove) the process recorder -- a
    ``ChromeTracer(clock="wall")`` -- and return the previous one so
    tests can restore it."""
    global _recorder
    previous = _recorder
    _recorder = recorder
    return previous


@contextmanager
def span(name: str, **args: Any) -> Iterator[None]:
    """Record a wall-clock span if a recorder is installed; otherwise
    a no-op (the telemetry-off contract: no clock reads, no objects)."""
    rec = _recorder
    if rec is None:
        yield
        return
    start = (time.perf_counter() - rec.origin) * 1e6
    try:
        yield
    finally:
        end = (time.perf_counter() - rec.origin) * 1e6
        corr_id = current_correlation_id()
        if corr_id:
            args["corr_id"] = corr_id
        rec.span(name, start, end, cat=HOST_CATEGORY, args=args)
