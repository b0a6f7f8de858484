"""Simulator constants that light modules read without the simulator.

Configuration validation (:mod:`repro.hymm.config`) and the serve
front end's ``/healthz`` need these names, and importing them from
:mod:`repro.sim.engine` or :mod:`repro.sim.replay` would load numpy
and the cycle engine into a process that never simulates.  Stdlib
only.
"""

from __future__ import annotations

#: Engine implementations selectable via ``HyMMConfig.engine``.
ENGINE_KINDS = ("scalar", "batched")

#: Bump on any change to the trace record layout or the snapshot wire
#: formats; hashed into the signature chain so stale records become
#: structural misses instead of wrong replays.  v2: the phase output is
#: a content-addressed ``.npy`` blob reference, not inline base64.  v3:
#: only aggregation records name an output -- the layer's output as the
#: result holds it -- and a layer replays whole or not at all.  v4: one
#: record per layer, under the aggregation signature; its nested
#: combination part keeps no simulator state.  v5: both parts' stats
#: are stats documents, their ``partial_timeline`` stored as runs
#: (:func:`repro.hymm.wire.encode_stats`).
TRACE_SCHEMA_VERSION = 5
