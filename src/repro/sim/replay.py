"""Record/replay of resolved per-phase timing traces.

The phase-level speed lane beside the batched engine (see
``docs/performance.md``): a live simulation resolves every address
through the buffer model once and *records*, per accelerator phase, the
phase's full outcome -- the :class:`~repro.sim.stats.SimStats` delta,
the end-of-phase occupancy, the complete post-phase simulator state
(buffer arena, engine timelines, DRAM channel clock) and, for an
aggregation, the layer's output.  Any later run that reaches the same
phase *with the same pre-state* replays the record instead of
simulating: restore state, merge the stats delta.  A repeated job (a sweep re-run after its
result records were dropped, a cache entry evicted and asked for
again) skips the buffer model entirely.

Replay is per layer.  Only the aggregation record names an output: the
layer's output exactly as ``RunResult.outputs`` holds it
(post-activation, original node order), so it is the same blob the
result record names.  A combination record names none, so a layer
replays only when both of its records hit; otherwise the whole layer
simulates live.  A live layer after a replayed one takes its input from
the stored output, mapped back to the dataflow's node order by the
inverse permutation -- a gather, so exact.

Why this is exact
-----------------
The simulator is deterministic: a phase's outcome is a pure function of
(model operands, config, pre-phase simulator state).  Phase identity
is established by a *chained signature*::

    sig_0 = H(schema || model fingerprint || accelerator || config)
    sig_k = H(sig_{k-1} || phase name)

``sig_k`` therefore commits to the entire phase history from reset.  By
induction, two runs holding the same ``sig_k`` hold bit-identical
pre-state at phase ``k`` -- same seed inputs, same phases executed --
so the recorded post-state and stats delta are exactly what the live
phase would produce.  Every float in the snapshots is a dyadic
rational (the simulator builds cycle values from ``max`` and additions
of on-grid quantities), so its JSON text round-trips the state exactly,
and the store's zlib compression of that text is lossless.

The seed hashes the whole ``config.to_dict()``.  Each job keeps its
traces in its own fingerprint directory of the result cache
(:func:`repro.runtime.cache.job_trace_store`), and the fingerprint
hashes the whole config too, so two jobs never share a trace whatever
knobs they differ in.

Storage is a :class:`repro.runtime.cache.TraceStore`: one
``<sig>.json`` (zlib-compressed JSON) per phase in the job's own trace
directory.  An aggregation record names its output by hash, as a
content-addressed ``.npy`` blob in the result cache's own ``blobs/``,
shared with the result record.  Writes are atomic; a corrupt record,
or one whose blob is missing or fails its hash check, is evicted and
the layer simulates live.  The run loop hands the store the output
array and gets the array back, so replay never encodes it as text.
Invalidation is structural -- the chain hashes
:data:`TRACE_SCHEMA_VERSION`, so any layout change simply stops
hitting old records.

Replay is read-only by construction: applying a record only calls the
``restore_state`` methods and merges stats; it never touches buffer
arena internals directly (the ``buffer-internals`` analyzer rule
checks this).
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.gcn.model import GCNModel
from repro.hymm.config import HyMMConfig
from repro.sim.constants import TRACE_SCHEMA_VERSION
from repro.telemetry import get_logger, get_registry

_log = get_logger("sim.replay")

# Record/restore wall-clock accounting (host clock, duration-only:
# ``perf_counter`` deltas never feed simulated results, matching the
# determinism rule's explicit exemption).  Registered once at module
# scope into the process-global registry.
_registry = get_registry()
_PHASES_TOTAL = _registry.counter(
    "repro_replay_phases_total",
    "Phases served by the trace store (replayed) vs simulated live and "
    "recorded",
    labelnames=("mode",),
)
_LOOKUP_MS = _registry.histogram(
    "repro_replay_lookup_ms",
    "Wall milliseconds to probe the trace store for one phase record",
)
_RECORD_MS = _registry.histogram(
    "repro_replay_record_ms",
    "Wall milliseconds to persist one phase record",
)


#: Keys every applicable phase record must carry.  ``lookup`` verifies
#: them *before* handing the record to the run loop, so a truncated or
#: hand-edited record (valid JSON, wrong shape) is a clean miss -- the
#: phase simulates live -- instead of a KeyError halfway through a
#: state restore.
RECORD_REQUIRED_KEYS = frozenset(
    {"stats", "occupancy", "buffer", "engine", "dram_next_free"}
)

#: An aggregation record also carries the layer's output.
AGGREGATION_REQUIRED_KEYS = RECORD_REQUIRED_KEYS | {"output"}


def _hash_array(h: "hashlib._Hash", arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())


def model_fingerprint(model: GCNModel) -> str:
    """Content hash of everything the simulator reads from the model:
    the normalised adjacency, the feature matrix, and per-layer weights
    plus activation presence.  Two models with equal fingerprints drive
    byte-identical simulations (given equal config)."""
    h = hashlib.sha256()
    h.update(model.dataset.name.encode())
    adj = model.norm_adj
    h.update(str(adj.shape).encode())
    _hash_array(h, adj.rows)
    _hash_array(h, adj.cols)
    _hash_array(h, adj.values)
    feats = model.dataset.features
    h.update(str(feats.shape).encode())
    _hash_array(h, feats.indptr)
    _hash_array(h, feats.indices)
    _hash_array(h, feats.values)
    for layer in model.layers:
        _hash_array(h, layer.weights)
        h.update(b"act" if layer.activation is not None else b"lin")
    return h.hexdigest()


class TraceSession:
    """One run's view of the trace store: signature chain + counters.

    Create one per ``run_inference`` call (the chain is stateful), give
    it the store, then let the run loop drive it::

        session = TraceSession(store)
        session.open(accelerator.name, config, model)
        comb = session.next_signature("layer0.combination")
        agg = session.next_signature("layer0.aggregation")
        recs = session.lookup_layer(comb, "layer0.combination",
                                    agg, "layer0.aggregation")
        # None -> simulate the layer live, session.record() each phase

    ``replayed`` / ``recorded`` list the phase names served each way,
    so callers (and the correctness tests) can assert replay actually
    happened rather than silently falling back to live simulation.
    """

    def __init__(self, store) -> None:
        from repro.telemetry import current_correlation_id

        self.store = store
        self._sig: Optional[str] = None
        self.replayed: List[str] = []
        self.recorded: List[str] = []
        #: Correlation ID of the request this session serves (bound in
        #: the worker before the session is created); joins the
        #: session's log records to the submit that caused them.
        self.corr_id: Optional[str] = current_correlation_id()

    # ------------------------------------------------------------------
    def open(self, accelerator: str, config: HyMMConfig, model: GCNModel) -> str:
        """Seed the signature chain for one inference run."""
        seed = hashlib.sha256()
        seed.update(str(TRACE_SCHEMA_VERSION).encode())
        seed.update(accelerator.encode())
        seed.update(model_fingerprint(model).encode())
        seed.update(json.dumps(config.to_dict(), sort_keys=True).encode())
        self._sig = seed.hexdigest()
        return self._sig

    def next_signature(self, phase: str) -> str:
        """Advance the chain to ``phase`` and return its signature."""
        if self._sig is None:
            raise RuntimeError("TraceSession.open() must run before phases")
        h = hashlib.sha256()
        h.update(self._sig.encode())
        h.update(b"|")
        h.update(phase.encode())
        self._sig = h.hexdigest()
        return self._sig

    # ------------------------------------------------------------------
    def lookup(
        self, sig: str, phase: str, required: FrozenSet[str] = RECORD_REQUIRED_KEYS
    ) -> Optional[Dict[str, object]]:
        """The stored record for ``sig`` if its schema matches and it
        carries every ``required`` key, else ``None`` (simulate live).

        Stale (older schema) and structurally incomplete records are
        misses by design -- replay must fall back to live simulation on
        anything it cannot apply whole, since a partial restore would
        corrupt the simulator state the chained signature vouches for.
        A hit is not yet a replay: :meth:`lookup_layer` tallies it once
        the whole layer hits.
        """
        t0 = time.perf_counter()
        record = self.store.load_trace(sig)
        _LOOKUP_MS.observe((time.perf_counter() - t0) * 1e3)
        if record is None:
            miss = "absent"
        elif record.get("trace_schema") != TRACE_SCHEMA_VERSION:
            miss = "stale-schema"
        elif not required.issubset(record):
            miss = "incomplete"
        else:
            return record
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "trace miss",
                extra={"corr_id": self.corr_id, "phase": phase, "why": miss},
            )
        return None

    def lookup_layer(
        self, comb_sig: str, comb: str, agg_sig: str, agg: str
    ) -> Optional[Tuple[Dict[str, object], Dict[str, object]]]:
        """Both records of one layer -- combination phase ``comb``, then
        aggregation phase ``agg`` -- or ``None`` when either misses.

        A layer replays whole or not at all: its combination record
        names no output, so the aggregation that would consume the
        combination's product must replay too.  A hit tallies both
        phases in ``replayed``.
        """
        comb_rec = self.lookup(comb_sig, comb)
        if comb_rec is None:
            return None
        agg_rec = self.lookup(agg_sig, agg, AGGREGATION_REQUIRED_KEYS)
        if agg_rec is None:
            return None
        _PHASES_TOTAL.labels("replayed").inc(2)
        self.replayed += [comb, agg]
        return comb_rec, agg_rec

    def record(self, sig: str, phase: str, record: Dict[str, object]) -> None:
        """Persist one phase record under ``sig``."""
        record = dict(record)
        record["trace_schema"] = TRACE_SCHEMA_VERSION
        record["sig"] = sig
        record["phase"] = phase
        t0 = time.perf_counter()
        self.store.store_trace(sig, record)
        _RECORD_MS.observe((time.perf_counter() - t0) * 1e3)
        _PHASES_TOTAL.labels("recorded").inc()
        self.recorded.append(phase)
