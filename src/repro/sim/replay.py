"""Record/replay of resolved per-layer timing traces.

The phase-level speed lane beside the batched engine (see
``docs/performance.md``): a live simulation resolves every address
through the buffer model once and *records*, per layer, one record:
the aggregation's :class:`~repro.sim.stats.SimStats` delta, end-of-phase
occupancy, complete post-phase simulator state (buffer arena, engine
timelines, DRAM channel clock) and the layer's output, plus a nested
``"combination"`` part with only what closing that phase reads -- its
stats delta, occupancy and ``drain`` cycle.  Any later run that reaches
the same layer *with the same pre-state* replays the record instead of
simulating: merge the stats deltas, restore state.  A repeated job (a
sweep re-run after its result records were dropped, a cache entry
evicted and asked for again) skips the buffer model entirely.

Replay is per layer: the whole layer replays or simulates live.  The
record names the layer's output exactly as ``RunResult.outputs`` holds
it (post-activation, original node order), so it is the same blob the
result record names.  A live layer after a replayed one takes its input
from the stored output, mapped back to the dataflow's node order by the
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
phase would produce.  A replayed combination needs no state: closing
it reads only the recorded drain cycle, and the aggregation's restore
sets all the state.  Every float in the snapshots is a dyadic
rational (the simulator builds cycle values from ``max`` and additions
of on-grid quantities), so its JSON text round-trips the state exactly,
and the store's zlib compression of that text is lossless.

The seed hashes the whole ``config.to_dict()``.  Each job keeps its
traces in its own fingerprint directory of the result cache
(:func:`repro.runtime.cache.job_trace_store`), and the fingerprint
hashes the whole config too, so two jobs never share a trace whatever
knobs they differ in.

Storage is a :class:`repro.runtime.cache.TraceStore`: one
``<sig>.json`` (zlib-compressed JSON) per layer, under its aggregation
signature, in the job's own trace directory; a job that dies between a
layer's phases writes none.  The record names its output by hash, as a
content-addressed blob (the ``.npy`` bytes, its top byte plane
deflated) in the result cache's own ``blobs/``, shared with the result
record.  Writes are atomic; a corrupt record, or one whose blob is
missing or fails its checks, is evicted and the layer simulates live.
The run loop hands the store the output array and gets the array
back, so replay never encodes it as text.
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
    "Wall milliseconds to persist one layer record",
)


#: Keys every layer record must carry.  ``lookup`` verifies them
#: *before* handing the record to the run loop, so a truncated or
#: hand-edited record (valid JSON, wrong shape) is a clean miss -- the
#: layer simulates live -- instead of a KeyError halfway through a
#: state restore.
RECORD_REQUIRED_KEYS = frozenset(
    {"stats", "occupancy", "buffer", "engine", "dram_next_free", "output",
     "combination"}
)

#: Keys the record's nested ``"combination"`` part must carry: what
#: closing that phase reads, and no simulator state.
COMBINATION_REQUIRED_KEYS = frozenset({"stats", "occupancy", "drain"})


def _hash_array(h: "hashlib._Hash", arr: np.ndarray) -> None:
    # ``hashlib`` reads the C-contiguous array's buffer (``a.data``, a
    # memoryview) in place, so no operand is copied; the digest must
    # equal hashing ``a.tobytes()``, or every stored trace would miss.
    a = np.ascontiguousarray(arr)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.data)


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
        rec = session.lookup_layer("layer0.combination",
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
        #: (phase, record) of a combination awaiting its aggregation.
        self._combination: Optional[Tuple[str, Dict[str, object]]] = None
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
        carries every ``required`` key and every
        :data:`COMBINATION_REQUIRED_KEYS` key in its combination part,
        else ``None`` (simulate live).

        Stale (older schema) and structurally incomplete records are
        misses by design -- replay must fall back to live simulation on
        anything it cannot apply whole, since a partial restore would
        corrupt the simulator state the chained signature vouches for.
        A hit is not yet a replay: :meth:`lookup_layer` tallies it.
        """
        t0 = time.perf_counter()
        record = self.store.load_trace(sig)
        _LOOKUP_MS.observe((time.perf_counter() - t0) * 1e3)
        if record is None:
            miss = "absent"
        elif record.get("trace_schema") != TRACE_SCHEMA_VERSION:
            miss = "stale-schema"
        elif not required.issubset(record) or not (
            isinstance(record.get("combination"), dict)
            and COMBINATION_REQUIRED_KEYS.issubset(record["combination"])
        ):
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
        self, comb: str, agg_sig: str, agg: str
    ) -> Optional[Dict[str, object]]:
        """The record of one layer -- combination phase ``comb``, then
        aggregation phase ``agg`` -- stored under the aggregation's
        signature ``agg_sig``, or ``None`` on a miss.

        A layer replays whole or not at all: the record holds both
        phases, and only the aggregation part holds simulator state.  A
        hit tallies both phases in ``replayed``.
        """
        record = self.lookup(agg_sig, agg)
        if record is not None:
            _PHASES_TOTAL.labels("replayed").inc(2)
            self.replayed += [comb, agg]
        return record

    def record(self, sig: str, phase: str, record: Dict[str, object]) -> None:
        """Take one live phase's record.  A combination's (no
        ``"output"``) is held; the aggregation's that follows persists
        the layer under ``sig``, the held part nested as
        ``"combination"``.  A layer is stored whole or not at all."""
        if "output" not in record:
            self._combination = (phase, dict(record))
            return
        if self._combination is None:
            raise RuntimeError(f"{phase} recorded without its combination")
        comb, combination = self._combination
        self._combination = None
        record = dict(record, combination=combination)
        record["trace_schema"] = TRACE_SCHEMA_VERSION
        record["sig"] = sig
        record["phase"] = phase
        t0 = time.perf_counter()
        self.store.store_trace(sig, record)
        _RECORD_MS.observe((time.perf_counter() - t0) * 1e3)
        _PHASES_TOTAL.labels("recorded").inc(2)
        self.recorded += [comb, phase]
