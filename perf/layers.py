"""Per-layer host timing for the benchmark's traced runs.

A traced sweep child (``sweep_child.py --layers-out``) and the traced
server (``serve_launcher.py``) call :func:`install` before the product
does any work.  It wraps each public function named in :data:`WRAPS`
with a timer that records, per layer: total seconds, self seconds (the
part of the interval no other wrapped call covers), call count, and how
many calls returned something other than ``None``.  One more wrap on
``TraceSession.record`` counts the simulated requests of each phase it
persists.  Nothing inside ``src/`` is edited; the wrappers live only in
the traced process.

A target that no longer exists is reported in ``missing`` and its
metrics come out as ``null``; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple


#: (layer, "module:Qualified.name").  Methods are wrapped on the named
#: class and on every subclass that overrides them; a module function
#: is rebound in every ``repro`` module that imported it by name.  The
#: six engine entry points are the batch methods the kernels drive; the
#: kernels' scalar calls (``stream``, ``mac_local``, ``wait_until``)
#: stay in the kernel self time, because wrapping per-element calls
#: would dwarf what they cost.
WRAPS: Tuple[Tuple[str, str], ...] = (
    ("graphs.load_dataset", "repro.graphs.registry:load_dataset"),
    ("gcn.model_build", "repro.gcn.model:GCNModel.__init__"),
    ("accel.prepare", "repro.hymm.base:AcceleratorBase.prepare"),
    ("accel.run_inference", "repro.hymm.base:AcceleratorBase.run_inference"),
    ("sim.engine", "repro.sim.engine:AccessExecuteEngine.mac_load_batch"),
    ("sim.engine", "repro.sim.engine:AccessExecuteEngine.load_batch"),
    ("sim.engine", "repro.sim.engine:AccessExecuteEngine.mac_stream_load_batch"),
    ("sim.engine", "repro.sim.engine:AccessExecuteEngine.store_batch"),
    ("sim.engine", "repro.sim.engine:AccessExecuteEngine.accumulate_store_batch"),
    ("sim.engine", "repro.sim.engine:AccessExecuteEngine.merge_rmw_batch"),
    ("sim.replay.lookup", "repro.sim.replay:TraceSession.lookup"),
    ("sim.replay.record", "repro.sim.replay:TraceSession.record"),
    ("sim.replay.restore", "repro.sim.buffer:CacheBuffer.restore_state"),
    ("sim.replay.restore", "repro.hymm.dmb:SplitBufferPair.restore_state"),
    ("sim.replay.restore", "repro.sim.engine:AccessExecuteEngine.restore_state"),
    ("runtime.cache.load", "repro.runtime.cache:ResultCache.load"),
    ("runtime.cache.store", "repro.runtime.cache:ResultCache.store"),
    ("runtime.serialize.encode", "repro.hymm.base:RunResult.to_dict"),
    ("runtime.serialize.decode", "repro.hymm.base:RunResult.from_dict"),
    ("runtime.executor", "repro.runtime.executor:SweepExecutor.run"),
)

#: Modules imported before wrapping, so every subclass that overrides
#: a wrapped method is defined when the hierarchy is walked.
PRELOAD = (
    "repro.runtime",
    "repro.bench.workloads",
    "repro.baselines",
    "repro.hymm",
    "repro.sim",
)


class _ThreadState:
    """One thread's open wrapped calls and its own totals (no lock on
    the per-call path; :meth:`LayerRecorder.dump` merges threads)."""

    __slots__ = ("stack", "active", "totals")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.active: set = set()
        self.totals: Dict[str, List[float]] = {}


class LayerRecorder:
    """Per-layer accumulator with a per-thread span stack."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        #: Frontend requests of the live-simulated phases (``sim.requests``).
        self.requests = 0
        #: Layers (or ``sim.requests``) with a target that could not be
        #: wrapped or read: their metrics are reported as null.
        self.missing: List[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        state = self._state()
        # A wrapped call inside another call of the same layer (a
        # subclass override calling super(), one engine batch method
        # falling back to another) is already covered by the outer one.
        if layer in state.active:
            return fn(*args, **kwargs)
        stack = state.stack
        frame = [layer, 0.0]
        stack.append(frame)
        state.active.add(layer)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            state.active.discard(layer)
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
        tot = state.totals.get(layer)
        if tot is None:
            tot = state.totals[layer] = [0.0, 0.0, 0, 0]
        tot[0] += elapsed
        tot[1] += elapsed - frame[1]
        tot[2] += 1
        tot[3] += result is not None
        return result

    def mark_missing(self, name: str, why: str) -> None:
        with self._lock:
            if name in self.missing:
                return
            self.missing.append(name)
        print(f"perf.layers: warning: {why}; {name} reports null",
              file=sys.stderr)

    def dump(self) -> Dict[str, Any]:
        """Totals per layer -- ``[total_s, self_s, calls,
        non_none_returns]`` -- summed over threads, plus ``requests``."""
        layers: Dict[str, List[float]] = {}
        with self._lock:
            for state in self._threads:
                for layer, row in list(state.totals.items()):
                    acc = layers.setdefault(layer, [0.0, 0.0, 0, 0])
                    for i, value in enumerate(row):
                        acc[i] += value
            return {"layers": layers, "requests": self.requests,
                    "missing": list(self.missing)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out


def _make_wrapper(rec: LayerRecorder, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(layer, fn, args, kwargs)

    return wrapper


def _wrap_method(rec: LayerRecorder, layer: str, owner: type, name: str) -> None:
    for cls in _subclasses(owner):
        if name not in cls.__dict__:
            continue
        raw = inspect.getattr_static(cls, name)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_make_wrapper(rec, layer, raw.__func__))
        else:
            wrapped = _make_wrapper(rec, layer, raw)
        setattr(cls, name, wrapped)


def _wrap_function(rec: LayerRecorder, layer: str, fn: Callable) -> None:
    wrapper = _make_wrapper(rec, layer, fn)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def _count_requests(rec: LayerRecorder) -> None:
    """Wrap ``TraceSession.record(sig, phase, record)`` once more, to add
    the ``stats.requests_issued`` of each phase it persists -- one per
    live-simulated phase -- to ``rec.requests``."""
    try:
        from repro.sim.replay import TraceSession

        original = TraceSession.record
    except (ImportError, AttributeError) as exc:
        rec.mark_missing("sim.requests", f"TraceSession.record missing ({exc})")
        return

    @functools.wraps(original)
    def record(self, sig, phase, record):
        try:
            issued = int(record["stats"]["requests_issued"])
        except (KeyError, TypeError, ValueError) as exc:
            rec.mark_missing("sim.requests", f"phase record has no "
                             f"stats.requests_issued ({exc!r})")
        else:
            with rec._lock:
                rec.requests += issued
        return original(self, sig, phase, record)

    TraceSession.record = record


def install(rec: LayerRecorder, wraps: Sequence[Tuple[str, str]] = WRAPS,
            preload: Sequence[str] = PRELOAD) -> LayerRecorder:
    """Wrap every target in ``wraps`` (and count simulated requests); the
    layer of an unresolvable target lands in ``rec.missing`` with a
    warning on stderr."""
    for module_name in preload:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass  # the targets that needed it report themselves below
    for layer, target in wraps:
        module_name, _, qualname = target.partition(":")
        *path, name = qualname.split(".")
        try:
            owner: Any = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, name)
        except (ImportError, AttributeError) as exc:
            rec.mark_missing(layer, f"wrap target {target} missing ({exc})")
            continue
        if isinstance(owner, type):
            _wrap_method(rec, layer, owner, name)
        else:
            _wrap_function(rec, layer, fn)
    _count_requests(rec)
    return rec
