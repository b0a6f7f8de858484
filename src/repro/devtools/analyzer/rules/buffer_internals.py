"""Rule ``buffer-internals``: the slot arena is the buffer's business.

:class:`repro.sim.buffer.CacheBuffer` stores its state as a
preallocated slot arena -- parallel per-slot arrays, per-class
slot-keyed LRU OrderedDicts, a FIFO MSHR file and one addr->slot map.
That layout is a performance representation, not an interface: it has
changed once already (dict-of-``_Line`` objects -> slot arena) and may
change again, and every field update carries invariants (class counts,
LRU membership, the ``_max_ready`` watermark) that only the buffer's
own methods and the batched engine's audited fast paths maintain.

Kernel or baseline code reaching into those fields would couple model
code to the representation *and* bypass the invariant maintenance --
a silent way to corrupt eviction order or miss accounting without any
equivalence test noticing.  The public surface (``read``, ``write``,
``accumulate``, ``contains``, ``flush``, ``invalidate``,
``reclassify``, ``occupancy_by_class``, ``resident_lines``,
``evict_priority``) covers every legitimate use.

Scope mirrors the ``batch-api`` rule: compute kernels and baseline
accelerators.  ``repro.sim.engine`` is deliberately outside the scope
-- the batched engine's flat loops are the audited fast path and hoist
these fields by design.

A second, stricter scope covers replay-mode code
(:mod:`repro.sim.replay` and the run loop in :mod:`repro.hymm.base`):
there *any* arena access -- reads included -- is flagged, because
applying a recorded trace must be read-only over the arena by
construction, with state flowing only through the public
``snapshot_state``/``restore_state`` pair.
"""

from __future__ import annotations

from typing import Iterator

from repro.devtools.analyzer.astutil import attribute_accesses
from repro.devtools.analyzer.core import Finding, Project, Rule, register

#: Private slot-arena state of :class:`repro.sim.buffer.CacheBuffer`.
#: Kept in sync with the buffer implementation; the rule's own test
#: cross-checks this set against the live class.
ARENA_FIELDS = {
    "_slot_of",
    "_slot_cls",
    "_slot_dirty",
    "_slot_ready",
    "_slot_addr",
    "_lru_ods",
    "_lru_mte",
    "_free_slots",
    "_class_count",
    "_mshr_fifo",
    "_outstanding",
    "_spilled_partials",
    "_max_ready",
    "_evict_ctx",
    "_evict_order",
    "_line_cost",
    "_read_latency",
    "_size",
}

#: Private methods that are likewise representation, not interface.
ARENA_METHODS = {
    "_insert",
    "_read_miss",
    "_acquire_mshr",
    "_touch_slot",
    "_update_partial_peak",
    "_commit_hit_epoch",
}


@register
class BufferInternalsRule(Rule):
    name = "buffer-internals"
    description = (
        "kernels and baselines must not touch CacheBuffer's private "
        "slot-arena fields; use the public read/write/accumulate API"
    )
    default_severity = "error"
    default_options = {
        "scope": [
            "repro.hymm.kernels",
            "repro.baselines",
        ],
        # Replay-mode code: applying a recorded trace must be read-only
        # over the arena *by construction* -- state flows exclusively
        # through the public snapshot_state/restore_state pair, never
        # through arena fields, so a replayed phase cannot corrupt the
        # invariants the live paths maintain.  Any arena touch here is
        # flagged, reads included.
        "replay_scope": [
            "repro.sim.replay",
            "repro.hymm.base",
        ],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        private = ARENA_FIELDS | ARENA_METHODS
        for mod in project.in_package(*tuple(self.options["scope"])):
            for receiver, node in attribute_accesses(
                mod.tree, private, _looks_like_buffer
            ):
                kind = "method" if node.attr in ARENA_METHODS else "field"
                yield self.finding(
                    project, mod, node,
                    f"access to CacheBuffer private slot-arena {kind} "
                    f"{receiver}.{node.attr}: the arena layout is a "
                    f"representation, not an interface -- go through the "
                    f"public buffer API",
                    symbol=f"{receiver}.{node.attr}",
                )
        for mod in project.in_package(*tuple(self.options["replay_scope"])):
            for receiver, node in attribute_accesses(
                mod.tree, private, _looks_like_buffer
            ):
                yield self.finding(
                    project, mod, node,
                    f"arena access {receiver}.{node.attr} in replay-mode "
                    f"code: trace replay must stay read-only over the "
                    f"buffer arena -- restore state only through the "
                    f"public snapshot_state/restore_state pair",
                    symbol=f"{receiver}.{node.attr}",
                )


def _looks_like_buffer(receiver: str) -> bool:
    """Kernels and baselines reach the buffer through names containing
    ``buf`` (``buf``, ``buffer``, ``self.buffer``, ``dmb.buffer``,
    ``top_buf``); an unrelated object with a ``_size`` attribute under
    a different name is not worth flagging."""
    return "buf" in receiver.lower()
