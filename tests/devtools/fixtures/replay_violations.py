"""Fixture for the ``buffer-internals`` replay scope: in replay-mode
code even *reading* an arena field is a violation -- state must flow
through the public snapshot/restore pair only."""


def apply_trace(buffer, engine, rec):
    # Legitimate replay application: public surface only.
    buffer.restore_state(rec["buffer"])
    engine.restore_state(rec["engine"])
    occupancy = buffer.occupancy_by_class()
    # Violations: an arena read and an arena write.
    watermark = buffer._max_ready
    buffer._slot_ready[0] = 0.0
    # Violation: a private-method call.
    buffer._commit_hit_epoch([], [])
    return occupancy, watermark


def record_trace(buf):
    # Snapshotting goes through the public API too.
    return {"buffer": buf.snapshot_state()}
