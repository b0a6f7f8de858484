"""Fixture for the ``buffer-internals`` rule: known violations plus
legitimate public-API uses that must not be flagged."""


def violating_kernel(engine, buf):
    # Direct arena-field reads.
    slot = buf._slot_of.get(0x40)
    ready = buf._slot_ready[slot]
    # Arena-field write through a dotted receiver.
    engine.buffer._max_ready = 0.0
    # Private method calls.
    buf._insert(0.0, 0x40, 0, False, 0.0, "x")
    engine.buffer._read_miss(0.0, 0x80, "adj", "x")
    # Mutating the LRU structure directly.
    buf._lru_ods[0].popitem(last=False)
    return ready


def fine_kernel(engine, buf):
    # Public API: never flagged.
    ready, issue = buf.read(0.0, 0x40, "adj", "x")
    buf.write(issue, 0x80, "out", dirty=True)
    lines = buf.resident_lines("partial")
    if buf.contains(0xC0):
        buf.reclassify("partial", "out")
    buf.flush(ready, "drain")
    # Unrelated objects sharing a field name: receiver is not a buffer.
    tracker = object()
    _ = getattr(tracker, "_size", None)
    return lines


def suppressed_kernel(buf):
    # Justified by design, silenced inline.
    return buf._max_ready  # analyzer: allow[buffer-internals]
