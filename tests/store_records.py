"""Reading and hand-editing result and trace records in their on-disk
format.

Records are zlib-compressed JSON.  A test that plants a fault inside a
record (a bumped schema, a missing key, a bad blob reference) must
write it back in that format: a plain-JSON write is evicted as corrupt
before the planted fault is ever read, and the test would pass for the
wrong reason.
"""

from __future__ import annotations

import contextlib
import pathlib
from typing import Any, Dict, Iterator

from repro.runtime.cache import decode_record, write_record


def read_record(path: Any) -> Dict[str, Any]:
    """The JSON object stored in the record file at ``path``."""
    return decode_record(pathlib.Path(path).read_bytes())


@contextlib.contextmanager
def edited_record(path: Any) -> Iterator[Dict[str, Any]]:
    """Yield the record at ``path`` to edit in place; on exit, write it
    back through the store's own writer."""
    record = read_record(path)
    yield record
    write_record(path, record)
