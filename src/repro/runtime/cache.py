"""Persistent on-disk stores: job results, phase traces, output blobs.

Result and trace records are one zlib-compressed JSON file each, named
``.json`` all the same, and share the record I/O below
(:func:`decode_record`, :func:`write_record`).  Neither holds an output
matrix inline: each matrix is written once, as a content-addressed
file in a :class:`BlobStore` (its ``.npy`` header and the top byte of
every scalar deflated, the lower bytes raw), and records refer to it
as ``{"blob": <sha256>, "dtype", "shape"}``.  A sweep that computes
the same product under several dataflows or timing knobs therefore
keeps one copy of it, shared by every record that names it.  The
deflated top bytes save about a fifth of a float32 blob, and only a
reader that returns the outputs pays to inflate them
(``docs/performance.md``, "Store size").

:class:`ResultCache` maps a job fingerprint to its ``RunResult``
(``{"fingerprint", "spec", "result", ...}``), sharded into two levels
of hash-prefix directories so no directory piles up every record of a
large cache.  ``"result"`` is the wire document the job's worker
returned, stored as-is except that its ``"outputs"`` are blob
references; :class:`~repro.runtime.executor.SweepExecutor` is the only
code that stores records.  :meth:`ResultCache.load_document` rebuilds
the wire document from the record and the blob bytes (the ``.npy``
data section, inflated, checked and base64-encoded) with the standard
library alone, so a server that only answers hits never imports numpy
or the simulator; :meth:`ResultCache.probe` makes the same checks
without inflating any output, for a hit that answers a summary.
:meth:`ResultCache.load` makes the same checks on the same record and
builds a ``RunResult`` with the outputs read straight from the blobs::

    <cache_dir>/
        <fp[0:2]>/<fp[2:4]>/<fingerprint>.json
        blobs/<h[0:2]>/<h>.npyz  # output matrices, h = SHA-256 of the file
        traces/                  # phase traces (see job_trace_store)

:class:`TraceStore` holds one job's phase traces flat in that job's
own directory, sharded by fingerprint, one record per layer, and the
outputs its records name in the cache's own ``blobs/`` -- the result
record's own output blobs (:func:`job_trace_store`)::

    <cache_dir>/traces/<fp[0:2]>/<fingerprint>/<aggregation signature>.json

Traces live only here: every job the runtime executes records and
replays them in its sweep's cache.  They sit under the job's
fingerprint, so a change to the code that computes results retires
them with the result records.

Invalidation rules:

* the fingerprint already encodes the job schema version and a hash of
  the source that computes results (:func:`repro.runtime.job.code_digest`),
  so changing either simply stops hitting old records and traces (job
  schema v6 compresses records, so plain-JSON records of v5 and
  earlier are never hit, and v8 splits and deflates blobs, so no
  record of v7 or earlier names a raw ``.npy`` blob);
* a record whose embedded ``RunResult`` schema version no longer
  matches the code is treated as a miss and evicted;
* unreadable/corrupt records (truncated writes, a broken zlib stream,
  plain JSON, bad JSON, missing keys) are evicted on first touch and
  counted in
  :attr:`ResultCache.corrupt` -- a damaged cache degrades to cold, it
  never fails a run;
* every blob read re-hashes the file and checks its ``.npy`` header
  against the reference's dtype and shape (a read that inflates the
  data checks its length too): a missing, truncated or mismatched
  blob makes the record naming it corrupt (evicted and counted, as
  above), and a damaged blob itself is deleted so the next store
  rewrites it.  A damaged blob is never served.

Writing a blob (and decoding one into an array for a trace replay)
takes numpy, which those methods import where they run.

Writes (records and blobs) go through a temp file in the target's
*own* directory + ``os.replace``, so a concurrent reader (or a killed
writer) can never observe a partial file, and two writers racing the
same key resolve last-writer-wins with no torn record.  A blob that
already exists is not rewritten: its name is its content.
"""

from __future__ import annotations

import ast
import base64
import hashlib
import io
import json
import math
import os
import pathlib
import re
import struct
import tempfile
import threading
import time
import zlib
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Tuple, TypeVar, Union,
)

from repro.hymm.wire import result_fields
from repro.runtime.job import SCHEMA_VERSION, JobSpec

if TYPE_CHECKING:
    import numpy as np

    from repro.hymm.base import RunResult

T = TypeVar("T")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/hymm-repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path.home() / ".cache" / "hymm-repro"


def _evict(path: pathlib.Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def decode_record(data: bytes) -> Dict[str, Any]:
    """The JSON object a result or trace record file's bytes hold.

    Raises ``ValueError`` unless ``data`` is a complete zlib stream of
    a JSON object (a torn write or a plain-JSON file is not).
    """
    try:
        text = zlib.decompress(data)
    except zlib.error as exc:
        raise ValueError(f"not a zlib-compressed record: {exc}") from None
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    return record


def _read_record(
    path: pathlib.Path, decode: Callable[[Dict[str, Any]], T]
) -> Tuple[Optional[T], bool]:
    """``(decode of the record at path, corrupt)``.

    A missing record is ``(None, False)``.  A record that cannot be
    read or decompressed, is not a JSON object, or that ``decode``
    rejects is evicted and reported as ``(None, True)``.
    """
    try:
        with open(path, "rb") as fh:
            record = decode_record(fh.read())
        return decode(record), False
    except FileNotFoundError:
        return None, False
    except (KeyError, TypeError, ValueError, OSError):
        _evict(path)
        return None, True


def _write_atomic(
    path: pathlib.Path, data: Iterable[Union[bytes, memoryview]]
) -> pathlib.Path:
    """Atomically publish the concatenated byte chunks ``data`` at
    ``path``; returns ``path``.

    The temp file lives in the target's own directory, so the final
    ``os.replace`` is a same-filesystem atomic rename: a reader can
    never see a partial file, and concurrent writers racing the same
    key resolve last-writer-wins (each publishes a complete file;
    whichever rename lands last sticks).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(data)
        os.replace(tmp_name, path)
    except BaseException:
        _evict(pathlib.Path(tmp_name))
        raise
    return path


def write_record(
    path: Union[str, os.PathLike[str]], record: Mapping[str, Any]
) -> pathlib.Path:
    """Atomically persist one record as zlib-compressed JSON; returns
    ``path``.

    One ``json.dumps`` (the C encoder) and one ``zlib.compress`` cost a
    quarter of streaming ``json.dump`` (the pure-Python encoder) through
    a compressor; a record's text is at most a few hundred KB.
    """
    data = zlib.compress(json.dumps(record).encode("utf-8"))
    return _write_atomic(pathlib.Path(path), [data])


_DIGEST = re.compile(r"[0-9a-f]{64}")

#: Suffix of a blob file: a zlib stream of a ``.npy`` header and the
#: top byte of every scalar, then the scalars' other bytes raw.
BLOB_SUFFIX = ".npyz"
#: The one zlib level and strategy of every blob's stream.  The
#: run-length strategy matches only runs of one repeated byte and
#: Huffman-codes the rest; on the top planes of the benchmark's stores
#: it keeps the size steadier from one model seed to the next than the
#: default strategy does (``docs/performance.md``, "Store size").
_BLOB_LEVEL = 6
_BLOB_STRATEGY = zlib.Z_RLE


class BlobStore:
    """Content-addressed output matrices, one file per distinct array::

        <root>/<h[0:2]>/<h>.npyz    # h = SHA-256 of the file's bytes

    The file splits the array's little-endian scalars into byte planes
    (plane ``i`` holds byte ``i`` of every scalar, in C order; a complex
    scalar is its two floats).  One zlib stream holds the ``.npy``
    header and the top plane -- a float's sign and high exponent bits,
    a few distinct values per matrix -- and the lower planes follow it
    raw, plane 0 first.  Deflating the lower planes too would save more
    on post-ReLU features, but only in proportion to their zeros, so a
    store's size would follow how many hidden units a model's weights
    leave dead (``docs/performance.md``, "Store size").

    :meth:`put` returns the reference a record stores in place of the
    array, ``{"blob": h, "dtype", "shape"}``.  Every reader re-hashes
    the file and checks its ``.npy`` header against the reference's
    dtype and shape: :meth:`check` inflates the header alone,
    :meth:`read` the whole file (so it checks the data's length too),
    and :meth:`get` turns that back into the bit-identical array.
    Each raises ``ValueError`` when the blob is missing, damaged or
    does not match the reference.
    """

    def __init__(self, root: Union[str, os.PathLike[str]]) -> None:
        self.root = pathlib.Path(root)

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}{BLOB_SUFFIX}"

    def put(self, array: np.ndarray) -> Dict[str, Any]:
        """Store ``array`` (once per content); returns its reference."""
        import numpy as np

        contiguous = np.asarray(array, order="C")
        little = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
        if little.dtype.kind not in _NPY_KINDS:
            raise ValueError(f"{little.dtype} arrays are not stored as blobs")
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, np.lib.format.header_data_from_array_1_0(little)
        )
        lane = _lane(little.dtype.kind, little.dtype.itemsize)
        planes = little.reshape(-1).view(np.uint8).reshape(-1, lane).T
        deflate = zlib.compressobj(_BLOB_LEVEL, strategy=_BLOB_STRATEGY)
        chunks = [
            deflate.compress(header.getvalue()),
            deflate.compress(np.ascontiguousarray(planes[-1]).data),
            deflate.flush(),
            np.ascontiguousarray(planes[:-1]).data,
        ]
        sha = hashlib.sha256()
        for chunk in chunks:
            sha.update(chunk)
        digest = sha.hexdigest()
        path = self._path(digest)
        if not path.exists():
            _write_atomic(path, chunks)
        return {
            "blob": digest,
            "dtype": contiguous.dtype.name,
            "shape": list(contiguous.shape),
        }

    def _stored(self, ref: Mapping[str, Any]) -> bytes:
        """The bytes of the blob file ``ref`` names, re-hashed.  A blob
        whose bytes no longer hash to its name is deleted (so the next
        :meth:`put` of that content rewrites it) before the
        ``ValueError`` is raised; a missing blob raises ``ValueError``
        too."""
        digest = ref["blob"]
        if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
            raise ValueError(f"malformed blob reference {digest!r}")
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise ValueError(f"blob {digest} is missing") from None
        if hashlib.sha256(data).hexdigest() != digest:
            _evict(path)
            raise ValueError(f"blob {digest} is damaged")
        return data

    def check(self, ref: Mapping[str, Any]) -> None:
        """Check the blob ``ref`` names without inflating its data: the
        file re-hashed, and the ``.npy`` header at the head of its
        stream checked against ``ref``.  Stdlib only."""
        name, shape = _blob_header(self._stored(ref))
        _match(ref, name, shape)

    def read(self, ref: Mapping[str, Any]) -> memoryview:
        """The raw bytes of the array ``ref`` names -- little-endian, C
        order: the ``.npy`` data after its header -- rebuilt from the
        re-hashed file (:func:`inflate_blob`), with the header checked
        against ``ref``'s dtype and shape and the data's length against
        the header.  Stdlib only."""
        name, shape, data = inflate_blob(self._stored(ref))
        _match(ref, name, shape)
        return data

    def get(self, ref: Mapping[str, Any]) -> np.ndarray:
        """The array ``ref`` names, bit-identical to the one stored, as
        a read-only view of the bytes :meth:`read` checked."""
        import numpy as np

        dtype = np.dtype(ref["dtype"])
        flat = np.frombuffer(self.read(ref), dtype=dtype.newbyteorder("<"))
        return flat.astype(dtype, copy=False).reshape(ref["shape"])


def _match(ref: Mapping[str, Any], name: str, shape: List[int]) -> None:
    if name != ref["dtype"] or shape != list(ref["shape"]):
        raise ValueError(f"blob {ref['blob']} does not match its reference")


def _blob_header(data: bytes) -> Tuple[str, List[int]]:
    """``(dtype name, shape)`` from the ``.npy`` header at the head of
    the blob file ``data``, inflating nothing after the header.

    Raises ``ValueError`` unless the stream inflates to a header
    :meth:`BlobStore.put` writes.
    """
    inflate = zlib.decompressobj()
    try:
        head = inflate.decompress(data, _NPY_PREFIX)
        rest = _npy_header_end(head) - len(head)
        if rest > 0:
            head += inflate.decompress(inflate.unconsumed_tail, rest)
    except zlib.error as exc:
        raise ValueError(f"blob does not inflate: {exc}") from None
    name, shape, _, _, _ = _npy_header(head)
    return name, shape


def inflate_blob(data: bytes) -> Tuple[str, List[int], memoryview]:
    """``(dtype name, shape, array bytes)`` of the blob file ``data``:
    its zlib stream inflated whole, the ``.npy`` header parsed, the
    length of every byte plane checked against it and the planes
    interleaved back into the array's little-endian bytes.

    Raises ``ValueError`` unless the file holds the layout
    :meth:`BlobStore.put` writes.
    """
    inflate = zlib.decompressobj()
    try:
        head = inflate.decompress(data)
    except zlib.error as exc:
        raise ValueError(f"blob does not inflate: {exc}") from None
    if not inflate.eof:
        raise ValueError("blob does not inflate: the stream is truncated")
    name, shape, start, nbytes, lane = _npy_header(head)
    count = nbytes // lane
    low = memoryview(data)[len(data) - len(inflate.unused_data):]
    if len(head) - start != count or len(low) != nbytes - count:
        raise ValueError("blob holds the wrong number of bytes")
    top = memoryview(head)[start:]
    if lane == 1:
        return name, shape, top
    array = bytearray(nbytes)
    array[lane - 1::lane] = top
    for i in range(lane - 1):
        array[i::lane] = low[i * count:(i + 1) * count]
    return name, shape, memoryview(array).toreadonly()


#: ``.npy`` format 1.0 magic string and version.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
#: Bytes before a ``.npy`` 1.0 header's text: the magic and its length.
_NPY_PREFIX = len(_NPY_MAGIC) + 2
#: ``.npy`` type codes of the array kinds a blob may hold.
_NPY_KINDS = {"b": "bool", "i": "int", "u": "uint", "f": "float", "c": "complex"}


def _npy_header_end(data: bytes) -> int:
    """Where the array data starts in the ``.npy`` bytes ``data``
    begins with: the end of its header."""
    if len(data) < _NPY_PREFIX or not data.startswith(_NPY_MAGIC):
        raise ValueError("blobs are written as .npy format 1.0")
    (length,) = struct.unpack_from("<H", data, len(_NPY_MAGIC))
    return _NPY_PREFIX + length


def _lane(kind: str, itemsize: int) -> int:
    """Bytes per scalar of an array item: a complex item is two."""
    return itemsize // 2 if kind == "c" else itemsize


def _npy_header(data: bytes) -> Tuple[str, List[int], int, int, int]:
    """``(dtype name, shape, data offset, data bytes, bytes per
    scalar)`` of the ``.npy`` bytes ``data`` begins with (its header at
    least).

    Raises ``ValueError`` unless it is format 1.0 holding a C-order
    array of a kind in :data:`_NPY_KINDS`, the layout
    :meth:`BlobStore.put` writes.
    """
    start = _npy_header_end(data)
    if len(data) < start:
        raise ValueError("truncated .npy header")
    try:
        header = ast.literal_eval(data[_NPY_PREFIX:start].decode("latin1").strip())
    except SyntaxError as exc:
        raise ValueError(f"unreadable .npy header: {exc}") from None
    if not isinstance(header, dict) or header.get("fortran_order") is not False:
        raise ValueError("blobs hold C-order arrays")
    descr, shape = header.get("descr"), header.get("shape")
    if not isinstance(descr, str) or not isinstance(shape, tuple):
        raise ValueError(".npy header without a scalar dtype and a shape")
    name = _dtype_name(descr)
    if name is None:
        raise ValueError(f"blobs hold no {descr!r} arrays")
    itemsize = int(descr[2:])
    return (name, list(shape), start, math.prod(shape) * itemsize,
            _lane(descr[1], itemsize))


def _dtype_name(descr: str) -> Optional[str]:
    """The numpy dtype name of a little-endian (or byte-order free)
    ``.npy`` type code, ``"<f8"`` -> ``"float64"``; ``None`` for any
    other."""
    kind, size = descr[1:2], descr[2:]
    if (descr[:1] not in ("<", "|") or kind not in _NPY_KINDS
            or not size.isdigit() or not int(size)):
        return None
    return "bool" if kind == "b" else f"{_NPY_KINDS[kind]}{8 * int(size)}"


class ResultCache:
    """Disk-backed map ``JobSpec fingerprint -> RunResult``."""

    def __init__(self, cache_dir: "Optional[os.PathLike[str]]" = None) -> None:
        #: Counters since construction (surfaced in manifests).  The
        #: serve front end probes the cache from worker threads
        #: (``asyncio.to_thread``) while its event loop renders
        #: ``stats()``, so every counter update takes the lock --
        #: ``+=`` alone is a non-atomic read-modify-write.
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else default_cache_dir()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: Output matrices of every record and every phase trace:
        #: ``<cache_dir>/blobs``.
        self.blobs = BlobStore(self.cache_dir / "blobs")

    def _path(self, fingerprint: str) -> pathlib.Path:
        return (
            self.cache_dir / fingerprint[0:2] / fingerprint[2:4]
            / f"{fingerprint}.json"
        )

    def probe(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """The cached result for ``spec`` as its wire document with each
        output left as its blob reference, or ``None`` (miss).

        What a hit that answers only a summary needs, with every check
        :meth:`load_document` makes but one: each output's blob is
        re-hashed and its ``.npy`` header checked
        (:meth:`BlobStore.check`), but its data is neither inflated nor
        base64-encoded, so its length goes unchecked -- the hash
        vouches for it.  Stdlib only.
        """
        return self._read(spec, self._summary)

    def _summary(self, record: Dict[str, Any]) -> Dict[str, Any]:
        doc = dict(record["result"])
        result_fields(doc)
        for ref in doc["outputs"]:
            self.blobs.check(ref)
        return doc

    def load_document(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """The cached result for ``spec`` as its wire document (the
        ``RunResult.to_dict()`` form), or ``None`` (miss).

        The document is built from the record and the blob bytes, with
        no numpy and no simulator: each output's blob is re-hashed and
        inflated, its ``.npy`` header and data length checked against
        the reference and its data base64-encoded as the wire form's
        ``data_b64``.  Records that cannot be parsed, fail
        :func:`repro.hymm.wire.result_fields` (the result schema
        version, the config, the stats and every phase snapshot) or
        name a missing, damaged or mismatched blob are evicted and
        reported as misses.
        """
        return self._read(spec, self._document)

    def _read(
        self, spec: JobSpec, decode: Callable[[Dict[str, Any]], T]
    ) -> Optional[T]:
        """``decode`` of ``spec``'s record, or ``None`` (miss), counted."""
        read, corrupt = _read_record(self._path(spec.fingerprint()), decode)
        with self._counter_lock:
            if read is None:
                self.misses += 1
                self.corrupt += int(corrupt)
            else:
                self.hits += 1
        return read

    def _document(self, record: Dict[str, Any]) -> Dict[str, Any]:
        doc = dict(record["result"])
        result_fields(doc)
        doc["outputs"] = [
            {
                "dtype": ref["dtype"],
                "shape": list(ref["shape"]),
                "data_b64": base64.b64encode(self.blobs.read(ref)).decode("ascii"),
            }
            for ref in doc["outputs"]
        ]
        return doc

    def load(self, spec: JobSpec) -> Optional[RunResult]:
        """The cached result for ``spec`` decoded, or ``None`` (miss).

        One record read, with every check :meth:`load_document` makes:
        the fields go through :func:`~repro.hymm.wire.result_fields`
        and each output is :meth:`BlobStore.get` of its reference, the
        blob bytes it re-hashed, inflated and checked -- never
        base64-encoded into a document and decoded again.
        """
        return self._read(spec, self._result)

    def _result(self, record: Dict[str, Any]) -> RunResult:
        from repro.hymm.base import RunResult

        doc = dict(record["result"])
        fields = result_fields(doc)
        return RunResult(outputs=[self.blobs.get(ref) for ref in doc["outputs"]], **fields)

    def store(self, spec: JobSpec, doc: Mapping[str, Any]) -> pathlib.Path:
        """Atomically persist one result; returns the record path.

        ``doc`` is the job's wire document (``RunResult.to_dict()``, as
        :func:`repro.runtime.execute.execute_job` returns it, minus the
        executor's ``"replay"`` side-channel); it is written as the
        record's ``"result"`` without being encoded again, except that
        each output matrix goes to :attr:`blobs` and the record keeps
        its reference.  ``doc`` itself is not modified.
        """
        from repro.runtime.serialize import array_from_dict

        result = dict(doc)
        result["outputs"] = [
            self.blobs.put(array_from_dict(a)) for a in doc["outputs"]
        ]
        fingerprint = spec.fingerprint()
        spec_doc = spec.to_dict()
        # Cache records are content-addressed and shared across
        # requests; the telemetry correlation ID of whichever request
        # happened to compute the result first does not belong in them.
        spec_doc.pop("corr_id", None)
        record = {
            "fingerprint": fingerprint,
            "schema_version": SCHEMA_VERSION,
            "created_unix": time.time(),
            "spec": spec_doc,
            "result": result,
        }
        path = write_record(self._path(fingerprint), record)
        with self._counter_lock:
            self.stores += 1
        return path

    # ------------------------------------------------------------------
    def _record_paths(self) -> Iterator[pathlib.Path]:
        """Every record file (maintenance walks)."""
        return iter(self.cache_dir.glob("??/??/*.json"))

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for path in list(self._record_paths()):
            _evict(path)
            removed += 1
        return removed

    def size(self) -> int:
        """Number of records currently on disk."""
        return sum(1 for _ in self._record_paths())

    def stats(self) -> Dict[str, int]:
        with self._counter_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
            }

    @property
    def hit_rate(self) -> float:
        """Hits over lookups since construction (0.0 before any)."""
        with self._counter_lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0


class TraceStore:
    """One job's resolved phase-timing traces (record/replay).

    Keys are the 64-hex chained aggregation signatures
    :mod:`repro.sim.replay` computes; records are JSON dicts carrying
    one layer's resolved timing -- both phases' stats deltas, the
    post-layer simulator state and the layer's output matrix -- stored
    flat as ``<root>/<sig>.json``, where ``root`` is the job's own
    trace directory.  The output matrix goes to a
    :class:`BlobStore` under ``blob_dir`` (default ``<root>/blobs``):
    :meth:`store_trace` takes it as an array and :meth:`load_trace`
    hands it back as one, so replay never encodes or decodes it as
    text.  Corrupt records -- and records whose output blob is missing
    or damaged -- are evicted and read as misses, the same degradation
    contract as the result cache.  Invalidation is structural: the
    signature chain hashes the trace schema version, the model
    fingerprint, and every timing-relevant config knob, so any change
    simply stops hitting old records.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike[str]],
        blob_dir: Optional[Union[str, os.PathLike[str]]] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.blobs = BlobStore(blob_dir if blob_dir is not None else self.root / "blobs")

    def _decode(self, record: Dict[str, Any]) -> Dict[str, Any]:
        if "output" in record:
            record["output"] = self.blobs.get(record["output"])
        return record

    def load_trace(self, sig: str) -> Optional[Dict[str, Any]]:
        """The stored trace record for ``sig``, or ``None`` (miss)."""
        return _read_record(self.root / f"{sig}.json", self._decode)[0]

    def store_trace(self, sig: str, record: Dict[str, Any]) -> pathlib.Path:
        """Atomically persist one trace record; returns the path."""
        if "output" in record:
            record = dict(record, output=self.blobs.put(record["output"]))
        return write_record(self.root / f"{sig}.json", record)


def job_trace_store(
    cache_dir: Union[str, os.PathLike[str]], spec: JobSpec
) -> TraceStore:
    """``spec``'s phase traces in the cache at ``cache_dir``:
    ``<cache_dir>/traces/<fp[0:2]>/<fp>``, one directory per job (so its
    traces can be inspected, sized or evicted as a unit), with output
    matrices in the result records' own ``<cache_dir>/blobs``."""
    root = pathlib.Path(cache_dir)
    fp = spec.fingerprint()
    return TraceStore(root / "traces" / fp[:2] / fp, root / "blobs")
