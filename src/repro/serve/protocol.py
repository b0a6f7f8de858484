"""Line-delimited JSON wire protocol of the sweep service.

One request per line, one (or, for followed status, several) response
lines back -- newline-delimited JSON objects over a plain TCP stream,
so any language (or ``nc``) can talk to the server without an HTTP
stack.  Requests name an endpoint either directly (``{"op": "submit",
...}``) or in path form (``{"path": "/status/<job_id>"}``); the
endpoints are:

``/submit``
    Body: ``{"spec": {...JobSpec dict...}, "wait": bool,
    "include_result": bool}``.  Deduplicates against in-flight
    identical specs (single-flight) and the result cache; the response
    carries the job id (the spec's content-hash fingerprint), the
    terminal-or-current status, and where the answer came from
    (``source``: executed / cache-disk).
``/status/<job_id>``
    One status snapshot, or -- with ``"follow": true`` -- a stream of
    NDJSON events (status transitions and per-phase progress) ending in
    a ``"final": true`` line when the job reaches a terminal state.
``/healthz``
    Liveness: ``{"ok": true, "status": "ok", ...}``.
``/metrics``
    Queue depth, in-flight count, cache hit counters and hit rate,
    phase-replay counters (phases replayed from the trace store vs
    simulated live and recorded), hit-path latency percentiles, and
    worker telemetry aggregated from run manifests (timeouts / retries
    / peak RSS).  The path form ``/metrics/prometheus`` (or
    ``"format": "prometheus"``) returns the same registry as Prometheus
    text exposition in the reply's ``"exposition"`` field.
``/shutdown``
    Ask the server to stop accepting work and exit (local dev/CI
    convenience).

Every response object has ``"ok"`` (bool); failures carry ``"error"``
(message string).  The protocol is versioned via
:data:`PROTOCOL_VERSION`, echoed by ``/healthz``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Bumped when request/response shapes change incompatibly.
PROTOCOL_VERSION = 1

#: StreamReader line limit -- full RunResult payloads (feature-matrix
#: outputs included) ride on one line.
MAX_LINE_BYTES = 32 * 1024 * 1024

# Endpoint names (the ``op`` field, or ``/op`` in path form).
OP_SUBMIT = "submit"
OP_STATUS = "status"
OP_HEALTHZ = "healthz"
OP_METRICS = "metrics"
OP_SHUTDOWN = "shutdown"
OPS = (OP_SUBMIT, OP_STATUS, OP_HEALTHZ, OP_METRICS, OP_SHUTDOWN)

# Job lifecycle states surfaced by /submit and /status.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
TERMINAL_STATES = (JOB_DONE, JOB_FAILED)

# Where a terminal answer came from.
SOURCE_EXECUTED = "executed"
SOURCE_CACHE_DISK = "cache-disk"


class ProtocolError(ValueError):
    """A request line the server cannot parse or route."""


@dataclass(frozen=True)
class Request:
    """One parsed request line."""

    op: str
    spec: Optional[Dict[str, Any]] = None
    job_id: Optional[str] = None
    wait: bool = True
    include_result: bool = False
    follow: bool = False
    #: Response format selector; only ``/metrics`` honours it
    #: (``"prometheus"`` -> text exposition wrapped in the JSON reply,
    #: also reachable as the path form ``/metrics/prometheus``).
    format: Optional[str] = None


def encode(payload: Dict[str, Any]) -> bytes:
    """One wire line: compact, key-sorted JSON plus the newline.

    Sorted keys make responses byte-deterministic for a given payload
    -- the property the warm-vs-cold byte-identity test leans on.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into an object; raises ProtocolError."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad request line: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")
    return doc


def _op_from_path(path: str) -> Dict[str, Any]:
    """``/status/<job_id>`` style path -> op fields."""
    parts = [p for p in path.split("/") if p]
    if not parts:
        raise ProtocolError(f"empty path {path!r}")
    fields: Dict[str, Any] = {"op": parts[0]}
    if parts[0] == OP_STATUS and len(parts) == 2:
        fields["job_id"] = parts[1]
    elif parts[0] == OP_METRICS and len(parts) == 2 and parts[1] == "prometheus":
        fields["format"] = "prometheus"
    elif len(parts) > 1:
        raise ProtocolError(f"unroutable path {path!r}")
    return fields


def parse_request(doc: Dict[str, Any]) -> Request:
    """Validate and normalise one decoded request object."""
    merged = dict(doc)
    path = merged.pop("path", None)
    if path is not None:
        if not isinstance(path, str):
            raise ProtocolError("path must be a string")
        merged.update(_op_from_path(path))
    op = merged.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs an 'op' (or 'path') field")
    op = op.lstrip("/")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {', '.join(OPS)})")
    spec = merged.get("spec")
    if op == OP_SUBMIT and not isinstance(spec, dict):
        raise ProtocolError("submit needs a 'spec' object")
    job_id = merged.get("job_id")
    if op == OP_STATUS and not isinstance(job_id, str):
        raise ProtocolError("status needs a 'job_id'")
    fmt = merged.get("format")
    return Request(
        op=op,
        spec=spec if isinstance(spec, dict) else None,
        job_id=job_id if isinstance(job_id, str) else None,
        wait=bool(merged.get("wait", True)),
        include_result=bool(merged.get("include_result", False)),
        follow=bool(merged.get("follow", False)),
        format=fmt if isinstance(fmt, str) else None,
    )


def error_payload(message: str, **extra: Any) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"ok": False, "error": message}
    payload.update(extra)
    return payload
