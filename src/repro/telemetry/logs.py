"""Structured NDJSON logging with contextvars correlation IDs.

One correlation ID is minted when a request enters the system (the
serve ``/submit`` handler) and rides everywhere that request's work
goes: a :mod:`contextvars` variable carries it across ``await`` points
and into ``asyncio.to_thread`` workers (both copy the context), and a
``corr_id`` field on :class:`repro.runtime.job.JobSpec` carries it
across the process boundary into pool workers, where
:func:`bind_correlation` re-establishes the context.  Every record the
:class:`NDJSONFormatter` emits is one JSON object per line with the
correlation ID stamped on it, so ``grep <id> log`` reconstructs a
request's whole life -- submit, cache probe, batch, phase replay,
span close.

Everything here is plain stdlib ``logging``: handlers attach only when
:func:`configure_logging` is called (or ``REPRO_TELEMETRY_LOG`` is set
at first use), and a ``NullHandler`` on the ``repro`` root keeps the
unconfigured path silent -- no lastResort stderr spray, no measurable
cost beyond an isEnabledFor check.
"""

from __future__ import annotations

import contextvars
import io
import json
import logging
import os
import sys
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

#: Environment switch: a path ("-" for stderr) enables NDJSON logging
#: process-wide at first logger use; unset/empty/"off" keeps it silent.
LOG_ENV = "REPRO_TELEMETRY_LOG"

#: Root logger namespace for everything repro emits.
ROOT_LOGGER = "repro"

_correlation: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_correlation_id", default=None
)

#: Standard LogRecord attributes -- anything else passed via ``extra``
#: is treated as a structured context field.
_RESERVED = frozenset(
    vars(
        logging.LogRecord("", 0, "", 0, "", (), None)
    ).keys()
) | {"message", "asctime", "taskName"}


def new_correlation_id() -> str:
    """A fresh 16-hex-char correlation ID (uuid4-derived)."""
    return uuid.uuid4().hex[:16]


def current_correlation_id() -> Optional[str]:
    """The correlation ID bound to the current context, if any."""
    return _correlation.get()


def bind_correlation(corr_id: Optional[str]) -> None:
    """Bind (or clear) the correlation ID for the current context.

    Worker-process entry points call this with ``spec.corr_id`` so
    records emitted inside the pool inherit the submitting request's
    ID.
    """
    _correlation.set(corr_id)


@contextmanager
def correlation_scope(corr_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``corr_id`` for the duration of the block, then restore."""
    token = _correlation.set(corr_id)
    try:
        yield corr_id
    finally:
        _correlation.reset(token)


class NDJSONFormatter(logging.Formatter):
    """One key-sorted JSON object per record.

    Fields: ``ts`` (epoch seconds, from the record -- handlers stamp
    time, call sites never read the wall clock), ``level``, ``logger``,
    ``event`` (the message), ``corr_id`` when bound, plus any
    non-reserved ``extra`` fields, JSON-coerced via ``repr`` fallback.
    """

    def format(self, record: logging.LogRecord) -> str:
        doc: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        corr_id = getattr(record, "corr_id", None) or current_correlation_id()
        if corr_id:
            doc["corr_id"] = corr_id
        for key, value in vars(record).items():
            if key in _RESERVED or key == "corr_id" or key.startswith("_"):
                continue
            doc[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc"] = record.exc_info[0].__name__
        try:
            return json.dumps(doc, sort_keys=True, default=repr)
        except (TypeError, ValueError):
            return json.dumps(
                {k: repr(v) for k, v in doc.items()}, sort_keys=True
            )


_configured = False
_env_checked = False


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``repro.<name>``).

    First use lazily honours :data:`LOG_ENV` so CLI entry points need
    no explicit wiring; without it, records stop at a NullHandler.
    """
    global _env_checked
    if not _env_checked:
        _env_checked = True
        target = os.environ.get(LOG_ENV, "").strip()
        if target and target.lower() != "off":
            configure_logging(target)
    full = name if name == ROOT_LOGGER or name.startswith(
        ROOT_LOGGER + "."
    ) else f"{ROOT_LOGGER}.{name}"
    return logging.getLogger(full)


def configure_logging(
    target: str = "-",
    level: int = logging.INFO,
    stream: Optional[io.TextIOBase] = None,
) -> logging.Handler:
    """Attach one NDJSON handler to the ``repro`` root logger.

    ``target`` is a file path, or ``"-"`` for stderr; an explicit
    ``stream`` (tests) wins over both.  Idempotent-ish: calling again
    replaces the previously attached telemetry handler rather than
    stacking duplicates.
    """
    global _configured
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_telemetry", False):
            root.removeHandler(handler)
            handler.close()
    handler: logging.Handler
    if stream is not None:
        handler = logging.StreamHandler(stream)
    elif target == "-":
        handler = logging.StreamHandler(sys.stderr)
    else:
        handler = logging.FileHandler(target, encoding="utf-8")
    handler.setFormatter(NDJSONFormatter())
    handler._repro_telemetry = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level)
    _configured = True
    return handler


def logging_enabled() -> bool:
    return _configured


# Silence is the default: without configuration, records reaching the
# "repro" root must not fall through to logging.lastResort (stderr).
logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())
