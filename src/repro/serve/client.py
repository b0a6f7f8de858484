"""Blocking client for the sweep service's NDJSON protocol.

Used by the ``python -m repro.serve`` CLI subcommands, the hit-path
benchmark, and the test suite.  One :class:`ServeClient` wraps one TCP
connection; requests are plain dicts (see :mod:`repro.serve.protocol`),
responses come back as decoded dicts.  The client is synchronous on
purpose -- callers are short-lived command-line tools and worker
threads, not the server's event loop.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterator, Optional

from repro.serve.protocol import MAX_LINE_BYTES, decode, encode


class ServeError(RuntimeError):
    """The server answered ``ok: false`` (carries the error payload)."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        super().__init__(str(payload.get("error", "server error")))
        self.payload = payload


class ServeClient:
    """One connection to a running sweep server."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7341,
        timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _read_response(self) -> Dict[str, Any]:
        line = self._rfile.readline(MAX_LINE_BYTES)
        if not line:
            raise ConnectionError("server closed the connection")
        return decode(line)

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request line, read one response line.

        Raises :class:`ServeError` on ``ok: false`` responses so CLI
        and test callers never have to remember the check.
        """
        self._sock.sendall(encode(payload))
        response = self._read_response()
        if not response.get("ok", False):
            raise ServeError(response)
        return response

    # ------------------------------------------------------------------
    # Endpoint helpers
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: Dict[str, Any],
        wait: bool = True,
        include_result: bool = False,
    ) -> Dict[str, Any]:
        return self.request(
            {
                "op": "submit",
                "spec": spec,
                "wait": wait,
                "include_result": include_result,
            }
        )

    def status(
        self, job_id: str, include_result: bool = False
    ) -> Dict[str, Any]:
        return self.request(
            {
                "op": "status",
                "job_id": job_id,
                "include_result": include_result,
            }
        )

    def follow(
        self, job_id: str, include_result: bool = False
    ) -> Iterator[Dict[str, Any]]:
        """Yield status/phase events until the terminal ``final`` line
        (which is yielded too, then the iterator ends)."""
        self._sock.sendall(
            encode(
                {
                    "op": "status",
                    "job_id": job_id,
                    "follow": True,
                    "include_result": include_result,
                }
            )
        )
        while True:
            event = self._read_response()
            if not event.get("ok", False):
                raise ServeError(event)
            yield event
            if event.get("final"):
                return

    def healthz(self) -> Dict[str, Any]:
        return self.request({"op": "healthz"})

    def metrics(self) -> Dict[str, Any]:
        return self.request({"op": "metrics"})

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition (server + process registries)."""
        response = self.request({"op": "metrics", "format": "prometheus"})
        return str(response.get("exposition", ""))

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})
