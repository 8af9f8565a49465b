"""A minimal stdlib client for the study service.

Used by the replay benchmark (``benchmarks/serve_replay.py``), the test
suite and the CI smoke job; applications are equally welcome to speak the
plain JSON protocol with any HTTP library (see ``docs/serving.md`` for
``curl`` examples).
"""

from __future__ import annotations

import json
import socket
from http.client import HTTPConnection
from typing import Any, Dict, Mapping, Optional, Tuple


class ServeError(RuntimeError):
    """A non-200 reply from the service, carrying the decoded body."""

    def __init__(self, status: int, body: Mapping[str, Any]) -> None:
        message = body.get("error", {}).get("message", "unknown error")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = dict(body)


def _refuse_non_finite(token: str) -> None:
    """``parse_constant`` hook: ``NaN``/``Infinity`` are not JSON, and the
    service promises strict replies."""
    raise ValueError(f"reply is not strict JSON: it holds the token {token}")


class StudyClient:
    """A persistent connection to one ``repro serve`` endpoint.

    Not thread-safe (one :class:`http.client.HTTPConnection` underneath);
    concurrent callers should hold one client each.  Usable as a context
    manager.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self._conn = HTTPConnection(host, port, timeout=timeout)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self._conn.sock is None:
            self._conn.connect()
            # Small request/response pairs stall ~40ms per round trip on
            # Nagle + delayed ACK; latency matters more than segment count.
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = json.loads(
            response.read().decode("utf-8"), parse_constant=_refuse_non_finite
        )
        return response.status, data

    def run(self, spec: Any) -> Dict[str, Any]:
        """POST one study spec; returns the result envelope.

        Accepts a :class:`~repro.api.specs.StudySpec` (anything with a
        ``to_dict()``) or its already-serialized mapping form.  Raises
        :class:`ServeError` on any non-200 reply (status and structured
        body preserved on the exception).
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else spec
        status, data = self._request("POST", "/run", payload)
        if status != 200:
            raise ServeError(status, data)
        return data

    def stats(self) -> Dict[str, Any]:
        """GET ``/stats``; returns the service's counter tree."""
        status, data = self._request("GET", "/stats")
        if status != 200:
            raise ServeError(status, data)
        return data["stats"]

    def healthz(self) -> bool:
        """GET ``/healthz``; True when the service answers ok."""
        status, data = self._request("GET", "/healthz")
        return status == 200 and data.get("status") == "ok"

    def shutdown(self) -> None:
        """POST ``/shutdown``: ask the server to drain and exit."""
        status, data = self._request("POST", "/shutdown")
        if status != 200:
            raise ServeError(status, data)

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "StudyClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
