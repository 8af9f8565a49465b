"""The HTTP face of the study service (JSON in / JSON out).

A thin transport adapter over :class:`~repro.serve.service.StudyService`:
request bodies are exactly the :meth:`StudySpec.to_dict
<repro.api.specs._Spec.to_dict>` format the CLI reads and
writes, responses are exactly the envelopes
:meth:`~repro.api.results.StudyResult.envelope` produces, written compact
by :func:`~repro.api.results.encode_payload` — a file that round-trips
through ``repro run`` round-trips through ``POST /run`` to the same
values.  Request bodies are decoded by the stdlib :mod:`json`, which
reports ``NaN``/``Infinity`` tokens by field.

Routes
------
``POST /run``
    Body: one serialized :class:`~repro.api.specs.StudySpec`.  Replies
    200 with a result envelope; 400 with a structured error naming the
    offending spec field where one can be identified; 408 (and a closed
    connection) when the body stalls for :data:`READ_TIMEOUT` seconds; 504
    on a per-request timeout; 503 once shutdown has begun.
``GET /stats``
    Cache, batching and execution counters
    (:meth:`~repro.serve.service.StudyService.stats`).
``GET /healthz``
    Liveness: ``{"status": "ok"}``.
``POST /shutdown``
    Begins graceful shutdown and replies before the server exits:
    the listener stops accepting, in-flight handler threads are joined
    (``block_on_close``), then the service drains and closes.

Served over :class:`http.server.ThreadingHTTPServer` with
*non-daemonic* handler threads, which is what makes the drain real:
``server_close()`` blocks until every in-flight request has finished.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..api import specs as _specs
from ..api.results import encode_payload
from .service import ServeTimeoutError, ServiceClosedError, StudyService

#: Spec field names recognized when turning a validation message into a
#: structured 400 (every dataclass field across the spec vocabulary).
_SPEC_FIELD_NAMES = frozenset(
    field.name for cls in _specs.SPEC_CLASSES for field in dataclasses.fields(cls)
)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: "no field(s) 'max_iterations'" / "option(s) 'foo'" — the quoted token
#: names the client's own input key, even when it is not a spec field.
_NAMED_KEY = re.compile(r"(?:field|option|key)\(?s?\)?\s+'([A-Za-z_][A-Za-z0-9_]*)'")

#: A valid ``Content-Length`` header value: a plain decimal byte count.
_BYTE_COUNT = re.compile(r"[0-9]+")
#: Bodies are read in pieces of this many bytes, so memory follows the
#: bytes that arrive rather than the length a header claims.
_READ_PIECE = 1 << 20
#: Seconds a connection may stall on a read before the handler drops
#: it: between requests on a keep-alive connection, or inside a request
#: whose body falls short of its ``Content-Length``.  Far above any
#: client's idle gap (closed-loop load generators re-send at once), yet it
#: frees the handler thread a silent client would otherwise hold forever.
READ_TIMEOUT = 300.0
#: Deepest container nesting a request body may have.  A study spec
#: nests five levels at most; the bound keeps every recursive walk of the
#: parsed body (validation, hashing, encoding) far from the stack limit.
_MAX_DEPTH = 64


class _NonFinite:
    """What ``json.loads`` leaves where a ``NaN``/``Infinity`` token stood."""

    def __init__(self, token: str) -> None:
        self.token = token


def _non_finite_path(value: Any, path: Tuple = ()) -> Optional[Tuple[Tuple, str]]:
    """Key path to, and token of, the first :class:`_NonFinite` in ``value``."""
    if isinstance(value, _NonFinite):
        return path, value.token
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, list):
        entries = enumerate(value)
    else:
        return None
    for key, entry in entries:
        found = _non_finite_path(entry, path + (key,))
        if found is not None:
            return found
    return None


def _reject_non_finite(data: Any) -> None:
    """Raise a ValueError naming the field of a ``NaN``/``Infinity`` token.

    Those tokens are not JSON, and a non-finite number must never reach a
    solve (or the result cache) under a valid content hash.  The error
    names the innermost key holding the token, the client's own input key
    (``tolerance`` for ``solver.tolerance``), and spells out its path.
    """
    path, token = _non_finite_path(data)
    name = next((key for key in reversed(path) if isinstance(key, str)), "body")
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    raise ValueError(
        f"request body is not valid JSON: field '{name}' ({where.lstrip('.') or name}) "
        f"holds the non-finite number {token}"
    )


def _nesting_depth(value: Any) -> int:
    """How many containers deep parsed JSON nests, measured level by level
    (no recursion, so measuring cannot overflow the stack itself)."""
    depth, level = 0, [value]
    while level := [entry for entry in level if isinstance(entry, (dict, list))]:
        depth += 1
        level = [
            child
            for entry in level
            for child in (entry.values() if isinstance(entry, dict) else entry)
        ]
    return depth


def error_body(message: str) -> Dict[str, Any]:
    """A structured error payload, naming the offending field if found.

    Spec validation messages name what they reject either explicitly
    ("has no field(s) ``'max_iterations'``") or as the clause subject
    ("``ambient_temperature`` must be positive").  The explicit form
    wins; otherwise the first word of the message's first clause that
    matches a known spec field becomes the machine-readable ``field``
    entry (only the first clause — later clauses enumerate *valid*
    names, which must not be mistaken for the offender).
    """
    body: Dict[str, Any] = {"status": "error", "error": {"message": message}}
    named = _NAMED_KEY.search(message)
    if named:
        body["error"]["field"] = named.group(1)
        return body
    first_clause = message.split(";", 1)[0]
    for word in _WORD.findall(first_clause):
        if word in _SPEC_FIELD_NAMES:
            body["error"]["field"] = word
            break
    return body


class StudyRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request against the shared :class:`StudyService`."""

    #: Advertised in the ``Server`` response header.
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body flush as separate writes; without TCP_NODELAY the
    # second write waits out the peer's delayed ACK (~40ms per request).
    disable_nagle_algorithm = True
    #: Socket timeout of every read and write on the connection.
    timeout = READ_TIMEOUT

    def log_message(self, format: str, *args: Any) -> None:
        """Route stdlib request logging through the server's quiet flag."""
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _reply(self, status: int, body: Dict[str, Any]) -> None:
        payload = encode_payload(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> bytes:
        """The ``Content-Length`` bytes of the request body, or a ValueError.

        A header that is not a byte count, or a body that ends early,
        leaves no way to find where the next request starts, so either
        one also closes the connection after the reply.
        """
        header = self.headers.get("Content-Length", "0").strip()
        if not _BYTE_COUNT.fullmatch(header):
            self.close_connection = True
            raise ValueError(
                f"Content-Length header must be a byte count, got {header!r}"
            )
        length = int(header)
        pieces = []
        while length:
            piece = self.rfile.read(min(length, _READ_PIECE))
            if not piece:
                self.close_connection = True
                raise ValueError(
                    f"request body ended {length} bytes short of its "
                    "Content-Length header"
                )
            pieces.append(piece)
            length -= len(piece)
        return b"".join(pieces)

    def _read_json(self) -> Dict[str, Any]:
        raw = self._read_body()
        if not raw:
            raise ValueError("request body is empty; expected a JSON StudySpec")
        tokens: list = []

        def non_finite(token: str) -> _NonFinite:
            tokens.append(token)
            return _NonFinite(token)

        too_deep = f"request body nests deeper than {_MAX_DEPTH} levels"
        try:
            data = json.loads(raw.decode("utf-8"), parse_constant=non_finite)
        except UnicodeDecodeError as error:
            raise ValueError(f"request body is not UTF-8 text: {error}") from None
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None
        except RecursionError:
            raise ValueError(too_deep) from None
        if _nesting_depth(data) > _MAX_DEPTH:
            raise ValueError(too_deep)
        if tokens:
            _reject_non_finite(data)
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object (a StudySpec)")
        return data

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Serve the read-only routes: ``/stats`` and ``/healthz``."""
        service: StudyService = self.server.service  # type: ignore[attr-defined]
        if self.path == "/stats":
            self._reply(200, {"status": "ok", "stats": service.stats()})
        elif self.path == "/healthz":
            self._reply(200, {"status": "ok"})
        else:
            self._reply(404, error_body(f"no such route: GET {self.path}"))

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Serve the mutating routes: ``/run`` and ``/shutdown``."""
        service: StudyService = self.server.service  # type: ignore[attr-defined]
        if self.path == "/run":
            try:
                data = self._read_json()
                envelope = service.submit(data)
            except TimeoutError:
                # The body stalled past READ_TIMEOUT: where the next
                # request would start is unknown, so the connection ends.
                self.close_connection = True
                self._reply(408, error_body("request body read timed out"))
            except ValueError as error:
                self._reply(400, error_body(str(error)))
            except ServeTimeoutError as error:
                self._reply(504, error_body(str(error)))
            except ServiceClosedError as error:
                self._reply(503, error_body(str(error)))
            except Exception as error:  # pragma: no cover - defensive
                self._reply(500, error_body(f"internal error: {error}"))
            else:
                self._reply(200, envelope)
        elif self.path == "/shutdown":
            self._reply(200, {"status": "ok", "message": "shutting down"})
            # shutdown() must come from another thread: it blocks until
            # serve_forever() exits, and serve_forever() cannot exit while
            # this handler (one of its workers) is still inside it.
            threading.Thread(
                target=self.server.shutdown, name="repro-serve-shutdown"
            ).start()
        else:
            self._reply(404, error_body(f"no such route: POST {self.path}"))


class StudyServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`StudyService`.

    Handler threads are **non-daemonic** and ``server_close()`` blocks on
    them (``block_on_close``), so the shutdown sequence in :meth:`run` is
    a true drain: stop accepting, finish every in-flight request, then
    close the service (flushing admission groups and joining worker
    pools).
    """

    daemon_threads = False
    block_on_close = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: StudyService,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, StudyRequestHandler)
        self.service = service
        self.quiet = quiet

    def handle_error(self, request: Any, client_address: Any) -> None:
        """Report a handler's unexpected exception on stderr.

        A client that closed or reset its connection (a
        :class:`ConnectionError` such as :class:`BrokenPipeError` or
        :class:`ConnectionResetError`, raised by a read or by the reply
        write) is simply gone: its connection closes without a traceback.
        """
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def run(self) -> None:
        """Serve until :meth:`shutdown`, then drain and close the service."""
        try:
            self.serve_forever()
        finally:
            self.server_close()  # joins in-flight handler threads
            self.service.close()


def make_server(
    host: str,
    port: int,
    service: Optional[StudyService] = None,
    quiet: bool = True,
    **service_options: Any,
) -> StudyServer:
    """Build a ready-to-run server (own service unless one is passed).

    ``service_options`` forward to :class:`~repro.serve.service.StudyService`
    when no ``service`` is given.  Bind to port ``0`` for an ephemeral
    port (tests); the bound address is ``server.server_address``.
    """
    if service is None:
        service = StudyService(**service_options)
    return StudyServer((host, port), service, quiet=quiet)
