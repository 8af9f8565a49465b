"""The ``serve_mixed`` workload: ``repro serve`` under a closed-loop load.

The server runs in its own process, launched exactly as a user would
(``python -m repro serve``), or through ``serve_host.py`` for the traced
half.  The load comes from this process: :data:`CLIENTS` keep-alive HTTP
connections, each sending its next request only after the previous reply
arrived (a closed loop).  Requests are taken in order from the seeded
stream of ``workloads.serve_mixed``.
"""

from __future__ import annotations

import http.client
import json
import selectors
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import common
import workloads

#: Concurrent keep-alive clients of the closed loop (one per core of the
#: 2-vCPU machine the benchmark was tuned on).
CLIENTS = 2
#: Requests sent before timing starts (fills the engine and result caches
#: with the shared floorplans, as a long-running server has them).
WARMUP_REQUESTS = 40
#: Seconds a single request, a server start or a shutdown may take.
REQUEST_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """The server process failed to start, answer or stop."""


class Server:
    """One ``repro serve`` process on an ephemeral localhost port.

    ``setup_s`` is the time from launch until ``/healthz`` first answers.
    """

    def __init__(self, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(common.ROOT / "perfbench" / "serve_host.py"),
                       "--spans", spans_path, "--"]
        command += ["serve", "--host", "127.0.0.1", "--port", "0"]
        launched = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=str(common.ROOT),
            env=common.child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            common.pin(self.process.pid)
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - launched
        # Drain the remaining diagnostics so the server never blocks on a
        # full pipe; the thread ends when the process closes stderr.
        self._stderr: List[str] = []
        self._drain = threading.Thread(
            target=lambda: self._stderr.extend(self.process.stderr), daemon=True
        )
        self._drain.start()

    def _read_port(self) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.process.stderr, selectors.EVENT_READ)
        try:
            if not selector.select(timeout=REQUEST_TIMEOUT):
                raise ServerError("repro serve did not report its address")
        finally:
            selector.close()
        line = self.process.stderr.readline()
        if "listening on http://" not in line:
            raise ServerError(f"repro serve failed to start: {line.strip()!r}")
        return int(line.rsplit(":", 1)[1])

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + REQUEST_TIMEOUT
        while True:
            try:
                if self.get("/healthz").get("status") == "ok":
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise ServerError("repro serve never answered /healthz")
            time.sleep(0.002)

    def _request(self, method: str, path: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        try:
            connection.request(method, path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        return json.loads(body)

    def get(self, path: str) -> Dict[str, Any]:
        """``GET path`` on a fresh connection, decoded."""
        return self._request("GET", path)

    def stats(self) -> Dict[str, Any]:
        """The server's ``/stats`` counters."""
        return self.get("/stats")["stats"]

    def shutdown(self) -> None:
        """Graceful ``POST /shutdown``; waits for the process to exit."""
        try:
            self._request("POST", "/shutdown")
            self.process.wait(timeout=REQUEST_TIMEOUT)
        finally:
            self.kill()
            self._drain.join(timeout=REQUEST_TIMEOUT)
        if self.process.returncode != 0:
            raise ServerError(
                f"repro serve exited with {self.process.returncode}: "
                + "".join(self._stderr[-5:])
            )

    def kill(self) -> None:
        """Stop the process if it is still running, and reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


@dataclass
class Reply:
    """One request as the client saw it."""

    index: int
    started_ns: int
    ended_ns: int
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.ended_ns - self.started_ns) * 1e-6


@dataclass
class Phase:
    """The replies of one closed-loop phase and its wall-clock span."""

    replies: List[Reply] = field(default_factory=list)
    started_ns: int = 0
    ended_ns: int = 0

    @property
    def wall_s(self) -> float:
        return (self.ended_ns - self.started_ns) * 1e-9


class RequestStream:
    """The seeded request stream, remembered as it is drawn.

    :meth:`take` hands out stream positions in order; after
    :meth:`rewind` the same requests are handed out again, in the same
    order, before new ones are drawn.
    """

    def __init__(self, seed: int) -> None:
        self._source = workloads.serve_mixed(seed)
        self.kinds: List[str] = []
        self.requests: List[Dict[str, Any]] = []
        self.bodies: List[bytes] = []
        self._cursor = 0

    def take(self) -> int:
        """The next stream position (drawing a new request if needed)."""
        if self._cursor == len(self.bodies):
            kind, request = next(self._source)
            self.kinds.append(kind)
            self.requests.append(request)
            self.bodies.append(json.dumps(request).encode("utf-8"))
        self._cursor += 1
        return self._cursor - 1

    def rewind(self) -> None:
        """Hand out the stream again from its first request."""
        self._cursor = 0


def closed_loop(
    port: int,
    stream: RequestStream,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> Phase:
    """Send requests from ``stream`` over :data:`CLIENTS` keep-alive clients.

    Stops issuing requests after ``seconds`` (or ``count`` requests);
    requests already sent complete.  A request that raises (connection
    reset, timeout) is recorded with status 0.
    """
    phase = Phase()
    lock = threading.Lock()
    issued = [0]
    phase.started_ns = time.perf_counter_ns()
    deadline = None if seconds is None else phase.started_ns + int(seconds * 1e9)

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        headers = {"Content-Type": "application/json"}
        try:
            while True:
                with lock:
                    if (count is not None and issued[0] >= count) or (
                        deadline is not None and time.perf_counter_ns() >= deadline
                    ):
                        return
                    issued[0] += 1
                    index = stream.take()
                begin = time.perf_counter_ns()
                try:
                    connection.request("POST", "/run", body=stream.bodies[index], headers=headers)
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                    connection.close()
                reply = Reply(index, begin, time.perf_counter_ns(), status, body)
                with lock:
                    phase.replies.append(reply)
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.ended_ns = max((reply.ended_ns for reply in phase.replies), default=time.perf_counter_ns())
    phase.replies.sort(key=lambda reply: reply.index)
    return phase


def canonical(payload: Any) -> str:
    """Order-independent JSON text of a result payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_replies(
    requests: Sequence[Dict[str, Any]], replies: Sequence[Reply]
) -> Dict[str, Any]:
    """Compare every distinct successful reply with a direct ``run_study``.

    Returns the number of distinct specs checked and the request indices
    whose reply differs from the direct result bit for bit.  Replies of
    the traced and untraced phases are checked together, so both must
    equal the same direct result.
    """
    from repro.api import StudySpec, run_study
    from repro.api.study import build_engine

    expected: Dict[str, str] = {}
    engines: Dict[str, Any] = {}
    mismatched: List[int] = []
    for reply in replies:
        if reply.status != 200:
            continue
        key = canonical(requests[reply.index])
        got = canonical(json.loads(reply.body)["result"])
        if key not in expected:
            spec = StudySpec.from_dict(requests[reply.index])
            engine = None
            if spec.kind in ("steady", "transient"):
                engine = engines.get(spec.engine_hash())
                if engine is None:
                    engine = engines[spec.engine_hash()] = build_engine(spec)
            direct = run_study(spec, engine=engine)
            expected[key] = canonical(json.loads(json.dumps(direct.to_dict())))
        if got != expected[key]:
            mismatched.append(reply.index)
    return {"distinct": len(expected), "mismatched": mismatched}


def served_fields(reply: Reply) -> Dict[str, Any]:
    """The envelope's ``served`` block (delivery metadata) of a reply."""
    return json.loads(reply.body).get("served", {})
