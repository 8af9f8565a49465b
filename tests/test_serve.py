"""The study service: caching, batching, HTTP transport, graceful drain.

Serving is only correct if it is *invisible* in the results: every test
that touches execution asserts bit-identity (``StudyResult.equals``)
against a direct :func:`~repro.api.study.run_study` of the same spec —
warm-cache replays, coalesced solves and process-pool execution all must
reproduce the solo arrays exactly.  The service's observables (the
``/stats`` counter tree) are what let the interesting properties be
asserted from outside: a second identical request is a result-cache hit
that runs no solve, two concurrent compatible requests share one engine
solve, a drained shutdown completes in-flight work.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPResponse
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StudyResult, StudySpec, run_study
from repro.api.cli import main as cli_main
from repro.api.specs import ENGINE_FIELDS, ScenarioSpec, TechnologySpec
from repro.core.cosim import Scenario
from repro.serve import (
    AdmissionBatcher,
    LRUCache,
    ServeError,
    ServiceClosedError,
    StudyClient,
    StudyService,
    make_server,
    solve_key,
)
from repro.serve.server import _MAX_DEPTH, StudyRequestHandler, error_body

# --------------------------------------------------------------------- #
# Fixtures: small steady specs sharing one engine configuration
# --------------------------------------------------------------------- #


def steady_spec(ambient: float = 300.0, **overrides) -> StudySpec:
    """A minimal steady study; same engine fields across ambients."""
    options = dict(
        kind="steady",
        dynamic_powers={"chip": 0.25},
        static_powers={"chip": 0.05},
        scenarios=(
            ScenarioSpec(
                technology=TechnologySpec("0.12um"),
                ambient_temperature=ambient,
            ),
        ),
    )
    options.update(overrides)
    return StudySpec(**options)


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture
def http_service():
    """A running server on an ephemeral port, torn down after the test."""
    server = make_server("127.0.0.1", 0, window=0.0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        yield host, port, server
    finally:
        if thread.is_alive():
            server.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()


# --------------------------------------------------------------------- #
# Spec hashing (the cache keys)
# --------------------------------------------------------------------- #
class TestSpecHashing:
    def test_content_hash_is_deterministic_across_round_trips(self):
        spec = steady_spec()
        rebuilt = StudySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.content_hash() == spec.content_hash()
        assert rebuilt.canonical_json() == spec.canonical_json()

    def test_content_hash_distinguishes_different_specs(self):
        assert steady_spec(300.0).content_hash() != steady_spec(301.0).content_hash()

    def test_engine_hash_ignores_scenario_and_solver_changes(self):
        base = steady_spec(300.0)
        assert base.engine_hash() == steady_spec(330.0).engine_hash()
        assert (
            base.engine_hash()
            == steady_spec(300.0, solver={"max_iterations": 7}).engine_hash()
        )

    def test_engine_hash_tracks_engine_fields(self):
        base = steady_spec()
        changed = steady_spec(thermal_backend="fdm")
        assert base.engine_hash() != changed.engine_hash()
        assert "thermal_backend" in ENGINE_FIELDS

    def test_solve_key_separates_solver_options(self):
        assert solve_key(steady_spec(300.0)) == solve_key(steady_spec(310.0))
        assert solve_key(steady_spec()) != solve_key(
            steady_spec(solver={"max_iterations": 9})
        )


# --------------------------------------------------------------------- #
# Result envelopes
# --------------------------------------------------------------------- #
class TestEnvelope:
    def test_envelope_round_trips_bit_identically(self):
        result = run_study(steady_spec())
        envelope = result.envelope(served={"result_cache": "miss"})
        assert envelope["status"] == "ok"
        assert envelope["spec_hash"] == result.spec.content_hash()
        assert envelope["served"] == {"result_cache": "miss"}
        assert StudyResult.from_envelope(envelope).equals(result)

    def test_from_envelope_rejects_error_payloads(self):
        with pytest.raises(ValueError, match="boom"):
            StudyResult.from_envelope(
                {"status": "error", "error": {"message": "boom"}}
            )
        with pytest.raises(ValueError, match="no 'result'"):
            StudyResult.from_envelope({"status": "ok"})


# --------------------------------------------------------------------- #
# LRU cache
# --------------------------------------------------------------------- #
class TestLRUCache:
    def test_get_or_build_hits_and_builds_once(self):
        cache = LRUCache(4)
        calls = []
        value, hit = cache.get_or_build("k", lambda: calls.append(1) or 42)
        assert (value, hit) == (42, False)
        value, hit = cache.get_or_build("k", lambda: calls.append(1) or 43)
        assert (value, hit) == (42, True)
        assert len(calls) == 1
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "size": 1,
            "limit": 4,
        }

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (1, True)  # refresh a: b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") == (None, False)
        assert cache.get("a") == (1, True)
        assert cache.stats()["evictions"] == 1

    def test_failed_build_stores_nothing(self):
        cache = LRUCache(2)

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", boom)
        assert len(cache) == 0
        value, hit = cache.get_or_build("k", lambda: 7)
        assert (value, hit) == (7, False)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="limit"):
            LRUCache(0)


# --------------------------------------------------------------------- #
# Admission batching
# --------------------------------------------------------------------- #
class TestAdmissionBatcher:
    def test_zero_window_executes_each_request_alone(self):
        groups = []
        batcher = AdmissionBatcher(
            0.0, lambda items: groups.append(list(items)) or items
        )
        assert batcher.submit("k", 1).result(timeout=5) == 1
        assert batcher.submit("k", 2).result(timeout=5) == 2
        assert groups == [[1], [2]]

    def test_concurrent_submissions_coalesce_into_one_group(self):
        groups = []
        batcher = AdmissionBatcher(
            0.3, lambda items: groups.append(list(items)) or [i * 10 for i in items]
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = list(
                pool.map(lambda i: batcher.submit("k", i).result(timeout=10), range(4))
            )
        assert sorted(futures) == [0, 10, 20, 30]
        assert len(groups) == 1 and sorted(groups[0]) == [0, 1, 2, 3]
        stats = batcher.stats()
        assert stats["groups"] == 1
        assert stats["coalesced_requests"] == 4
        assert stats["largest_group"] == 4

    def test_group_failure_falls_back_to_per_member_execution(self):
        def execute(items):
            if len(items) > 1:
                raise RuntimeError("batch-global validation tripped")
            if items[0] == "bad":
                raise ValueError("bad member")
            return [f"solo:{items[0]}"]

        batcher = AdmissionBatcher(0.3, execute)
        with ThreadPoolExecutor(max_workers=2) as pool:
            good = pool.submit(lambda: batcher.submit("k", "good").result(timeout=10))
            time.sleep(0.05)  # join the open window, don't lead a new group
            bad = pool.submit(lambda: batcher.submit("k", "bad").result(timeout=10))
            assert good.result(timeout=10) == "solo:good"
            with pytest.raises(ValueError, match="bad member"):
                bad.result(timeout=10)
        assert batcher.stats()["fallbacks"] == 1

    def test_drain_releases_waiting_leaders_immediately(self):
        batcher = AdmissionBatcher(30.0, lambda items: list(items))
        start = time.monotonic()
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(lambda: batcher.submit("k", 1).result(timeout=10))
            time.sleep(0.05)
            batcher.drain()
            assert future.result(timeout=10) == 1
        assert time.monotonic() - start < 10.0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            AdmissionBatcher(-0.1, lambda items: items)


# --------------------------------------------------------------------- #
# StudyService: caching and coalescing correctness
# --------------------------------------------------------------------- #
class TestStudyService:
    def test_warm_cache_replay_is_bit_identical_and_runs_no_solve(self):
        with StudyService() as service:
            spec = steady_spec()
            cold = service.submit(spec.to_dict())
            warm = service.submit(spec.to_dict())
            assert cold["served"]["result_cache"] == "miss"
            assert warm["served"]["result_cache"] == "hit"
            direct = run_study(spec)
            assert StudyResult.from_envelope(cold).equals(direct)
            assert StudyResult.from_envelope(warm).equals(direct)
            stats = service.stats()
            assert stats["execution"]["solves"] == 1
            assert stats["result_cache"]["hits"] == 1

    def test_engine_cache_shared_across_different_requests(self):
        with StudyService() as service:
            service.submit(steady_spec(300.0).to_dict())
            service.submit(steady_spec(320.0).to_dict())
            stats = service.stats()
            assert stats["execution"]["engine_cache"]["misses"] == 1
            assert stats["execution"]["engine_cache"]["hits"] == 1
            assert stats["execution"]["solves"] == 2

    def test_concurrent_compatible_requests_share_one_solve(self):
        specs = [steady_spec(300.0 + i) for i in range(4)]
        with StudyService(window=0.3) as service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                envelopes = list(
                    pool.map(service.submit, [s.to_dict() for s in specs])
                )
            stats = service.stats()
        assert stats["execution"]["solves"] == 1
        assert stats["execution"]["coalesced_solves"] == 1
        assert stats["batching"]["coalesced_requests"] == 4
        for spec, envelope in zip(specs, envelopes):
            assert StudyResult.from_envelope(envelope).equals(run_study(spec))

    def test_coalesced_grid_group_builds_no_scenario(self, monkeypatch):
        # Members' columns are concatenated, solved once and sliced back:
        # no row becomes a Scenario object on the way, labels included.
        specs = [
            steady_spec(
                scenarios=(),
                scenario_grid={
                    "technologies": [{"node": "0.12um"}, {"node": node}],
                    "supply_scales": [0.9, 1.0 + 0.05 * index],
                    "ambient_temperatures": [300.0 + index, 320.0],
                    "activities": [0.5, {"chip": 1.0 + 0.1 * index}],
                },
            )
            for index, node in enumerate(("70nm", "0.18um", "50nm", "0.12um"))
        ]
        built = []
        original = Scenario.__post_init__

        def counting(scenario):
            built.append(scenario)
            original(scenario)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        with StudyService(window=0.3) as service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                envelopes = list(pool.map(service.submit, [s.to_dict() for s in specs]))
            stats = service.stats()
        assert stats["execution"]["coalesced_solves"] == 1
        assert built == []
        for spec, envelope in zip(specs, envelopes):
            reply = StudyResult.from_envelope(envelope)
            assert len(reply.metadata["scenario_labels"]) == 16
            assert reply.equals(run_study(spec))

    def test_process_pool_mode_is_bit_identical(self):
        spec = steady_spec()
        with StudyService(workers=2, timeout=120.0) as service:
            cold = service.submit(spec.to_dict())
            warm = service.submit(spec.to_dict())
            stats = service.stats()
        assert stats["execution"]["mode"] == "process-pool"
        assert warm["served"]["result_cache"] == "hit"
        assert StudyResult.from_envelope(cold).equals(run_study(spec))

    def test_submit_after_close_is_rejected(self):
        service = StudyService()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(steady_spec().to_dict())
        service.close()  # idempotent

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            StudyService(workers=-1)
        with pytest.raises(ValueError, match="timeout"):
            StudyService(timeout=0.0)


# --------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------- #
class TestHTTPServer:
    def test_run_round_trip_and_stats_over_http(self, http_service):
        host, port, _ = http_service
        spec = steady_spec()
        with StudyClient(host, port, timeout=60.0) as client:
            assert client.healthz()
            cold = client.run(spec.to_dict())
            warm = client.run(spec.to_dict())
            stats = client.stats()
        assert cold["served"]["result_cache"] == "miss"
        assert warm["served"]["result_cache"] == "hit"
        assert stats["result_cache"]["hits"] == 1
        assert stats["execution"]["solves"] == 1
        assert StudyResult.from_envelope(warm).equals(run_study(spec))

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("study_*.json")), ids=lambda path: path.stem
    )
    def test_every_example_reply_is_strict_json(self, http_service, path):
        host, port, _ = http_service
        status, body = _reply_to((host, port), _request(path.read_bytes()))
        assert status == 200
        served = StudyResult.from_envelope(_strict_json(body))
        assert served.equals(run_study(StudySpec.from_json(path)))

    def test_malformed_spec_yields_structured_400_naming_the_field(
        self, http_service
    ):
        host, port, _ = http_service
        bad = steady_spec().to_dict()
        bad["kind"] = "nonsense"
        with StudyClient(host, port, timeout=60.0) as client:
            with pytest.raises(ServeError) as excinfo:
                client.run(bad)
        assert excinfo.value.status == 400
        assert excinfo.value.body["error"]["field"] == "kind"
        assert "nonsense" in excinfo.value.body["error"]["message"]

    def test_non_finite_solver_option_yields_400_naming_it(self, http_service):
        host, port, _ = http_service
        bad = steady_spec().to_dict()
        bad["solver"] = {"tolerance": float("nan")}
        with StudyClient(host, port, timeout=60.0) as client:
            with pytest.raises(ServeError) as excinfo:
                client.run(bad)
        assert excinfo.value.status == 400
        assert excinfo.value.body["error"]["field"] == "tolerance"
        assert "finite" in excinfo.value.body["error"]["message"]

    def test_wrong_json_types_yield_400_naming_the_field(self, http_service):
        host, port, _ = http_service
        cases = (
            ("floorplan", 5),
            ("image_rings", [1]),
            ("image_rings", 1.5),
            ("map_samples", ["a", "b"]),
            ("parameter_values", 5),
            ("solver", {"max_iterations": 2.5}),
        )
        with StudyClient(host, port, timeout=60.0) as client:
            for name, value in cases:
                bad = steady_spec().to_dict()
                bad[name] = value
                with pytest.raises(ServeError) as excinfo:
                    client.run(bad)
                assert excinfo.value.status == 400, (name, value)
                expected = "max_iterations" if name == "solver" else name
                assert excinfo.value.body["error"]["field"] == expected

    def test_non_json_body_and_unknown_route_are_4xx(self, http_service):
        host, port, _ = http_service
        from http.client import HTTPConnection

        conn = HTTPConnection(host, port, timeout=30.0)
        conn.request("POST", "/run", body=b"not json {", headers={})
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "JSON" in body["error"]["message"]
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        conn.close()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_tokens_are_400(self, http_service, token):
        host, port, _ = http_service
        from http.client import HTTPConnection

        # Rejected by the JSON parser itself, before any spec parsing.
        text = json.dumps(steady_spec().to_dict())
        text = text.replace('"chip": 0.25', f'"chip": {token}')
        assert token in text
        conn = HTTPConnection(host, port, timeout=30.0)
        conn.request("POST", "/run", body=text.encode(), headers={})
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["error"]["field"] == "chip"
        message = body["error"]["message"]
        assert f"(dynamic_powers.chip) holds the non-finite number {token}" in message

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_client_refuses_a_reply_holding_a_non_finite_token(self, token):
        # A stand-in server whose reply is JSON but for one bare token.
        body = f'{{"status": "ok", "stats": {{"value": {token}}}}}'.encode()

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args) -> None:
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with StudyClient(*server.server_address[:2], timeout=30.0) as client:
                with pytest.raises(ValueError, match=f"not strict JSON.* {token}$"):
                    client.stats()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_shutdown_drains_in_flight_requests(self):
        server = make_server("127.0.0.1", 0, window=0.5)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        spec = steady_spec()
        results = {}

        def slow_request():
            # window=0.5 keeps this request in-flight while /shutdown lands.
            with StudyClient(host, port, timeout=60.0) as client:
                results["envelope"] = client.run(spec.to_dict())

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.1)  # let the request enter its admission window
        with StudyClient(host, port, timeout=60.0) as client:
            client.shutdown()
        worker.join(timeout=30)
        thread.join(timeout=30)
        assert not worker.is_alive() and not thread.is_alive()
        # The in-flight request completed, correctly, during the drain.
        assert StudyResult.from_envelope(results["envelope"]).equals(run_study(spec))


# --------------------------------------------------------------------- #
# Malformed requests over a raw socket
# --------------------------------------------------------------------- #


def _request(body: bytes, length=None) -> bytes:
    """A keep-alive ``POST /run`` carrying ``body`` (``length`` overrides
    the ``Content-Length`` header value)."""
    length = len(body) if length is None else length
    head = f"POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: {length}\r\n"
    return head.encode("ascii") + b"\r\n" + body


def _reply_to(address, request: bytes, half_close: bool = False):
    """Send raw request bytes; the ``(status, body)`` of the first reply.

    The client gives up after 30 s, so a handler that never replies fails
    the test instead of hanging it.  ``half_close`` ends the request
    stream after the bytes, as a client does once it has sent everything.
    """
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        with HTTPResponse(sock) as response:
            response.begin()
            return response.status, response.read()


def _strict_json(text: bytes):
    """``json.loads`` that refuses the ``NaN``/``Infinity`` tokens, which
    are not JSON."""

    def refuse(token: str):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def _nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


class TestMalformedRequests:
    @pytest.mark.parametrize("length", ["-1", "abc", "1_0", "+4"])
    def test_bad_content_length_is_400_naming_the_header(
        self, http_service, length
    ):
        host, port, _ = http_service
        status, body = _reply_to((host, port), _request(b"{}", length))
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]["message"]

    def test_body_shorter_than_content_length_is_400(self, http_service):
        host, port, _ = http_service
        request = _request(b'{"kind": "steady"}', length=64)
        status, body = _reply_to((host, port), request, half_close=True)
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize("depth", [_MAX_DEPTH + 1, 900, 5000])
    def test_deep_nesting_anywhere_is_400(self, http_service, depth):
        host, port, _ = http_service
        inside = json.dumps(steady_spec().to_dict()).encode()
        label = b'{"label": ' + _nested(depth) + b", "
        inside = inside.replace(b"{", label, 1)
        for body in (_nested(depth), inside):
            status, reply = _reply_to((host, port), _request(body))
            assert status == 400, depth
            assert "nests deeper" in json.loads(reply)["error"]["message"]

    def test_non_utf8_body_is_400(self, http_service):
        host, port, _ = http_service
        body = json.dumps(steady_spec().to_dict()).encode()
        body = body.replace(b"chip", b"ch\xffp")
        status, reply = _reply_to((host, port), _request(body))
        assert status == 400
        assert "UTF-8" in json.loads(reply)["error"]["message"]

    def test_stalled_body_is_dropped_while_others_are_served(
        self, http_service, monkeypatch, capfd
    ):
        timeout = 0.5
        monkeypatch.setattr(StudyRequestHandler, "timeout", timeout)
        host, port, _ = http_service
        with socket.create_connection((host, port), timeout=30.0) as stalled:
            stalled.sendall(_request(b'{"kind": "', length=100))
            begin = time.monotonic()
            # The stalled client holds one handler thread, not the server.
            with StudyClient(host, port, timeout=30.0) as client:
                assert client.healthz()
            reply = b""
            while piece := stalled.recv(1 << 16):
                reply += piece
            elapsed = time.monotonic() - begin
        assert elapsed < timeout + 10.0
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert b"timed out" in reply
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "sent",
        [b"", _request(b'{"kind": "', length=100)],
        ids=["before_request", "inside_body"],
    )
    def test_client_reset_leaves_no_traceback(self, http_service, capfd, sent):
        host, port, _ = http_service
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.sendall(sent)
        time.sleep(0.2)  # the handler now waits on the request line or body
        # Close with a reset: the handler's read, and any reply, fail.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        with StudyClient(host, port, timeout=30.0) as client:
            assert client.healthz()
        time.sleep(0.2)  # let the dropped handler finish
        assert capfd.readouterr().err == ""


@pytest.fixture(scope="module")
def fuzz_address():
    """One server for every fuzzed request (hypothesis reruns the test
    body many times, so a per-test server would restart for each)."""
    server = make_server("127.0.0.1", 0, window=0.0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        thread.join(timeout=10)


example_bodies = st.sampled_from(
    [path.read_bytes() for path in sorted(EXAMPLES.glob("study_*.json"))]
)
#: Replacement bytes for a flip: structure, quotes, a space, letters,
#: a control byte and non-UTF-8 bytes, but no digit, sign or point, so a
#: flipped number turns invalid or smaller and never makes a study slower.
flip_bytes = st.sampled_from(b' {}[]:,"\\aZ\x00\x80\xff')


@st.composite
def malformed_requests(draw):
    """``(request bytes, half_close)`` for one malformed ``POST /run``."""
    body = draw(example_bodies)
    form = draw(
        st.sampled_from(
            ("truncated", "flipped", "top_level", "non_utf8", "nested", "length")
        )
    )
    length = None
    if form == "truncated":
        body = body[: draw(st.integers(0, len(body) - 1))]
    elif form == "flipped":
        index = draw(st.integers(0, len(body) - 1))
        body = body[:index] + bytes([draw(flip_bytes)]) + body[index + 1 :]
    elif form == "top_level":
        value = draw(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.text(max_size=8),
                st.lists(st.integers(), max_size=3),
            )
        )
        body = json.dumps(value).encode()
    elif form == "non_utf8":
        index = draw(st.integers(0, len(body)))
        bad = draw(st.sampled_from((b"\xff", b"\xc3(", b"\xed\xa0\x80")))
        body = body[:index] + bad + body[index:]
    elif form == "nested":
        nested = _nested(draw(st.integers(_MAX_DEPTH + 1, 3000)))
        body = nested if draw(st.booleans()) else b'{"kind": ' + nested + b"}"
    else:
        length = len(body) + draw(st.integers(-len(body), 64))
    return _request(body, length), form == "length"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(request=malformed_requests())
def test_malformed_requests_get_a_timely_200_or_4xx(fuzz_address, request):
    """Whatever arrives, a JSON reply arrives: a 200 or a 4xx, never a 500
    and never a handler that does not answer."""
    raw, half_close = request
    status, body = _reply_to(fuzz_address, raw, half_close=half_close)
    assert status == 200 or 400 <= status < 500, (status, body[:200])
    _strict_json(body)


# --------------------------------------------------------------------- #
# Structured error bodies
# --------------------------------------------------------------------- #
class TestErrorBody:
    def test_quoted_identifier_wins(self):
        body = error_body("StudySpec has no field(s) 'max_iterations'")
        assert body["error"]["field"] == "max_iterations"

    def test_known_field_word_is_found(self):
        body = error_body("ambient_temperature must be positive")
        assert body["error"]["field"] == "ambient_temperature"
        # Optimize-block fields belong to the vocabulary too.
        for message, field in (
            (
                "unknown strategy 'anneal'; known strategies: random, grid",
                "strategy",
            ),
            ("budget must be an integer >= 1, got 0", "budget"),
            ("lower must be finite, got nan", "lower"),
        ):
            assert error_body(message)["error"]["field"] == field

    def test_no_field_when_nothing_matches(self):
        body = error_body("request body is empty")
        assert "field" not in body["error"]
        assert body["status"] == "error"


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestServeCLI:
    def test_serve_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for fragment in (
            "--host",
            "--port",
            "--workers",
            "--window",
            "--engine-cache",
            "--result-cache",
            "--timeout",
            "default: 127.0.0.1",
            "default: 0",
        ):
            assert fragment in text

    def test_every_run_flag_states_its_default(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "--help"])
        text = capsys.readouterr().out.replace("\n", " ")
        # Each optional flag's help must say what happens when omitted.
        assert text.count("default:") >= 6

    def test_serve_rejects_bad_parameters(self, capsys):
        assert cli_main(["serve", "--workers", "-1", "--port", "0"]) == 2
        assert "cannot start service" in capsys.readouterr().err
