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
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import StudyResult, StudySpec, run_study
from repro.api.cli import main as cli_main
from repro.api.specs import ENGINE_FIELDS, ScenarioSpec, TechnologySpec
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
from repro.serve.server import error_body

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
        batcher = AdmissionBatcher(0.0, lambda items: groups.append(list(items)) or items)
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
# Structured error bodies
# --------------------------------------------------------------------- #
class TestErrorBody:
    def test_quoted_identifier_wins(self):
        body = error_body("StudySpec has no field(s) 'max_iterations'")
        assert body["error"]["field"] == "max_iterations"

    def test_known_field_word_is_found(self):
        body = error_body("ambient_temperature must be positive")
        assert body["error"]["field"] == "ambient_temperature"

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
