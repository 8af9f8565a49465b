"""Replay harness for `repro serve`: concurrent clients, verified results.

Drives a study service with N concurrent clients replaying a recorded
workload of steady studies, measures end-to-end throughput (studies/s)
and latency percentiles (p50/p99), and — unless disabled — verifies
every reply **bit-identically** against a direct in-process
:func:`~repro.api.study.run_study` of the same spec.  Used three ways:

* ``benchmarks/test_serve_throughput.py`` imports :func:`replay` to
  produce the floored ``BENCH_serve.json`` record;
* the CI ``serve-smoke`` job launches ``repro serve`` as a real
  subprocess and runs this module against it over the loopback::

      python benchmarks/serve_replay.py --port 8765 --clients 8

* operators can point it at a deployed service to sanity-check a node
  (``--host``/``--port``; add ``--no-verify`` to skip the local re-runs
  when the checkout differs from the server's).

Exit status is non-zero if any request fails or any verification
mismatches, so the smoke job fails loudly on a correctness regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.api import StudyResult, StudySpec, run_study
from repro.api.specs import ScenarioSpec, TechnologySpec
from repro.serve import StudyClient

#: Scenario rows per workload spec (an ambient sweep sharing one engine).
_SCENARIOS_PER_SPEC = 64


def build_workload(
    distinct: int = 8,
    repeats: int = 5,
    scenarios_per_spec: int = _SCENARIOS_PER_SPEC,
) -> List[StudySpec]:
    """A replayable request stream: ``distinct`` specs, each ``repeats`` times.

    Every spec is an ambient sweep of ``scenarios_per_spec`` scenarios;
    the specs share every engine-determining field (same floorplan,
    powers, backend) and differ only in their scenario rows, so the
    stream exercises all three serving layers at once: engine-cache
    sharing across distinct specs, result-cache hits on the replays, and
    — with a batching window — coalesced solves across concurrent
    clients.  Requests are interleaved (1st copy of every spec, then
    2nd, ...) so replays arrive warm.
    """
    specs = [
        StudySpec(
            kind="steady",
            dynamic_powers={"chip": 0.25},
            static_powers={"chip": 0.05},
            scenarios=tuple(
                ScenarioSpec(
                    technology=TechnologySpec("0.12um"),
                    ambient_temperature=298.15 + row,
                    activity=1.0 + 0.05 * index,
                )
                for row in range(scenarios_per_spec)
            ),
        )
        for index in range(distinct)
    ]
    return [spec for _ in range(repeats) for spec in specs]


def replay(
    host: str,
    port: int,
    workload: Sequence[StudySpec],
    clients: int = 4,
    verify: bool = True,
    timeout: float = 120.0,
) -> Dict[str, Any]:
    """Fire ``workload`` at the service with ``clients`` concurrent threads.

    Returns the measured metrics (studies/s over the whole replay, p50
    and p99 request latency in ms, per-request cache outcomes, the
    service's final ``/stats`` tree).  With ``verify``, every *distinct*
    spec's reply is decoded and compared bit-for-bit against a direct
    :func:`run_study`; a mismatch raises :class:`AssertionError`.
    """
    payloads = [spec.to_dict() for spec in workload]
    latencies_ms: List[float] = [0.0] * len(payloads)
    envelopes: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
    local = threading.local()

    def client() -> StudyClient:
        if not hasattr(local, "client"):
            local.client = StudyClient(host, port, timeout=timeout)
        return local.client

    def fire(index: int) -> None:
        begin = time.perf_counter()
        envelopes[index] = client().run(payloads[index])
        latencies_ms[index] = (time.perf_counter() - begin) * 1e3

    begin = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for _ in pool.map(fire, range(len(payloads))):
            pass
    elapsed = time.perf_counter() - begin

    with StudyClient(host, port, timeout=timeout) as probe:
        stats = probe.stats()

    mismatches = 0
    if verify:
        checked: Dict[str, StudyResult] = {}
        for spec, envelope in zip(workload, envelopes):
            key = envelope["spec_hash"]
            if key not in checked:
                checked[key] = run_study(spec)
            if not StudyResult.from_envelope(envelope).equals(checked[key]):
                mismatches += 1
        if mismatches:
            raise AssertionError(
                f"{mismatches} of {len(payloads)} replies differ from a "
                "direct run_study of the same spec"
            )

    ordered = sorted(latencies_ms)

    def percentile(fraction: float) -> float:
        return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]

    hits = sum(
        1 for env in envelopes if env and env["served"]["result_cache"] == "hit"
    )
    return {
        "requests": len(payloads),
        "clients": clients,
        "elapsed_seconds": elapsed,
        "studies_per_second": len(payloads) / elapsed,
        "p50_ms": percentile(0.50),
        "p99_ms": percentile(0.99),
        "result_cache_hits": hits,
        "verified_bit_identical": bool(verify),
        "stats": stats,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; prints the metrics as JSON on stdout."""
    parser = argparse.ArgumentParser(
        description=(
            "Replay a steady-study workload against a running `repro "
            "serve` endpoint and report throughput/latency to stdout; "
            "verification mismatches and request failures exit non-zero."
        )
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="service host (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, required=True, help="service port (required)"
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent client threads (default: 4)",
    )
    parser.add_argument(
        "--distinct",
        type=int,
        default=8,
        help="distinct specs in the workload (default: 8)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="replays of each distinct spec (default: 5)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help=(
            "skip the bit-identity check against a local direct run_study "
            "(default: verify every distinct spec)"
        ),
    )
    args = parser.parse_args(argv)
    workload = build_workload(distinct=args.distinct, repeats=args.repeats)
    try:
        metrics = replay(
            args.host,
            args.port,
            workload,
            clients=args.clients,
            verify=not args.no_verify,
        )
    except AssertionError as error:
        print(f"verification failed: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"cannot reach service at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(metrics, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
