"""Serve-path throughput: warm-cache replays at parity with direct runs.

Replays the harness workload (``benchmarks/serve_replay.py``) against an
in-process server and persists the measured service throughput
(studies/s), latency percentiles and the warm-over-direct ratio to
``BENCH_serve.json`` for ``check_floors.py``.  The floored claims are
throughput under concurrency (the service answers hundreds of studies
per second from its result cache) and tail latency (p99 stays bounded);
the headline ratio is a *parity* bound — a warm served study, HTTP round
trip included, must not cost materially more than re-running the study
in-process, so clients never pay a penalty for going through the
service.  Every reply in the warm-up replay is verified bit-identical to
a direct :func:`~repro.api.study.run_study`, so none of this is bought
with approximation.
"""

from __future__ import annotations

import statistics
import threading
import time
from pathlib import Path

from conftest import peak_rss_mb, persist_record
from serve_replay import build_workload, replay

from repro.api import run_study
from repro.reporting import print_table
from repro.serve import make_server

DISTINCT = 8
REPEATS = 6
CLIENTS = 8
#: The studies/s and p99 gates read the best of this many warm replays.
REPETITIONS = 3
#: Interleaved served/direct trials; the warm/direct ratio is their
#: median, since one reading of it spreads 0.47x-0.92x on a shared
#: 2-vCPU machine.
TRIALS = 5
#: Floors/ceilings committed against the measured PR-7 numbers (~500
#: studies/s, p99 ~30ms, warm/direct ratio ~0.9-1.7x depending on run)
#: with generous headroom for CI-runner jitter; see docs/serving.md.
#: The headline ratio floors *parity*: a warm served study (HTTP round
#: trip included) must cost at most ~2x a direct in-process rerun.
REQUIRED_WARM_SPEEDUP = 0.5
REQUIRED_STUDIES_PER_SECOND = 100.0
P99_CEILING_MS = 250.0

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"


def _direct_seconds_per_study(specs) -> float:
    """One in-process pass of ``run_study`` over ``specs``, per study."""
    start = time.perf_counter()
    for spec in specs:
        run_study(spec)
    return (time.perf_counter() - start) / len(specs)


def test_serve_throughput():
    workload = build_workload(distinct=DISTINCT, repeats=REPEATS)
    distinct_specs = workload[:DISTINCT]
    server = make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    served_runs, direct_runs, ratios = [], [], []
    try:
        # Warm pass: compiles the engine, fills the result cache, and
        # verifies every distinct spec bit-identical to direct execution
        # (which also warms the module-level reduction caches).
        replay(host, port, workload, clients=CLIENTS, verify=True)
        for trial in range(TRIALS):
            # Timed passes, all warm (the serving steady state), each
            # paired with a direct rerun of the distinct specs (the cost a
            # client pays re-running a study instead of asking the
            # service).  The side that runs first alternates, so a drift
            # in machine load does not always favour one of them.
            if trial % 2:
                direct = _direct_seconds_per_study(distinct_specs)
            served = replay(host, port, workload, clients=CLIENTS, verify=False)
            if not trial % 2:
                direct = _direct_seconds_per_study(distinct_specs)
            served_runs.append(served)
            direct_runs.append(direct)
            ratios.append(direct * served["studies_per_second"])
    finally:
        server.shutdown()
        thread.join(timeout=30)
    assert not thread.is_alive()

    # Best of the first REPETITIONS replays, to be scheduler-stall robust
    # like the other benches.
    metrics = max(served_runs[:REPETITIONS], key=lambda m: m["studies_per_second"])
    direct_seconds_per_study = statistics.median(direct_runs)
    served_seconds_per_study = statistics.median(
        1.0 / run["studies_per_second"] for run in served_runs
    )
    speedup = statistics.median(ratios)

    record = {
        "benchmark": "serve_throughput",
        "requests": metrics["requests"],
        "clients": CLIENTS,
        "distinct_specs": DISTINCT,
        "studies_per_second": metrics["studies_per_second"],
        "p50_ms": metrics["p50_ms"],
        "p99_ms": metrics["p99_ms"],
        "direct_seconds_per_study": direct_seconds_per_study,
        "served_seconds_per_study": served_seconds_per_study,
        "result_cache_hits": metrics["result_cache_hits"],
        "speedup": speedup,
        "trial_speedups": ratios,
        "required_speedup": REQUIRED_WARM_SPEEDUP,
        "auxiliary_ratios": [
            {
                "name": "studies_per_second",
                "value": metrics["studies_per_second"],
                "floor": REQUIRED_STUDIES_PER_SECOND,
            }
        ],
        "auxiliary_ceilings": [
            {"name": "p99_ms", "value": metrics["p99_ms"], "ceiling": P99_CEILING_MS}
        ],
        "peak_rss_mb": peak_rss_mb(),
    }
    persist_record(BENCH_PATH, record)

    print_table(
        ["path", "seconds/study"],
        [
            ["direct run_study", direct_seconds_per_study],
            ["served (warm cache, HTTP)", served_seconds_per_study],
        ],
        title=(
            f"serve throughput {metrics['studies_per_second']:.0f} studies/s, "
            f"p50 {metrics['p50_ms']:.1f}ms p99 {metrics['p99_ms']:.1f}ms, "
            f"warm speedup {speedup:.2f}x, median of {TRIALS} "
            f"(floor {REQUIRED_WARM_SPEEDUP}x)"
        ),
    )

    assert metrics["result_cache_hits"] == metrics["requests"]
    assert speedup >= REQUIRED_WARM_SPEEDUP
    assert metrics["studies_per_second"] >= REQUIRED_STUDIES_PER_SECOND
    assert metrics["p99_ms"] <= P99_CEILING_MS
