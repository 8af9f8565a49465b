"""The repository benchmark: one workload, measured end to end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid_stream --seed 1 --seconds 15 --trace 0

Workloads (inputs in ``workloads.py``, all made from ``--seed``):
``grid_stream``, ``transient_pwm`` and ``thermal_map`` run ``run_study`` in
a fresh worker process (``worker.py``); ``serve_mixed`` drives a
``repro serve`` process over HTTP from this one (``serve_load.py``).

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` spends the first half of the time untraced and the second
half with every layer entry point wrapped (``tracing.py``), and reports
the per-layer metrics: self time per layer, the ``unattributed`` rest,
and the tracing overhead (traced minus untraced wall time).

Every run checks the program's outputs (``worker.py``, ``serve_load.py``)
and prints every metric it measured by name with its unit, then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json`` for the mode.  The exit status is 0
only when every output check passed.  Metric definitions and which
end-to-end metric each per-layer metric should move are in
``perfbench/README.md``; the full record of the last run of a workload is
written to ``.perfbench/last-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import serve_load  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("grid_stream", "transient_pwm", "thermal_map", "serve_mixed")
#: Fresh interpreters (or server launches) timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Seconds any one child process may take before the run fails.
CHILD_TIMEOUT = 150.0
#: What one unit of ``throughput_per_s`` is, per workload.
UNITS = {
    "grid_stream": "rows_per_s",
    "transient_pwm": "rows_per_s",
    "thermal_map": "points_per_s",
    "serve_mixed": "studies_per_s",
}


def benchmark_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per mode, as ``BENCHMARK.json`` declares them."""
    with open(common.ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {
        mode: {metric["name"]: metric["unit"] for metric in declared[mode]}
        for mode in ("end_to_end", "per_layer")
    }


# ---------------------------------------------------------------------- #
# Per-layer metrics from spans
# ---------------------------------------------------------------------- #
def layer_metrics(
    spans: List[tracing.Span], operations: int, wall_s: float, unattributed_s: float
) -> Dict[str, float]:
    """The per-layer metrics of ``operations`` traced operations.

    ``*_s`` metrics are self seconds per operation; ``*_ms`` metrics are
    inclusive milliseconds per call of that entry point; counts are per
    operation.  ``wall_s`` is the operations' summed wall time and
    ``unattributed_s`` the part of it no layer span covers.
    """
    table = tracing.summarize(spans)

    def field(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    def self_s(*names: str) -> float:
        return sum(field(name, "self_s") for name in names) / operations

    def per_call_ms(name: str) -> float:
        calls = field(name, "calls")
        return 1e3 * field(name, "inclusive_s") / calls if calls else 0.0

    def count(name: str) -> float:
        return field(name, "count") / operations

    row_iterations, fixed_rows = tracing.fixed_point_rows(spans)
    kernel_s = field("thermal.kernel", "inclusive_s")
    metrics = {
        "api.scenario_stream_s": self_s("api.scenario_stream", "api.scenario_build"),
        "api.spec_parse_ms": per_call_ms("api.spec_parse"),
        "api.content_hash_ms": per_call_ms("api.content_hash"),
        "api.engine_hash_ms": per_call_ms("api.engine_hash"),
        "api.envelope_ms": 1e3
        * (field("api.envelope", "inclusive_s") + field("api.envelope_encode", "inclusive_s"))
        / operations,
        "api.engine_compile_ms": per_call_ms("api.engine_compile"),
        "api.pack_s": self_s("api.pack"),
        "api.encode_s": self_s("api.encode"),
        "cosim.stage_s": self_s("cosim.stage"),
        "cosim.fixed_point_s": self_s("cosim.fixed_point"),
        "cosim.steady_targets_s": self_s("cosim.steady_targets"),
        "cosim.row_iterations": row_iterations / operations,
        "cosim.iterations_per_row": row_iterations / fixed_rows if fixed_rows else 0.0,
        "cosim.integrate_s": self_s("cosim.integrate"),
        "cosim.activity_s": self_s("cosim.activity"),
        "cosim.active_row_steps": tracing.children_count(
            spans, "cosim.integrate", "leakage.static_powers"
        )
        / operations,
        "cosim.reduce_s": self_s("cosim.reduce"),
        "cosim.solve_ms": per_call_ms("cosim.solve"),
        "leakage.static_powers_s": self_s("leakage.static_powers"),
        "leakage.static_power_rows": count("leakage.static_powers"),
        "thermal.expand_s": self_s("thermal.expand"),
        "thermal.surface_map_s": self_s("thermal.surface_map"),
        "thermal.kernel_s": self_s("thermal.kernel"),
        "thermal.reduce_s": self_s("thermal.reduce"),
        "thermal.pairs_evaluated": count("thermal.kernel"),
        "thermal.pairs_per_s": field("thermal.kernel", "count") / kernel_s if kernel_s else 0.0,
        "optimize.run_search_ms": per_call_ms("optimize.run_search"),
        "optimize.candidates": (
            field("optimize.run_search", "count") / field("optimize.run_search", "calls")
            if field("optimize.run_search", "calls")
            else 0.0
        ),
        "layer.unattributed_s": unattributed_s / operations,
        "layer.unattributed_share": unattributed_s / wall_s,
        "trace.spans_per_operation": len(spans) / operations,
    }
    for layer in tracing.LAYERS:
        metrics[f"layer.{layer}_s"] = self_s(
            *(name for name in table if tracing.layer_of(name) == layer)
        )
    return metrics


# ---------------------------------------------------------------------- #
# In-process workloads
# ---------------------------------------------------------------------- #
def worker_command(mode: str, args) -> List[str]:
    return [
        sys.executable,
        str(common.ROOT / "perfbench" / "worker.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]


def setup_probes(args) -> List[float]:
    """Fresh interpreter to first result ready, :data:`SETUP_PROBES` times."""
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.perf_counter()
        probe = subprocess.Popen(
            worker_command("probe", args),
            cwd=str(common.ROOT),
            env=common.child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            common.pin(probe.pid)
            line = probe.stdout.readline()
            times.append(time.perf_counter() - launched)
            probe.stdout.read()
            probe.wait(timeout=CHILD_TIMEOUT)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return times


def run_in_process(args) -> Dict[str, Any]:
    setups = setup_probes(args)
    worker = subprocess.Popen(
        worker_command("measure", args),
        cwd=str(common.ROOT),
        env=common.child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        common.pin(worker.pid)
        stdout, stderr = worker.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    if worker.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker failed (exit {worker.returncode})")
    record = json.loads(stdout.strip().splitlines()[-1])

    latencies_ms = [value * 1e3 for value in record["latencies_s"]]
    summary = common.latency_summary(latencies_ms, latencies_ms[: common.TAIL_SAMPLE])
    failures = {
        "output mismatches": len(record["mismatches"]),
        "nondeterministic outputs": int(record["nondeterministic"]),
    }
    attempted = len(latencies_ms) + record["checked"]
    end_to_end = {
        "setup_s": common.median(setups),
        "throughput_per_s": record["units_per_operation"]
        * len(latencies_ms)
        / record["timed_wall_s"],
        "latency_p50_ms": summary["p50_ms"],
        "latency_p95_ms": summary["p95_ms"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    outcome = {
        "end_to_end": end_to_end,
        "setup_samples_s": setups,
        "latency": summary,
        "checked": record["checked"],
        "environment": record["environment"],
        "units_per_operation": record["units_per_operation"],
    }
    if args.trace:
        traced_ms = [value * 1e3 for value in record["traced_latencies_s"]]
        attempted += len(traced_ms)
        failures["traced outputs differing from untraced"] = int(
            not record["traced_identical"]
        )
        if "row_iterations_agree" in record:
            failures["span row-iteration count disagreeing with the result"] = int(
                not record["row_iterations_agree"]
            )
        spans = tracing.load_spans(record["spans_path"])
        roots = [span for span in spans if span[2] == "bench.operation"]
        own = tracing.self_times(spans)
        wall_s = sum(span[5] - span[4] for span in roots) * 1e-9
        unattributed_s = sum(own[span[0]] for span in roots) * 1e-9
        per_layer = layer_metrics(spans, len(roots), wall_s, unattributed_s)
        untraced_p50 = summary["p50_ms"] * 1e-3
        overhead = common.median(traced_ms) * 1e-3 - untraced_p50
        per_layer.update(
            {
                "trace.overhead_s": overhead,
                "trace.overhead_share": overhead / untraced_p50,
                "serve.http_ms": 0.0,
                "serve.result_cache_hit_ratio": 0.0,
                "serve.result_cache_lookups": 0.0,
                "serve.engine_cache_hit_ratio": 0.0,
                "serve.engine_cache_lookups": 0.0,
            }
        )
        outcome["per_layer"] = per_layer
        outcome["spans_path"] = record["spans_path"]
    outcome["attempted"] = attempted
    outcome["failures"] = failures
    return outcome


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #
def counter_delta(before: Dict[str, Any], after: Dict[str, Any], *path: str) -> int:
    for key in path:
        before, after = before[key], after[key]
    return int(after) - int(before)


def serve_phase(stream, seconds: float, spans_path=None) -> Dict[str, Any]:
    """Launch a server, warm it up, run the timed closed loop, stop it."""
    server = serve_load.Server(spans_path)
    try:
        stream.rewind()
        warm = serve_load.closed_loop(server.port, stream, count=serve_load.WARMUP_REQUESTS)
        before = server.stats()
        timed = serve_load.closed_loop(server.port, stream, seconds=seconds)
        after = server.stats()
    finally:
        server.shutdown()
    return {
        "setup_s": server.setup_s,
        "warm": warm,
        "timed": timed,
        "before": before,
        "after": after,
        # Every child so far is a server; the one that carried the load is
        # the largest (traced servers are measured after this one).
        "peak_rss_mb": common.children_peak_rss_mb(),
    }


def reconcile(phase: Dict[str, Any]) -> Dict[str, int]:
    """Server counters against what the client saw: failure counts."""
    before, after, timed, warm = phase["before"], phase["after"], phase["timed"], phase["warm"]
    sent = len(timed.replies)
    rejected = sum(1 for reply in timed.replies if 400 <= reply.status < 600)
    return {
        "requests sent vs /stats submitted": int(
            counter_delta(before, after, "requests", "submitted") != sent
            or after["requests"]["submitted"] != sent + len(warm.replies)
        ),
        "client-seen errors vs /stats errors": int(
            counter_delta(before, after, "requests", "errors") != rejected
        ),
    }


def hit_ratio(phase: Dict[str, Any], *path: str) -> Tuple[float, int]:
    hits = counter_delta(phase["before"], phase["after"], *path, "hits")
    misses = counter_delta(phase["before"], phase["after"], *path, "misses")
    lookups = hits + misses
    return (hits / lookups if lookups else 0.0), lookups


def serve_latencies(phase: Dict[str, Any]) -> List[float]:
    return [reply.latency_ms for reply in phase["timed"].replies]


def run_serve(args) -> Dict[str, Any]:
    stream = serve_load.RequestStream(args.seed)
    setups = []
    for _ in range(SETUP_PROBES - 1):
        server = serve_load.Server()
        setups.append(server.setup_s)
        server.shutdown()
    seconds = args.seconds / 2.0 if args.trace else float(args.seconds)
    plain = serve_phase(stream, seconds)
    setups.append(plain["setup_s"])
    phases = [plain]
    traced = None
    if args.trace:
        common.OUTPUT.mkdir(exist_ok=True)
        spans_path = str(common.OUTPUT / f"spans-serve_mixed-{args.seed}.jsonl")
        traced = serve_phase(stream, seconds, spans_path)
        traced["spans_path"] = spans_path
        phases.append(traced)

    failures: Dict[str, int] = {}
    attempted = 0
    replies = []
    for label, phase in zip(("untraced", "traced"), phases):
        for reason, count in reconcile(phase).items():
            failures[f"{label}: {reason}"] = count
        phase_replies = phase["warm"].replies + phase["timed"].replies
        failures[f"{label}: non-200 replies and timeouts"] = sum(
            1 for reply in phase_replies if reply.status != 200
        )
        attempted += len(phase_replies)
        replies.extend(phase_replies)
    checked = serve_load.check_replies(stream.requests, replies)
    attempted += checked["distinct"]
    failures["replies differing from a direct run_study"] = len(checked["mismatched"])

    timed = plain["timed"]
    latencies = serve_latencies(plain)
    summary = common.latency_summary(latencies, latencies)
    ok = sum(1 for reply in timed.replies if reply.status == 200)
    result_ratio, result_lookups = hit_ratio(plain, "result_cache")
    engine_ratio, engine_lookups = hit_ratio(plain, "execution", "engine_cache")
    outcome = {
        "end_to_end": {
            "setup_s": common.median(setups),
            "throughput_per_s": ok / timed.wall_s,
            "latency_p50_ms": summary["p50_ms"],
            "latency_p95_ms": summary["p95_ms"],
            "peak_rss_mb": plain["peak_rss_mb"],
        },
        "setup_samples_s": setups,
        "latency": summary,
        "checked": checked["distinct"],
        "environment": common.environment(),
        "units_per_operation": 1,
        "attempted": attempted,
        "failures": failures,
        "serve": {
            "requests_timed": len(timed.replies),
            "latency_by_kind": latency_by_kind(stream.kinds, timed.replies),
            "result_cache_hit_ratio": result_ratio,
            "result_cache_lookups": result_lookups,
            "engine_cache_hit_ratio": engine_ratio,
            "engine_cache_lookups": engine_lookups,
        },
    }
    if traced is not None:
        outcome["per_layer"] = serve_layers(traced, plain)
        outcome["spans_path"] = traced["spans_path"]
    return outcome


def latency_by_kind(kinds: List[str], replies) -> Dict[str, Dict[str, float]]:
    """Per request class: count, p50 and p95 latency [ms] of the replies.

    Kept in the run record so the mix can be re-weighted later without
    re-running.
    """
    grouped: Dict[str, List[float]] = {}
    for reply in replies:
        grouped.setdefault(kinds[reply.index], []).append(reply.latency_ms)
    return {
        kind: {
            "count": len(values),
            "p50_ms": round(common.percentile(values, 0.5), 4),
            "p95_ms": round(common.percentile(values, 0.95), 4),
        }
        for kind, values in sorted(grouped.items())
    }


def serve_layers(traced: Dict[str, Any], plain: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of the traced serve phase, per request."""
    timed = traced["timed"]
    spans = tracing.within(
        tracing.load_spans(traced["spans_path"]), timed.started_ns, timed.ended_ns
    )
    latencies = serve_latencies(traced)
    wall_s = sum(latencies) * 1e-3
    handled_s = sum(span[5] - span[4] for span in spans if span[2] == "serve.request") * 1e-9
    requests = len(timed.replies)
    metrics = layer_metrics(spans, requests, wall_s, wall_s - handled_s)
    served_ms = [
        serve_load.served_fields(reply).get("elapsed_ms", 0.0)
        for reply in timed.replies
        if reply.status == 200
    ]
    result_ratio, result_lookups = hit_ratio(traced, "result_cache")
    engine_ratio, engine_lookups = hit_ratio(traced, "execution", "engine_cache")
    untraced_p50 = common.median(serve_latencies(plain)) * 1e-3
    overhead = common.median(latencies) * 1e-3 - untraced_p50
    metrics.update(
        {
            "serve.http_ms": (
                sum(reply.latency_ms for reply in timed.replies if reply.status == 200)
                - sum(served_ms)
            )
            / max(len(served_ms), 1),
            "serve.result_cache_hit_ratio": result_ratio,
            "serve.result_cache_lookups": result_lookups,
            "serve.engine_cache_hit_ratio": engine_ratio,
            "serve.engine_cache_lookups": engine_lookups,
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / untraced_p50,
        }
    )
    return metrics


# ---------------------------------------------------------------------- #
# Report
# ---------------------------------------------------------------------- #
def report(args, outcome: Dict[str, Any], declared: Dict[str, Dict[str, str]]) -> Dict[str, Any]:
    """Print every measured metric by name and unit; return the result line."""
    failed = sum(outcome["failures"].values())
    attempted = outcome["attempted"]
    print(f"perfbench {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in outcome["environment"].items()))
    print(
        "  machine reference (fixed work unit, not a metric): "
        + " ms before, ".join(f"{value:.2f}" for value in outcome["machine_reference_ms"])
        + " ms after"
    )
    print("end-to-end" + (" (untraced half)" if args.trace else "") + ":")
    for name, unit in declared["end_to_end"].items():
        print(f"  {name:32s} {outcome['end_to_end'][name]:16.6g} {unit}")
    throughput = outcome["end_to_end"]["throughput_per_s"]
    print(f"  {UNITS[args.workload]:32s} {throughput:16.6g} 1/s  (= throughput_per_s)")
    latency = outcome["latency"]
    print(
        f"  latency: p50 over {latency['samples']} samples; p95 over "
        f"{latency['p95_samples']} samples, {latency['p95_beyond']} of them beyond it"
    )
    print(f"  setup samples: {', '.join(f'{value:.4f}' for value in outcome['setup_samples_s'])} s")
    print(f"  error_rate                       {failed}/{attempted} operations and checks")
    for reason, count in outcome["failures"].items():
        if count:
            print(f"    FAILED {count}: {reason}")
    if "serve" in outcome:
        for key, value in outcome["serve"].items():
            if key != "latency_by_kind":
                print(f"  serve {key}: {value}")
        for kind, entry in outcome["serve"]["latency_by_kind"].items():
            print(
                f"  serve {kind:16s} {entry['count']:6d} replies  "
                f"p50 {entry['p50_ms']:10.4f} ms  p95 {entry['p95_ms']:10.4f} ms"
            )
    if "per_layer" in outcome:
        print("per-layer (traced half):")
        for name, unit in declared["per_layer"].items():
            print(f"  {name:32s} {outcome['per_layer'][name]:16.6g} {unit}")
        print(f"  spans written to {outcome['spans_path']}")
    mode = "per_layer" if args.trace else "end_to_end"
    values = outcome[mode]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared[mode].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_available():
        print(f"perfbench: no program sources under {common.SOURCE}", file=sys.stderr)
        return 2
    declared = benchmark_metrics()
    os.environ.update(common.THREAD_ENV)
    common.use_program()
    common.pin(0)  # serve_mixed's load generator shares the server's CPU
    reference_before = common.machine_reference_ms()
    if args.workload == "serve_mixed":
        outcome = run_serve(args)
    else:
        outcome = run_in_process(args)
    outcome["machine_reference_ms"] = [reference_before, common.machine_reference_ms()]
    result = report(args, outcome, declared)
    common.OUTPUT.mkdir(exist_ok=True)
    record = dict(outcome, args=vars(args), result=result)
    with open(common.OUTPUT / f"last-{args.workload}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
