"""One in-process workload in a fresh interpreter.

Two modes, both launched by ``run.py`` (never imported):

``probe``
    The set-up probe: import the program, build the workload's smallest
    spec, run it, print ``ready`` the moment the first result exists.
``measure``
    Run the workload's operation once untimed (its one-off first-call
    costs belong to set-up), repeat it for ``--seconds`` seconds, check the
    outputs against the program's scalar references, and print one JSON
    record as the last line of stdout.
    With ``--trace 1`` the time is split: the first half untraced, the
    second half with every layer entry point wrapped (``tracing.py``); the
    traced outputs must be bit-identical to the untraced ones.

An operation is what a user of ``repro run`` waits for: parse the spec,
run the study, and (for ``thermal_map``, whose result is small enough to
ship) encode the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import workloads  # noqa: E402

common.use_program()

from repro.api import StudySpec, run_study  # noqa: E402
from repro.api.study import build_engine  # noqa: E402

#: Scenario rows of a streamed study checked against the scalar engines.
CHECKED_ROWS = {"grid_stream": 24, "transient_pwm": 6}
#: Map points checked against the scalar superposition sum.
CHECKED_POINTS = 24


def operation(name: str, data: dict):
    """Run the workload's operation once: ``(result, digest)``."""
    spec = StudySpec.from_dict(data)
    result = run_study(spec)
    digest = common.array_digest(result.arrays)
    if name == "thermal_map":
        text = result.to_json()
        digest += hashlib.sha256(text.encode()).hexdigest()
    return result, digest


def timed_phase(name: str, data: dict, seconds: float):
    """One untimed warm-up operation, then repeat it for ``seconds``.

    At least :data:`common.TAIL_SAMPLE` operations are timed, so the tail
    percentile always has its full fixed-count sample.  Returns the
    latencies [s], the timed phase's wall time [s], the set of output
    digests (warm-up included) and the last result.
    """
    result, digest = operation(name, data)
    latencies, digests = [], {digest}
    started = time.perf_counter()
    while (
        len(latencies) < common.TAIL_SAMPLE
        or time.perf_counter() - started < seconds
    ):
        begin = time.perf_counter()
        result, digest = operation(name, data)
        latencies.append(time.perf_counter() - begin)
        digests.add(digest)
    return latencies, time.perf_counter() - started, digests, result


# ---------------------------------------------------------------------- #
# Output checks against the program's scalar references
# ---------------------------------------------------------------------- #
def _grid_rows(spec, indices):
    """The grid scenarios at ``indices``, from the program's own generator."""
    wanted = set(indices)
    stream, _ = spec.scenario_stream()
    return {
        index: scenario
        for index, scenario in enumerate(itertools.islice(stream, max(indices) + 1))
        if index in wanted
    }


def check_steady(spec, result, seed: int):
    engine = build_engine(spec)
    indices = common.sample_indices(f"check:{seed}", spec.scenario_count, CHECKED_ROWS["grid_stream"])
    series = result.arrays
    mismatches = []
    for index, scenario in _grid_rows(spec, indices).items():
        reference = engine.solve_scalar(scenario)
        peak = max(reference.block_temperatures.values())
        if (
            bool(series["converged"][index]) != reference.converged
            or int(series["iteration_counts"][index]) != reference.iteration_count
            or abs(float(series["peak_temperature"][index]) - peak)
            > common.TEMPERATURE_TOLERANCE
            or abs(float(series["total_power"][index]) - reference.total_power)
            > 1e-9 * abs(reference.total_power)
        ):
            mismatches.append(index)
    return len(indices), mismatches


def check_transient(spec, result, seed: int):
    from repro.core.cosim.transient_scenarios import TransientScenarioEngine

    transient = TransientScenarioEngine(build_engine(spec), time_constants=spec.time_constants)
    activity = spec.workload.build()
    indices = common.sample_indices(f"check:{seed}", spec.scenario_count, CHECKED_ROWS["transient_pwm"])
    series = result.arrays
    mismatches = []
    for index, scenario in _grid_rows(spec, indices).items():
        reference = transient.simulate_scalar(
            scenario, spec.duration, spec.time_step, activity=activity, row=index
        )
        temperatures, _ = reference.as_arrays()
        if (
            not (reference.times.shape == series["times"].shape
                 and (reference.times == series["times"]).all())
            or abs(float(series["peak_temperature"][index]) - float(temperatures.max()))
            > common.TEMPERATURE_TOLERANCE
        ):
            mismatches.append(index)
    return len(indices), mismatches


def check_map(spec, result, seed: int):
    from repro.core.thermal.superposition import (
        ChipThermalModel,
        superposed_temperature_rise,
    )

    floorplan = spec.floorplan.build()
    technology = spec.technology.build()
    model = ChipThermalModel(
        floorplan.die,
        ambient_temperature=technology.thermal.ambient_temperature,
        material=technology.thermal.silicon,
        image_rings=spec.image_rings,
        include_bottom_images=spec.include_bottom_images,
    )
    model.add_sources(floorplan.to_heat_sources(spec.block_powers))
    images = model.expansion.expand(list(model.sources))
    xs, ys = result.arrays["x_coordinates"], result.arrays["y_coordinates"]
    temperature = result.arrays["temperature"]
    nx, ny = temperature.shape
    indices = common.sample_indices(f"check:{seed}", nx * ny, CHECKED_POINTS)
    mismatches = []
    for flat in indices:
        i, j = divmod(flat, ny)
        scalar = model.ambient_temperature + superposed_temperature_rise(
            float(xs[i]), float(ys[j]), images, model.conductivity
        )
        if abs(float(temperature[i, j]) - scalar) > common.TEMPERATURE_TOLERANCE:
            mismatches.append(flat)
    return len(indices), mismatches


CHECKS = {
    "grid_stream": check_steady,
    "transient_pwm": check_transient,
    "thermal_map": check_map,
}


def units_per_operation(name: str, spec) -> int:
    """Work units of one operation: scenario rows, or map points."""
    if name == "thermal_map":
        nx, ny = spec.map_samples
        return nx * ny
    return spec.scenario_count


# ---------------------------------------------------------------------- #
# Modes
# ---------------------------------------------------------------------- #
def probe(args) -> int:
    data = workloads.setup_spec(args.workload, args.seed)
    operation(args.workload, data)
    print("ready", flush=True)
    return 0


def measure(args) -> int:
    data = workloads.SPECS[args.workload](args.seed)
    spec = StudySpec.from_dict(data)
    record = {
        "workload": args.workload,
        "units_per_operation": units_per_operation(args.workload, spec),
        "environment": common.environment(),
    }
    seconds = args.seconds / 2.0 if args.trace else float(args.seconds)
    latencies, wall_s, digests, result = timed_phase(args.workload, data, seconds)
    record["latencies_s"] = latencies
    record["timed_wall_s"] = wall_s
    checked, mismatches = CHECKS[args.workload](spec, result, args.seed)
    record["checked"] = checked
    record["mismatches"] = mismatches
    record["nondeterministic"] = len(digests) != 1
    record["peak_rss_mb"] = common.peak_rss_mb()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        traced = []
        traced_digests = set()
        started = time.perf_counter()
        while len(traced) < common.TAIL_SAMPLE or time.perf_counter() - started < seconds:
            root = tracer.begin("bench.operation")
            _, digest = operation(args.workload, data)
            tracer.end(root)
            traced.append((root[5] - root[4]) * 1e-9)
            traced_digests.add(digest)
        record["traced_latencies_s"] = traced
        record["traced_identical"] = traced_digests == digests
        common.OUTPUT.mkdir(exist_ok=True)
        spans_path = common.OUTPUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans_path"] = str(spans_path)
        # The span-derived fixed-point count must match the program's own
        # per-row iteration counts (a check on the tracer itself).
        if "iteration_counts" in result.arrays:
            expected = int(result.arrays["iteration_counts"].sum()) * len(traced)
            record["row_iterations_agree"] = (
                tracing.fixed_point_rows(tracer.spans)[0] == expected
            )
    print(json.dumps(record))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return probe(args) if args.mode == "probe" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
