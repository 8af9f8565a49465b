"""Transient throughput — batched vs looped scalar time-domain cosim.

The ISSUE-3 acceptance criterion: integrating a PWM workload over 200
operating scenarios of the three-block floorplan through the batched
:class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`
must be at least 15x faster than looping the scalar
:class:`~repro.core.cosim.transient.TransientElectroThermalSimulator`
per scenario.  The scalar loop is timed on a subsample (rate
extrapolated, as in ``test_scenario_throughput.py``), parity between the
two paths is asserted on that subsample, and the numbers are persisted to
``BENCH_transient.json`` so the perf trajectory is tracked across PRs
(``check_floors.py`` guards the committed floor in CI).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
from conftest import peak_rss_mb, persist_record

from repro.core.cosim import PWMActivity, TransientScenarioEngine, scenario_grid
from repro.floorplan import three_block_floorplan
from repro.reporting import print_table
from repro.technology.nodes import make_technology

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC_REF = {"core": 0.045, "cache": 0.018, "io": 0.008}
NODES = ("0.18um", "0.13um")
SUPPLY_SCALES = (0.9, 0.95, 1.0, 1.05)
AMBIENTS = (288.15, 298.15, 308.15, 318.15, 328.15)
ACTIVITIES = (0.25, 0.5, 0.75, 1.0, 1.25)
TAUS = {"core": 2e-3, "cache": 1.5e-3, "io": 1e-3}
DURATION = 20e-3
TIME_STEP = 0.1e-3
PWM_PERIOD = 4e-3
PWM_DUTY = 0.5
#: Number of scenarios the scalar loop is timed on (rate extrapolated).
SCALAR_SAMPLE = 8
REQUIRED_SPEEDUP = 15.0

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_transient.json"


def build_scenarios():
    """The 3-block benchmark grid: 2 nodes x 4 supplies x 5 ambients x 5."""
    technologies = [make_technology(name) for name in NODES]
    return scenario_grid(
        technologies,
        supply_scales=SUPPLY_SCALES,
        ambient_temperatures=AMBIENTS,
        activities=ACTIVITIES,
    )


def test_transient_scenario_throughput():
    engine = TransientScenarioEngine.from_powers(
        three_block_floorplan(), DYNAMIC, STATIC_REF, time_constants=TAUS
    )
    scenarios = build_scenarios()
    assert len(scenarios) == 200
    activity = PWMActivity(PWM_PERIOD, PWM_DUTY)
    # Both paths integrate the identical uniform grid (the scalar
    # simulator has no edge-alignment), so step counts are comparable.
    kwargs = dict(
        duration=DURATION,
        time_step=TIME_STEP,
        activity=activity,
    )

    # Batched path: every scenario integrated in one array-valued time
    # loop.  Warm the resistance-matrix cache first so geometry reduction
    # (shared by both paths) is not billed to either, and keep the best of
    # two timings so a scheduler stall on a shared CI runner cannot flake
    # the speedup assertion.
    engine.simulate(scenarios[:2], include_activity_edges=False, **kwargs)
    batched_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        batch = engine.simulate(scenarios, include_activity_edges=False, **kwargs)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    batched_rate = len(scenarios) / batched_seconds
    steps = len(batch.times)

    # Looped scalar path: one TransientElectroThermalSimulator per
    # scenario, timed on an evenly spaced subsample of the same grid.
    sample_indices = np.linspace(0, len(scenarios) - 1, SCALAR_SAMPLE).astype(int)
    scalar_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        scalar_results = [
            engine.simulate_scalar(scenarios[i], row=int(i), **kwargs)
            for i in sample_indices
        ]
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
    scalar_rate = SCALAR_SAMPLE / scalar_seconds
    scalar_full_estimate = len(scenarios) / scalar_rate

    speedup = batched_rate / scalar_rate
    record = {
        "benchmark": "transient_scenario_throughput",
        "floorplan_blocks": len(engine.block_names),
        "scenario_count": len(scenarios),
        "time_steps": steps,
        "axes": {
            "nodes": list(NODES),
            "supply_scales": list(SUPPLY_SCALES),
            "ambients_K": list(AMBIENTS),
            "activities": list(ACTIVITIES),
        },
        "workload": {
            "kind": "pwm",
            "period_s": PWM_PERIOD,
            "duty_cycle": PWM_DUTY,
            "duration_s": DURATION,
            "time_step_s": TIME_STEP,
        },
        "batched": {
            "simulate_seconds": batched_seconds,
            "scenarios_per_second": batched_rate,
        },
        "scalar": {
            "sample_scenarios": SCALAR_SAMPLE,
            "sample_seconds": scalar_seconds,
            "scenarios_per_second": scalar_rate,
            "estimated_full_grid_seconds": scalar_full_estimate,
        },
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "peak_rss_mb": peak_rss_mb(),
    }
    persist_record(BENCH_PATH, record)

    print_table(
        ["path", "scenarios/s", "200-scenario grid (s)"],
        [
            ["looped scalar transient", scalar_rate, scalar_full_estimate],
            ["batched transient engine", batched_rate, batched_seconds],
        ],
        title=f"transient throughput ({len(scenarios)} scenarios x {steps} "
        f"steps, {len(engine.block_names)} blocks) — speedup {speedup:.0f}x",
    )

    # Both paths integrated the same physics on the subsample: identical
    # time grids and block temperatures to well below a millikelvin.
    for row, reference in zip(sample_indices, scalar_results):
        temperatures, _ = reference.as_arrays()
        assert np.array_equal(batch.times, reference.times)
        assert np.abs(batch.block_temperatures[row] - temperatures).max() <= 1e-6

    assert np.all(batch.peak_temperature >= batch.ambient_temperatures)
    assert speedup >= REQUIRED_SPEEDUP
