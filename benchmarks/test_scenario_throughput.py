"""Scenario throughput — batched vs looped scalar electro-thermal cosim.

The ISSUE-2 acceptance criterion: solving 500 operating scenarios
(technology node x supply voltage x ambient temperature x activity) of the
three-block floorplan through the batched
:class:`~repro.core.cosim.scenarios.ScenarioEngine` must be at least 20x
faster than looping the scalar
:class:`~repro.core.cosim.engine.ElectroThermalEngine` fixed point per
scenario.  The scalar loop is timed on a subsample (rate extrapolated, as
in ``test_kernel_throughput.py``), parity between the two paths is
asserted on that subsample, the gated ratio is the median of interleaved
trials, and the numbers (each trial's ratio too) are persisted to
``BENCH_scenarios.json`` so the perf trajectory is tracked across PRs
(``check_floors.py`` guards the committed floor in CI).
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np
from conftest import best_of, interleaved_trials, peak_rss_mb, persist_record

from repro.core.cosim import ScenarioEngine, scenario_grid
from repro.floorplan import three_block_floorplan
from repro.reporting import print_table
from repro.technology.nodes import make_technology

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC_REF = {"core": 0.045, "cache": 0.018, "io": 0.008}
NODES = ("0.25um", "0.18um", "0.13um", "0.12um", "0.10um")
SUPPLY_SCALES = (0.8, 0.9, 1.0, 1.05, 1.1)
AMBIENTS = (298.15, 318.15, 338.15, 358.15)
ACTIVITIES = (0.25, 0.5, 0.75, 1.0, 1.25)
#: Number of scenarios the scalar loop is timed on (rate extrapolated).
SCALAR_SAMPLE = 25
REQUIRED_SPEEDUP = 20.0

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_scenarios.json"


def build_scenarios():
    """The 3-block benchmark grid: 5 nodes x 5 supplies x 4 ambients x 5."""
    technologies = [make_technology(name) for name in NODES]
    return scenario_grid(
        technologies,
        supply_scales=SUPPLY_SCALES,
        ambient_temperatures=AMBIENTS,
        activities=ACTIVITIES,
    )


def test_scenario_throughput():
    plan = three_block_floorplan()
    engine = ScenarioEngine(plan, DYNAMIC, STATIC_REF, image_rings=1)
    scenarios = build_scenarios()
    assert len(scenarios) == 500

    # Batched path: every fixed point in one array-valued iteration, timed
    # as the best of two solves.  Looped scalar path: one
    # ElectroThermalEngine fixed point per scenario, timed on an evenly
    # spaced subsample of the same grid.  The resistance-matrix cache is
    # warmed first so geometry reduction (shared by both paths) is not
    # billed to either; the gate reads the median of interleaved trials,
    # since one reading of the ratio spreads 16-37x on a shared machine.
    batch = engine.solve(scenarios)
    sample_indices = np.linspace(0, len(scenarios) - 1, SCALAR_SAMPLE).astype(int)
    sample = [scenarios[i] for i in sample_indices]
    scalar_results = [engine.solve_scalar(s) for s in sample]
    pairs = interleaved_trials(
        lambda: best_of(lambda: engine.solve(scenarios), 2),
        lambda: best_of(lambda: [engine.solve_scalar(s) for s in sample], 1),
    )
    ratios = [
        (len(scenarios) / batched) / (SCALAR_SAMPLE / scalar)
        for batched, scalar in pairs
    ]
    batched_seconds = statistics.median(batched for batched, _ in pairs)
    scalar_seconds = statistics.median(scalar for _, scalar in pairs)
    batched_rate = len(scenarios) / batched_seconds
    scalar_rate = SCALAR_SAMPLE / scalar_seconds
    scalar_full_estimate = len(scenarios) / scalar_rate

    speedup = statistics.median(ratios)
    record = {
        "benchmark": "scenario_throughput",
        "floorplan_blocks": len(engine.block_names),
        "scenario_count": len(scenarios),
        "axes": {
            "nodes": list(NODES),
            "supply_scales": list(SUPPLY_SCALES),
            "ambients_K": list(AMBIENTS),
            "activities": list(ACTIVITIES),
        },
        "batched": {
            "solve_seconds": batched_seconds,
            "scenarios_per_second": batched_rate,
        },
        "scalar": {
            "sample_scenarios": SCALAR_SAMPLE,
            "sample_seconds": scalar_seconds,
            "scenarios_per_second": scalar_rate,
            "estimated_full_grid_seconds": scalar_full_estimate,
        },
        "speedup": speedup,
        "trial_speedups": ratios,
        "required_speedup": REQUIRED_SPEEDUP,
        "peak_rss_mb": peak_rss_mb(),
    }
    persist_record(BENCH_PATH, record)

    print_table(
        ["path", "scenarios/s", "500-scenario grid (s)"],
        [
            ["looped scalar cosim", scalar_rate, scalar_full_estimate],
            ["batched scenario engine", batched_rate, batched_seconds],
        ],
        title=f"scenario throughput ({len(scenarios)} scenarios, "
        f"{len(engine.block_names)} blocks) — speedup {speedup:.0f}x, "
        f"median of {len(ratios)}",
    )

    # Both paths computed the same physics on the subsample: identical
    # convergence verdicts and block temperatures to well below the fixed
    # point tolerance.
    for index, reference in zip(sample_indices, scalar_results):
        assert bool(batch.converged[index]) == reference.converged
        for column, name in enumerate(engine.block_names):
            assert (
                abs(
                    batch.block_temperatures[index, column]
                    - reference.block_temperatures[name]
                )
                <= 1e-6
            )

    assert np.all(batch.peak_temperature >= batch.ambient_temperatures)
    assert batch.converged.any()
    assert speedup >= REQUIRED_SPEEDUP
