"""Facade overhead — `Study.run()` vs driving the engine directly.

The ISSUE-4 acceptance criterion: the declarative facade must stay within
5% of the direct engine path on a 200-scenario steady study.  Both paths
perform the identical batched fixed point; the facade additionally
interprets the declarative spec (floorplan, technologies, scenarios), but
compiles it once per :class:`~repro.api.study.Study` and caches the
engine, so steady-state throughput typically *beats* re-hand-wiring the
stack each run (negative overhead in ``BENCH_api.json``).  Each timing is
the best of several repetitions (scheduler-stall robust); the gated ratio
is the median of interleaved trials, each trial's ratio is persisted to
``BENCH_api.json`` beside it for ``check_floors.py``.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np
from conftest import best_of, interleaved_trials, peak_rss_mb, persist_record

from repro.api import ScenarioSpec, Study
from repro.core.cosim import ScenarioEngine, scenario_grid
from repro.floorplan import three_block_floorplan
from repro.reporting import print_table
from repro.technology.nodes import make_technology

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC_REF = {"core": 0.045, "cache": 0.018, "io": 0.008}
NODES = ("0.18um", "0.12um")
SUPPLY_SCALES = (0.8, 0.9, 1.0, 1.05, 1.1)
AMBIENTS = (298.15, 318.15, 338.15, 358.15)
ACTIVITIES = (0.25, 0.5, 0.75, 1.0, 1.25)
REPETITIONS = 3
#: The facade may cost at most 5% on top of the direct engine path, i.e.
#: the direct/facade rate ratio must stay at or above 0.95.
REQUIRED_SPEEDUP = 0.95

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_api.json"


def run_direct() -> object:
    """The hand-wired path: floorplan -> engine -> scenarios -> solve."""
    plan = three_block_floorplan()
    engine = ScenarioEngine(plan, DYNAMIC, STATIC_REF)
    scenarios = scenario_grid(
        [make_technology(name) for name in NODES],
        supply_scales=SUPPLY_SCALES,
        ambient_temperatures=AMBIENTS,
        activities=ACTIVITIES,
    )
    return engine.solve(scenarios)


def build_study() -> Study:
    """The declarative path covering the same 200-scenario grid."""
    return Study.steady(
        floorplan=three_block_floorplan(),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC_REF,
        scenarios=ScenarioSpec.grid(
            NODES,
            supply_scales=SUPPLY_SCALES,
            ambient_temperatures=AMBIENTS,
            activities=ACTIVITIES,
        ),
    )


def test_api_overhead():
    study = build_study()
    assert len(study.spec.scenarios) == 200

    # Warm shared caches (resistance reduction keys on geometry values, so
    # both paths share one reduction) before timing either path.
    direct_batch = run_direct()
    facade_result = study.run()

    pairs = interleaved_trials(
        lambda: best_of(run_direct, REPETITIONS),
        lambda: best_of(study.run, REPETITIONS),
    )
    ratios = [direct / facade for direct, facade in pairs]
    speedup = statistics.median(ratios)
    direct_seconds = statistics.median(direct for direct, _ in pairs)
    facade_seconds = statistics.median(facade for _, facade in pairs)
    overhead_percent = 100.0 * (facade_seconds / direct_seconds - 1.0)
    record = {
        "benchmark": "api_overhead",
        "scenario_count": 200,
        "direct": {"solve_seconds": direct_seconds},
        "facade": {"run_seconds": facade_seconds},
        "overhead_percent": overhead_percent,
        "speedup": speedup,
        "trial_speedups": ratios,
        "required_speedup": REQUIRED_SPEEDUP,
        "peak_rss_mb": peak_rss_mb(),
    }
    persist_record(BENCH_PATH, record)

    print_table(
        ["path", "200-scenario study (s)"],
        [
            ["direct ScenarioEngine", direct_seconds],
            ["Study facade", facade_seconds],
        ],
        title=f"facade overhead {overhead_percent:+.1f}% "
        f"(ratio {speedup:.3f}, median of {len(ratios)}, floor {REQUIRED_SPEEDUP})",
    )

    # Same physics, bit for bit: the facade adds structure, not arithmetic.
    assert np.array_equal(
        facade_result.array("block_temperatures"), direct_batch.block_temperatures
    )
    assert np.array_equal(facade_result.array("converged"), direct_batch.converged)

    assert speedup >= REQUIRED_SPEEDUP
