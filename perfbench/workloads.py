"""Seeded inputs of the benchmark workloads, as plain JSON-ready data.

Every workload is a function of its seed only: the same seed gives the same
study specs, byte for byte.  The program under test receives these
dictionaries through its public entry points (``StudySpec.from_dict`` or
``POST /run``); nothing here imports ``repro``.

Seeds move the values on every axis (supplies, ambients, activities, block
geometry and powers) while the sizes stay fixed, so the work per study is
the same from seed to seed and throughput comparisons across seeds are fair.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Tuple

#: Per-block reference powers [W] of the three-block floorplan.
DYNAMIC_POWERS = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC_POWERS = {"core": 0.045, "cache": 0.018, "io": 0.008}

#: Nodes of the streamed grids.  Every corner of these grids converges
#: (no runaway rows), so every row does comparable fixed-point work.
GRID_NODES = ("0.18um", "0.13um", "0.12um")
TRANSIENT_NODES = ("0.18um", "0.13um")

#: Axis lengths: 3 x 20 x 40 x 100 = 240,000 rows.
GRID_AXES = (len(GRID_NODES), 20, 40, 100)
#: Axis lengths: 2 x 10 x 20 x 50 = 20,000 rows.
TRANSIENT_AXES = (len(TRANSIENT_NODES), 10, 20, 50)
#: 20 ms at 0.1 ms: 201 time steps (the PWM edges fall on the grid).
TRANSIENT_DURATION = 20e-3
TRANSIENT_STEP = 0.1e-3
PWM = {"periods": 4e-3, "duty_cycles": 0.5}
TIME_CONSTANTS = {"core": 2e-3, "cache": 1.5e-3, "io": 1e-3}

#: Thermal map: a 3 x 3 block array on a 2 mm die, 2 image rings.
MAP_SAMPLES = (200, 200)
MAP_RINGS = 2
MAP_DIE = 2e-3

#: Serve request classes, one of each per block (order shuffled by the
#: seed).  No traffic has been recorded for ``repro serve``, so the shares
#: are an assumption: every serve path the repository names gets the same
#: weight.  ``repeat`` is the warm (result-cache hit) mode and
#: ``fresh_floorplan`` the cold engine-compile mode of ROADMAP item 2;
#: ``steady``, ``transient``, ``optimize`` and ``streamed`` take their
#: sizes from ``examples/study_steady.json``, ``study_transient.json``,
#: ``study_optimize.json`` (cut to one generation, the ROADMAP's
#: "one optimize generation") and ``study_streamed_grid.json``.
SERVE_MIX = ("steady", "repeat", "fresh_floorplan", "transient", "optimize", "streamed")
#: Scenarios per steady request and per transient request (the examples').
SERVE_STEADY_SCENARIOS = 24
SERVE_TRANSIENT_SCENARIOS = 6
#: Transient of ``examples/study_transient.json``: 40 ms at 0.5 ms, PWM.
SERVE_TRANSIENT = {"duration": 40e-3, "time_step": 0.5e-3}
#: Streamed grid of ``examples/study_streamed_grid.json``: 5 x 6 x 8 x 9
#: = 2160 rows in chunks of 256, reduced.
SERVE_STREAM_AXES = (5, 6, 8, 9)
SERVE_STREAM_NODES = ("0.25um", "0.18um", "0.13um", "0.12um", "0.10um")
SERVE_STREAM_CHUNK = 256
#: One generation of a random supply search.
SERVE_GENERATION = 16
#: Distinct floorplans the warm steady/transient/optimize requests share.
SERVE_FLOORPLANS = 4
#: A repeat re-sends one of this many most recent distinct requests.
SERVE_REPEAT_WINDOW = 32


def _uniform_axis(rng: random.Random, low: float, high: float, count: int) -> List[float]:
    return sorted(rng.uniform(low, high) for _ in range(count))


def three_block_floorplan(
    rng: random.Random = None, jitter: float = 0.0
) -> Dict[str, Any]:
    """The paper's Fig. 6 three-block layout on a 1 mm die, as plain data.

    With ``jitter`` > 0 each block centre moves by up to that fraction of
    the die, which yields a new floorplan (a new engine hash) of the same
    size.
    """
    layout = (
        ("core", 0.30, 0.62, 0.34, 0.30),
        ("cache", 0.72, 0.70, 0.26, 0.22),
        ("io", 0.55, 0.25, 0.30, 0.18),
    )
    die = 1e-3
    blocks = []
    for name, x, y, width, length in layout:
        if jitter:
            x += rng.uniform(-jitter, jitter)
            y += rng.uniform(-jitter, jitter)
        blocks.append(
            {
                "name": name,
                "x": x * die,
                "y": y * die,
                "width": width * die,
                "length": length * die,
            }
        )
    return {
        "die_width": die,
        "die_length": die,
        "die_thickness": 500e-6,
        "blocks": blocks,
        "name": "three_blocks",
    }


def grid_stream(seed: int) -> Dict[str, Any]:
    """A streamed, reduced steady study over a 240,000-row 4-axis grid."""
    rng = random.Random(f"grid_stream:{seed}")
    _, supplies, ambients, activities = GRID_AXES
    return {
        "kind": "steady",
        "floorplan": three_block_floorplan(),
        "dynamic_powers": dict(DYNAMIC_POWERS),
        "static_powers": dict(STATIC_POWERS),
        "scenario_grid": {
            "technologies": [{"node": node} for node in GRID_NODES],
            "supply_scales": _uniform_axis(rng, 0.85, 1.0, supplies),
            "ambient_temperatures": _uniform_axis(rng, 288.15, 328.15, ambients),
            "activities": _uniform_axis(rng, 0.2, 1.0, activities),
        },
        "reduction": True,
        "label": f"grid_stream seed {seed}",
    }


def transient_pwm(seed: int) -> Dict[str, Any]:
    """A streamed, reduced PWM transient over a 20,000-row grid."""
    rng = random.Random(f"transient_pwm:{seed}")
    _, supplies, ambients, activities = TRANSIENT_AXES
    return {
        "kind": "transient",
        "floorplan": three_block_floorplan(),
        "dynamic_powers": dict(DYNAMIC_POWERS),
        "static_powers": dict(STATIC_POWERS),
        "scenario_grid": {
            "technologies": [{"node": node} for node in TRANSIENT_NODES],
            "supply_scales": _uniform_axis(rng, 0.85, 1.0, supplies),
            "ambient_temperatures": _uniform_axis(rng, 288.15, 328.15, ambients),
            "activities": _uniform_axis(rng, 0.2, 1.0, activities),
        },
        "reduction": True,
        "duration": TRANSIENT_DURATION,
        "time_step": TRANSIENT_STEP,
        "workload": {"kind": "pwm", "parameters": dict(PWM)},
        "time_constants": dict(TIME_CONSTANTS),
        "label": f"transient_pwm seed {seed}",
    }


def thermal_map(seed: int) -> Dict[str, Any]:
    """A 200 x 200 surface map of nine jittered blocks on a 2 mm die."""
    rng = random.Random(f"thermal_map:{seed}")
    pitch = MAP_DIE / 3
    blocks, powers = [], {}
    for row in range(3):
        for column in range(3):
            name = f"b{row}{column}"
            blocks.append(
                {
                    "name": name,
                    "x": (row + 0.5 + rng.uniform(-0.1, 0.1)) * pitch,
                    "y": (column + 0.5 + rng.uniform(-0.1, 0.1)) * pitch,
                    "width": rng.uniform(0.35, 0.6) * pitch,
                    "length": rng.uniform(0.35, 0.6) * pitch,
                }
            )
            powers[name] = rng.uniform(0.05, 0.5)
    return {
        "kind": "thermal_map",
        "floorplan": {
            "die_width": MAP_DIE,
            "die_length": MAP_DIE,
            "die_thickness": 0.4e-3,
            "blocks": blocks,
            "name": "nine_blocks",
        },
        "block_powers": powers,
        "technology": {"node": "0.12um"},
        "map_samples": list(MAP_SAMPLES),
        "image_rings": MAP_RINGS,
        "label": f"thermal_map seed {seed}",
    }


def _scenarios(rng: random.Random, count: int) -> List[Dict[str, Any]]:
    return [
        {
            "technology": {"node": rng.choice(("0.18um", "0.13um", "0.12um"))},
            "supply_scale": rng.uniform(0.85, 1.0),
            "ambient_temperature": rng.uniform(288.15, 328.15),
            "activity": rng.uniform(0.2, 1.0),
        }
        for _ in range(count)
    ]


def _serve_request(kind: str, rng: random.Random, floorplans, index: int):
    common = {
        "dynamic_powers": dict(DYNAMIC_POWERS),
        "static_powers": dict(STATIC_POWERS),
        "label": f"serve request {index}",
    }
    if kind == "steady":
        return {
            "kind": "steady",
            "floorplan": rng.choice(floorplans),
            "scenarios": _scenarios(rng, SERVE_STEADY_SCENARIOS),
            **common,
        }
    if kind == "fresh_floorplan":
        return {
            "kind": "steady",
            "floorplan": three_block_floorplan(rng, jitter=0.05),
            "scenarios": _scenarios(rng, SERVE_STEADY_SCENARIOS),
            **common,
        }
    if kind == "transient":
        return {
            "kind": "transient",
            "floorplan": rng.choice(floorplans),
            "scenarios": _scenarios(rng, SERVE_TRANSIENT_SCENARIOS),
            "workload": {"kind": "pwm", "parameters": dict(PWM)},
            "time_constants": dict(TIME_CONSTANTS),
            **SERVE_TRANSIENT,
            **common,
        }
    if kind == "streamed":
        _, supplies, ambients, activities = SERVE_STREAM_AXES
        return {
            "kind": "steady",
            "floorplan": rng.choice(floorplans),
            "scenario_grid": {
                "technologies": [{"node": node} for node in SERVE_STREAM_NODES],
                "supply_scales": _uniform_axis(rng, 0.85, 1.0, supplies),
                "ambient_temperatures": _uniform_axis(rng, 288.15, 328.15, ambients),
                "activities": _uniform_axis(rng, 0.2, 1.0, activities),
            },
            "chunk_size": SERVE_STREAM_CHUNK,
            "reduction": True,
            **common,
        }
    # optimize: one generation of a random supply search, two operating points.
    return {
        "kind": "optimize",
        "floorplan": rng.choice(floorplans),
        "scenarios": _scenarios(rng, 2),
        "optimize": {
            "problem": "supply",
            "objective": "total_power",
            "constraints": {"temperature_cap": 360.0},
            "strategy": "random",
            "budget": SERVE_GENERATION,
            "generation_size": SERVE_GENERATION,
            "seed": rng.randrange(1000),
        },
        **common,
    }


def serve_mixed(seed: int) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """The endless seeded serve stream: ``(kind, request)`` pairs.

    Requests come in blocks holding each class of :data:`SERVE_MIX` once,
    in a seeded order, so every long prefix of the stream has the same
    mix of kinds whatever the seed.  A repeat is an
    exact copy of one of the last :data:`SERVE_REPEAT_WINDOW` distinct
    requests (a result-cache hit unless that request is still in flight);
    a fresh floorplan is a jittered layout never sent before (an
    engine-cache miss).
    """
    rng = random.Random(f"serve_mixed:{seed}")
    floorplans = [
        three_block_floorplan(rng, jitter=0.05) for _ in range(SERVE_FLOORPLANS)
    ]
    recent: List[Dict[str, Any]] = []
    index = 0
    while True:
        order = list(SERVE_MIX)
        rng.shuffle(order)
        for kind in order:
            if kind == "repeat" and recent:
                request = rng.choice(recent)
            else:
                kind = "steady" if kind == "repeat" else kind
                request = _serve_request(kind, rng, floorplans, index)
                recent = (recent + [request])[-SERVE_REPEAT_WINDOW:]
            index += 1
            yield kind, request


#: The in-process workloads: name -> spec builder.
SPECS = {
    "grid_stream": grid_stream,
    "transient_pwm": transient_pwm,
    "thermal_map": thermal_map,
}


def setup_spec(name: str, seed: int) -> Dict[str, Any]:
    """The workload's spec shrunk to its smallest size (the set-up probe).

    Same kind, floorplan and options as the full study, so a fresh
    interpreter that runs it pays import, spec validation, engine compile
    and first-call costs, but not the workload's bulk.
    """
    spec = SPECS[name](seed)
    grid = spec.get("scenario_grid")
    if grid is not None:
        spec["scenario_grid"] = {
            key: value[:1] if isinstance(value, list) else value
            for key, value in grid.items()
        }
    if spec["kind"] == "thermal_map":
        spec["map_samples"] = [2, 2]
    return spec
