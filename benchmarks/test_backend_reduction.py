"""Backend-reduction throughput: factorize-once FDM and a seamless seam.

Two guarantees of the pluggable thermal-backend layer are tracked in
``BENCH_backends.json`` for ``check_floors.py``:

* the ``fdm`` backend's reduction — one ``splu`` factorization whose
  LU factors solve every block right-hand side — must be
  at least :data:`REQUIRED_SPEEDUP` times faster than the pre-backend
  per-RHS ``spsolve`` approach on the same assembled system (the tracked
  ``speedup`` ratio);
* the operator seam must not tax the analytical path: reducing through
  :class:`~repro.core.thermal.operator.AnalyticalImageOperator` +
  the shared cache is compared against the legacy inline arithmetic, and
  a 200-scenario analytical solve through the backend-aware
  :class:`~repro.core.cosim.scenarios.ScenarioEngine` is timed as the
  unregressed-throughput check (``analytical.seam_ratio`` floor
  :data:`SEAM_RATIO_FLOOR`).
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np
from conftest import best_of, interleaved_trials, peak_rss_mb, persist_record
from scipy.sparse.linalg import spsolve

from repro.core.cosim import ScenarioEngine, scenario_grid
from repro.core.cosim.resistance_cache import clear_cache
from repro.core.thermal.images import DieGeometry, ImageExpansion
from repro.core.thermal.kernel import pairwise_rise
from repro.core.thermal.operator import FdmOperator
from repro.floorplan import Block, Floorplan
from repro.reporting import print_table
from repro.technology.nodes import make_technology

#: FDM factorized reduction vs per-RHS spsolve (the ISSUE-5 floor).
REQUIRED_SPEEDUP = 5.0
#: The analytical operator seam must stay in the same ballpark as the
#: legacy inline reduction; in practice the ratio is ~1.0, but both
#: measurements are sub-millisecond, so the floor leaves scheduler-noise
#: headroom (the timed callables amortize over several reductions and
#: take the best of many repetitions to keep the ratio stable).
SEAM_RATIO_FLOOR = 0.6
#: Reductions per timed sample / repetitions for the sub-ms analytical
#: measurements.
ANALYTICAL_BATCH = 10
ANALYTICAL_REPETITIONS = 10

BLOCK_COLUMNS = 5
BLOCK_ROWS = 2
FDM_GRID = {"nx": 30, "ny": 30, "nz": 8}
REPETITIONS = 3

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_backends.json"


def many_block_floorplan() -> Floorplan:
    """Ten blocks on a 1 mm die: enough RHS columns to expose reuse."""
    die = DieGeometry(width=1.0e-3, length=1.0e-3, thickness=400.0e-6)
    cell_w = die.width / BLOCK_COLUMNS
    cell_l = die.length / BLOCK_ROWS
    blocks = [
        Block(
            name=f"b{row}{column}",
            x=(column + 0.5) * cell_w,
            y=(row + 0.5) * cell_l,
            width=0.6 * cell_w,
            length=0.6 * cell_l,
        )
        for row in range(BLOCK_ROWS)
        for column in range(BLOCK_COLUMNS)
    ]
    return Floorplan.from_blocks(die, blocks, name="ten_blocks")


def legacy_analytical_reduction(plan: Floorplan, names) -> np.ndarray:
    """The pre-backend inline arithmetic (the seam-overhead baseline)."""
    expansion = ImageExpansion(plan.die, rings=1, include_bottom_images=True)
    blocks = [plan.block(name) for name in names]
    expanded, groups = expansion.expand_arrays(
        [block.to_heat_source(1.0) for block in blocks]
    )
    observers = np.asarray([[block.x, block.y] for block in blocks])
    return pairwise_rise(
        observers, expanded, 1.0, groups=groups, group_count=len(blocks)
    )


def test_backend_reduction_throughput():
    plan = many_block_floorplan()
    names = plan.block_names()
    operator = FdmOperator(**FDM_GRID)

    # ---------------- FDM: factorized multi-RHS vs per-RHS spsolve ----- #
    # Both paths share the assembled stiffness matrix; the baseline is the
    # pre-backend behaviour of one full sparse solve per right-hand side.
    factorized_matrix = operator.reduce(plan, names)  # warm (includes splu)

    def per_rhs_spsolve() -> np.ndarray:
        from repro.core.thermal.operator import _UNIT_CONDUCTIVITY
        from repro.thermalsim.fdm import FiniteVolumeThermalSolver, RectangularSource

        solver = FiniteVolumeThermalSolver(
            die_width=plan.die.width,
            die_length=plan.die.length,
            die_thickness=plan.die.thickness,
            material=_UNIT_CONDUCTIVITY,
            ambient_temperature=300.0,
            **FDM_GRID,
        )
        matrix = solver.system_matrix()
        blocks = [plan.block(name) for name in names]
        reduction = np.empty((len(blocks), len(blocks)))
        for column, block in enumerate(blocks):
            rhs = solver._right_hand_side(
                [
                    RectangularSource(
                        x=block.x,
                        y=block.y,
                        width=block.width,
                        length=block.length,
                        power=1.0,
                    )
                ]
            )
            solution = solver._wrap(spsolve(matrix, rhs))
            for row, observer in enumerate(blocks):
                reduction[row, column] = solution.rise_at(
                    observer.x, observer.y, extrapolate=True
                )
        return reduction

    baseline_reduction = per_rhs_spsolve()  # warm scipy

    def factorized_reduce() -> np.ndarray:
        return FdmOperator(**FDM_GRID).reduce(plan, names)

    # The gate reads the median of interleaved trials, one reading of
    # each path per trial.
    pairs = interleaved_trials(
        lambda: best_of(per_rhs_spsolve, 1), lambda: best_of(factorized_reduce, 1)
    )
    ratios = [spsolve / factorized for spsolve, factorized in pairs]
    speedup = statistics.median(ratios)
    spsolve_seconds = statistics.median(spsolve for spsolve, _ in pairs)
    factorized_seconds = statistics.median(factorized for _, factorized in pairs)

    # Identical physics either way: the factorization only changes *how*
    # the linear system is solved.
    assert np.allclose(baseline_reduction, factorized_matrix, rtol=1e-8)

    # ---------------- analytical: the seam must stay free -------------- #
    def legacy_inline() -> None:
        for _ in range(ANALYTICAL_BATCH):
            legacy_analytical_reduction(plan, names)

    def operator_reduce() -> None:
        for _ in range(ANALYTICAL_BATCH):
            clear_cache()  # uncached: measure the reduction, not the dict hit
            ScenarioEngine(
                plan,
                {name: 0.05 for name in names},
                {name: 0.01 for name in names},
            )

    legacy_inline()
    operator_reduce()
    legacy_seconds = best_of(legacy_inline, ANALYTICAL_REPETITIONS) / ANALYTICAL_BATCH
    operator_seconds = (
        best_of(operator_reduce, ANALYTICAL_REPETITIONS) / ANALYTICAL_BATCH
    )
    seam_ratio = legacy_seconds / operator_seconds

    scenarios = scenario_grid(
        [make_technology(name) for name in ("0.18um", "0.12um")],
        supply_scales=(0.9, 1.0, 1.05, 1.1, 1.15),
        ambient_temperatures=(298.15, 318.15),
        activities=(0.25, 0.5, 0.75, 1.0, 1.25),
    )
    engine = ScenarioEngine(
        plan,
        {name: 0.05 for name in names},
        {name: 0.01 for name in names},
    )
    engine.solve(scenarios)  # warm
    solve_seconds = best_of(lambda: engine.solve(scenarios), REPETITIONS)

    record = {
        "benchmark": "backend_reduction",
        "blocks": len(names),
        "fdm_grid": dict(FDM_GRID),
        "fdm": {
            "per_rhs_spsolve_seconds": spsolve_seconds,
            "factorized_reduce_seconds": factorized_seconds,
        },
        "analytical": {
            "legacy_inline_seconds": legacy_seconds,
            "operator_reduce_seconds": operator_seconds,
            "seam_ratio": seam_ratio,
            "seam_ratio_floor": SEAM_RATIO_FLOOR,
            "scenario_count": len(scenarios),
            "scenario_solve_seconds": solve_seconds,
        },
        "speedup": speedup,
        "trial_speedups": ratios,
        "required_speedup": REQUIRED_SPEEDUP,
        "peak_rss_mb": peak_rss_mb(),
        # check_floors.py guards these beside the headline speedup.
        "auxiliary_ratios": [
            {
                "name": "analytical_seam_ratio",
                "value": seam_ratio,
                "floor": SEAM_RATIO_FLOOR,
            }
        ],
    }
    persist_record(BENCH_PATH, record)

    print_table(
        ["path", "10-block reduction (s)"],
        [
            ["fdm per-RHS spsolve", spsolve_seconds],
            ["fdm factorized (splu + multi-RHS)", factorized_seconds],
            ["analytical legacy inline", legacy_seconds],
            ["analytical via operator seam", operator_seconds],
        ],
        title=(
            f"fdm reduction speedup {speedup:.1f}x, median of {len(ratios)} "
            f"(floor {REQUIRED_SPEEDUP:g}x), "
            f"analytical seam ratio {seam_ratio:.2f} (floor {SEAM_RATIO_FLOOR})"
        ),
    )

    assert speedup >= REQUIRED_SPEEDUP
    assert seam_ratio >= SEAM_RATIO_FLOOR
