"""Scenario engine: batched fixed points vs the scalar engine oracle.

The batched :class:`~repro.core.cosim.scenarios.ScenarioEngine` must
reproduce the looped :class:`~repro.core.cosim.engine.ElectroThermalEngine`
scenario-for-scenario (temperatures, convergence verdicts, iteration
counts, power breakdowns), reuse the cached geometry-only resistance
reduction across scenarios and engines, and be invariant under
permutation of the scenario order (each row's trajectory is independent).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cosim import (
    Scenario,
    ScenarioColumns,
    ScenarioEngine,
    ScenarioGrid,
    ScenarioPhysics,
    scenario_grid,
    unit_resistance_matrix,
)
from repro.core.cosim.resistance_cache import cache_size, clear_cache
from repro.floorplan import three_block_floorplan
from repro.technology import cmos_012um, make_technology

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC_REF = {"core": 0.045, "cache": 0.018, "io": 0.008}


@pytest.fixture(scope="module")
def plan():
    return three_block_floorplan()


@pytest.fixture(scope="module")
def engine(plan):
    return ScenarioEngine(plan, DYNAMIC, STATIC_REF)


@pytest.fixture(scope="module")
def grid():
    technologies = [make_technology(name) for name in ("0.18um", "0.12um", "70nm")]
    return scenario_grid(
        technologies,
        supply_scales=(0.9, 1.0, 1.1),
        ambient_temperatures=(298.15, 338.15),
        activities=(0.5, 1.0),
    )


class TestScenario:
    def test_defaults_come_from_the_technology(self):
        technology = cmos_012um()
        scenario = Scenario(technology)
        assert scenario.vdd == technology.vdd
        assert scenario.supply_scale == 1.0
        assert scenario.ambient == technology.thermal.ambient_temperature
        assert scenario.activity_factor("core") == 1.0

    def test_mapping_activity_defaults_to_unity(self):
        scenario = Scenario(cmos_012um(), activity={"core": 1.5})
        assert scenario.activity_factor("core") == 1.5
        assert scenario.activity_factor("io") == 1.0

    def test_validation(self):
        technology = cmos_012um()
        with pytest.raises(ValueError):
            Scenario(technology, supply_voltage=-1.0)
        with pytest.raises(ValueError):
            Scenario(technology, ambient_temperature=0.0)
        with pytest.raises(ValueError):
            Scenario(technology, activity=-0.5)
        with pytest.raises(ValueError):
            Scenario(technology, activity={"core": -2.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_are_rejected_by_name(self, value):
        technology = cmos_012um()
        for field_name in ("supply_voltage", "ambient_temperature", "activity"):
            with pytest.raises(ValueError, match=f"{field_name} must be finite"):
                Scenario(technology, **{field_name: value})
        with pytest.raises(ValueError, match=r"activity\['core'\] must be finite"):
            Scenario(technology, activity={"core": value, "io": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_grid_rejects_non_finite_axes_eagerly(self, value):
        technologies = [cmos_012um()]
        for axis in ("supply_scales", "ambient_temperatures"):
            with pytest.raises(ValueError, match=f"{axis} must be finite"):
                ScenarioGrid(technologies, **{axis: (1.0, value)})
        with pytest.raises(ValueError, match="activity must be finite"):
            scenario_grid(technologies, activities=(value,))

    def test_describe_mentions_the_node(self):
        scenario = Scenario(cmos_012um(), ambient_temperature=318.15)
        assert "0.12um" in scenario.describe()
        assert Scenario(cmos_012um(), label="hot").describe() == "hot"

    def test_grid_is_the_full_cross_product(self):
        technologies = [make_technology("0.18um"), make_technology("0.12um")]
        scenarios = scenario_grid(
            technologies,
            supply_scales=(0.9, 1.0),
            ambient_temperatures=(None, 338.15),
            activities=(1.0, 0.5, 0.25),
        )
        assert len(scenarios) == 2 * 2 * 2 * 3
        assert scenarios[0].technology is technologies[0]
        with pytest.raises(ValueError):
            scenario_grid([])

    def test_grid_accepts_one_shot_iterators(self):
        technologies = [make_technology("0.18um"), make_technology("0.12um")]
        scenarios = scenario_grid(
            technologies,
            supply_scales=iter([0.9, 1.0]),
            ambient_temperatures=iter([298.15, 338.15]),
            activities=iter([0.5, 1.0]),
        )
        assert len(scenarios) == 2 * 2 * 2 * 2


def _reference_grid(technologies, supply_scales, ambient_temperatures, activities):
    """The cross product built one scenario object per row, as a nested
    loop: the independent oracle of the columnar grid."""
    return [
        Scenario(
            technology=technology,
            supply_voltage=scale * technology.vdd,
            ambient_temperature=ambient,
            activity=activity,
        )
        for technology in technologies
        for scale in supply_scales
        for ambient in ambient_temperatures
        for activity in activities
    ]


class TestScenarioColumns:
    @pytest.fixture(scope="class")
    def axes(self):
        node = make_technology("0.18um")
        # A node whose default ambient differs, for the None ambients.
        warm = make_technology("70nm")
        warm = replace(warm, thermal=replace(warm.thermal, ambient_temperature=333.15))
        # A repeated node, None ambients, a per-block activity mapping, and
        # a scale whose (s * Vdd) / Vdd round trip is not s at 1.8 V.
        return dict(
            technologies=[node, warm, node],
            supply_scales=(0.814, 0.9, 1.1),
            ambient_temperatures=(None, 318.15),
            activities=(0.5, {"core": 1.5, "io": 0.25}),
        )

    def test_grid_rows_equal_the_reference_field_for_field(self, axes):
        reference = _reference_grid(**axes)
        columns = ScenarioGrid(**axes)[:]
        listed = scenario_grid(**axes)
        assert len(columns) == len(listed) == len(reference) == 36
        for index, expected in enumerate(reference):
            for row in (columns[index], listed[index]):
                assert row.technology is expected.technology
                assert row.supply_voltage.hex() == expected.supply_voltage.hex()
                assert row.ambient_temperature == expected.ambient_temperature
                assert row.activity == expected.activity
                assert row.label == expected.label == ""
            assert columns.supply_scale[index] == expected.supply_scale
            assert columns.vdd[index] == expected.vdd
            assert columns.ambient[index] == expected.ambient
        assert columns.supply_scale[0] != 0.814
        assert {columns.ambient[0], columns.ambient[12]} == {298.15, 333.15}

    def test_slices_are_columns_of_the_same_rows(self, axes):
        grid = ScenarioGrid(**axes)
        rows = grid[:]
        for start, stop in ((0, 7), (5, 29), (30, 36), (36, 36)):
            window = grid[start:stop]
            assert isinstance(window, ScenarioColumns)
            assert list(window) == list(rows[start:stop])
            assert np.array_equal(window.supply_scale, rows.supply_scale[start:stop])

    def test_explicit_scenarios_round_trip(self):
        technology = cmos_012um()
        scenarios = [
            Scenario(technology),
            Scenario(technology, supply_voltage=1.05, label="fast"),
            Scenario(make_technology("70nm"), ambient_temperature=330.0),
            Scenario(technology, activity={"core": 0.25}),
        ]
        columns = ScenarioColumns.from_scenarios(scenarios)
        assert len(columns) == 4
        assert list(columns) == scenarios
        assert columns[0].technology is columns[1].technology is technology
        assert list(columns[1:3]) == scenarios[1:3]
        assert [columns.vdd[i] for i in range(4)] == [s.vdd for s in scenarios]
        assert [columns.ambient[i] for i in range(4)] == [
            s.ambient for s in scenarios
        ]

    def test_concatenate_keeps_every_row(self, engine, axes):
        technology = cmos_012um()
        explicit = ScenarioColumns.from_scenarios(
            [
                Scenario(technology, supply_voltage=1.05, label="fast"),
                Scenario(technology, activity={"cache": 0.75}),
            ]
        )
        parts = [ScenarioGrid(**axes)[3:9], explicit, ScenarioGrid(**axes)[30:36]]
        merged = ScenarioColumns.concatenate(parts)
        rows = [row for part in parts for row in part]
        assert len(merged) == len(rows) == 14
        assert list(merged) == rows
        assert merged.labels[6:8] == ("fast", "") and merged.labels[0] == ""
        for name in ("vdd", "supply_scale", "ambient"):
            assert np.array_equal(
                getattr(merged, name),
                np.concatenate([getattr(part, name) for part in parts]),
            )
        # Staging the merged columns stages every part's own floats.
        physics = ScenarioPhysics(engine, merged)
        start = 0
        for part in parts:
            alone = ScenarioPhysics(engine, part)
            window = slice(start, start + len(part))
            assert np.array_equal(physics.dynamic[window], alone.dynamic)
            assert np.array_equal(physics.static_ref[window], alone.static_ref)
            start += len(part)

    def test_describe_matches_the_scenario_objects(self, axes):
        technology = cmos_012um()
        explicit = ScenarioColumns.from_scenarios(
            [Scenario(technology, label="hot"), Scenario(technology, 1.05, 330.0)]
        )
        for columns in (ScenarioGrid(**axes)[:], explicit):
            assert columns.describe() == [row.describe() for row in columns]

    def test_staging_matches_the_scalar_power_scaling(self, engine, axes):
        # The per-node fan-out stages exactly the floats the scalar oracle
        # derives scenario by scenario.
        reference = _reference_grid(**axes)
        physics = ScenarioPhysics(engine, ScenarioGrid(**axes))
        for index, scenario in enumerate(reference):
            dynamic, static = engine.scenario_block_powers(scenario)
            for column, name in enumerate(engine.block_names):
                assert physics.dynamic[index, column] == dynamic[name]
                assert physics.static_ref[index, column] == static[name]
            silicon = scenario.technology.thermal.silicon
            assert physics.conductivity[index] == silicon.conductivity_at(
                scenario.ambient
            )
            assert physics.ambient[index] == scenario.ambient
            thermal = scenario.technology.thermal
            assert physics.heat_sink[index] == thermal.heat_sink_resistance

    @pytest.mark.parametrize(
        "activities",
        [
            (0.5, 1, np.float32(0.1), 0.3, 1.25, 0.0),
            ({"core": 1.5, "io": 0.25}, {"cache": 0.1}, {}),
            (0.5, {"core": 1.5, "io": 0.25}, 0.3, {"cache": 0.1}, 2),
        ],
        ids=["scalar", "mapping", "mixed"],
    )
    def test_activity_matrix_matches_the_per_row_reference(self, engine, activities):
        # Explicit rows, a whole grid, and grid windows whose activity axis
        # outgrows the window (the activities in use are looked up alone):
        # every row holds exactly the factors its scenario object gives.
        names = engine.block_names
        technology = cmos_012um()
        explicit = ScenarioColumns.from_scenarios(
            [Scenario(technology, activity=activity) for activity in activities]
        )
        grid = ScenarioGrid([technology], (0.9, 1.1), activities=activities)
        windows = [explicit, explicit[1:3], grid[:], grid[2:4], grid[7:8], grid[3:3]]
        for columns in windows:
            matrix = columns.activity_matrix(names)
            expected = np.asarray(
                [[row.activity_factor(name) for name in names] for row in columns],
                dtype=float,
            ).reshape(len(columns), len(names))
            assert matrix.dtype == np.float64
            assert matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_bad_axis_values_are_rejected_by_name(self, value):
        technologies = [cmos_012um()]
        for axis in ("supply_scales", "ambient_temperatures"):
            with pytest.raises(ValueError, match=axis):
                ScenarioGrid(technologies, **{axis: (1.0, value)})
        if value == 0.0:  # a zero activity is a valid (idle) block
            return
        with pytest.raises(ValueError, match="activity"):
            ScenarioGrid(technologies, activities=(value,))
        with pytest.raises(ValueError, match="activity"):
            ScenarioGrid(technologies, activities=({"core": value},))


class TestEngineConstruction:
    def test_unknown_blocks_raise(self, plan):
        with pytest.raises(KeyError):
            ScenarioEngine(plan, {"rogue": 1.0}, {})
        with pytest.raises(ValueError):
            ScenarioEngine(plan, {}, {})

    def test_block_order_follows_the_floorplan(self, plan):
        engine = ScenarioEngine(plan, {"io": 0.1}, {"core": 0.2})
        assert engine.block_names == ("core", "io")

    def test_solve_validations(self, engine):
        scenario = Scenario(cmos_012um())
        with pytest.raises(ValueError):
            engine.solve([])
        with pytest.raises(ValueError):
            engine.solve([scenario], max_iterations=0)
        with pytest.raises(ValueError):
            engine.solve([scenario], tolerance=0.0)
        with pytest.raises(ValueError):
            engine.solve([scenario], damping=1.5)
        with pytest.raises(ValueError):
            engine.solve([scenario], max_temperature=200.0)
        for value in (math.nan, math.inf, -math.inf):
            for option in ("tolerance", "damping", "max_temperature"):
                with pytest.raises(ValueError, match=f"{option} must be finite"):
                    engine.solve([scenario], **{option: value})


class TestScalarParity:
    def test_batch_matches_looped_scalar_engine(self, engine, grid):
        batch = engine.solve(grid)
        assert len(batch) == len(grid)
        for index, scenario in enumerate(grid):
            reference = engine.solve_scalar(scenario)
            assert bool(batch.converged[index]) == reference.converged
            assert batch.iteration_counts[index] == reference.iteration_count
            for column, name in enumerate(engine.block_names):
                assert batch.block_temperatures[index, column] == pytest.approx(
                    reference.block_temperatures[name], abs=1e-9
                )
                breakdown = reference.block_breakdowns[name]
                assert batch.dynamic_power[index, column] == breakdown.switching
                assert batch.static_power[index, column] == pytest.approx(
                    breakdown.static, rel=1e-9
                )

    def test_scenario_result_round_trip(self, engine, grid):
        batch = engine.solve(grid)
        repacked = batch.scenario_result(0)
        reference = engine.solve_scalar(grid[0])
        assert repacked.converged == reference.converged
        assert repacked.total_power == pytest.approx(reference.total_power, rel=1e-9)
        assert repacked.hottest_block() == reference.hottest_block()
        assert repacked.ambient_temperature == reference.ambient_temperature

    def test_summaries_are_consistent(self, engine, grid):
        batch = engine.solve(grid)
        assert batch.hottest_blocks()[0] in engine.block_names
        assert np.all(batch.peak_rise >= 0.0)
        assert np.all(
            batch.total_power
            == pytest.approx(
                (batch.dynamic_power + batch.static_power).sum(axis=1)
            )
        )
        core = batch.temperatures_of("core")
        assert core.shape == (len(grid),)
        rows = batch.as_rows()
        assert len(rows) == len(grid)
        assert rows[0][0] == grid[0].describe()

    def test_hotter_ambient_means_hotter_blocks(self, engine):
        technology = cmos_012um()
        scenarios = [
            Scenario(technology, ambient_temperature=a)
            for a in (298.15, 318.15, 338.15)
        ]
        batch = engine.solve(scenarios)
        assert np.all(np.diff(batch.peak_temperature) > 0.0)

    def test_runaway_scenarios_report_non_convergence(self, engine):
        leaky = make_technology("25nm")
        scenario = Scenario(leaky, supply_voltage=1.4 * leaky.vdd,
                            ambient_temperature=400.0)
        batch = engine.solve([scenario])
        reference = engine.solve_scalar(scenario)
        assert bool(batch.converged[0]) == reference.converged


class TestResistanceCache:
    def test_engines_share_one_geometry_reduction(self, plan):
        clear_cache()
        first = unit_resistance_matrix(plan, ("core", "cache", "io"))
        assert cache_size() == 1
        again = unit_resistance_matrix(plan, ("core", "cache", "io"))
        assert again is first
        assert cache_size() == 1
        assert not again.flags.writeable
        # A different block subset is a different reduction.
        unit_resistance_matrix(plan, ("core", "io"))
        assert cache_size() == 2

    def test_scalar_engine_matrix_is_the_scaled_cache_entry(self, engine, plan):
        scenario = Scenario(cmos_012um(), ambient_temperature=318.15)
        scalar = engine.scalar_engine(scenario)
        unit = unit_resistance_matrix(plan, engine.block_names)
        assert np.allclose(
            scalar.resistance_matrix, unit / scalar.conductivity, rtol=1e-12
        )


class TestPermutationInvariance:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(permutation=st.permutations(list(range(12))))
    def test_results_are_permutation_invariant(self, engine, grid, permutation):
        base = grid[:12]
        reference = engine.solve(base)
        shuffled = [base[i] for i in permutation]
        permuted = engine.solve(shuffled)
        for new_row, old_row in enumerate(permutation):
            assert np.array_equal(
                permuted.block_temperatures[new_row],
                reference.block_temperatures[old_row],
            )
            assert permuted.converged[new_row] == reference.converged[old_row]
            assert (
                permuted.iteration_counts[new_row]
                == reference.iteration_counts[old_row]
            )
            assert np.array_equal(
                permuted.static_power[new_row], reference.static_power[old_row]
            )

    def test_subset_solves_match_the_full_batch(self, engine, grid):
        """Dropping scenarios does not perturb the remaining rows."""
        full = engine.solve(grid)
        subset = engine.solve(grid[::3])
        for row, index in enumerate(range(0, len(grid), 3)):
            assert np.array_equal(
                subset.block_temperatures[row], full.block_temperatures[index]
            )
