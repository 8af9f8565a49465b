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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cosim import (
    Scenario,
    ScenarioEngine,
    scenario_grid,
    scenario_grid_stream,
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
                scenario_grid_stream(technologies, **{axis: (1.0, value)})
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
