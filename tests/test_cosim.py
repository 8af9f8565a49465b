"""Tests for repro.core.cosim (coupling models and the electro-thermal engine)."""

import pytest

from repro.circuit.netlist import chain_of_inverters
from repro.core.cosim.coupling import (
    NetlistBlockModel,
    ScaledLeakageBlockModel,
    block_models_from_powers,
    leakage_temperature_ratio,
)
from repro.core.cosim.engine import ElectroThermalEngine
from repro.core.leakage.subthreshold import single_device_off_current
from repro.floorplan import three_block_floorplan


@pytest.fixture(scope="module")
def floorplan():
    return three_block_floorplan()


@pytest.fixture(scope="module")
def block_models(tech012):
    return block_models_from_powers(
        tech012,
        dynamic_powers={"core": 0.25, "cache": 0.10, "io": 0.05},
        static_powers_at_reference={"core": 0.05, "cache": 0.02, "io": 0.01},
    )


@pytest.fixture(scope="module")
def engine(tech012, floorplan, block_models):
    return ElectroThermalEngine(
        tech012, floorplan, block_models, ambient_temperature=318.15
    )


class TestLeakageTemperatureRatio:
    def test_unity_at_reference(self, tech012):
        assert leakage_temperature_ratio(
            tech012, tech012.reference_temperature
        ) == pytest.approx(1.0)

    def test_matches_direct_model(self, tech012):
        ratio = leakage_temperature_ratio(tech012, 368.15)
        hot = single_device_off_current(
            tech012.nmos, 1e-6, tech012.vdd, 368.15, tech012.reference_temperature
        )
        cold = single_device_off_current(
            tech012.nmos, 1e-6, tech012.vdd, tech012.reference_temperature,
            tech012.reference_temperature,
        )
        assert ratio == pytest.approx(hot / cold)

    def test_ratio_is_width_independent(self, tech012):
        # Eq. (13) is linear in width, so the ratio must not depend on it.
        assert leakage_temperature_ratio(tech012, 350.0) == pytest.approx(
            leakage_temperature_ratio(tech012, 350.0, device_type="nmos")
        )


class TestBlockModels:
    def test_scaled_leakage_block(self, tech012):
        model = ScaledLeakageBlockModel(
            name="core", technology=tech012, dynamic_power=0.2,
            static_power_at_reference=0.05,
        )
        cold = model.breakdown(tech012.reference_temperature)
        hot = model.breakdown(378.15)
        assert cold.static == pytest.approx(0.05)
        assert hot.static > 5.0 * cold.static
        assert hot.switching == pytest.approx(0.2)

    def test_scaled_block_validation(self, tech012):
        with pytest.raises(ValueError):
            ScaledLeakageBlockModel("x", tech012, -1.0, 0.1)

    @pytest.mark.parametrize(
        "powers, message",
        [
            ((float("nan"), 0.1), "dynamic_power must be finite"),
            ((float("inf"), 0.1), "dynamic_power must be finite"),
            ((0.2, float("nan")), "static_power_at_reference must be finite"),
            ((0.2, float("inf")), "static_power_at_reference must be finite"),
            ((0.2, -0.1), "static_power_at_reference must be non-negative"),
        ],
    )
    def test_scaled_block_names_each_bad_power(self, tech012, powers, message):
        with pytest.raises(ValueError, match=message):
            ScaledLeakageBlockModel("core", tech012, *powers)

    def test_factory_builds_all_blocks(self, tech012):
        models = block_models_from_powers(
            tech012, {"a": 1.0}, {"a": 0.1, "b": 0.2}
        )
        assert set(models) == {"a", "b"}
        assert models["b"].breakdown(tech012.reference_temperature).switching == 0.0

    def test_factory_requires_blocks(self, tech012):
        with pytest.raises(ValueError):
            block_models_from_powers(tech012, {}, {})

    def test_netlist_block_model(self, tech012):
        netlist = chain_of_inverters(tech012, 6)
        model = NetlistBlockModel(
            "whole", netlist, {"IN": 0}, tech012, use_whole_netlist=True
        )
        breakdown = model.breakdown(tech012.reference_temperature)
        assert breakdown.total > 0.0
        hot = model.breakdown(378.15)
        assert hot.static > breakdown.static

    def test_netlist_block_model_filters_by_block(self, tech012):
        netlist = chain_of_inverters(tech012, 3)
        model = NetlistBlockModel("missing", netlist, {"IN": 0}, tech012)
        assert model.breakdown(tech012.reference_temperature).total == 0.0


class TestEngine:
    def test_converges(self, engine):
        result = engine.solve()
        assert result.converged
        assert result.iteration_count >= 2

    def test_temperatures_above_ambient(self, engine):
        result = engine.solve()
        assert all(t > engine.ambient_temperature for t in result.block_temperatures.values())

    def test_hottest_block_is_the_most_powerful(self, engine):
        result = engine.solve()
        assert result.hottest_block() == "core"
        assert result.peak_rise > 0.0

    def test_coupled_static_exceeds_isothermal_static(self, engine, tech012):
        coupled = engine.solve()
        isothermal = engine.isothermal_result(engine.ambient_temperature)
        assert coupled.total_static_power > isothermal.total_static_power
        # Dynamic power is temperature independent.
        assert coupled.total_dynamic_power == pytest.approx(
            isothermal.total_dynamic_power
        )

    def test_resistance_matrix_properties(self, engine):
        matrix = engine.resistance_matrix
        assert matrix.shape == (3, 3)
        assert (matrix > 0.0).all()
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert matrix[i, i] > matrix[i, j]

    def test_damping_reaches_same_fixed_point(self, engine):
        plain = engine.solve(damping=1.0)
        damped = engine.solve(damping=0.5, max_iterations=200)
        for name in plain.block_temperatures:
            assert plain.block_temperatures[name] == pytest.approx(
                damped.block_temperatures[name], abs=0.05
            )

    def test_initial_temperature_guess_accepted(self, engine):
        result = engine.solve(initial_temperatures={"core": 340.0})
        assert result.converged

    def test_runaway_saturates_and_reports_failure(self, tech012, floorplan):
        hot_models = block_models_from_powers(
            tech012,
            {"core": 3.0, "cache": 1.0, "io": 0.5},
            {"core": 0.5, "cache": 0.3, "io": 0.1},
        )
        engine = ElectroThermalEngine(
            tech012, floorplan, hot_models, ambient_temperature=318.15
        )
        result = engine.solve(max_temperature=450.0)
        assert not result.converged
        assert result.peak_temperature <= 450.0 + 1e-9

    def test_thermal_model_from_result(self, engine, floorplan):
        result = engine.solve()
        chip = engine.thermal_model(result)
        core = floorplan.block("core")
        # The full analytical map at the converged powers reproduces the
        # reduced-matrix block temperature closely.
        assert chip.temperature_at(core.x, core.y) == pytest.approx(
            result.block_temperatures["core"], abs=1.5
        )

    def test_validation(self, tech012, floorplan, block_models):
        with pytest.raises(KeyError):
            ElectroThermalEngine(
                tech012, floorplan,
                {"bogus": ScaledLeakageBlockModel("bogus", tech012, 0.1, 0.01)},
            )
        with pytest.raises(ValueError):
            ElectroThermalEngine(tech012, floorplan, {})
        engine = ElectroThermalEngine(tech012, floorplan, block_models)
        with pytest.raises(ValueError):
            engine.solve(max_iterations=0)
        with pytest.raises(ValueError):
            engine.solve(tolerance=-1.0)
        with pytest.raises(ValueError):
            engine.solve(damping=1.5)
        with pytest.raises(ValueError):
            engine.solve(max_temperature=100.0)

    def test_iteration_history_recorded(self, engine):
        result = engine.solve()
        assert len(result.iterations) == result.iteration_count
        assert result.iterations[0].index == 0
        # Convergence metric shrinks over the iterations.
        changes = [it.max_temperature_change for it in result.iterations[1:]]
        assert changes[-1] < changes[0]
