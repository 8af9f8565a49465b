"""The ``xp`` seam under a non-numpy Array-API namespace.

Every test runs the engines' one functional implementation under a
foreign namespace and pins its float64 results to the numpy run
**exactly**: the same per-element operations execute in the same order, so
IEEE determinism makes the agreement bit-for-bit, not approximate.  (The
golden digests in ``tests/test_api.py`` pin the numpy results themselves.)

Two namespaces are exercised:

* :mod:`xp_proxy` — the suite's own numpy-delegating wrapper, always
  available, proving the generic branches run and agree;
* ``array_api_strict`` — the standard's reference implementation
  (CI ``array-api`` job; skipped locally when not installed), proving no
  NumPy-only idiom leaks through the seam.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend import (
    get_namespace,
    resolve_namespace,
    to_numpy,
)
from repro.core.cosim import Scenario, ScenarioEngine
from repro.core.cosim.transient_scenarios import (
    PWMActivity,
    StepActivity,
    TransientScenarioEngine,
)
from repro.core.leakage import kernel as leakage_kernel
from repro.core.thermal import kernel as thermal_kernel
from repro.core.thermal.sources import HeatSource
from repro.floorplan import three_block_floorplan
from repro.technology import make_technology

from xp_proxy import xp_proxy

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC_REF = {"core": 0.045, "cache": 0.018, "io": 0.008}


def _namespaces():
    namespaces = [pytest.param(xp_proxy, id="xp_proxy")]
    try:
        import array_api_strict
    except ImportError:
        namespaces.append(
            pytest.param(
                None,
                id="array_api_strict",
                marks=pytest.mark.skip(reason="array_api_strict not installed"),
            )
        )
    else:
        namespaces.append(pytest.param(array_api_strict, id="array_api_strict"))
    return namespaces


@pytest.fixture(params=_namespaces())
def ns(request):
    return request.param


@pytest.fixture(scope="module")
def scenarios():
    technologies = [make_technology(name) for name in ("0.18um", "0.12um", "70nm")]
    return [
        Scenario(
            technology,
            supply_voltage=technology.vdd * scale,
            ambient_temperature=ambient,
            activity=activity,
        )
        for technology in technologies
        for scale in (0.9, 1.1)
        for ambient, activity in ((298.15, 1.0), (348.15, 0.4))
    ]


def _sources():
    return [
        HeatSource(x=0.2e-3, y=0.3e-3, width=0.25e-3, length=0.12e-3, power=0.8),
        HeatSource(x=0.7e-3, y=0.6e-3, width=0.1e-3, length=0.4e-3, power=0.35),
        HeatSource(x=0.5e-3, y=0.5e-3, width=0.2e-3, length=0.2e-3, power=-0.2,
                   depth=0.3e-3),
        HeatSource(x=0.8e-3, y=0.2e-3, width=0.05e-3, length=0.3e-3, power=0.5,
                   depth=0.5e-3),
    ]


def _points():
    rng = np.random.default_rng(20050307)
    return rng.uniform(0.0, 1e-3, size=(37, 2))


class TestNamespaceResolution:
    def test_proxy_arrays_resolve_to_the_proxy_namespace(self):
        array = xp_proxy.asarray([1.0, 2.0])
        assert get_namespace(array) is xp_proxy

    def test_namespace_objects_pass_through_resolution(self, ns):
        assert resolve_namespace(ns) is ns


class TestThermalKernel:
    def test_temperature_rise_matches_numpy_bitwise(self, ns):
        sources = _sources()
        points = _points()
        reference = thermal_kernel.temperature_rise(
            points, thermal_kernel.SourceArray.from_sources(sources), 120.0
        )
        generic = thermal_kernel.temperature_rise(
            ns.asarray(points),
            thermal_kernel.SourceArray.from_sources(sources, xp=ns),
            120.0,
        )
        np.testing.assert_array_equal(to_numpy(generic), reference)

    def test_temperature_rise_chunked_matches_monolithic(self, ns):
        sources = _sources()
        points = _points()
        array = thermal_kernel.SourceArray.from_sources(sources, xp=ns)
        monolithic = thermal_kernel.temperature_rise(
            ns.asarray(points), array, 120.0
        )
        chunked = thermal_kernel.temperature_rise(
            ns.asarray(points), array, 120.0, chunk_elements=16
        )
        np.testing.assert_array_equal(to_numpy(chunked), to_numpy(monolithic))

    def test_pairwise_rise_matches_numpy_bitwise(self, ns):
        sources = _sources()
        points = _points()
        groups = np.asarray([0, 1, 0, 1])
        reference = thermal_kernel.pairwise_rise(
            points,
            thermal_kernel.SourceArray.from_sources(sources),
            120.0,
            groups=groups,
            group_count=2,
        )
        generic = thermal_kernel.pairwise_rise(
            ns.asarray(points),
            thermal_kernel.SourceArray.from_sources(sources, xp=ns),
            120.0,
            groups=groups,
            group_count=2,
        )
        np.testing.assert_array_equal(to_numpy(generic), reference)


class TestLeakageKernel:
    def test_safe_exp_clips_in_any_namespace(self, ns):
        values = ns.asarray([-2000.0, -1.0, 0.0, 1.0, 2000.0])
        result = to_numpy(leakage_kernel.safe_exp(values))
        reference = leakage_kernel.safe_exp(
            np.asarray([-2000.0, -1.0, 0.0, 1.0, 2000.0])
        )
        np.testing.assert_array_equal(result, reference)

    def test_subthreshold_current_matches_numpy_bitwise(self, ns, tech012):
        rng = np.random.default_rng(7)
        count = 9
        widths = rng.uniform(0.05e-6, 20e-6, count)
        vgs = rng.uniform(-0.3, 0.4, count)
        vds = rng.uniform(0.005, tech012.vdd, count)
        vsb = rng.uniform(0.0, 0.5, count)
        temperatures = rng.uniform(280.0, 400.0, count)
        reference = leakage_kernel.subthreshold_current(
            leakage_kernel.DeviceArray.from_device(tech012.nmos),
            widths,
            vgs,
            vds,
            vsb,
            tech012.vdd,
            temperatures,
            tech012.reference_temperature,
        )
        generic = leakage_kernel.subthreshold_current(
            leakage_kernel.DeviceArray.from_device(tech012.nmos, xp=ns),
            ns.asarray(widths),
            ns.asarray(vgs),
            ns.asarray(vds),
            ns.asarray(vsb),
            tech012.vdd,
            ns.asarray(temperatures),
            tech012.reference_temperature,
        )
        np.testing.assert_array_equal(to_numpy(generic), reference)

    def test_collapse_stacks_matches_numpy_bitwise(self, ns, tech012):
        chains = [[1.0e-6, 2.0e-6, 1.5e-6], [0.6e-6, 0.6e-6, 0.6e-6]]
        temperatures = np.asarray([318.15, 358.15])
        reference = leakage_kernel.collapse_stacks(
            leakage_kernel.StackArray.from_chains(chains),
            leakage_kernel.DeviceArray.from_device(tech012.nmos),
            tech012.vdd,
            temperatures,
        )
        generic = leakage_kernel.collapse_stacks(
            leakage_kernel.StackArray.from_chains(chains, xp=ns),
            leakage_kernel.DeviceArray.from_device(tech012.nmos, xp=ns),
            tech012.vdd,
            ns.asarray(temperatures),
        )
        np.testing.assert_array_equal(
            to_numpy(generic.effective_width), reference.effective_width
        )
        np.testing.assert_array_equal(
            to_numpy(generic.node_voltages), reference.node_voltages
        )
        np.testing.assert_array_equal(
            to_numpy(generic.top_node_voltage), reference.top_node_voltage
        )


class TestSteadyEngine:
    def test_solve_matches_numpy_bitwise(self, ns, scenarios):
        plan = three_block_floorplan()
        reference = ScenarioEngine(plan, DYNAMIC, STATIC_REF).solve(scenarios)
        result = ScenarioEngine(
            plan, DYNAMIC, STATIC_REF, array_backend=ns
        ).solve(scenarios)
        np.testing.assert_array_equal(
            result.block_temperatures, reference.block_temperatures
        )
        np.testing.assert_array_equal(result.static_power, reference.static_power)
        np.testing.assert_array_equal(result.converged, reference.converged)
        np.testing.assert_array_equal(
            result.iteration_counts, reference.iteration_counts
        )

    def test_results_leave_the_engine_as_numpy(self, ns, scenarios):
        result = ScenarioEngine(
            three_block_floorplan(), DYNAMIC, STATIC_REF, array_backend=ns
        ).solve(scenarios[:3])
        assert isinstance(result.block_temperatures, np.ndarray)
        assert result.block_temperatures.dtype == np.float64


class TestTransientEngine:
    def test_simulate_matches_numpy_bitwise(self, ns, scenarios):
        plan = three_block_floorplan()
        activity = StepActivity(before=0.3, after=1.0, switch_times=4e-3)
        kwargs = dict(
            duration=2e-2,
            time_step=1e-3,
            activity=activity,
            settle_tolerance=1e-4,
        )
        reference = TransientScenarioEngine(
            ScenarioEngine(plan, DYNAMIC, STATIC_REF)
        ).simulate(scenarios, **kwargs)
        result = TransientScenarioEngine(
            ScenarioEngine(plan, DYNAMIC, STATIC_REF, array_backend=ns)
        ).simulate(scenarios, **kwargs)
        np.testing.assert_array_equal(result.times, reference.times)
        np.testing.assert_array_equal(
            result.block_temperatures, reference.block_temperatures
        )
        np.testing.assert_array_equal(result.block_powers, reference.block_powers)
        np.testing.assert_array_equal(result.runaway, reference.runaway)
        np.testing.assert_array_equal(result.runaway_times, reference.runaway_times)

    def test_pwm_workload_matches_numpy_bitwise(self, ns, scenarios):
        plan = three_block_floorplan()
        activity = PWMActivity(periods=5e-3, duty_cycles=0.4)
        kwargs = dict(duration=1.5e-2, time_step=1e-3, activity=activity)
        reference = TransientScenarioEngine(
            ScenarioEngine(plan, DYNAMIC, STATIC_REF)
        ).simulate(scenarios[:4], **kwargs)
        result = TransientScenarioEngine(
            ScenarioEngine(plan, DYNAMIC, STATIC_REF, array_backend=ns)
        ).simulate(scenarios[:4], **kwargs)
        np.testing.assert_array_equal(
            result.block_temperatures, reference.block_temperatures
        )
        np.testing.assert_array_equal(result.block_powers, reference.block_powers)

    def test_runaway_detection_matches_numpy(self, ns, scenarios):
        plan = three_block_floorplan()
        hot = {name: power * 400.0 for name, power in DYNAMIC.items()}
        kwargs = dict(duration=5e-3, time_step=5e-4, max_temperature=420.0)
        reference = TransientScenarioEngine(
            ScenarioEngine(plan, hot, STATIC_REF)
        ).simulate(scenarios[:4], **kwargs)
        result = TransientScenarioEngine(
            ScenarioEngine(plan, hot, STATIC_REF, array_backend=ns)
        ).simulate(scenarios[:4], **kwargs)
        assert reference.runaway.any()
        np.testing.assert_array_equal(result.runaway, reference.runaway)
        np.testing.assert_array_equal(result.runaway_times, reference.runaway_times)
        np.testing.assert_array_equal(
            result.block_temperatures, reference.block_temperatures
        )
