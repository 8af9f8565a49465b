"""Batched transient scenario engine vs the scalar simulator oracle.

The batched :class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`
must reproduce the looped scalar
:class:`~repro.core.cosim.transient.TransientElectroThermalSimulator`
row-for-row (block temperatures within 1e-9 K on identical inputs — the
PR's acceptance criterion), approach the steady-state
:class:`~repro.core.cosim.scenarios.ScenarioEngine` fixed point as
``t -> inf``, and be invariant under permutation of the scenario rows.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import transient_scenario_sweep
from repro.core.cosim import (
    ConstantActivity,
    PWMActivity,
    Scenario,
    ScenarioEngine,
    StepActivity,
    TraceActivity,
    TransientScenarioEngine,
    integrate_relaxation,
)
from repro.floorplan import three_block_floorplan
from repro.technology import cmos_012um, make_technology

from test_api import golden_math

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC_REF = {"core": 0.045, "cache": 0.018, "io": 0.008}
#: Millisecond-scale constants keep the integrations short while preserving
#: block-to-block ratios.
TAUS = {"core": 2e-3, "cache": 1.5e-3, "io": 1e-3}


@pytest.fixture(scope="module")
def steady_engine():
    return ScenarioEngine(three_block_floorplan(), DYNAMIC, STATIC_REF)


@pytest.fixture(scope="module")
def engine(steady_engine):
    return TransientScenarioEngine(steady_engine, time_constants=TAUS)


@pytest.fixture(scope="module")
def grid():
    technologies = [make_technology(name) for name in ("0.18um", "0.12um", "70nm")]
    return [
        Scenario(technology, ambient_temperature=ambient, activity=activity)
        for technology in technologies
        for ambient in (298.15, 338.15)
        for activity in (0.5, 1.0)
    ]


class TestActivityGrids:
    def test_constant_grid(self):
        grid = ConstantActivity([0.5, 1.0, 1.5])
        assert np.array_equal(grid.values(0.0), [0.5, 1.0, 1.5])
        assert grid.constant_after == 0.0
        assert grid.breakpoints(1.0).size == 0
        with pytest.raises(ValueError):
            ConstantActivity(-1.0)

    def test_step_grid_switches_per_scenario(self):
        grid = StepActivity(0.0, 1.0, [1e-3, 2e-3])
        assert np.array_equal(grid.values(0.5e-3), [[0.0], [0.0]])
        assert np.array_equal(grid.values(1.5e-3), [[1.0], [0.0]])
        assert np.array_equal(grid.values(2e-3), [[1.0], [1.0]])
        assert grid.constant_after == 2e-3
        assert np.array_equal(grid.breakpoints(10e-3), [1e-3, 2e-3])
        assert np.array_equal(grid.breakpoints(1.5e-3), [1e-3])
        with pytest.raises(ValueError):
            StepActivity(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            StepActivity(0.0, -1.0, 1.0)

    def test_pwm_grid_matches_square_wave_semantics(self):
        grid = PWMActivity(4e-3, 0.25)
        assert grid.values(0.0) == 1.0
        assert grid.values(0.9e-3) == 1.0
        assert grid.values(1e-3) == 0.0
        assert grid.values(4e-3) == 1.0
        assert grid.constant_after == np.inf
        edges = grid.breakpoints(8e-3)
        assert np.allclose(edges, [1e-3, 4e-3, 5e-3])
        with pytest.raises(ValueError):
            PWMActivity(0.0, 0.5)
        with pytest.raises(ValueError):
            PWMActivity(1.0, 1.5)

    def test_pwm_edges_read_the_post_edge_value(self):
        """Float-rounded (k + duty) * period instants must not hold the
        stale pre-edge multiplier (they join the time grid by default)."""
        grid = PWMActivity(4e-3, 0.4)
        for edge in grid.breakpoints(40e-3):
            cycles = edge / 4e-3
            is_on_edge = abs(cycles - round(cycles)) < 1e-6
            assert grid.values(float(edge)) == (1.0 if is_on_edge else 0.0), edge

    def test_trace_grid_holds_samples(self):
        grid = TraceActivity([0.0, 1e-3, 3e-3], [0.2, 1.0, 0.4])
        assert grid.values(0.0) == 0.2
        assert grid.values(0.9e-3) == 0.2
        assert grid.values(1e-3) == 1.0
        assert grid.values(5e-3) == 0.4
        assert grid.constant_after == 3e-3
        assert np.array_equal(grid.breakpoints(10e-3), [1e-3, 3e-3])
        with pytest.raises(ValueError):
            TraceActivity([1e-3, 1e-3], [1.0, 1.0])
        with pytest.raises(ValueError):
            TraceActivity([0.0, 1e-3], [1.0])
        with pytest.raises(ValueError):
            TraceActivity([0.0], [-1.0])

    def test_profile_for_views_one_row(self):
        grid = StepActivity(0.0, 1.0, [1e-3, 2e-3])
        profile = grid.profile_for(1, ("core", "cache", "io"))
        assert profile(1.5e-3) == {"core": 0.0, "cache": 0.0, "io": 0.0}
        assert profile(2.5e-3) == {"core": 1.0, "cache": 1.0, "io": 1.0}

    @pytest.mark.parametrize(
        "kind", ("trace_3d", "constant_2d", "step", "pwm", "trace_2d", "shared")
    )
    def test_rows_cut_values_and_keep_the_grid_timing(self, kind):
        # Per-row grids over 13 rows, plus two without a scenario axis.
        rng = np.random.default_rng(21)
        periods = rng.choice([1e-3, 2e-3, 3e-3], 13)
        grids = {
            "pwm": PWMActivity(periods, 0.4, on=[1.0, 0.5, 0.8]),
            "trace_2d": TraceActivity([0.0, 3e-3], rng.uniform(0, 1, (2, 3))),
            "shared": PWMActivity(2e-3, 0.25),
        }
        grid = grids[kind] if kind in grids else _settle_activity(kind)
        for start, stop in ((0, 13), (0, 5), (5, 10), (12, 13)):
            cut = grid.rows(start, stop)
            assert type(cut) is type(grid)
            for time in (0.0, 0.7e-3, 2.5e-3, 4e-3, 9e-3):
                whole = np.broadcast_to(grid.values(time), (13, 3))
                assert np.array_equal(
                    np.broadcast_to(cut.values(time), (stop - start, 3)),
                    whole[start:stop],
                )
            assert cut.constant_after == grid.constant_after
            assert np.array_equal(cut.breakpoints(8e-3), grid.breakpoints(8e-3))


class TestScalarParity:
    """Acceptance criterion: batched vs scalar within 1e-9 K."""

    def test_constant_activity_parity(self, engine, grid):
        batch = engine.simulate(grid, duration=8e-3, time_step=0.05e-3)
        for row, scenario in enumerate(grid):
            reference = engine.simulate_scalar(
                scenario, duration=8e-3, time_step=0.05e-3
            )
            temperatures, powers = reference.as_arrays()
            assert np.array_equal(batch.times, reference.times)
            assert np.abs(batch.block_temperatures[row] - temperatures).max() <= 1e-9
            assert np.abs(batch.block_powers[row] - powers).max() <= 1e-9

    def test_pwm_activity_parity(self, engine, grid):
        activity = PWMActivity(4e-3, 0.5)
        batch = engine.simulate(
            grid,
            duration=12e-3,
            time_step=0.05e-3,
            activity=activity,
            include_activity_edges=False,
        )
        for row in (0, len(grid) - 1):
            reference = engine.simulate_scalar(
                grid[row],
                duration=12e-3,
                time_step=0.05e-3,
                activity=activity,
                row=row,
            )
            temperatures, _ = reference.as_arrays()
            assert np.abs(batch.block_temperatures[row] - temperatures).max() <= 1e-9

    def test_default_time_constants_match_scalar(self, steady_engine, grid):
        from repro.core.cosim import TransientElectroThermalSimulator

        engine = TransientScenarioEngine(steady_engine)
        tau = engine.time_constants(grid)
        for row in (0, 3, len(grid) - 1):
            scalar = TransientElectroThermalSimulator(
                steady_engine.scalar_engine(grid[row])
            )
            expected = scalar.time_constants
            for column, name in enumerate(engine.block_names):
                assert tau[row, column] == expected[name]

    def test_scenario_result_round_trip(self, engine, grid):
        batch = engine.simulate(grid, duration=2e-3, time_step=0.1e-3)
        repacked = batch.scenario_result(2)
        assert repacked.block_names == engine.block_names
        assert repacked.peak_temperature("core") == pytest.approx(
            batch.temperatures_of("core")[2].max()
        )
        assert repacked.total_energy() == pytest.approx(batch.total_energy()[2])


class TestSteadyStateLimit:
    def test_long_integration_reaches_the_fixed_point(
        self, engine, steady_engine, grid
    ):
        steady = steady_engine.solve(grid, tolerance=1e-6, max_iterations=500)
        batch = engine.simulate(grid, duration=80e-3, time_step=0.1e-3)
        assert np.abs(batch.final_temperatures - steady.block_temperatures).max() < 1e-4

    def test_runaway_scenarios_flagged_like_the_steady_verdict(
        self, engine, steady_engine
    ):
        leaky = make_technology("25nm")
        scenarios = [
            Scenario(leaky, supply_voltage=1.4 * leaky.vdd, ambient_temperature=400.0),
            Scenario(cmos_012um(), ambient_temperature=318.15),
        ]
        steady = steady_engine.solve(scenarios)
        batch = engine.simulate(scenarios, duration=60e-3, time_step=0.1e-3)
        assert bool(batch.runaway[0]) and not bool(steady.converged[0])
        assert not bool(batch.runaway[1]) and bool(steady.converged[1])
        assert batch.runaway_times[0] > 0.0
        assert np.isnan(batch.runaway_times[1])
        assert batch.peak_temperature[0] == 500.0

    def test_settle_compaction_is_nearly_lossless(self, engine, grid):
        activity = StepActivity(0.0, 1.0, 3e-3)
        kwargs = dict(duration=40e-3, time_step=0.1e-3, activity=activity)
        compacted = engine.simulate(grid, settle_tolerance=1e-7, **kwargs)
        reference = engine.simulate(grid, **kwargs)
        assert np.abs(
            compacted.block_temperatures - reference.block_temperatures
        ).max() < 1e-4

    def test_settle_error_is_bounded_by_the_tolerance(self, engine, grid):
        """Freezing keys on distance-to-target, so the history error stays
        within the requested tolerance even for very fine time steps."""
        activity = StepActivity(0.0, 1.0, 1e-3)
        kwargs = dict(duration=30e-3, time_step=0.02e-3, activity=activity)
        tolerance = 0.01
        compacted = engine.simulate(grid, settle_tolerance=tolerance, **kwargs)
        reference = engine.simulate(grid, **kwargs)
        gap = np.abs(compacted.block_temperatures - reference.block_temperatures).max()
        assert gap <= 2.0 * tolerance


def _settle_activity(kind: str):
    """Workloads over the 13 settle rows (``grid`` plus a runaway row),
    each defined on the full grid."""
    rng = np.random.default_rng(20)
    if kind == "trace_3d":
        return TraceActivity([0.0, 2e-3, 5e-3], rng.uniform(0.0, 1.2, (3, 13, 3)))
    if kind == "constant_2d":
        return ConstantActivity(rng.uniform(0.2, 1.0, (13, 3)))
    return StepActivity(0.1, 1.0, np.linspace(0.5e-3, 6e-3, 13))


#: SHA-256 of ``times``, ``block_temperatures``, ``block_powers``,
#: ``runaway`` and ``runaway_times`` of runs in which rows settle and are
#: compacted out (and one row runs away), recorded before the integrator
#: compacted its physics on settle: ``(activity, precision,
#: settle_tolerance, chunk rows or None) -> digest``.
SETTLE_DIGESTS = {
    ("step", "float64", 1e-3, None): (
        "c61bb5e6f128146203527f454369a646e2e573ddd2bc32e73e1c42be93352786"
    ),
    ("trace_3d", "float64", 1e-4, None): (
        "52c416c26959cdfe598970141224a75282cb926dab84e2395b6a1573753d2c99"
    ),
    ("constant_2d", "float64", 1e-2, None): (
        "606f0c13415fc6cd70431c437d10c53acc9c9e181926af6ca99712d8b2f10fb5"
    ),
    ("step", "float32", 1e-3, None): (
        "520ecf148f2ae394f7c3b3045bb80f804614eee0e267cc6571935d7af07bdcf6"
    ),
    ("step", "float64", 1e-3, 5): (
        "c61bb5e6f128146203527f454369a646e2e573ddd2bc32e73e1c42be93352786"
    ),
    ("trace_3d", "float64", 1e-4, 5): (
        "52c416c26959cdfe598970141224a75282cb926dab84e2395b6a1573753d2c99"
    ),
}


class TestSettleDigests:
    @golden_math
    @pytest.mark.parametrize("case", sorted(SETTLE_DIGESTS, key=str), ids=str)
    def test_settled_runs_match_their_digests(self, case, grid):
        kind, precision, tolerance, chunk = case
        engine = TransientScenarioEngine(
            ScenarioEngine(
                three_block_floorplan(), DYNAMIC, STATIC_REF, precision=precision
            ),
            time_constants=TAUS,
        )
        # The grid plus a row that runs away, as in the runaway test.
        leaky = make_technology("25nm")
        runaway = Scenario(
            leaky, supply_voltage=1.4 * leaky.vdd, ambient_temperature=400.0
        )
        rows = grid + [runaway]
        activity = _settle_activity(kind)
        kwargs = dict(duration=40e-3, time_step=0.1e-3)
        size = chunk or len(rows)
        batches = [
            engine.simulate(
                rows[start : start + size],
                activity=activity.rows(start, start + size),
                settle_tolerance=tolerance,
                **kwargs,
            )
            for start in range(0, len(rows), size)
        ]
        digest = hashlib.sha256(batches[0].times.tobytes())
        for name in ("block_temperatures", "block_powers", "runaway", "runaway_times"):
            digest.update(np.concatenate([getattr(b, name) for b in batches]).tobytes())
        assert digest.hexdigest() == SETTLE_DIGESTS[case]
        # The pin covers the settle path: rows froze, and one ran away.
        exact = engine.simulate(rows, activity=activity, **kwargs)
        temperatures = np.concatenate([b.block_temperatures for b in batches])
        assert not np.array_equal(temperatures, exact.block_temperatures)
        assert bool(batches[-1].runaway[-1])


class _SpyEvaluators:
    """Evaluators of a decoupled linear model (``P = level + (T - 300) /
    1000``, ``T_ss = 300 + 10 P``) that record every rebinding and count
    power evaluations."""

    def __init__(self, levels):
        self.levels = np.asarray(levels, dtype=float)
        self.bindings = []  # (rows, power evaluations before the call)
        self.evaluations = 0

    def __call__(self, rows):
        self.bindings.append((rows, self.evaluations))
        levels = self.levels[slice(None) if rows is None else rows]

        def power_fn(now, temps):
            assert temps.shape[0] == levels.shape[0]
            self.evaluations += 1
            return levels[:, None] + (temps - 300.0) / 1000.0

        return power_fn, lambda powers: 300.0 + 10.0 * powers


class TestRowProtocol:
    """:func:`integrate_relaxation` binds its evaluators once for the whole
    batch and rebinds them only on steps where rows settle."""

    TIMES = np.linspace(0.0, 0.05, 501)
    #: Row 4 is too slow to settle within the run.
    TAU = np.array([[1e-3], [2e-3], [2e-3], [3e-3], [8e-3]]).repeat(2, axis=1)

    def integrate(self, settle_tolerance):
        spy = _SpyEvaluators([1.0, 2.0, 5.0, 3.0, 4.0])
        arrays = integrate_relaxation(
            self.TIMES,
            self.TAU,
            np.full(self.TAU.shape, 300.0),
            spy,
            max_temperature=500.0,
            settle_tolerance=settle_tolerance,
            settle_after=0.0,
        )
        return spy, arrays

    def test_binds_the_whole_batch_once_without_settling(self):
        spy, _ = self.integrate(None)
        assert spy.bindings == [(None, 0)]
        assert spy.evaluations == len(self.TIMES)

    def test_rebinds_only_where_rows_settle(self):
        spy, arrays = self.integrate(1e-3)
        assert spy.bindings[0] == (None, 0)
        assert sum(rows is None for rows, _ in spy.bindings) == 1
        assert len(spy.bindings) > 2
        active = np.arange(len(self.TAU))
        for rows, evaluations in spy.bindings[1:]:
            # Strictly shrinking host indices into the batch.
            assert rows.dtype.kind == "i" and rows.size < active.size
            assert np.all(np.isin(rows, active))
            # The frozen rows settled on the step just evaluated: their
            # history moved into it and is constant from it on.
            step = evaluations - 1
            for row in np.setdiff1d(active, rows):
                for history in (arrays.temperatures[row], arrays.powers[row]):
                    assert np.all(history[step:] == history[step])
                    assert np.any(history[step - 1] != history[step])
            active = rows
        assert active.tolist() == [4]
        assert spy.evaluations == len(self.TIMES)

    def test_frozen_histories_stay_within_the_tolerance(self):
        _, settled = self.integrate(1e-3)
        _, exact = self.integrate(None)
        gap = np.abs(settled.temperatures - exact.temperatures)
        assert 0.0 < gap.max() < 1e-3
        assert np.array_equal(settled.temperatures[4], exact.temperatures[4])


class TestProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(permutation=st.permutations(list(range(12))))
    def test_results_are_permutation_invariant(self, engine, grid, permutation):
        activity = PWMActivity(4e-3, 0.5)
        kwargs = dict(duration=6e-3, time_step=0.1e-3, activity=activity)
        reference = engine.simulate(grid, **kwargs)
        permuted = engine.simulate([grid[i] for i in permutation], **kwargs)
        for new_row, old_row in enumerate(permutation):
            assert np.array_equal(
                permuted.block_temperatures[new_row],
                reference.block_temperatures[old_row],
            )
            assert np.array_equal(
                permuted.block_powers[new_row],
                reference.block_powers[old_row],
            )
            assert permuted.runaway[new_row] == reference.runaway[old_row]

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        activity=st.floats(min_value=0.0, max_value=1.5),
        ambient=st.floats(min_value=280.0, max_value=360.0),
    )
    def test_constant_activity_charges_monotonically(self, engine, activity, ambient):
        scenario = Scenario(
            cmos_012um(), ambient_temperature=ambient, activity=activity
        )
        batch = engine.simulate([scenario], duration=10e-3, time_step=0.1e-3)
        core = batch.temperatures_of("core")[0]
        assert core[0] == pytest.approx(ambient)
        # Starting from ambient below the steady state, the relaxation
        # approaches its fixed point from below: monotone, no overshoot.
        assert np.all(np.diff(core) >= -1e-9)
        assert batch.overshoot[0] <= 1e-9

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(subset=st.sets(st.integers(min_value=0, max_value=11), min_size=1))
    def test_subset_simulations_match_the_full_batch(self, engine, grid, subset):
        indices = sorted(subset)
        kwargs = dict(duration=4e-3, time_step=0.1e-3)
        full = engine.simulate(grid, **kwargs)
        partial = engine.simulate([grid[i] for i in indices], **kwargs)
        for row, index in enumerate(indices):
            assert np.array_equal(
                partial.block_temperatures[row], full.block_temperatures[index]
            )


class TestResultContainer:
    def test_arrays_are_read_only(self, engine, grid):
        batch = engine.simulate(grid[:2], duration=1e-3, time_step=0.1e-3)
        with pytest.raises(ValueError):
            batch.block_temperatures[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            batch.times[0] = -1.0

    def test_summaries(self, engine, grid):
        activity = StepActivity(0.0, 1.0, 2e-3)
        batch = engine.simulate(
            grid, duration=20e-3, time_step=0.1e-3, activity=activity
        )
        assert len(batch) == len(grid)
        assert np.all(batch.peak_rise >= 0.0)
        assert np.all(batch.overshoot >= 0.0)
        assert np.all(batch.total_energy() > 0.0)
        settle = batch.settle_times(0.5)
        assert np.all((settle >= 0.0) & (settle <= batch.times[-1]))
        assert all(name in engine.block_names for name in batch.hottest_blocks())
        rows = batch.as_rows()
        assert len(rows) == len(grid)
        assert rows[0][0] == grid[0].describe()
        with pytest.raises(ValueError):
            batch.settle_times(0.0)

    def test_activity_edges_join_the_time_grid(self, engine, grid):
        activity = StepActivity(0.0, 1.0, 3.3e-3)
        batch = engine.simulate(
            grid, duration=10e-3, time_step=0.5e-3, activity=activity
        )
        assert 3.3e-3 in batch.times
        aligned = engine.simulate(
            grid,
            duration=10e-3,
            time_step=0.5e-3,
            activity=activity,
            include_activity_edges=False,
        )
        assert 3.3e-3 not in aligned.times

    def test_validation(self, engine, grid):
        with pytest.raises(ValueError):
            engine.simulate(grid, duration=0.0, time_step=1e-4)
        with pytest.raises(ValueError):
            engine.simulate(grid, duration=1e-3, time_step=2e-3)
        with pytest.raises(ValueError):
            engine.simulate(grid, duration=1e-3, time_step=1e-4, max_temperature=200.0)
        with pytest.raises(ValueError):
            engine.simulate(grid, duration=1e-3, time_step=1e-4, settle_tolerance=0.0)
        with pytest.raises(ValueError):
            engine.simulate([], duration=1e-3, time_step=1e-4)
        options = {"duration": 1e-3, "time_step": 1e-4}
        for value in (math.nan, math.inf, -math.inf):
            for option in (
                "duration", "time_step", "max_temperature", "settle_tolerance"
            ):
                with pytest.raises(ValueError, match=f"{option} must be finite"):
                    engine.simulate(grid, **{**options, option: value})
        with pytest.raises(KeyError):
            engine.simulate(
                grid,
                duration=1e-3,
                time_step=1e-4,
                initial_temperatures={"cores": 360.0},
            )

    def test_constructor_validation(self, steady_engine):
        with pytest.raises(KeyError):
            TransientScenarioEngine(steady_engine, time_constants={"gpu": 1e-3})
        with pytest.raises(ValueError):
            TransientScenarioEngine(steady_engine, time_constants={"core": 0.0})

    def test_from_powers_convenience(self, grid):
        engine = TransientScenarioEngine.from_powers(
            three_block_floorplan(), DYNAMIC, STATIC_REF, time_constants=TAUS
        )
        batch = engine.simulate(grid[:2], duration=1e-3, time_step=0.1e-3)
        assert batch.block_temperatures.shape == (2, 11, 3)


class TestTransientSweep:
    def test_sweep_series(self, engine):
        technology = cmos_012um()
        ambients = [288.15, 298.15, 308.15]
        scenarios = [
            Scenario(technology, ambient_temperature=value) for value in ambients
        ]
        result = transient_scenario_sweep(
            engine,
            "ambient_K",
            ambients,
            scenarios,
            duration=20e-3,
            time_step=0.1e-3,
        )
        assert result.values == ambients
        peaks = result.series("peak_temperature")
        assert np.all(np.diff(peaks) > 0.0)
        assert np.all(result.series("runaway") == 0.0)
        assert np.all(result.series("settle_time") > 0.0)
        assert set(result.labels()) >= {
            "peak_temperature",
            "peak_rise",
            "overshoot",
            "settle_time",
            "total_energy",
            "runaway",
        }
        with pytest.raises(ValueError):
            transient_scenario_sweep(
                engine,
                "ambient_K",
                ambients,
                scenarios[:2],
                duration=1e-3,
                time_step=1e-4,
            )
