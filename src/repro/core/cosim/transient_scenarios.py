"""Batched transient electro-thermal simulation over scenario grids.

:mod:`repro.core.cosim.transient` integrates the block-level relaxation ODE

``dT_i/dt = (T_ss,i(P(t, T)) - T_i) / tau_i``

for *one* operating condition at a time, re-evaluating the
temperature-dependent leakage per block per step in Python.  This module is
the time-domain counterpart of the steady-state
:class:`~repro.core.cosim.scenarios.ScenarioEngine`: it integrates the same
ODE for **every scenario of a grid simultaneously** as
``(n_scenarios, n_blocks)`` array operations —

* per-step steady-state targets come from the shared
  :class:`~repro.core.cosim.scenarios.ScenarioPhysics` precomputation (the
  batched leakage kernel for Eq. 13 static power, the cached
  unit-conductivity resistance reduction scaled per scenario);
* workloads are described by vectorized :class:`ActivityGrid` profiles
  (constant / step / PWM / trace-driven) instead of the scalar
  per-time-step callable;
* the exponential step is exact for piecewise-constant targets, and the
  time grid can adapt to the activity grid's switching edges
  (``include_activity_edges``) so workload transitions are never smeared;
* scenarios that have settled after their workload went constant are
  compacted out of the active batch (``settle_tolerance``), mirroring the
  steady-state engine's active-row scheme, and thermal runaway is flagged
  per scenario per step.

The scalar :class:`~repro.core.cosim.transient.TransientElectroThermalSimulator`
is a thin single-row wrapper over the same :func:`integrate_relaxation`
core, and ``tests/test_transient_scenarios.py`` pins the batched path to it
within 1e-9 K.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import get_namespace, to_numpy
from .scenarios import (
    Scenario,
    ScenarioEngine,
    ScenarioPhysics,
    _keep_rows,
    _row_indices,
    _take_rows,
    require_finite,
)
from .transient import (
    ActivityProfile,
    TransientCosimResult,
    TransientElectroThermalSimulator,
)


def _as_multipliers(values, label: str) -> np.ndarray:
    """Validate activity multipliers: non-negative, at most (S, B) shaped."""
    array = np.asarray(values, dtype=float)
    if array.ndim > 2:
        raise ValueError(f"{label} must have at most 2 dimensions (scenario, block)")
    if np.any(array < 0.0):
        raise ValueError(f"{label} must be non-negative")
    return array


class ActivityGrid(ABC):
    """Vectorized workload profile: multipliers for every (scenario, block).

    :meth:`values` returns the per-block dynamic-power multipliers of every
    scenario at one instant, as an array broadcastable to
    ``(n_scenarios, n_blocks)`` — the batched replacement for the scalar
    ``ActivityProfile`` callable (1.0 = nominal activity; leakage always
    follows temperature regardless of activity).
    """

    @abstractmethod
    def values(self, time: float) -> np.ndarray:
        """Multipliers at ``time`` [s], broadcastable to (scenarios, blocks)."""

    @property
    def constant_after(self) -> float:
        """Time [s] after which :meth:`values` no longer changes.

        ``0.0`` for constant grids, the last switching instant for step and
        trace grids, ``inf`` for periodic (PWM) grids.  The integrator only
        freezes settled scenarios past this point.
        """
        return math.inf

    def breakpoints(self, duration: float) -> np.ndarray:
        """Switching instants in the open interval ``(0, duration)``.

        The integrator unions these with the uniform grid (when
        ``include_activity_edges`` is on) so every workload edge lands on a
        step boundary — the exponential update is exact between edges.
        """
        return np.empty(0)

    def profile_for(self, row: int, block_names: Sequence[str]) -> ActivityProfile:
        """Scalar ``ActivityProfile`` view of one scenario row.

        This is what lets the looped scalar simulator (the parity oracle
        and benchmark baseline) consume the exact same workload as the
        batched engine.
        """
        names = tuple(block_names)

        def profile(time: float) -> Mapping[str, float]:
            values = np.asarray(self.values(time), dtype=float)
            if values.ndim == 2:
                values = values[row]
            values = np.broadcast_to(values, (len(names),))
            return {name: float(values[column]) for column, name in enumerate(names)}

        return profile


class ConstantActivity(ActivityGrid):
    """Time-independent multipliers.

    A scalar applies to every (scenario, block) pair, a 1-D array is
    **per block**, and a 2-D ``(n_scenarios, n_blocks)`` array gives every
    pair its own multiplier (use shape ``(n_scenarios, 1)`` for
    per-scenario scaling).
    """

    def __init__(self, multipliers: Union[float, Sequence[float]] = 1.0) -> None:
        self._values = _as_multipliers(multipliers, "multipliers")

    def values(self, time: float) -> np.ndarray:
        return self._values

    @property
    def constant_after(self) -> float:
        return 0.0


class StepActivity(ActivityGrid):
    """Multipliers that switch from ``before`` to ``after`` at a set time.

    ``switch_times`` may be a scalar (every scenario switches together) or
    one value per scenario; ``before`` / ``after`` broadcast to
    ``(n_scenarios, n_blocks)`` like every grid.
    """

    def __init__(
        self,
        before: Union[float, Sequence[float]],
        after: Union[float, Sequence[float]],
        switch_times: Union[float, Sequence[float]],
    ) -> None:
        self._before = _as_multipliers(before, "before")
        self._after = _as_multipliers(after, "after")
        switch = np.asarray(switch_times, dtype=float)
        if np.any(switch < 0.0):
            raise ValueError("switch_times must be non-negative")
        if switch.ndim > 1:
            raise ValueError("switch_times must be a scalar or one per scenario")
        self._switch = switch[:, np.newaxis] if switch.ndim == 1 else switch

    def values(self, time: float) -> np.ndarray:
        return np.where(time < self._switch, self._before, self._after)

    @property
    def constant_after(self) -> float:
        return float(np.max(self._switch))

    def breakpoints(self, duration: float) -> np.ndarray:
        edges = np.unique(self._switch)
        return edges[(edges > 0.0) & (edges < duration)]


class PWMActivity(ActivityGrid):
    """Pulse-width-modulated multipliers (the paper's pulsed self-heating).

    Each scenario's blocks run at ``on`` for the first ``duty_cycle``
    fraction of every ``period`` and at ``off`` for the rest — the batched
    generalization of ``square_wave_activity_profile``.  ``periods`` and
    ``duty_cycles`` may be scalars or one value per scenario.
    """

    def __init__(
        self,
        periods: Union[float, Sequence[float]],
        duty_cycles: Union[float, Sequence[float]],
        on: Union[float, Sequence[float]] = 1.0,
        off: Union[float, Sequence[float]] = 0.0,
    ) -> None:
        period = np.asarray(periods, dtype=float)
        duty = np.asarray(duty_cycles, dtype=float)
        if np.any(period <= 0.0):
            raise ValueError("periods must be positive")
        if np.any((duty <= 0.0) | (duty >= 1.0)):
            raise ValueError("duty_cycles must be in (0, 1)")
        if period.ndim > 1 or duty.ndim > 1:
            raise ValueError("periods/duty_cycles must be scalars or per-scenario")
        self._period = period[:, np.newaxis] if period.ndim == 1 else period
        self._duty = duty[:, np.newaxis] if duty.ndim == 1 else duty
        self._on = _as_multipliers(on, "on")
        self._off = _as_multipliers(off, "off")

    def values(self, time: float) -> np.ndarray:
        phase = (time % self._period) / self._period
        # Snap float-rounded edge instants onto the boundary they name: an
        # inserted breakpoint (k + duty) * period can land a hair below
        # ``duty`` and k * period a hair below 1.0, which would hold the
        # stale pre-edge multiplier over the following sub-interval.
        phase = np.where(np.isclose(phase, 1.0, rtol=0.0, atol=1e-9), 0.0, phase)
        on = (phase < self._duty) & ~np.isclose(phase, self._duty, rtol=0.0, atol=1e-9)
        return np.where(on, self._on, self._off)

    def breakpoints(self, duration: float) -> np.ndarray:
        pairs = np.unique(
            np.stack(np.broadcast_arrays(self._period, self._duty), axis=-1).reshape(
                -1, 2
            ),
            axis=0,
        )
        edges = []
        for period, duty in pairs:
            cycles = np.arange(0.0, duration / period + 1.0)
            edges.append(cycles * period)
            edges.append((cycles + duty) * period)
        merged = np.unique(np.concatenate(edges))
        return merged[(merged > 0.0) & (merged < duration)]


class TraceActivity(ActivityGrid):
    """Trace-driven multipliers: sample-and-hold over recorded instants.

    ``values[k]`` holds from ``times[k]`` (inclusive) until the next
    sample; the first sample also covers any earlier time.  ``values`` may
    be shaped ``(samples,)``, ``(samples, blocks)`` or
    ``(samples, scenarios, blocks)``.
    """

    def __init__(self, times: Sequence[float], values) -> None:
        self._times = np.asarray(times, dtype=float)
        if self._times.ndim != 1 or self._times.size == 0:
            raise ValueError("times must be a non-empty 1-D sequence")
        if np.any(np.diff(self._times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self._times[0] < 0.0:
            raise ValueError("times must be non-negative")
        array = np.asarray(values, dtype=float)
        if array.ndim == 0 or array.shape[0] != self._times.size:
            raise ValueError("values must carry one entry per sample time")
        if array.ndim > 3:
            raise ValueError("values must have at most 3 dimensions")
        if np.any(array < 0.0):
            raise ValueError("values must be non-negative")
        self._values = array

    def values(self, time: float) -> np.ndarray:
        index = int(np.searchsorted(self._times, time, side="right")) - 1
        return self._values[max(index, 0)]

    @property
    def constant_after(self) -> float:
        return float(self._times[-1])

    def breakpoints(self, duration: float) -> np.ndarray:
        inside = self._times[(self._times > 0.0) & (self._times < duration)]
        return np.unique(inside)


#: Row selector handed to the integrator's callbacks.
RowSelector = Union[slice, np.ndarray]

#: Per-step power evaluator of the generic integrator: maps (time,
#: temperatures of the active rows, active row selector) to block powers.
#: The selector is ``slice(None)`` while every row is active and a host
#: index array once settled rows have been compacted away.
PowerEvaluator = Callable[[float, Any, RowSelector], Any]

#: Steady-target evaluator: maps (powers of the active rows, active row
#: selector) to the rows' steady-state block temperatures.
TargetEvaluator = Callable[[Any, RowSelector], Any]


@dataclass(frozen=True)
class IntegrationArrays:
    """Raw histories produced by :func:`integrate_relaxation`.

    ``temperatures`` and ``powers`` are indexed ``[scenario, step, block]``.
    """

    times: np.ndarray
    temperatures: np.ndarray
    powers: np.ndarray
    runaway: np.ndarray
    runaway_times: np.ndarray


def integrate_relaxation(
    times: np.ndarray,
    tau,
    initial,
    power_fn: PowerEvaluator,
    targets_fn: TargetEvaluator,
    max_temperature: float,
    settle_tolerance: Optional[float] = None,
    settle_after: float = math.inf,
) -> IntegrationArrays:
    """Exponential-update relaxation integration for a batch of rows.

    Each step applies the exact solution of the relaxation ODE for a
    constant target, ``T <- T_ss + (T - T_ss) * exp(-dt / tau)``, clipped
    at ``max_temperature`` (thermal-runaway ceiling; the first clipped step
    of a row is recorded in ``runaway_times``).  Rows whose blocks have all
    come within ``settle_tolerance`` of their steady-state targets once
    ``settle_after`` has passed are frozen: their remaining history is
    filled with the settled state and they leave the active batch.  (The
    criterion is the remaining distance to the target — not the per-step
    movement, which shrinks with the step size and would freeze
    fine-stepped integrations far from equilibrium.)  Every row's
    trajectory is independent, so results are invariant under row
    permutation.

    ``tau`` and ``initial`` are ``(rows, blocks)`` arrays of one array
    namespace, which the state stays in; histories and the runaway/settle
    bookkeeping live on the host.  Until the first row settles the
    callbacks receive ``slice(None)`` as the row selector; afterwards the
    state is compacted with a boolean mask and they receive the host
    indices of the surviving rows.
    """
    xp = get_namespace(initial)
    host_initial = to_numpy(initial)
    scenario_count, block_count = host_initial.shape
    step_count = len(times)
    temperatures_history = np.empty(
        (scenario_count, step_count, block_count), dtype=host_initial.dtype
    )
    powers_history = np.empty_like(temperatures_history)
    runaway = np.zeros(scenario_count, dtype=bool)
    runaway_times = np.full(scenario_count, np.nan)

    temps = initial
    ceiling = xp.asarray(max_temperature, dtype=initial.dtype)
    rows: RowSelector = slice(None)
    for index, now in enumerate(times):
        powers = power_fn(float(now), temps, rows)
        temperatures_history[rows, index] = to_numpy(temps)
        powers_history[rows, index] = to_numpy(powers)
        if index == step_count - 1:
            break
        targets = targets_fn(powers, rows)
        dt = float(times[index + 1] - now)
        decay = xp.exp((-dt) / _take_rows(tau, rows, xp))
        updated = targets + (temps - targets) * decay
        clipped = to_numpy(xp.any(updated > ceiling, axis=1))
        updated = xp.minimum(updated, ceiling)
        newly_runaway = clipped & ~runaway[rows]
        if newly_runaway.any():
            newly_runaway = _row_indices(rows, newly_runaway)
            runaway[newly_runaway] = True
            runaway_times[newly_runaway] = times[index + 1]
        temps = updated
        # A row may freeze only when its distance to target was measured
        # under the final (constant) workload: the step must *start* at or
        # after the grid's last switching instant.
        if settle_tolerance is None or now < settle_after:
            continue
        distance = to_numpy(xp.max(xp.abs(temps - targets), axis=1))
        settled = distance < settle_tolerance
        if not settled.any():
            continue
        frozen_rows = _row_indices(rows, settled)
        frozen_temps = _keep_rows(temps, settled, xp)
        frozen_powers = power_fn(float(times[index + 1]), frozen_temps, frozen_rows)
        temperatures_history[frozen_rows, index + 1 :] = to_numpy(frozen_temps)[
            :, np.newaxis, :
        ]
        powers_history[frozen_rows, index + 1 :] = to_numpy(frozen_powers)[
            :, np.newaxis, :
        ]
        keep = ~settled
        rows = _row_indices(rows, keep)
        if rows.size == 0:
            break
        temps = _keep_rows(temps, keep, xp)

    return IntegrationArrays(
        times=times,
        temperatures=temperatures_history,
        powers=powers_history,
        runaway=runaway,
        runaway_times=runaway_times,
    )


@dataclass(frozen=True)
class TransientBatchResult:
    """Time histories of a transient scenario batch.

    Array attributes are indexed ``[scenario, step, block]`` (or a prefix
    of those axes), with blocks ordered as :attr:`block_names`; all arrays
    are read-only.
    """

    scenarios: Tuple[Scenario, ...]
    block_names: Tuple[str, ...]
    times: np.ndarray
    block_temperatures: np.ndarray
    block_powers: np.ndarray
    ambient_temperatures: np.ndarray
    runaway: np.ndarray
    runaway_times: np.ndarray

    def __post_init__(self) -> None:
        # Expose read-only views; arrays the caller constructed the result
        # from keep their own writability.
        for attribute in (
            "times",
            "block_temperatures",
            "block_powers",
            "ambient_temperatures",
            "runaway",
            "runaway_times",
        ):
            view = np.asarray(getattr(self, attribute)).view()
            view.setflags(write=False)
            object.__setattr__(self, attribute, view)

    def __len__(self) -> int:
        return len(self.scenarios)

    @property
    def final_temperatures(self) -> np.ndarray:
        """Block temperatures [K] at the last sample, per scenario."""
        return self.block_temperatures[:, -1, :]

    @property
    def peak_temperature(self) -> np.ndarray:
        """Hottest sampled block temperature [K] per scenario."""
        return self.block_temperatures.max(axis=(1, 2))

    @property
    def peak_rise(self) -> np.ndarray:
        """Hottest sampled rise [K] above each scenario's ambient."""
        return self.peak_temperature - self.ambient_temperatures

    @property
    def overshoot(self) -> np.ndarray:
        """Largest excursion [K] above the final temperature, per scenario.

        Zero for monotone charge-up; positive when a workload edge drove a
        block above where it eventually settles.
        """
        excess = self.block_temperatures - self.final_temperatures[:, np.newaxis, :]
        return np.maximum(excess.max(axis=(1, 2)), 0.0)

    @property
    def total_power(self) -> np.ndarray:
        """Chip total power [W] history, per scenario."""
        return self.block_powers.sum(axis=2)

    def settle_times(self, tolerance: float) -> np.ndarray:
        """First instant [s] after which every block stays within
        ``tolerance`` [K] of its final temperature, per scenario."""
        if tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        deviation = np.abs(
            self.block_temperatures - self.final_temperatures[:, np.newaxis, :]
        ).max(axis=2)
        remaining = np.maximum.accumulate(deviation[:, ::-1], axis=1)[:, ::-1]
        first_settled = np.argmax(remaining <= tolerance, axis=1)
        return self.times[first_settled]

    def total_energy(self) -> np.ndarray:
        """Energy [J] dissipated over the window, per scenario (trapezoid)."""
        power = self.total_power
        dt = np.diff(self.times)
        return np.sum(0.5 * (power[:, 1:] + power[:, :-1]) * dt, axis=1)

    def temperatures_of(self, block_name: str) -> np.ndarray:
        """Temperature history [K] of one block, ``(scenarios, steps)``."""
        return self.block_temperatures[:, :, self.block_names.index(block_name)]

    def hottest_blocks(self) -> Tuple[str, ...]:
        """Name of the block reaching each scenario's peak temperature."""
        per_block = self.block_temperatures.max(axis=1)
        return tuple(self.block_names[i] for i in np.argmax(per_block, axis=1))

    def scenario_result(self, index: int) -> TransientCosimResult:
        """Repackage one scenario as a scalar :class:`TransientCosimResult`."""
        return TransientCosimResult(
            times=self.times.copy(),
            block_temperatures={
                name: self.block_temperatures[index, :, column].copy()
                for column, name in enumerate(self.block_names)
            },
            block_powers={
                name: self.block_powers[index, :, column].copy()
                for column, name in enumerate(self.block_names)
            },
            ambient_temperature=float(self.ambient_temperatures[index]),
        )

    def as_rows(self):
        """Reporting rows: (label, peak T, overshoot, energy, runaway)."""
        peaks = self.peak_temperature
        overshoots = self.overshoot
        energies = self.total_energy()
        return [
            (
                scenario.describe(),
                float(peaks[index]),
                float(overshoots[index]),
                float(energies[index]),
                bool(self.runaway[index]),
            )
            for index, scenario in enumerate(self.scenarios)
        ]


class TransientScenarioEngine:
    """Batched time-domain electro-thermal integration over scenarios.

    Parameters
    ----------
    engine:
        The steady-state :class:`ScenarioEngine` whose floorplan, reference
        powers, cached resistance reduction and per-scenario power scalings
        the transient integration reuses (its :meth:`ScenarioEngine.solve`
        verdicts are the ``t -> inf`` limit of this engine).
    time_constants:
        Optional per-block thermal time constants [s] applied to every
        scenario.  Blocks without an entry get the same derivation as the
        scalar simulator: the block's self spreading resistance (at each
        scenario's ambient conductivity) times the heat capacity of a
        silicon volume one die-thickness deep under the block.
    """

    def __init__(
        self,
        engine: ScenarioEngine,
        time_constants: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.engine = engine
        self._block_names = engine.block_names
        self._overrides: dict = {}
        if time_constants is not None:
            for name, value in time_constants.items():
                if name not in self._block_names:
                    raise KeyError(f"unknown block {name!r}")
                if value <= 0.0:
                    raise ValueError("time constants must be positive")
                self._overrides[name] = float(value)

    @classmethod
    def from_powers(
        cls,
        floorplan,
        dynamic_powers: Mapping[str, float],
        static_powers_at_reference: Mapping[str, float],
        time_constants: Optional[Mapping[str, float]] = None,
        **engine_kwargs,
    ) -> "TransientScenarioEngine":
        """Convenience constructor building the steady engine inline."""
        engine = ScenarioEngine(
            floorplan, dynamic_powers, static_powers_at_reference, **engine_kwargs
        )
        return cls(engine, time_constants=time_constants)

    @property
    def block_names(self) -> Tuple[str, ...]:
        """Modelled blocks, in resistance-matrix row order."""
        return self._block_names

    @property
    def time_constant_overrides(self) -> dict:
        """Per-block time-constant overrides [s] in use."""
        return dict(self._overrides)

    @property
    def thermal_backend(self) -> str:
        """Registry name of the underlying engine's thermal backend."""
        return self.engine.thermal_backend

    def with_backend(self, thermal_backend, backend_options=None):
        """This engine over another thermal backend (see
        :meth:`ScenarioEngine.with_backend`); time-constant overrides are
        preserved."""
        return TransientScenarioEngine(
            self.engine.with_backend(thermal_backend, backend_options),
            time_constants=self._overrides or None,
        )

    def _default_time_constants(self, physics: ScenarioPhysics) -> np.ndarray:
        """Per-(scenario, block) thermal time constants [s].

        Same floating-point recipe as the scalar simulator's
        ``_default_time_constant``: the unit-conductivity self resistance
        scaled by each scenario's ambient conductivity, times the silicon
        heat capacity one die-thickness deep under the block footprint.
        Always staged in host float64 (bit-identical to the pre-seam
        engine); :meth:`simulate` casts into the working namespace/dtype.
        """
        floorplan = self.engine.floorplan
        resistance = (
            physics._unit_matrix_host.diagonal()[np.newaxis, :]
            / physics.conductivity_host[:, np.newaxis]
        )
        area = np.asarray([floorplan.block(name).area for name in self._block_names])
        capacitance = (
            physics.volumetric_heat_capacity_host[:, np.newaxis]
            * area[np.newaxis, :]
            * floorplan.die.thickness
        )
        tau = resistance * capacitance
        for name, value in self._overrides.items():
            tau[:, self._block_names.index(name)] = value
        return tau

    def time_constants(self, scenarios: Sequence[Scenario]) -> np.ndarray:
        """Per-(scenario, block) thermal time constants [s] in use."""
        return self._default_time_constants(ScenarioPhysics(self.engine, scenarios))

    def simulate(
        self,
        scenarios: Sequence[Scenario],
        duration: float,
        time_step: float,
        activity: Optional[ActivityGrid] = None,
        initial_temperatures: Optional[Mapping[str, float]] = None,
        max_temperature: float = 500.0,
        settle_tolerance: Optional[float] = None,
        include_activity_edges: bool = True,
        scenario_offset: int = 0,
        total_scenarios: Optional[int] = None,
    ) -> TransientBatchResult:
        """Integrate every scenario's block temperatures over ``duration``.

        Parameters
        ----------
        scenarios:
            Operating conditions to integrate concurrently.
        duration, time_step:
            Simulated span [s] and base integration step [s]; the
            exponential update is unconditionally stable, but coarse steps
            smear transients between activity edges.
        activity:
            Vectorized workload (:class:`ActivityGrid`); nominal activity
            (multiplier 1.0 everywhere) when omitted.
        initial_temperatures:
            Starting junction temperatures [K] per block name, applied to
            every scenario; each scenario's ambient by default.  Unknown
            block names raise ``KeyError``.
        max_temperature:
            Thermal-runaway ceiling [K]; the first step a scenario clips is
            recorded in the result's ``runaway_times``.
        settle_tolerance:
            When set, scenarios whose blocks have all come within this
            distance [K] of their steady-state targets *after the activity
            has gone constant* are frozen and leave the active batch
            (their remaining history holds the settled state, so histories
            deviate from the exact integration by at most about this
            amount) — the transient analogue of the steady engine's
            convergence compaction.
        include_activity_edges:
            Union the activity grid's switching instants into the time
            grid, so piecewise-constant workloads are integrated exactly.
        scenario_offset, total_scenarios:
            When this batch is one chunk of a larger grid, the chunk's
            starting row and the grid's full scenario count: per-scenario
            activity grids (2-D multipliers, per-scenario switch times,
            ...) are defined over the *full* grid and sliced here, so a
            chunked run sees exactly the monolithic workload.
        """
        require_finite(
            duration=duration,
            time_step=time_step,
            max_temperature=max_temperature,
            settle_tolerance=settle_tolerance,
        )
        if duration <= 0.0 or time_step <= 0.0:
            raise ValueError("duration and time_step must be positive")
        if time_step > duration:
            raise ValueError("time_step must not exceed the duration")
        if settle_tolerance is not None and settle_tolerance <= 0.0:
            raise ValueError("settle_tolerance must be positive")

        physics = ScenarioPhysics(self.engine, scenarios)
        if max_temperature <= physics.ambient_ceiling:
            raise ValueError("max_temperature must exceed every ambient temperature")
        if activity is None:
            activity = ConstantActivity(1.0)
        total = physics.count if total_scenarios is None else int(total_scenarios)
        if total < physics.count:
            raise ValueError("total_scenarios must cover the batch")
        if not 0 <= scenario_offset <= total - physics.count:
            raise ValueError("scenario_offset places the batch outside the grid")
        shape = (physics.count, physics.blocks)
        full_shape = (total, physics.blocks)
        # Validate the grid broadcasts before the integration starts.
        np.broadcast_to(np.asarray(activity.values(0.0), dtype=float), full_shape)

        steps = int(math.ceil(duration / time_step)) + 1
        times = np.linspace(0.0, duration, steps)
        if include_activity_edges:
            edges = np.asarray(activity.breakpoints(duration), dtype=float)
            if edges.size:
                times = np.unique(np.concatenate([times, edges]))

        initial = np.broadcast_to(physics.ambient_host[:, np.newaxis], shape).copy()
        if initial_temperatures is not None:
            for name, value in initial_temperatures.items():
                if name not in self._block_names:
                    raise KeyError(f"unknown block {name!r}")
                initial[:, self._block_names.index(name)] = float(value)

        tau = physics.cast(self._default_time_constants(physics))
        dynamic = physics.dynamic
        xp = physics.xp
        chunk = slice(scenario_offset, scenario_offset + physics.count)

        def power_fn(now: float, temps, rows: RowSelector):
            multipliers = np.broadcast_to(
                np.asarray(activity.values(now), dtype=float), full_shape
            )
            multipliers = multipliers[
                chunk if isinstance(rows, slice) else scenario_offset + rows
            ]
            scaled = _take_rows(dynamic, rows, xp) * xp.asarray(
                multipliers, dtype=physics.dtype
            )
            return scaled + physics.static_powers(temps, rows)

        arrays = integrate_relaxation(
            times,
            tau,
            physics.cast(initial),
            power_fn,
            physics.steady_targets,
            max_temperature,
            settle_tolerance=settle_tolerance,
            settle_after=activity.constant_after,
        )
        return TransientBatchResult(
            scenarios=physics.scenarios,
            block_names=self._block_names,
            times=arrays.times,
            block_temperatures=np.asarray(arrays.temperatures, dtype=np.float64),
            block_powers=np.asarray(arrays.powers, dtype=np.float64),
            ambient_temperatures=np.asarray(physics.ambient_host, dtype=np.float64),
            runaway=arrays.runaway,
            runaway_times=arrays.runaway_times,
        )

    def simulate_scalar(
        self,
        scenario: Scenario,
        duration: float,
        time_step: float,
        activity: Optional[ActivityGrid] = None,
        row: int = 0,
        **simulate_kwargs,
    ) -> TransientCosimResult:
        """One scenario through the looped scalar simulator (the oracle).

        Builds the equivalent per-scenario
        :class:`~repro.core.cosim.engine.ElectroThermalEngine` and runs the
        scalar :class:`~repro.core.cosim.transient.TransientElectroThermalSimulator`
        over the same workload (``row`` selects the scenario's row of a
        batched activity grid).  This is the parity oracle of the test
        suite and the baseline of the throughput benchmark.
        """
        simulator = TransientElectroThermalSimulator(
            self.engine.scalar_engine(scenario),
            time_constants=self._overrides or None,
        )
        profile = None
        if activity is not None:
            profile = activity.profile_for(row, self._block_names)
        return simulator.simulate(
            duration,
            time_step,
            activity_profile=profile,
            **simulate_kwargs,
        )
