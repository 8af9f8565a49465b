"""Transient electro-thermal simulation at block granularity.

The steady-state engine of :mod:`repro.core.cosim.engine` answers "where
does the coupled power/temperature fixed point settle"; this module answers
"how does the die get there" for time-varying workloads: each floorplan
block is given a lumped thermal time constant (its silicon heat capacity
charging through the analytical spreading resistance), the block-to-block
steady-state coupling comes from the same reduced thermal-resistance matrix
as the static engine, and the temperature-dependent leakage is re-evaluated
at every time step.

The integrator is the standard relaxation form

``dT_i/dt = (T_ss,i(P(t, T)) - T_i) / tau_i``

with ``T_ss = T_amb + R · P`` — exact for a single block with one pole, and
a good block-level approximation for workload transients much slower than
the die's internal diffusion time (milliseconds), which is the regime the
paper's 3 Hz self-heating measurements live in too.

The time stepping itself lives in
:func:`repro.core.cosim.transient_scenarios.integrate_relaxation`, the
batched core shared with :class:`TransientScenarioEngine`;
:class:`TransientElectroThermalSimulator` is its single-row wrapper, kept
for arbitrary (non-vectorizable) :class:`BlockPowerModel` implementations
and as the readable reference / parity oracle of the batched path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .engine import ElectroThermalEngine

#: A workload profile: maps time [s] to a per-block dynamic-power multiplier.
ActivityProfile = Callable[[float], Mapping[str, float]]


@dataclass(frozen=True)
class TransientCosimResult:
    """Time histories produced by :class:`TransientElectroThermalSimulator`.

    Attributes
    ----------
    times:
        Sample instants [s].
    block_temperatures:
        Per-block junction temperature [K] histories, same length as
        ``times``.  Exposed as a read-only mapping of read-only arrays.
    block_powers:
        Per-block total power [W] histories (read-only, as above).
    ambient_temperature:
        Heat-sink temperature [K].
    """

    times: np.ndarray
    block_temperatures: Mapping[str, np.ndarray]
    block_powers: Mapping[str, np.ndarray]
    ambient_temperature: float

    def __post_init__(self) -> None:
        # The dataclass is frozen but ndarrays and dicts are mutable; expose
        # read-only views so results are value-semantic without mutating the
        # writability of arrays the caller may still hold.
        for attribute in ("block_temperatures", "block_powers"):
            mapping = {}
            for name, array in getattr(self, attribute).items():
                view = np.asarray(array).view()
                view.setflags(write=False)
                mapping[name] = view
            object.__setattr__(self, attribute, MappingProxyType(mapping))
        times = np.asarray(self.times).view()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def block_names(self) -> Tuple[str, ...]:
        return tuple(self.block_temperatures)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Histories stacked as ``(temperatures, powers)`` ndarrays.

        Both arrays are shaped ``(n_steps, n_blocks)`` with columns in
        :attr:`block_names` order — the single-scenario slice convention of
        the batched :class:`TransientBatchResult`.
        """
        names = self.block_names
        temperatures = np.column_stack([self.block_temperatures[n] for n in names])
        powers = np.column_stack([self.block_powers[n] for n in names])
        return temperatures, powers

    def peak_temperature(self, block: str) -> float:
        """Hottest sampled temperature [K] of one block."""
        return float(self.block_temperatures[block].max())

    def final_temperature(self, block: str) -> float:
        """Temperature [K] of one block at the last sample."""
        return float(self.block_temperatures[block][-1])

    def total_energy(self) -> float:
        """Energy [J] dissipated by all blocks over the simulated window."""
        total = 0.0
        dt = np.diff(self.times)
        for powers in self.block_powers.values():
            total += float(np.sum(0.5 * (powers[1:] + powers[:-1]) * dt))
        return total


class TransientElectroThermalSimulator:
    """Block-level transient electro-thermal simulator.

    Parameters
    ----------
    engine:
        A configured steady-state :class:`ElectroThermalEngine`; the
        transient simulator reuses its floorplan, block power models,
        reduced thermal-resistance matrix and ambient temperature.
    time_constants:
        Optional per-block thermal time constants [s].  Blocks without an
        entry get a constant derived from their footprint: the analytical
        spreading resistance times the heat capacity of a silicon volume one
        die-thickness deep under the block.
    """

    def __init__(
        self,
        engine: ElectroThermalEngine,
        time_constants: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.engine = engine
        # Block order must match the engine's resistance-matrix row order.
        self._blocks = engine.modelled_blocks
        self._matrix = engine.resistance_matrix
        self._ambient = engine.ambient_temperature
        self._time_constants = {
            name: self._default_time_constant(name) for name in self._blocks
        }
        if time_constants is not None:
            for name, value in time_constants.items():
                if name not in self._time_constants:
                    raise KeyError(f"unknown block {name!r}")
                if value <= 0.0:
                    raise ValueError("time constants must be positive")
                self._time_constants[name] = float(value)

    def _default_time_constant(self, name: str) -> float:
        block = self.engine.floorplan.block(name)
        die = self.engine.floorplan.die
        silicon = self.engine.technology.thermal.silicon
        # Spreading resistance of the block footprint ...
        index = self._blocks.index(name)
        resistance = float(self._matrix[index, index])
        # ... charging the silicon volume directly beneath it.
        capacitance = silicon.volumetric_heat_capacity * block.area * die.thickness
        return resistance * capacitance

    @property
    def time_constants(self) -> Dict[str, float]:
        """Per-block thermal time constants [s] in use."""
        return dict(self._time_constants)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def _steady_targets(self, powers: Sequence[float]) -> np.ndarray:
        vector = np.asarray(powers, dtype=float)
        sink = self.engine.technology.thermal.heat_sink_resistance * vector.sum()
        return self._ambient + sink + self._matrix @ vector

    def simulate(
        self,
        duration: float,
        time_step: float,
        activity_profile: Optional[ActivityProfile] = None,
        initial_temperatures: Optional[Mapping[str, float]] = None,
        max_temperature: float = 500.0,
    ) -> TransientCosimResult:
        """Integrate the coupled block temperatures over ``duration`` seconds.

        Parameters
        ----------
        duration:
            Simulated time span [s].
        time_step:
            Integration step [s]; must resolve the fastest block time
            constant reasonably (the exponential update is unconditionally
            stable, but coarse steps smear fast transients).
        activity_profile:
            Optional function of time returning a per-block multiplier for
            the *dynamic* power (1.0 = nominal activity; leakage always
            follows temperature).  Blocks missing from the returned mapping
            default to 1.0.
        initial_temperatures:
            Starting junction temperatures [K]; ambient by default.
        max_temperature:
            Safety ceiling [K] against thermal-runaway overflow.
        """
        # Imported here (not at module scope) because transient_scenarios
        # imports this module's result/profile types.
        from .transient_scenarios import integrate_relaxation

        if duration <= 0.0 or time_step <= 0.0:
            raise ValueError("duration and time_step must be positive")
        if time_step > duration:
            raise ValueError("time_step must not exceed the duration")
        if max_temperature <= self._ambient:
            raise ValueError("max_temperature must exceed the ambient temperature")

        steps = int(math.ceil(duration / time_step)) + 1
        times = np.linspace(0.0, duration, steps)
        initial = np.full((1, len(self._blocks)), self._ambient)
        if initial_temperatures is not None:
            for name, value in initial_temperatures.items():
                if name not in self._blocks:
                    raise KeyError(f"unknown block {name!r}")
                initial[0, self._blocks.index(name)] = float(value)
        tau = np.asarray([[self._time_constants[name] for name in self._blocks]])
        models = [self.engine.block_models[name] for name in self._blocks]

        def power_fn(now: float, temps: np.ndarray) -> np.ndarray:
            multipliers = {}
            if activity_profile is not None:
                multipliers = dict(activity_profile(float(now)))
            powers = np.empty((1, len(models)))
            for column, name in enumerate(self._blocks):
                breakdown = models[column].breakdown(float(temps[0, column]))
                scale = float(multipliers.get(name, 1.0))
                if scale < 0.0:
                    raise ValueError("activity multipliers must be non-negative")
                powers[0, column] = breakdown.dynamic * scale + breakdown.static
            return powers

        def targets_fn(powers: np.ndarray) -> np.ndarray:
            return self._steady_targets(powers[0])[np.newaxis, :]

        # One row that never settles: the evaluators are never rebound.
        arrays = integrate_relaxation(
            times, tau, initial, lambda rows: (power_fn, targets_fn), max_temperature
        )
        return TransientCosimResult(
            times=times,
            block_temperatures={
                name: arrays.temperatures[0, :, column]
                for column, name in enumerate(self._blocks)
            },
            block_powers={
                name: arrays.powers[0, :, column]
                for column, name in enumerate(self._blocks)
            },
            ambient_temperature=self._ambient,
        )


def step_activity_profile(
    on_blocks: Mapping[str, float], switch_time: float
) -> ActivityProfile:
    """Profile that switches block activity multipliers on at ``switch_time``.

    Before ``switch_time`` every block runs at zero dynamic activity (idle,
    leakage only); afterwards each block listed in ``on_blocks`` runs at its
    given multiplier.
    """
    if switch_time < 0.0:
        raise ValueError("switch_time must be non-negative")

    def profile(time: float) -> Mapping[str, float]:
        if time < switch_time:
            return {name: 0.0 for name in on_blocks}
        return dict(on_blocks)

    return profile


def square_wave_activity_profile(
    period: float, duty_cycle: float, blocks: Sequence[str]
) -> ActivityProfile:
    """Profile that pulses the listed blocks between idle and full activity."""
    if period <= 0.0:
        raise ValueError("period must be positive")
    if not 0.0 < duty_cycle < 1.0:
        raise ValueError("duty_cycle must be in (0, 1)")

    def profile(time: float) -> Mapping[str, float]:
        phase = (time % period) / period
        value = 1.0 if phase < duty_cycle else 0.0
        return {name: value for name in blocks}

    return profile
