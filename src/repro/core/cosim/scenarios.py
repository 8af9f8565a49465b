"""Multi-scenario electro-thermal engine: batched fixed points.

:class:`~repro.core.cosim.engine.ElectroThermalEngine` solves *one*
operating condition at a time; every sweep over technology nodes, supply
voltages, ambient temperatures or workloads therefore loops whole fixed
points in Python.  This module batches that outer loop the same way the
thermal kernel batched point evaluation:

* a :class:`Scenario` names one operating condition — a technology node, a
  supply voltage, an ambient (heat-sink) temperature and a per-block
  activity scaling;
* :func:`scenario_grid` builds the full cross product of those axes
  (:func:`scenario_grid_stream` yields the same grid lazily for
  million-row sweeps);
* :class:`ScenarioEngine` evaluates *all* scenarios concurrently: block
  powers go through the vectorized leakage kernel (one broadcast Eq. 13
  evaluation per fixed-point iteration for every scenario x block pair),
  the block-to-block thermal-resistance matrix is reduced **once** per
  floorplan geometry (it is power-independent; per-scenario conductivity
  enters as a ``1/k`` scale, see
  :mod:`~repro.core.cosim.resistance_cache`), and the damped fixed point
  of the scalar engine runs as array operations over the whole batch.

Scenario powers derive from per-block reference powers exactly like
:class:`~repro.core.cosim.coupling.ScaledLeakageBlockModel`, with two
closed-form scalings on top: dynamic power follows ``activity x
(Vdd / Vdd_nominal)^2`` (the ``a C V^2 f`` law) and static power follows
``Vdd / Vdd_nominal`` (the model's OFF current is supply-independent
because the DIBL term of Eq. 2 cancels at ``VDS = VDD``, so only the
``I x Vdd`` product scales).  :meth:`ScenarioEngine.solve_scalar` runs the
identical physics through a per-scenario
:class:`~repro.core.cosim.engine.ElectroThermalEngine`, which is both the
parity oracle of ``tests/test_scenarios.py`` and the baseline of
``benchmarks/test_scenario_throughput.py``.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ...floorplan.floorplan import Floorplan
from ...technology.constants import BOLTZMANN, ELEMENTARY_CHARGE
from ...technology.parameters import TechnologyParameters
from ..backend import (
    Precision,
    resolve_namespace,
    resolve_precision,
    to_numpy,
)
from ..dynamic.total import PowerBreakdown
from ..leakage import kernel as leakage_kernel
from ..thermal.operator import ThermalOperator
from .coupling import BlockPowerModel, ScaledLeakageBlockModel
from .engine import ElectroThermalEngine, _image_configuration, resolve_operator
from .resistance_cache import reduced_unit_matrix
from .result import CosimResult


def _take_rows(array, rows, xp):
    """``array[rows]`` for slice/array row selectors, portably across ``xp``."""
    if isinstance(rows, slice) or xp is np:
        return array[rows]
    return xp.take(array, xp.asarray(rows), axis=0)


def _keep_rows(array, keep: np.ndarray, xp):
    """``array[keep]`` for a host boolean row mask, portably across ``xp``."""
    if xp is np:
        return array[keep]
    return xp.take(array, xp.asarray(np.flatnonzero(keep)), axis=0)


def _row_indices(rows, mask: np.ndarray) -> np.ndarray:
    """Host indices of the ``mask``-selected rows of the selector ``rows``
    (``slice(None)`` or an index array)."""
    if isinstance(rows, slice):
        return np.flatnonzero(mask)
    return rows[mask]


@dataclass(frozen=True)
class Scenario:
    """One operating condition of a floorplan.

    Attributes
    ----------
    technology:
        Technology node (device compact models, nominal supply, thermal
        environment defaults).
    supply_voltage:
        Operating supply [V]; the node's nominal ``Vdd`` when ``None``.
    ambient_temperature:
        Heat-sink temperature [K]; the node's thermal default when ``None``.
    activity:
        Dynamic-power scaling — a single factor for every block, or a
        per-block mapping (missing blocks default to 1.0).
    label:
        Optional display name; :meth:`describe` derives one otherwise.
    """

    technology: TechnologyParameters
    supply_voltage: Optional[float] = None
    ambient_temperature: Optional[float] = None
    activity: Union[float, Mapping[str, float]] = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.supply_voltage is not None and self.supply_voltage <= 0.0:
            raise ValueError("supply_voltage must be positive")
        if self.ambient_temperature is not None and self.ambient_temperature <= 0.0:
            raise ValueError("ambient_temperature must be positive (Kelvin)")
        if isinstance(self.activity, abc.Mapping):
            if any(value < 0.0 for value in self.activity.values()):
                raise ValueError("activity factors must be non-negative")
        elif self.activity < 0.0:
            raise ValueError("activity must be non-negative")

    @property
    def vdd(self) -> float:
        """Operating supply voltage [V]."""
        if self.supply_voltage is not None:
            return self.supply_voltage
        return self.technology.vdd

    @property
    def supply_scale(self) -> float:
        """Operating supply as a fraction of the node's nominal ``Vdd``."""
        return self.vdd / self.technology.vdd

    @property
    def ambient(self) -> float:
        """Heat-sink temperature [K]."""
        if self.ambient_temperature is not None:
            return self.ambient_temperature
        return self.technology.thermal.ambient_temperature

    def activity_factor(self, block_name: str) -> float:
        """Dynamic-power scaling of one block (1.0 when unspecified)."""
        if isinstance(self.activity, abc.Mapping):
            return float(self.activity.get(block_name, 1.0))
        return float(self.activity)

    def describe(self) -> str:
        """Human-readable scenario name."""
        if self.label:
            return self.label
        return (
            f"{self.technology.name}@{self.vdd:.2f}V"
            f"/{self.ambient:.1f}K/act{self.activity!r}"
        )


def scenario_grid_stream(
    technologies: Sequence[TechnologyParameters],
    supply_scales: Iterable[float] = (1.0,),
    ambient_temperatures: Iterable[Optional[float]] = (None,),
    activities: Iterable[Union[float, Mapping[str, float]]] = (1.0,),
) -> Iterator[Scenario]:
    """Lazy cross product of the four scenario axes, in deterministic order.

    Yields the exact scenarios :func:`scenario_grid` would return, one at a
    time, so million-row grids never exist as a list: the streaming
    execution path (:mod:`repro.core.cosim.streaming`) pulls fixed-size
    chunks straight off this iterator.  Axis validation happens eagerly —
    before the first scenario is requested — and one-shot axis iterators
    are materialized up front so the nested re-iteration is safe.

    Parameters
    ----------
    technologies:
        Technology nodes to cover.
    supply_scales:
        Supply voltages as fractions of each node's nominal ``Vdd`` (so one
        grid spans nodes with very different absolute supplies).
    ambient_temperatures:
        Heat-sink temperatures [K]; ``None`` selects each node's default.
    activities:
        Per-scenario activity scalings (scalar or per-block mapping).
    """
    technologies = tuple(technologies)
    if not technologies:
        raise ValueError("at least one technology is required")
    supply_scales = tuple(supply_scales)
    ambient_temperatures = tuple(ambient_temperatures)
    activities = tuple(activities)

    def generate() -> Iterator[Scenario]:
        for technology in technologies:
            for scale in supply_scales:
                for ambient in ambient_temperatures:
                    for activity in activities:
                        yield Scenario(
                            technology=technology,
                            supply_voltage=scale * technology.vdd,
                            ambient_temperature=ambient,
                            activity=activity,
                        )

    return generate()


def scenario_grid(
    technologies: Sequence[TechnologyParameters],
    supply_scales: Iterable[float] = (1.0,),
    ambient_temperatures: Iterable[Optional[float]] = (None,),
    activities: Iterable[Union[float, Mapping[str, float]]] = (1.0,),
) -> List[Scenario]:
    """Cross product of the four scenario axes, as a list.

    Delegates to :func:`scenario_grid_stream` (same ordering, same
    validation) and materializes the result — use the stream directly when
    the grid is too large to hold.
    """
    return list(
        scenario_grid_stream(
            technologies,
            supply_scales=supply_scales,
            ambient_temperatures=ambient_temperatures,
            activities=activities,
        )
    )


class ScenarioPhysics:
    """Precomputed per-scenario arrays of a scenario batch.

    Everything the batched solvers need per scenario — ambient and
    heat-sink constants, supply/activity-scaled block powers, and the
    leakage-kernel pieces of the paper's Eq. 13 — is computed once here and
    shared by the steady-state fixed point
    (:meth:`ScenarioEngine.solve`) and the transient integrator
    (:class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`),
    so the two paths scale supply, activity and leakage with the *same*
    floating-point operations.

    Array attributes are indexed ``[scenario]`` or ``[scenario, block]``
    with blocks in :attr:`ScenarioEngine.block_names` order.
    """

    def __init__(self, engine: "ScenarioEngine", scenarios: Sequence[Scenario]):
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValueError("at least one scenario is required")
        self.scenarios = scenarios
        count = len(scenarios)
        blocks = len(engine.block_names)
        self.count = count
        self.blocks = blocks
        # Backend/precision policy: everything is staged in numpy float64
        # exactly as before the seam (so the default path never converts,
        # and non-default runs derive from the same staged float64 values),
        # then the hot arrays are cast once at the end of construction.
        self.xp = engine.array_namespace
        self.precision = engine.precision
        self.dtype = engine.working_dtype
        self._default_policy = self.xp is np and self.precision.name == "float64"
        self._unit_matrix = engine._unit_matrix
        self._unit_matrix_host = engine._unit_matrix_host

        # Grids repeat a handful of technology nodes across hundreds of
        # scenarios; per-node constants are computed once per distinct node
        # and fanned out by index.
        node_index: Dict[int, int] = {}
        nodes: List[TechnologyParameters] = []
        node_of = np.empty(count, dtype=int)
        for row, scenario in enumerate(scenarios):
            key = id(scenario.technology)
            if key not in node_index:
                node_index[key] = len(nodes)
                nodes.append(scenario.technology)
            node_of[row] = node_index[key]

        self.ambient = np.asarray([s.ambient for s in scenarios])
        conductivity_cache: Dict[Tuple[int, float], float] = {}
        for scenario in scenarios:
            key = (id(scenario.technology), scenario.ambient)
            if key not in conductivity_cache:
                conductivity_cache[key] = (
                    scenario.technology.thermal.silicon.conductivity_at(
                        scenario.ambient
                    )
                )
        self.conductivity = np.asarray(
            [conductivity_cache[(id(s.technology), s.ambient)] for s in scenarios]
        )
        self.heat_sink = np.asarray(
            [t.thermal.heat_sink_resistance for t in nodes]
        )[node_of]
        self.volumetric_heat_capacity = np.asarray(
            [t.thermal.silicon.volumetric_heat_capacity for t in nodes]
        )[node_of]
        self._reference = np.asarray([t.reference_temperature for t in nodes])[
            node_of, np.newaxis
        ]
        self._nodes = nodes
        self._node_of = node_of
        self._device_type = engine.device_type

        # Supply / activity scalings — the same floating-point operations,
        # in the same order, as :meth:`ScenarioEngine.scenario_block_powers`.
        scale = np.asarray([s.supply_scale for s in scenarios])
        activity = np.empty((count, blocks))
        for row, scenario in enumerate(scenarios):
            if isinstance(scenario.activity, abc.Mapping):
                for column, name in enumerate(engine.block_names):
                    activity[row, column] = scenario.activity_factor(name)
            else:
                activity[row, :] = float(scenario.activity)
        dynamic_ref = np.asarray(
            [engine.dynamic_powers[name] for name in engine.block_names]
        )
        static_base = np.asarray(
            [engine.static_powers_at_reference[name] for name in engine.block_names]
        )
        self.dynamic = dynamic_ref * ((scale * scale)[:, np.newaxis] * activity)
        self.static_ref = static_base * scale[:, np.newaxis]

        # Host (numpy float64) views survive for consumers that stay on
        # the host whatever the policy — the transient tau derivation, the
        # runaway-ceiling validation, scalar bookkeeping.  On the default
        # policy they are the same objects as the hot arrays.
        self.ambient_host = self.ambient
        self.conductivity_host = self.conductivity
        self.volumetric_heat_capacity_host = self.volumetric_heat_capacity
        self._reference_host = self._reference
        self.ambient_ceiling = float(np.max(self.ambient_host))
        if not self._default_policy:
            self.ambient = self.cast(self.ambient)
            self.conductivity = self.cast(self.conductivity)
            self.heat_sink = self.cast(self.heat_sink)
            self._reference = self.cast(self._reference)
            self.dynamic = self.cast(self.dynamic)
            self.static_ref = self.cast(self.static_ref)

        self._leakage_ready = False

    def cast(self, array):
        """``array`` under the engine's namespace/precision policy.

        The identity on the default (numpy/float64) policy — staged arrays
        pass through untouched, which is what keeps the default engine
        bit-identical to the pre-seam code.
        """
        if self._default_policy:
            return array
        return self.xp.asarray(array, dtype=self.dtype)

    def _ensure_leakage_constants(self) -> None:
        """Eq. 13 pieces hoisted out of the iteration, computed on demand.

        The denominator of the leakage temperature ratio is
        temperature-independent, so it is evaluated once through the
        kernel; the per-step numerator is inlined in :meth:`static_powers`
        with the identical arithmetic (at VGS = 0 and VDS = Vdd the body
        and DIBL terms of Eq. 2 are exact float zeros, so dropping them
        preserves bit-level parity with the scalar path).  Lazy so that
        consumers needing only the thermal constants (e.g. the transient
        engine's tau derivation) skip the kernel evaluation entirely.
        """
        if self._leakage_ready:
            return
        count = self.count
        node_of = self._node_of
        node_devices = [t.device(self._device_type) for t in self._nodes]
        devices = (
            leakage_kernel.DeviceArray.from_devices(node_devices)
            .take(node_of)
            .reshape((count, 1))
        )
        width = np.asarray([d.nominal_width for d in node_devices])[node_of, np.newaxis]
        vdd = np.asarray([t.vdd for t in self._nodes])[node_of, np.newaxis]
        self._cold = self.cast(
            leakage_kernel.single_device_off_current(
                devices, width, vdd, self._reference_host, self._reference_host
            )
        )
        self._prefactor_base = self.cast(
            (width / devices.channel_length) * devices.i0
        )
        self._vt0 = self.cast(devices.vt0.reshape((count, 1)))
        self._kt = self.cast(devices.kt.reshape((count, 1)))
        self._ideality = self.cast(devices.n.reshape((count, 1)))
        self._leakage_ready = True

    def static_powers(self, temperatures, rows):
        """Static power [W] of the given scenario rows at ``temperatures``.

        ``rows`` selects the rows' per-scenario constants: ``slice(None)``
        for the whole batch, or a host index array once rows have been
        compacted away.  Every operation is elementwise, so a row's result
        does not depend on which other rows are evaluated with it.

        Compound assignments (the Array API's in-place operators) reuse
        the temporaries this method allocates, which keeps large batches
        from re-faulting fresh pages every call.  Each one at most swaps
        the operands of an IEEE multiply or add, which is exact, so the
        results equal the plain expression ``static_ref * (prefactor *
        (T/T_ref)^2 * exp(...) / cold)`` bit for bit.
        """
        self._ensure_leakage_constants()
        xp = self.xp
        reference = _take_rows(self._reference, rows, xp)
        # -Vth(T) = -(vt0 - kt * (T - T_ref)), built as 0.0 - Vth to
        # preserve the reference expression's signed-zero behavior.
        gate = 0.0 - (
            _take_rows(self._vt0, rows, xp)
            - _take_rows(self._kt, rows, xp) * (temperatures - reference)
        )
        # n * kT/q (same association as technology.constants); the
        # positivity check lives with the scenario construction.
        scratch = (BOLTZMANN * temperatures) / ELEMENTARY_CHARGE
        scratch *= _take_rows(self._ideality, rows, xp)
        # safe_exp(-Vth / (n kT/q)), clip+exp exactly as the kernel.
        gate /= scratch
        limit = leakage_kernel.MAX_EXPONENT
        gate = xp.exp(xp.clip(gate, -limit, limit))
        # static_ref * ((prefactor * (T / T_ref)^2) * gate / cold)
        hot = temperatures / reference
        hot *= hot
        hot *= _take_rows(self._prefactor_base, rows, xp)
        hot *= gate
        hot /= _take_rows(self._cold, rows, xp)
        hot *= _take_rows(self.static_ref, rows, xp)
        return hot

    def steady_targets(self, powers, rows):
        """Steady-state block temperatures [K] for the rows' ``powers``.

        ``T_ss = T_amb + R_hs * sum(P) + R @ P`` with the cached
        unit-conductivity reduction scaled by each scenario's ``1/k``.

        The ``R @ P`` product is accumulated column by column with
        elementwise operations instead of a BLAS matmul: GEMM selects
        different kernels (and rounding) by batch size, which would make
        each row's trajectory depend on how many rows happen to be in
        flight — compaction scheduling and chunk boundaries would then
        change results.  The fixed ``k``-ascending accumulation is
        bit-identical for a row whether it is solved alone, in a chunk, or
        in the full batch.
        """
        xp = self.xp
        blocks = powers.shape[1]
        unit = self._unit_matrix
        sums = _take_rows(self.heat_sink, rows, xp) * xp.sum(powers, axis=1)
        rises = powers[:, 0:1] * unit[:, 0]
        for column in range(1, blocks):
            rises += powers[:, column : column + 1] * unit[:, column]
        rises /= _take_rows(self.conductivity, rows, xp)[:, None]
        rises += _take_rows(self.ambient, rows, xp)[:, None] + sums[:, None]
        return rises


@dataclass(frozen=True)
class ScenarioBatchResult:
    """Converged (or best-effort) solutions of a scenario batch.

    Array attributes are indexed ``[scenario, block]`` (or ``[scenario]``),
    with blocks ordered as :attr:`block_names`.
    """

    scenarios: Tuple[Scenario, ...]
    block_names: Tuple[str, ...]
    block_temperatures: np.ndarray
    dynamic_power: np.ndarray
    static_power: np.ndarray
    ambient_temperatures: np.ndarray
    converged: np.ndarray
    iteration_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.scenarios)

    @property
    def total_power(self) -> np.ndarray:
        """Chip total power [W] per scenario."""
        return (self.dynamic_power + self.static_power).sum(axis=1)

    @property
    def total_static_power(self) -> np.ndarray:
        """Chip static power [W] per scenario."""
        return self.static_power.sum(axis=1)

    @property
    def total_dynamic_power(self) -> np.ndarray:
        """Chip dynamic power [W] per scenario."""
        return self.dynamic_power.sum(axis=1)

    @property
    def peak_temperature(self) -> np.ndarray:
        """Hottest block junction temperature [K] per scenario."""
        return self.block_temperatures.max(axis=1)

    @property
    def peak_rise(self) -> np.ndarray:
        """Hottest block rise [K] above each scenario's ambient."""
        return self.peak_temperature - self.ambient_temperatures

    def hottest_blocks(self) -> Tuple[str, ...]:
        """Name of the hottest block per scenario."""
        indices = np.argmax(self.block_temperatures, axis=1)
        return tuple(self.block_names[i] for i in indices)

    def temperatures_of(self, block_name: str) -> np.ndarray:
        """Junction temperature [K] of one block across the batch."""
        return self.block_temperatures[:, self.block_names.index(block_name)]

    def slice_rows(self, start: int, stop: int) -> "ScenarioBatchResult":
        """Rows ``[start, stop)`` repackaged as an independent batch result.

        The scatter half of admission batching (:mod:`repro.serve`): several
        requests sharing an engine solve as one concatenated batch, and each
        request's rows are sliced back out.  Row trajectories are independent
        and permutation-invariant (each scenario converges and freezes on its
        own), so a sliced sub-batch is bit-identical to solving its scenarios
        alone — the property the serve-layer tests pin.
        """
        count = len(self.scenarios)
        if not 0 <= start <= stop <= count:
            raise ValueError(
                f"slice [{start}, {stop}) out of range for {count} scenario(s)"
            )
        window = slice(start, stop)
        return ScenarioBatchResult(
            scenarios=self.scenarios[window],
            block_names=self.block_names,
            block_temperatures=self.block_temperatures[window],
            dynamic_power=self.dynamic_power[window],
            static_power=self.static_power[window],
            ambient_temperatures=self.ambient_temperatures[window],
            converged=self.converged[window],
            iteration_counts=self.iteration_counts[window],
        )

    def scenario_result(self, index: int) -> CosimResult:
        """Repackage one scenario as a scalar-engine :class:`CosimResult`.

        The per-iteration history is not recorded in batch mode, so the
        result's ``iterations`` tuple is empty.
        """
        breakdowns = {
            name: PowerBreakdown(
                switching=float(self.dynamic_power[index, column]),
                short_circuit=0.0,
                static=float(self.static_power[index, column]),
            )
            for column, name in enumerate(self.block_names)
        }
        return CosimResult(
            block_temperatures={
                name: float(self.block_temperatures[index, column])
                for column, name in enumerate(self.block_names)
            },
            block_breakdowns=breakdowns,
            ambient_temperature=float(self.ambient_temperatures[index]),
            converged=bool(self.converged[index]),
            iterations=(),
        )

    def as_rows(self) -> List[Tuple]:
        """Reporting rows: (label, peak T, total power, converged)."""
        return [
            (
                scenario.describe(),
                float(self.peak_temperature[index]),
                float(self.total_power[index]),
                bool(self.converged[index]),
            )
            for index, scenario in enumerate(self.scenarios)
        ]


def require_finite(**options: Optional[float]) -> None:
    """Reject NaN and infinite option values with an error naming the option.

    Such values slip through plain ``<= 0.0`` range checks: a NaN
    tolerance never reports a settled row, and a NaN ceiling poisons every
    temperature.  ``None`` (an unset optional) passes.
    """
    for name, value in options.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def validate_fixed_point_options(
    max_iterations: int,
    tolerance: float,
    damping: float,
    max_temperature: float = 500.0,
) -> None:
    """Shared parameter validation of the batched fixed point."""
    require_finite(
        tolerance=tolerance, damping=damping, max_temperature=max_temperature
    )
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")


def solve_fixed_point(
    physics: ScenarioPhysics,
    max_iterations: int = 50,
    tolerance: float = 0.01,
    damping: float = 1.0,
    max_temperature: float = 500.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped fixed point over one prepared physics batch.

    The single implementation behind :meth:`ScenarioEngine.solve` and the
    streaming executor (:mod:`repro.core.cosim.streaming`), for every
    array namespace: the streaming path runs it per chunk, and each
    scenario row's trajectory is independent of its neighbors, so chunked
    reductions are bit-identical to the monolithic result by construction.

    The batch iterates on the still-active rows only.  Until the first row
    settles every row is active and the per-scenario constants are
    selected with ``slice(None)`` (no gather); afterwards settled rows are
    recorded on the host and compacted out of the state with a boolean
    mask.  Bookkeeping (convergence flags, iteration counts) stays on the
    host in numpy.

    Returns ``(block_temperatures, static_power, converged,
    iteration_counts)`` as host numpy arrays (temperatures and powers in
    the working dtype), with rows in the batch's scenario order.
    """
    validate_fixed_point_options(max_iterations, tolerance, damping, max_temperature)
    if max_temperature <= physics.ambient_ceiling:
        raise ValueError("max_temperature must exceed every ambient temperature")
    xp = physics.xp
    count = physics.count
    blocks = physics.blocks
    dynamic = physics.dynamic

    temperatures = np.empty((count, blocks), dtype=physics.precision.dtype_name)
    converged = np.zeros(count, dtype=bool)
    iteration_counts = np.zeros(count, dtype=int)

    temps = xp.asarray(
        xp.broadcast_to(physics.ambient[:, None], (count, blocks)), copy=True
    )
    ceiling = xp.asarray(max_temperature, dtype=physics.dtype)
    rows = slice(None)
    for index in range(max_iterations):
        # Compound assignments reuse this iteration's fresh arrays; see
        # ScenarioPhysics.static_powers for why that is exact.
        powers = physics.static_powers(temps, rows)
        powers += _take_rows(dynamic, rows, xp)
        proposed = physics.steady_targets(powers, rows)
        proposed *= damping
        proposed += (1.0 - damping) * temps
        proposed = xp.minimum(proposed, ceiling)
        change = to_numpy(xp.max(xp.abs(proposed - temps), axis=1))
        iteration_counts[rows] += 1
        temps = proposed
        settled = change < tolerance
        if index > 0 and settled.any():
            settled_rows = _row_indices(rows, settled)
            converged[settled_rows] = True
            temperatures[settled_rows] = to_numpy(temps)[settled]
            keep = ~settled
            rows = _row_indices(rows, keep)
            temps = _keep_rows(temps, keep, xp)
            if rows.size == 0:
                break
    temperatures[rows] = to_numpy(temps)

    # Scenarios that hit the runaway ceiling report non-convergence, as
    # in the scalar engine.
    runaway = (temperatures >= max_temperature - 1e-9).any(axis=1)
    converged &= ~runaway

    static_power = to_numpy(
        physics.static_powers(physics.cast(temperatures), slice(None))
    )
    return temperatures, static_power, converged, iteration_counts


class ScenarioEngine:
    """Batched electro-thermal fixed points over a grid of scenarios.

    Parameters
    ----------
    floorplan:
        Die floorplan shared by every scenario (the cached resistance
        reduction keys on it).
    dynamic_powers:
        Per-block dynamic power [W] at nominal supply and unit activity.
    static_powers_at_reference:
        Per-block static power [W] at nominal supply and each scenario
        technology's reference temperature.
    image_rings, include_bottom_images:
        Boundary-image configuration, as for the scalar engine (analytical
        backend only).
    device_type:
        Polarity used for the leakage temperature law.
    thermal_backend:
        The :class:`~repro.core.thermal.operator.ThermalOperator` reducing
        the floorplan — a backend name
        (:data:`~repro.core.thermal.operator.THERMAL_BACKENDS`) or an
        operator instance.  Every scenario of the batch shares the one
        cached reduction; the default (``"analytical"``) is bit-identical
        to the pre-backend engine.
    backend_options:
        Backend-specific options (the ``fdm`` grid resolution).
    array_backend:
        Array namespace the batched fixed point runs in — a registry name
        from :data:`repro.core.backend.ARRAY_BACKENDS` (``"numpy"`` or
        ``"array_api_strict"``).  The default (``None`` → numpy) is
        bit-identical to the pre-seam engine; every namespace runs the
        same functional Array-API operations in the same order.
    precision:
        Working-precision policy name from
        :data:`repro.core.backend.PRECISIONS` (``"float64"`` default,
        ``"float32"`` for fast serving studies within the documented
        tolerances — see ``docs/precision.md``).
    """

    def __init__(
        self,
        floorplan: Floorplan,
        dynamic_powers: Mapping[str, float],
        static_powers_at_reference: Mapping[str, float],
        image_rings: int = 1,
        include_bottom_images: bool = True,
        device_type: str = "nmos",
        thermal_backend: Union[str, ThermalOperator] = "analytical",
        backend_options: Optional[Mapping[str, object]] = None,
        array_backend: Optional[str] = None,
        precision: Union[str, Precision, None] = None,
    ) -> None:
        self.floorplan = floorplan
        named = set(dynamic_powers) | set(static_powers_at_reference)
        if not named:
            raise ValueError("at least one block power must be given")
        unknown = named - set(floorplan.block_names())
        if unknown:
            raise KeyError(f"block powers reference unknown blocks: {sorted(unknown)}")
        self.dynamic_powers = {
            name: float(dynamic_powers.get(name, 0.0)) for name in named
        }
        self.static_powers_at_reference = {
            name: float(static_powers_at_reference.get(name, 0.0)) for name in named
        }
        self.device_type = device_type
        self.thermal_operator = resolve_operator(
            thermal_backend, image_rings, include_bottom_images, backend_options
        )
        self.image_rings, self.include_bottom_images = _image_configuration(
            self.thermal_operator, image_rings, include_bottom_images
        )
        self.array_backend = array_backend
        self.array_namespace = resolve_namespace(array_backend)
        self.precision = resolve_precision(precision)
        self.working_dtype = self.precision.dtype(self.array_namespace)
        self._block_names: Tuple[str, ...] = tuple(
            name for name in floorplan.block_names() if name in named
        )
        # The reduction is always staged in host float64 (bit-identical to
        # the pre-seam engine); it is cast into the working namespace/dtype
        # exactly once, here, only when the policy is non-default.
        self._unit_matrix_host = reduced_unit_matrix(
            self.thermal_operator, floorplan, self._block_names
        )
        if self.array_namespace is np and self.precision.name == "float64":
            self._unit_matrix = self._unit_matrix_host
        else:
            self._unit_matrix = self.array_namespace.asarray(
                self._unit_matrix_host, dtype=self.working_dtype
            )

    @property
    def block_names(self) -> Tuple[str, ...]:
        """Modelled blocks, in resistance-matrix row order."""
        return self._block_names

    @property
    def thermal_backend(self) -> str:
        """Registry name of the thermal backend in use."""
        return self.thermal_operator.name

    def with_backend(
        self,
        thermal_backend: Union[str, ThermalOperator],
        backend_options: Optional[Mapping[str, object]] = None,
    ) -> "ScenarioEngine":
        """This engine's configuration re-reduced through another backend.

        The cheap path behind accuracy/speed comparisons: powers, floorplan
        and image configuration are shared, only the thermal reduction is
        swapped (and cached per backend).
        """
        return ScenarioEngine(
            self.floorplan,
            self.dynamic_powers,
            self.static_powers_at_reference,
            image_rings=self.image_rings,
            include_bottom_images=self.include_bottom_images,
            device_type=self.device_type,
            thermal_backend=thermal_backend,
            backend_options=backend_options,
            array_backend=self.array_backend,
            precision=self.precision,
        )

    # ------------------------------------------------------------------ #
    # Per-scenario power scaling (shared by batched and scalar paths)
    # ------------------------------------------------------------------ #
    def scenario_block_powers(
        self, scenario: Scenario
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Reference powers of one scenario: ``(dynamic, static_ref)``.

        Both the batched solver and the scalar oracle consume these exact
        floats, so the two paths scale supply and activity identically.
        """
        scale = scenario.supply_scale
        dynamic = {
            name: self.dynamic_powers[name]
            * (scale * scale * scenario.activity_factor(name))
            for name in self._block_names
        }
        static = {
            name: self.static_powers_at_reference[name] * scale
            for name in self._block_names
        }
        return dynamic, static

    def block_models(self, scenario: Scenario) -> Dict[str, BlockPowerModel]:
        """Scalar block models reproducing one scenario's power laws."""
        dynamic, static = self.scenario_block_powers(scenario)
        return {
            name: ScaledLeakageBlockModel(
                name=name,
                technology=scenario.technology,
                dynamic_power=dynamic[name],
                static_power_at_reference=static[name],
                device_type=self.device_type,
            )
            for name in self._block_names
        }

    def scalar_engine(self, scenario: Scenario) -> ElectroThermalEngine:
        """The equivalent single-scenario engine (parity/benchmark oracle)."""
        return ElectroThermalEngine(
            scenario.technology,
            self.floorplan,
            self.block_models(scenario),
            ambient_temperature=scenario.ambient,
            image_rings=self.image_rings,
            include_bottom_images=self.include_bottom_images,
            thermal_backend=self.thermal_operator,
        )

    def solve_scalar(self, scenario: Scenario, **solve_kwargs) -> CosimResult:
        """One scenario through the looped scalar engine."""
        return self.scalar_engine(scenario).solve(**solve_kwargs)

    # ------------------------------------------------------------------ #
    # Batched fixed point
    # ------------------------------------------------------------------ #
    def solve(
        self,
        scenarios: Sequence[Scenario],
        max_iterations: int = 50,
        tolerance: float = 0.01,
        damping: float = 1.0,
        max_temperature: float = 500.0,
    ) -> ScenarioBatchResult:
        """Damped fixed point for every scenario, as array operations.

        Parameters mirror :meth:`ElectroThermalEngine.solve`; each scenario
        converges (and freezes) independently, so results are invariant
        under permutation of the scenario list.  The loop itself lives in
        :func:`solve_fixed_point`.
        """
        if not scenarios:
            raise ValueError("at least one scenario is required")
        validate_fixed_point_options(max_iterations, tolerance, damping, max_temperature)
        physics = ScenarioPhysics(self, scenarios)
        temperatures, static_power, converged, iteration_counts = solve_fixed_point(
            physics,
            max_iterations=max_iterations,
            tolerance=tolerance,
            damping=damping,
            max_temperature=max_temperature,
        )
        return ScenarioBatchResult(
            scenarios=physics.scenarios,
            block_names=self._block_names,
            block_temperatures=np.asarray(temperatures, dtype=np.float64),
            dynamic_power=np.asarray(to_numpy(physics.dynamic), dtype=np.float64),
            static_power=np.asarray(static_power, dtype=np.float64),
            ambient_temperatures=np.asarray(
                to_numpy(physics.ambient), dtype=np.float64
            ),
            converged=converged,
            iteration_counts=iteration_counts,
        )
