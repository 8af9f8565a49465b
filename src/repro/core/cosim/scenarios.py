"""Multi-scenario electro-thermal engine: batched fixed points.

:class:`~repro.core.cosim.engine.ElectroThermalEngine` solves *one*
operating condition at a time; every sweep over technology nodes, supply
voltages, ambient temperatures or workloads therefore loops whole fixed
points in Python.  This module batches that outer loop the same way the
thermal kernel batched point evaluation:

* a :class:`Scenario` names one operating condition — a technology node, a
  supply voltage, an ambient (heat-sink) temperature and a per-block
  activity scaling;
* :class:`ScenarioColumns` holds a batch of scenarios as columns (a node
  index, supplies, ambients, activities) — the one form the batched
  engines stage from; :class:`ScenarioGrid` is the lazy cross product of
  the four axes, whose slices are columns computed by index arithmetic
  (:func:`scenario_grid` gives its rows as objects);
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
from .coupling import BlockPowerModel, ScaledLeakageBlockModel, require_finite
from .engine import ElectroThermalEngine, _image_configuration, resolve_operator
from .resistance_cache import reduced_unit_matrix
from .result import CosimResult


def _take_rows(array, rows: np.ndarray, xp):
    """``array[rows]`` for a host index array, portably across ``xp``.

    numpy's ``take`` is the same exact gather as fancy indexing, at a
    fraction of its per-call cost on small batches.
    """
    if xp is np:
        return array.take(rows, axis=0)
    return xp.take(array, xp.asarray(rows), axis=0)


def _check_activity(activity) -> None:
    """Reject a negative or non-finite activity (or per-block factor).

    Each chained comparison rejects NaN, +-inf and a wrong sign at once;
    only a rejected value pays for the finite check that names it.
    """
    if isinstance(activity, abc.Mapping):
        for name, value in activity.items():
            if not 0.0 <= value < math.inf:
                require_finite(**{f"activity[{name!r}]": value})
                raise ValueError("activity factors must be non-negative")
    elif not 0.0 <= activity < math.inf:
        require_finite(activity=activity)
        raise ValueError("activity must be non-negative")


def _activity_row(
    activity: Union[float, Mapping[str, float]], block_names: Sequence[str]
) -> List[float]:
    """The activity factor of each named block (1.0 where unmapped)."""
    if isinstance(activity, abc.Mapping):
        return [float(activity.get(name, 1.0)) for name in block_names]
    return [float(activity)] * len(block_names)


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
        supply, ambient = self.supply_voltage, self.ambient_temperature
        if supply is not None and not 0.0 < supply < math.inf:
            require_finite(supply_voltage=supply)
            raise ValueError("supply_voltage must be positive")
        if ambient is not None and not 0.0 < ambient < math.inf:
            require_finite(ambient_temperature=ambient)
            raise ValueError("ambient_temperature must be positive (Kelvin)")
        _check_activity(self.activity)

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
        return _activity_row(self.activity, (block_name,))[0]

    def describe(self) -> str:
        """Human-readable scenario name."""
        if self.label:
            return self.label
        return (
            f"{self.technology.name}@{self.vdd:.2f}V"
            f"/{self.ambient:.1f}K/act{self.activity!r}"
        )


#: A ``None`` supply or ambient (the node's default) as a column value.
_DEFAULT = math.nan


def _column(values: Iterable[Optional[float]]) -> np.ndarray:
    return np.asarray([_DEFAULT if v is None else v for v in values], dtype=float)


class ScenarioColumns:
    """Scenario rows as columns: the one form the batched engines stage from.

    Row ``i`` is ``Scenario(technologies[node[i]], supply_voltage[i],
    ambient_temperature[i], activities[activity_index[i]], labels[i])``,
    NaN standing for a ``None`` supply or ambient.  ``vdd``,
    ``supply_scale`` and ``ambient`` resolve the defaults with the
    floating-point operations of the :class:`Scenario` properties, so a
    grid row keeps the ``(s * Vdd) / Vdd`` supply round trip.  The columns
    read as a sequence of scenarios: ``len``, ``[i]`` (a :class:`Scenario`
    built on demand) and ``[a:b]`` (columns again).
    """

    def __init__(
        self,
        technologies: Sequence[TechnologyParameters],
        node: np.ndarray,
        supply_voltage: np.ndarray,
        ambient_temperature: np.ndarray,
        activities: Sequence[Union[float, Mapping[str, float]]],
        activity_index: np.ndarray,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        self.technologies = tuple(technologies)
        self.node = node
        self.supply_voltage = supply_voltage
        self.ambient_temperature = ambient_temperature
        self.activities = tuple(activities)
        self.activity_index = activity_index
        self.labels = labels
        nominal = np.asarray([t.vdd for t in self.technologies])[node]
        self.vdd = np.where(np.isnan(supply_voltage), nominal, supply_voltage)
        self.supply_scale = self.vdd / nominal
        defaults = [t.thermal.ambient_temperature for t in self.technologies]
        self.ambient = np.where(
            np.isnan(ambient_temperature), np.take(defaults, node), ambient_temperature
        )

    @classmethod
    def from_scenarios(cls, scenarios) -> "ScenarioColumns":
        """Columns of any scenario source: columns pass through, a grid is
        sliced whole, scenario objects convert once (nodes shared by
        identity)."""
        if isinstance(scenarios, ScenarioColumns):
            return scenarios
        if isinstance(scenarios, ScenarioGrid):
            return scenarios[:]
        scenarios = tuple(scenarios)
        technologies: Dict[int, TechnologyParameters] = {}
        for scenario in scenarios:
            technologies.setdefault(id(scenario.technology), scenario.technology)
        nodes = {key: index for index, key in enumerate(technologies)}
        labels = tuple(s.label for s in scenarios)
        return cls(
            list(technologies.values()),
            np.asarray([nodes[id(s.technology)] for s in scenarios], dtype=np.intp),
            _column([s.supply_voltage for s in scenarios]),
            _column([s.ambient_temperature for s in scenarios]),
            [s.activity for s in scenarios],
            np.arange(len(scenarios)),
            labels if any(labels) else None,
        )

    @classmethod
    def concatenate(cls, parts: Sequence["ScenarioColumns"]) -> "ScenarioColumns":
        """The rows of ``parts``, in order, as one set of columns: each
        part's node and activity tables are appended and its indices offset
        past the tables before it, so every row keeps its own values."""
        technologies: List[TechnologyParameters] = []
        activities: list = []
        nodes, activity_indices = [], []
        for part in parts:
            nodes.append(part.node + len(technologies))
            activity_indices.append(part.activity_index + len(activities))
            technologies.extend(part.technologies)
            activities.extend(part.activities)
        labels = [label for part in parts for label in part.labels or [""] * len(part)]
        return cls(
            technologies,
            np.concatenate(nodes),
            np.concatenate([part.supply_voltage for part in parts]),
            np.concatenate([part.ambient_temperature for part in parts]),
            activities,
            np.concatenate(activity_indices),
            tuple(labels) if any(labels) else None,
        )

    def __len__(self) -> int:
        return len(self.node)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScenarioColumns(
                self.technologies,
                self.node[index],
                self.supply_voltage[index],
                self.ambient_temperature[index],
                self.activities,
                self.activity_index[index],
                None if self.labels is None else self.labels[index],
            )
        row = range(len(self))[index]
        return next(iter(self[row : row + 1]))

    def __iter__(self) -> Iterator[Scenario]:
        columns = (
            self.node.tolist(),
            self.supply_voltage.tolist(),
            self.ambient_temperature.tolist(),
            self.activity_index.tolist(),
            self.labels or [""] * len(self),
        )
        for node, supply, ambient, activity, label in zip(*columns):
            yield Scenario(
                self.technologies[node],
                None if math.isnan(supply) else supply,
                None if math.isnan(ambient) else ambient,
                self.activities[activity],
                label,
            )

    def describe(self) -> List[str]:
        """Every row's :meth:`Scenario.describe`, formatted from the columns
        (no scenario object is built)."""
        names = [technology.name for technology in self.technologies]
        act = self.activities
        columns = (
            self.node.tolist(),
            self.vdd.tolist(),
            self.ambient.tolist(),
            self.activity_index.tolist(),
            self.labels or [""] * len(self),
        )
        return [
            label or f"{names[node]}@{vdd:.2f}V/{ambient:.1f}K/act{act[index]!r}"
            for node, vdd, ambient, index, label in zip(*columns)
        ]

    def activity_matrix(self, block_names: Sequence[str]) -> np.ndarray:
        """``(rows, blocks)`` activity factors: one row per activity of the
        table (per activity in use, when the table outgrows the rows),
        fanned out by index."""
        entries, index = self.activities, self.activity_index
        if len(entries) > len(self):
            used, index = np.unique(index, return_inverse=True)
            entries = [entries[entry] for entry in used.tolist()]
        # Scalars convert in one pass and broadcast across the blocks; only
        # per-block mappings take the row-by-row lookup.
        mapped = [
            row for row, entry in enumerate(entries) if isinstance(entry, abc.Mapping)
        ]
        scalars = list(entries)
        for row in mapped:
            scalars[row] = 0.0
        column = np.asarray(scalars, dtype=float)
        table = np.repeat(column[:, None], len(block_names), axis=1)
        for row in mapped:
            table[row] = _activity_row(entries[row], block_names)
        return table[index]


class ScenarioGrid:
    """Lazy cross product of the four scenario axes, in deterministic order.

    Rows run technology x supply scale x ambient x activity, the last axis
    fastest.  ``grid[a:b]`` computes the rows' :class:`ScenarioColumns` by
    index arithmetic over the axis lengths, so a streamed grid never exists
    at once and never builds a :class:`Scenario`; ``[i]`` and iteration
    give scenario objects.  The axes are validated here, by name.

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

    def __init__(
        self,
        technologies: Sequence[TechnologyParameters],
        supply_scales: Iterable[float] = (1.0,),
        ambient_temperatures: Iterable[Optional[float]] = (None,),
        activities: Iterable[Union[float, Mapping[str, float]]] = (1.0,),
    ) -> None:
        self.technologies = tuple(technologies)
        if not self.technologies:
            raise ValueError("at least one technology is required")
        scales, ambients = tuple(supply_scales), tuple(ambient_temperatures)
        self.activities = tuple(activities)
        for scale in scales:
            if not 0.0 < scale < math.inf:
                require_finite(supply_scales=scale)
                raise ValueError("supply_scales must be positive")
        for ambient in ambients:
            if ambient is not None and not 0.0 < ambient < math.inf:
                require_finite(ambient_temperatures=ambient)
                raise ValueError("ambient_temperatures must be positive (Kelvin)")
        for activity in self.activities:
            _check_activity(activity)
        self._scales = np.asarray(scales, dtype=float)
        self._ambients = _column(ambients)
        self._nominal = np.asarray([t.vdd for t in self.technologies])
        self._shape = (
            len(self.technologies),
            len(scales),
            len(ambients),
            len(self.activities),
        )

    def __len__(self) -> int:
        return math.prod(self._shape)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, int):
            return next(iter(self[rows : rows + 1]))
        _, scales, ambients, activities = self._shape
        rows = np.arange(rows.start, rows.stop, rows.step)
        rows, activity = np.divmod(rows, activities)
        rows, ambient = np.divmod(rows, ambients)
        node, scale = np.divmod(rows, scales)
        return ScenarioColumns(
            self.technologies,
            node,
            self._scales[scale] * self._nominal[node],
            self._ambients[ambient],
            self.activities,
            activity,
        )

    def __iter__(self) -> Iterator[Scenario]:
        for start in range(0, len(self), 4096):
            yield from self[start : start + 4096]


def scenario_grid(
    technologies: Sequence[TechnologyParameters],
    supply_scales: Iterable[float] = (1.0,),
    ambient_temperatures: Iterable[Optional[float]] = (None,),
    activities: Iterable[Union[float, Mapping[str, float]]] = (1.0,),
) -> List[Scenario]:
    """The rows of :class:`ScenarioGrid`, as a list of scenarios."""
    return list(
        ScenarioGrid(technologies, supply_scales, ambient_temperatures, activities)
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

    Staging reads :class:`ScenarioColumns` only (explicit scenario lists
    convert once): constants that depend on the node alone are computed
    once per node and fanned out by the node index, and conductivity once
    per distinct (node, ambient) pair.

    :meth:`static_powers` and :meth:`steady_targets` evaluate every row
    of the holder; both loops drop settled rows by compacting the holder
    (:meth:`_compacted`) on the steps where rows settle, never per call.

    Array attributes are indexed ``[scenario]`` or ``[scenario, block]``
    with blocks in :attr:`ScenarioEngine.block_names` order.
    """

    #: The per-row arrays the solvers read: cast once to the working
    #: policy, and compacted to the still-active rows by :meth:`_compacted`.
    _ROW_ARRAYS = (
        "ambient",
        "conductivity",
        "heat_sink",
        "dynamic",
        "static_ref",
        "_reference",
        "_vt0",
        "_kt",
        "_ideality",
        "_prefactor_base",
        "_cold",
    )

    def __init__(
        self,
        engine: "ScenarioEngine",
        scenarios: Union[ScenarioColumns, ScenarioGrid, Iterable[Scenario]],
    ):
        columns = ScenarioColumns.from_scenarios(scenarios)
        if not len(columns):
            raise ValueError("at least one scenario is required")
        self.scenarios = columns
        count = len(columns)
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

        nodes = columns.technologies
        node_of = self._node_of = columns.node
        self.ambient = columns.ambient
        self.conductivity = np.empty(count)
        for index in np.unique(node_of):
            rows = node_of == index
            ambients, inverse = np.unique(self.ambient[rows], return_inverse=True)
            silicon = nodes[index].thermal.silicon
            values = [silicon.conductivity_at(float(value)) for value in ambients]
            self.conductivity[rows] = np.asarray(values, dtype=float)[inverse]
        self.heat_sink = self._per_node([t.thermal.heat_sink_resistance for t in nodes])
        self.volumetric_heat_capacity = self._per_node(
            [t.thermal.silicon.volumetric_heat_capacity for t in nodes]
        )

        # Supply / activity scalings — the same floating-point operations,
        # in the same order, as :meth:`ScenarioEngine.scenario_block_powers`.
        scale = columns.supply_scale
        activity = columns.activity_matrix(engine.block_names)
        dynamic_ref = np.asarray(
            [engine.dynamic_powers[name] for name in engine.block_names]
        )
        static_base = np.asarray(
            [engine.static_powers_at_reference[name] for name in engine.block_names]
        )
        self.dynamic = dynamic_ref * ((scale * scale)[:, np.newaxis] * activity)
        self.static_ref = static_base * scale[:, np.newaxis]

        # Eq. 13 pieces hoisted out of the iteration.  The denominator of
        # the leakage temperature ratio is temperature-independent, so it
        # is evaluated once through the kernel — once per node, every
        # operation being elementwise — and fanned out to the rows; the
        # per-step numerator is inlined in :meth:`static_powers` with the
        # identical arithmetic (at VGS = 0 and VDS = Vdd the body and DIBL
        # terms of Eq. 2 are exact float zeros, so dropping them preserves
        # bit-level parity with the scalar path).
        devices = [t.device(engine.device_type) for t in nodes]
        kernel_devices = leakage_kernel.DeviceArray.from_devices(devices)
        width = np.asarray([d.nominal_width for d in devices])
        vdd = np.asarray([t.vdd for t in nodes])
        reference = np.asarray([t.reference_temperature for t in nodes])
        cold = leakage_kernel.single_device_off_current(
            kernel_devices, width, vdd, reference, reference
        )
        prefactor = (width / kernel_devices.channel_length) * kernel_devices.i0
        self._reference = self._per_node(reference, wide=True)
        self._cold = self._per_node(cold, wide=True)
        self._prefactor_base = self._per_node(prefactor, wide=True)
        self._vt0 = self._per_node(kernel_devices.vt0, wide=True)
        self._kt = self._per_node(kernel_devices.kt, wide=True)
        self._ideality = self._per_node(kernel_devices.n, wide=True)

        # Host (numpy float64) views survive for consumers that stay on
        # the host whatever the policy — the transient tau derivation, the
        # runaway-ceiling validation, scalar bookkeeping.  On the default
        # policy they are the same objects as the hot arrays.
        self.ambient_host = self.ambient
        self.conductivity_host = self.conductivity
        self.volumetric_heat_capacity_host = self.volumetric_heat_capacity
        self.ambient_ceiling = float(np.max(self.ambient_host))
        for name in self._ROW_ARRAYS:
            setattr(self, name, self.cast(getattr(self, name)))

    def _per_node(self, values, wide: bool = False) -> np.ndarray:
        """One value per node, fanned out to the rows by the node index.

        ``wide`` fans out to ``(rows, blocks)``, so that the elementwise
        operations of :meth:`static_powers` meet no broadcast (a
        broadcast operand costs several times a same-shape one on small
        batches; the values, and so the results, are the same).
        """
        values = np.asarray(values, dtype=float)[self._node_of]
        return values[:, np.newaxis].repeat(self.blocks, axis=1) if wide else values

    def cast(self, array):
        """``array`` under the engine's namespace/precision policy.

        The identity on the default (numpy/float64) policy — staged arrays
        pass through untouched, which is what keeps the default engine
        bit-identical to the pre-seam code.
        """
        if self._default_policy:
            return array
        return self.xp.asarray(array, dtype=self.dtype)

    def _compacted(self, kept: np.ndarray) -> "ScenarioPhysics":
        """A physics holding only the constants of the rows ``kept`` (host
        indices into this batch).

        The fixed point and the transient integrator ask for one only on
        steps where rows settle, so per-row constants are gathered once
        per settling event rather than on every step.  Gathers are exact
        copies.
        """
        held = object.__new__(ScenarioPhysics)
        held.__dict__.update(self.__dict__)
        for name in self._ROW_ARRAYS:
            setattr(held, name, _take_rows(getattr(self, name), kept, self.xp))
        held.count = len(kept)
        return held

    def static_powers(self, temperatures):
        """Static power [W] of this batch's rows at ``temperatures``.

        ``temperatures`` is ``(count, blocks)``, one row per row of this
        physics (compact the physics with :meth:`_compacted`, not the
        call).  Every operation is elementwise, so a row's result does
        not depend on which other rows are evaluated with it.

        Compound assignments (the Array API's in-place operators) reuse
        the temporaries this method allocates, which keeps large batches
        from re-faulting fresh pages every call.  Each one at most swaps
        the operands of an IEEE multiply or add, which is exact, so the
        results equal the plain expression ``static_ref * (prefactor *
        (T/T_ref)^2 * exp(...) / cold)`` bit for bit.
        """
        xp = self.xp
        # -Vth(T) = -(vt0 - kt * (T - T_ref)), built as 0.0 - Vth to
        # preserve the reference expression's signed-zero behavior.
        gate = 0.0 - (self._vt0 - self._kt * (temperatures - self._reference))
        # n * kT/q (same association as technology.constants); the
        # positivity check lives with the scenario construction.
        scratch = (BOLTZMANN * temperatures) / ELEMENTARY_CHARGE
        scratch *= self._ideality
        # safe_exp(-Vth / (n kT/q)), clip+exp exactly as the kernel.
        gate /= scratch
        limit = leakage_kernel.MAX_EXPONENT
        gate = xp.exp(xp.clip(gate, -limit, limit))
        # static_ref * ((prefactor * (T / T_ref)^2) * gate / cold)
        hot = temperatures / self._reference
        hot *= hot
        hot *= self._prefactor_base
        hot *= gate
        hot /= self._cold
        hot *= self.static_ref
        return hot

    def steady_targets(self, powers):
        """Steady-state block temperatures [K] for this batch's ``powers``.

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
        sums = self.heat_sink * xp.sum(powers, axis=1)
        rises = powers[:, 0:1] * unit[:, 0]
        for column in range(1, blocks):
            rises += powers[:, column : column + 1] * unit[:, column]
        rises /= self.conductivity[:, None]
        rises += self.ambient[:, None] + sums[:, None]
        return rises


@dataclass(frozen=True)
class ScenarioBatchResult:
    """Converged (or best-effort) solutions of a scenario batch.

    Array attributes are indexed ``[scenario, block]`` (or ``[scenario]``),
    with blocks ordered as :attr:`block_names`.
    """

    #: The per-scenario array fields, in reporting order.
    FIELDS = (
        "block_temperatures",
        "dynamic_power",
        "static_power",
        "ambient_temperatures",
        "converged",
        "iteration_counts",
    )

    scenarios: ScenarioColumns
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

    def series(self) -> Dict[str, np.ndarray]:
        """The standard per-scenario series, one 1-D array each.

        The one definition behind the sweep reports
        (:func:`repro.analysis.sweep.steady_batch_series`), the streamed
        online reduction (:mod:`repro.core.cosim.streaming`) and reduced
        study results.
        """
        return {
            "peak_temperature": self.peak_temperature,
            "peak_rise": self.peak_rise,
            "total_power": self.total_power,
            "total_static_power": self.total_static_power,
            "converged": self.converged,
            "iteration_counts": self.iteration_counts,
            "ambient_temperatures": self.ambient_temperatures,
        }

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
            **{name: getattr(self, name)[window] for name in self.FIELDS},
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

    The batch iterates on the still-active rows only.  On an iteration
    where rows settle, they are recorded on the host and compacted out of
    the state *and* of the per-row constants (a compacted
    :class:`ScenarioPhysics`) with one index gather; every other iteration
    reads the constants whole, with no gather.  Bookkeeping (convergence
    flags, iteration counts) stays on the host in numpy.

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

    temperatures = np.empty((count, blocks), dtype=physics.precision.dtype_name)
    converged = np.zeros(count, dtype=bool)
    iteration_counts = np.zeros(count, dtype=int)

    temps = xp.asarray(
        xp.broadcast_to(physics.ambient[:, None], (count, blocks)), copy=True
    )
    ceiling = xp.asarray(max_temperature, dtype=physics.dtype)
    rows = np.arange(count)  # batch indices of the active rows
    active = physics
    for index in range(max_iterations):
        # Compound assignments reuse this iteration's fresh arrays; see
        # ScenarioPhysics.static_powers for why that is exact.
        powers = active.static_powers(temps)
        powers += active.dynamic
        proposed = active.steady_targets(powers)
        if damping != 1.0:
            # Undamped, both steps are exact identities on these positive
            # temperatures (x * 1.0 and x + 0.0 * t), so they are skipped.
            proposed *= damping
            proposed += (1.0 - damping) * temps
        proposed = xp.minimum(proposed, ceiling)
        # Largest change per row, folded column by column: max is exact in
        # any order, and numpy reduces a short block axis slowly.
        delta = xp.abs(proposed - temps)
        change = delta[:, 0]
        for column in range(1, blocks):
            change = xp.maximum(change, delta[:, column])
        change = to_numpy(change)
        temps = proposed
        settled = change < tolerance
        if index > 0 and settled.any():
            done = rows[settled]
            converged[done] = True
            iteration_counts[done] = index + 1
            temperatures[done] = to_numpy(temps)[settled]
            kept = np.flatnonzero(~settled)
            rows = rows[kept]
            temps = _take_rows(temps, kept, xp)
            if rows.size == 0:
                break
            active = active._compacted(kept)
    iteration_counts[rows] = index + 1
    temperatures[rows] = to_numpy(temps)

    # Scenarios that hit the runaway ceiling report non-convergence, as
    # in the scalar engine.
    runaway = (temperatures >= max_temperature - 1e-9).any(axis=1)
    converged &= ~runaway

    static_power = to_numpy(physics.static_powers(physics.cast(temperatures)))
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
        scenarios: Union[ScenarioColumns, ScenarioGrid, Sequence[Scenario]],
        max_iterations: int = 50,
        tolerance: float = 0.01,
        damping: float = 1.0,
        max_temperature: float = 500.0,
    ) -> ScenarioBatchResult:
        """Damped fixed point for every scenario, as array operations.

        ``scenarios`` are columns, a grid, or scenario objects (converted
        once).  Parameters mirror :meth:`ElectroThermalEngine.solve`; each
        scenario converges (and freezes) independently, so results are
        invariant under permutation of the scenario list.  The loop itself
        lives in :func:`solve_fixed_point`.
        """
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
