"""Pluggable thermal backends: one reduction seam behind every engine.

The electro-thermal engines (scalar
:class:`~repro.core.cosim.engine.ElectroThermalEngine`, batched
:class:`~repro.core.cosim.scenarios.ScenarioEngine` and
:class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`)
only ever consume the floorplan's thermal behaviour through one object:
the reduced block-to-block thermal-resistance matrix.  Steady-state
targets, the Eq. 13 static-power coupling and the exponential transient
updates are all downstream of that matrix — so swapping how it is
*computed* swaps the whole thermal model without touching a single hot
path.

:class:`ThermalOperator` is that seam.  An operator reduces a floorplan to
the **unit-conductivity** ``(n_blocks, n_blocks)`` matrix — entry
``[i, j]`` is the temperature rise at block ``i``'s centre per watt
dissipated over block ``j``'s footprint, at substrate conductivity
``k = 1 W/m/K`` — plus capability metadata.  Every built-in backend is
linear in ``1/k`` (``R(k) = R(1) / k``), which is what lets one cached
reduction serve scenarios at any ambient temperature; the
:attr:`BackendCapabilities.conductivity_factorizes` flag records this
contract and the engines enforce it.

Three implementations reproduce the paper's accuracy-vs-speed trade-off as
selectable backends:

* :class:`AnalyticalImageOperator` — the paper's closed-form image-method
  model (Eqs. 18/20 + method of images), bit-identical to the pre-backend
  engines and by far the fastest;
* :class:`FdmOperator` — the numerical reference: the 3-D finite-volume
  solver of :mod:`repro.thermalsim.fdm`, factorized once (``splu``) and
  solved for all ``n_blocks`` unit-power right-hand sides by reusing
  those LU factors, with block-centre surface sampling;
* :class:`FosterOperator` — the lumped-RC steady-state limit (one
  1-D Foster column per block, no lateral spreading, no inter-block
  coupling) for cheap smoke-level studies.

Backends are selected by name (:data:`THERMAL_BACKENDS`) through
:func:`make_operator`, which is what
``ScenarioEngine(..., thermal_backend="fdm")`` and the declarative
``StudySpec.thermal_backend`` resolve through.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ...technology.materials import Material
from .images import ImageExpansion
from .kernel import pairwise_rise

if TYPE_CHECKING:  # imported for annotations only (floorplan imports us)
    from ...floorplan.floorplan import Floorplan

#: Names of the selectable thermal backends, in documentation order.
#: Mirrored (as a plain literal, to keep argument parsing numpy-free) by
#: :data:`repro.api.kinds.THERMAL_BACKENDS`.
THERMAL_BACKENDS = ("analytical", "fdm", "foster")

#: Grid options understood by the ``fdm`` backend.
FDM_GRID_OPTIONS = ("nx", "ny", "nz")


def validated_int(value, label: str, minimum: int) -> int:
    """An exact integer at or above ``minimum``, or a labelled ValueError.

    Shared by the operator validators and the spec layer so that a bad
    grid option fails the same way — naming the offending field — at
    every API level (bools, floats with fractional parts and non-numeric
    values are all rejected rather than silently coerced).
    """
    try:
        valid = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):  # inf/nan overflow int()
        valid = False
    if not valid or int(value) < minimum:
        raise ValueError(f"{label} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BackendCapabilities:
    """What a thermal backend can (and cannot) do.

    Attributes
    ----------
    backend:
        The backend's registry name.
    description:
        One-line human-readable summary (``repro info`` prints it).
    conductivity_factorizes:
        True when the reduction is linear in ``1/k`` so that
        ``reduce()`` at unit conductivity scaled by each scenario's
        ``1 / k(T_amb)`` is exact.  The engines require this.
    field_maps:
        True when the backend can also produce full surface temperature
        fields (not just block-centre reductions).
    numerical:
        True for discretized reference solvers, False for closed forms.
    mutual_coupling:
        True when the reduction resolves block-to-block interaction
        (off-diagonal entries); False for purely self-heating models.
    """

    backend: str
    description: str
    conductivity_factorizes: bool = True
    field_maps: bool = False
    numerical: bool = False
    mutual_coupling: bool = True

    def flags(self) -> str:
        """Compact ``flag=yes/no`` rendering for CLI listings."""
        entries = (
            ("field_maps", self.field_maps),
            ("mutual_coupling", self.mutual_coupling),
            ("numerical", self.numerical),
            ("conductivity_factorizes", self.conductivity_factorizes),
        )
        return ", ".join(f"{name}={'yes' if on else 'no'}" for name, on in entries)


class ThermalOperator(ABC):
    """Reduces a floorplan to a unit-conductivity block-resistance matrix.

    Implementations must be immutable value objects: equal operators must
    produce equal reductions, and :meth:`cache_key` must capture every
    parameter the reduction depends on *besides* the floorplan geometry
    (the shared cache in :mod:`repro.core.cosim.resistance_cache` keys on
    ``(cache_key, geometry)``).
    """

    @property
    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Capability metadata of this backend."""

    @property
    def name(self) -> str:
        """The backend's registry name."""
        return self.capabilities.backend

    @abstractmethod
    def cache_key(self) -> Tuple:
        """Hashable configuration fingerprint (geometry excluded)."""

    @abstractmethod
    def reduce(self, floorplan: "Floorplan", block_names: Sequence[str]) -> np.ndarray:
        """Unit-conductivity block-to-block resistance matrix.

        Entry ``[i, j]`` is the temperature rise at block ``i``'s centre
        per watt dissipated uniformly over block ``j``'s footprint, at
        substrate conductivity 1 W/m/K; divide by the physical
        conductivity for the matrix in [K/W].
        """


@dataclass(frozen=True)
class AnalyticalImageOperator(ThermalOperator):
    """The paper's closed-form model: Eq. 18/20 self/mutual terms plus the
    method of images for the adiabatic sides and the isothermal bottom.

    This is the default backend and is bit-identical to the pre-backend
    engines: the reduction is the same grouped
    :func:`~repro.core.thermal.kernel.pairwise_rise` call over the same
    :class:`~repro.core.thermal.images.ImageExpansion`.
    """

    image_rings: int = 1
    include_bottom_images: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "image_rings", validated_int(self.image_rings, "image_rings", 0)
        )
        object.__setattr__(
            self, "include_bottom_images", bool(self.include_bottom_images)
        )

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            backend="analytical",
            description=(
                "closed-form image-method model (paper Eqs. 18/20); "
                "fastest, also powers surface maps"
            ),
            field_maps=True,
        )

    def cache_key(self) -> Tuple:
        return ("analytical", self.image_rings, self.include_bottom_images)

    def reduce(self, floorplan: "Floorplan", block_names: Sequence[str]) -> np.ndarray:
        expansion = ImageExpansion(
            floorplan.die,
            rings=self.image_rings,
            include_bottom_images=self.include_bottom_images,
        )
        blocks = [floorplan.block(name) for name in block_names]
        unit_sources = [block.to_heat_source(1.0) for block in blocks]
        expanded, groups = expansion.expand_arrays(unit_sources)
        observers = np.asarray([[block.x, block.y] for block in blocks])
        return pairwise_rise(
            observers,
            expanded,
            1.0,
            groups=groups,
            group_count=len(blocks),
        )


@dataclass(frozen=True)
class FdmOperator(ThermalOperator):
    """Finite-volume reduction: the numerical reference as a backend.

    Solves the 3-D steady heat equation on an ``nx x ny x nz`` grid with
    the exact boundary conditions the analytical model approximates
    (adiabatic sides/top, isothermal bottom).  The sparse system is
    factorized once (``splu`` via
    :attr:`~repro.thermalsim.fdm.FiniteVolumeThermalSolver.factorization`)
    and all ``n_blocks`` unit-power right-hand sides are solved against
    those LU factors; block temperatures are sampled at each
    block's centre on the top surface (bilinear).
    """

    nx: int = 40
    ny: int = 40
    nz: int = 8

    def __post_init__(self) -> None:
        for label in FDM_GRID_OPTIONS:
            object.__setattr__(
                self, label, validated_int(getattr(self, label), label, 2)
            )

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            backend="fdm",
            description=(
                "3-D finite-volume reference (sparse splu, one factorization "
                "for all blocks); accuracy yardstick"
            ),
            numerical=True,
        )

    def cache_key(self) -> Tuple:
        return ("fdm", self.nx, self.ny, self.nz)

    def reduce(self, floorplan: "Floorplan", block_names: Sequence[str]) -> np.ndarray:
        # Imported here so the other backends never pay for scipy.sparse.
        from ...thermalsim.fdm import FiniteVolumeThermalSolver, RectangularSource

        solver = FiniteVolumeThermalSolver(
            die_width=floorplan.die.width,
            die_length=floorplan.die.length,
            die_thickness=floorplan.die.thickness,
            nx=self.nx,
            ny=self.ny,
            nz=self.nz,
            material=_UNIT_CONDUCTIVITY,
            ambient_temperature=_UNIT_CONDUCTIVITY.reference_temperature,
        )
        blocks = [floorplan.block(name) for name in block_names]
        source_sets = [
            [
                RectangularSource(
                    x=block.x,
                    y=block.y,
                    width=block.width,
                    length=block.length,
                    power=1.0,
                    name=block.name,
                )
            ]
            for block in blocks
        ]
        solutions = solver.solve_many(source_sets)
        matrix = np.empty((len(blocks), len(blocks)))
        for column, solution in enumerate(solutions):
            for row, block in enumerate(blocks):
                # Extrapolated to z = 0: cell centres sit half a cell below
                # the surface, where the source-driven gradient is steepest.
                matrix[row, column] = solution.rise_at(
                    block.x, block.y, extrapolate=True
                )
        return matrix


@dataclass(frozen=True)
class FosterOperator(ThermalOperator):
    """Lumped-RC steady-state limit: one 1-D Foster column per block.

    Each block sees only the steady-state rise of its own single-pole
    Foster network — a straight column of substrate one block-footprint
    wide and one die-thickness deep (``R = t / (k A)``), the ``t -> inf``
    limit of :func:`repro.thermalsim.rc_network.single_pole_network`.  No
    lateral spreading, no inter-block coupling: a deliberately crude,
    essentially free backend for smoke-level studies and for bounding how
    much the full models matter.
    """

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            backend="foster",
            description=(
                "lumped RC steady-state limit (1-D column per block, no "
                "coupling); cheap smoke-level studies"
            ),
            mutual_coupling=False,
        )

    def cache_key(self) -> Tuple:
        return ("foster",)

    def reduce(self, floorplan: "Floorplan", block_names: Sequence[str]) -> np.ndarray:
        # The t -> inf limit of a one-stage Foster network is its total
        # resistance (rc_network.FosterNetwork.steady_state_rise), which
        # for a 1-D column of substrate is thickness / (k * area) — at
        # unit conductivity simply thickness / area.
        thickness = floorplan.die.thickness
        return np.diag(
            np.asarray(
                [thickness / floorplan.block(name).area for name in block_names]
            )
        )


#: The FDM backend reduces at k = 1 W/m/K exactly like the analytical one:
#: a temperature-independent unit-conductivity material makes the assembled
#: stiffness matrix the unit-conductivity operator, so R(k) = R(1) / k.
_UNIT_CONDUCTIVITY = Material(
    name="unit conductivity",
    thermal_conductivity=1.0,
    density=1.0,
    specific_heat=1.0,
)


def backend_capabilities() -> Dict[str, BackendCapabilities]:
    """Capability metadata of every built-in backend, by registry name."""
    return {name: make_operator(name).capabilities for name in THERMAL_BACKENDS}


def make_operator(
    thermal_backend: Union[str, ThermalOperator] = "analytical",
    image_rings: int = 1,
    include_bottom_images: bool = True,
    options: Optional[Mapping[str, object]] = None,
) -> ThermalOperator:
    """Resolve a backend name (or pass through an operator instance).

    Parameters
    ----------
    thermal_backend:
        One of :data:`THERMAL_BACKENDS`, or an already-built
        :class:`ThermalOperator` (returned unchanged; ``options`` must
        then be empty).
    image_rings, include_bottom_images:
        Boundary-image configuration consumed by the ``analytical``
        backend (the other backends model the die boundaries exactly and
        ignore them).
    options:
        Backend-specific options: the ``fdm`` backend accepts the grid
        resolution (:data:`FDM_GRID_OPTIONS`); the others accept none.
    """
    options = dict(options or {})
    if isinstance(thermal_backend, ThermalOperator):
        if options:
            raise ValueError(
                "backend options cannot be combined with an already-built "
                f"operator (got option(s): {', '.join(sorted(options))})"
            )
        return thermal_backend
    if thermal_backend == "analytical":
        if options:
            raise ValueError(
                "the 'analytical' backend takes image_rings/"
                "include_bottom_images, not backend options "
                f"(got: {', '.join(sorted(options))})"
            )
        return AnalyticalImageOperator(
            image_rings=image_rings, include_bottom_images=include_bottom_images
        )
    if thermal_backend == "fdm":
        unknown = sorted(set(options) - set(FDM_GRID_OPTIONS))
        if unknown:
            raise ValueError(
                f"unknown fdm backend option(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(FDM_GRID_OPTIONS)}"
            )
        return FdmOperator(**options)
    if thermal_backend == "foster":
        if options:
            raise ValueError(
                "the 'foster' backend takes no options "
                f"(got: {', '.join(sorted(options))})"
            )
        return FosterOperator()
    raise ValueError(
        f"unknown thermal backend {thermal_backend!r}; "
        f"known backends: {', '.join(THERMAL_BACKENDS)}"
    )
