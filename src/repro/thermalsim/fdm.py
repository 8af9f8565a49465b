"""Three-dimensional finite-volume steady-state thermal solver.

This is the numerical reference for the paper's Section 3: a die of given
lateral dimensions and thickness is discretised on a regular grid, heat is
injected on the top surface by rectangular sources, the four sides and the
top are adiabatic and the bottom is isothermal (the heat sink), exactly the
boundary conditions the paper's analytical model assumes.  The resulting
linear system ``K T = q`` is assembled in sparse form **once** per solver
(the stiffness matrix depends only on geometry, grid and conductivity,
never on the sources), factorized **once** with
``scipy.sparse.linalg.splu``, and the cached LU factors are reused for
every subsequent solve — repeated :meth:`FiniteVolumeThermalSolver.solve`
calls and the multi-RHS :meth:`FiniteVolumeThermalSolver.solve_many` pay
only a pair of triangular substitutions each, which is what makes the
block-resistance reduction of
:class:`~repro.core.thermal.operator.FdmOperator` fast.

The analytical model is expected to reproduce this solver's surface
temperature field to within the accuracy the paper claims ("enough for the
estimation of the thermal profile of large ICs"), and the co-simulation
ablation benchmarks measure the speedup of the analytical path over this
numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from ..technology.materials import SILICON, Material


@dataclass(frozen=True)
class RectangularSource:
    """A rectangular heat source on the die's top surface.

    Attributes
    ----------
    x, y:
        Centre of the rectangle [m] in die coordinates (origin at the die's
        lower-left corner).
    width, length:
        Extents along x and y [m].
    power:
        Total dissipated power [W] (may be negative for image sinks).
    name:
        Optional label used in reports.
    """

    x: float
    y: float
    width: float
    length: float
    power: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.length <= 0.0:
            raise ValueError("source dimensions must be positive")

    @property
    def x_min(self) -> float:
        return self.x - 0.5 * self.width

    @property
    def x_max(self) -> float:
        return self.x + 0.5 * self.width

    @property
    def y_min(self) -> float:
        return self.y - 0.5 * self.length

    @property
    def y_max(self) -> float:
        return self.y + 0.5 * self.length

    @property
    def area(self) -> float:
        return self.width * self.length


@dataclass
class SteadyStateResult:
    """Solution of a steady-state finite-volume run."""

    x_centers: np.ndarray
    y_centers: np.ndarray
    z_centers: np.ndarray
    temperature_rise: np.ndarray  # shape (nx, ny, nz)
    ambient_temperature: float

    @property
    def surface_rise(self) -> np.ndarray:
        """Temperature rise [K] of the top-surface cell layer, shape (nx, ny)."""
        return self.temperature_rise[:, :, 0]

    @cached_property
    def extrapolated_surface_rise(self) -> np.ndarray:
        """Temperature rise [K] extrapolated to the true surface ``z = 0``.

        Cell-centre values sit half a cell below the surface; with heat
        injected on top the vertical gradient is steepest exactly there, so
        sampling the first layer systematically underestimates surface
        temperatures.  Linear extrapolation from the top two cell layers
        (centres at ``dz/2`` and ``3 dz/2``) removes the first-order bias:
        ``T(0) = T0 + (T0 - T1) / 2``.  Falls back to the first layer when
        the grid has a single z layer.
        """
        if self.temperature_rise.shape[2] < 2:
            return self.temperature_rise[:, :, 0]
        first = self.temperature_rise[:, :, 0]
        second = self.temperature_rise[:, :, 1]
        return first + 0.5 * (first - second)

    @property
    def peak_rise(self) -> float:
        """Hottest temperature rise [K] anywhere in the die."""
        return float(self.temperature_rise.max())

    def rise_at(self, x: float, y: float, extrapolate: bool = False) -> float:
        """Bilinear interpolation of the surface temperature rise at (x, y).

        ``extrapolate=True`` samples :attr:`extrapolated_surface_rise`
        (true-surface estimate) instead of the first cell layer.
        """
        field = self.extrapolated_surface_rise if extrapolate else self.surface_rise
        return float(_bilinear(self.x_centers, self.y_centers, field, x, y))

    def temperature_at(self, x: float, y: float) -> float:
        """Absolute surface temperature [K] at (x, y)."""
        return self.rise_at(x, y) + self.ambient_temperature


def _bilinear(
    x_centers: np.ndarray, y_centers: np.ndarray, field: np.ndarray, x: float, y: float
) -> float:
    """Bilinear interpolation on a regular cell-centre grid (clamped)."""
    xi = np.clip(x, x_centers[0], x_centers[-1])
    yi = np.clip(y, y_centers[0], y_centers[-1])
    ix = int(np.clip(np.searchsorted(x_centers, xi) - 1, 0, len(x_centers) - 2))
    iy = int(np.clip(np.searchsorted(y_centers, yi) - 1, 0, len(y_centers) - 2))
    x0, x1 = x_centers[ix], x_centers[ix + 1]
    y0, y1 = y_centers[iy], y_centers[iy + 1]
    tx = 0.0 if x1 == x0 else (xi - x0) / (x1 - x0)
    ty = 0.0 if y1 == y0 else (yi - y0) / (y1 - y0)
    f00 = field[ix, iy]
    f10 = field[ix + 1, iy]
    f01 = field[ix, iy + 1]
    f11 = field[ix + 1, iy + 1]
    return (
        f00 * (1 - tx) * (1 - ty)
        + f10 * tx * (1 - ty)
        + f01 * (1 - tx) * ty
        + f11 * tx * ty
    )


class FiniteVolumeThermalSolver:
    """Steady-state finite-volume solver for a rectangular die.

    Parameters
    ----------
    die_width, die_length:
        Lateral die dimensions [m] along x and y.
    die_thickness:
        Substrate thickness [m] between the active surface and the heat sink.
    nx, ny, nz:
        Grid resolution along x, y, z.
    material:
        Substrate material (bulk silicon by default).
    ambient_temperature:
        Isothermal heat-sink temperature [K] applied at the die bottom.

    The solver's configuration is frozen once the first solve assembles
    and factorizes the system: a later solve whose material/ambient
    settings no longer match the assembly raises, and mutating the grid
    attributes is unsupported — build a new solver per configuration.
    """

    def __init__(
        self,
        die_width: float,
        die_length: float,
        die_thickness: float,
        nx: int = 40,
        ny: int = 40,
        nz: int = 8,
        material: Material = SILICON,
        ambient_temperature: float = 298.15,
    ) -> None:
        if die_width <= 0.0 or die_length <= 0.0 or die_thickness <= 0.0:
            raise ValueError("die dimensions must be positive")
        if nx < 2 or ny < 2 or nz < 2:
            raise ValueError("grid must have at least 2 cells per dimension")
        if ambient_temperature <= 0.0:
            raise ValueError("ambient_temperature must be positive (Kelvin)")
        self.die_width = die_width
        self.die_length = die_length
        self.die_thickness = die_thickness
        self.nx = nx
        self.ny = ny
        self.nz = nz
        self.material = material
        self.ambient_temperature = ambient_temperature

        self.dx = die_width / nx
        self.dy = die_length / ny
        self.dz = die_thickness / nz
        self.x_centers = (np.arange(nx) + 0.5) * self.dx
        self.y_centers = (np.arange(ny) + 0.5) * self.dy
        self.z_centers = (np.arange(nz) + 0.5) * self.dz

        # Source-independent pieces, built on first solve and then reused:
        # the sparse stiffness matrix and its LU factorization, plus the
        # conductivity they were assembled at (to catch configuration
        # mutations that would otherwise serve stale physics).
        self._matrix: Optional[sparse.csc_matrix] = None
        self._factorization: Optional[SuperLU] = None
        self._assembled_conductivity: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Source discretisation
    # ------------------------------------------------------------------ #
    def _surface_power_map(self, sources: Sequence[RectangularSource]) -> np.ndarray:
        """Distribute each source's power over overlapping top-surface cells."""
        power = np.zeros((self.nx, self.ny))
        x_edges = np.arange(self.nx + 1) * self.dx
        y_edges = np.arange(self.ny + 1) * self.dy
        for source in sources:
            overlap_x = np.clip(
                np.minimum(x_edges[1:], source.x_max)
                - np.maximum(x_edges[:-1], source.x_min),
                0.0,
                None,
            )
            overlap_y = np.clip(
                np.minimum(y_edges[1:], source.y_max)
                - np.maximum(y_edges[:-1], source.y_min),
                0.0,
                None,
            )
            overlap = np.outer(overlap_x, overlap_y)
            total = overlap.sum()
            if total <= 0.0:
                raise ValueError(
                    f"source {source.name or source} does not overlap the die"
                )
            power += source.power * overlap / total
        return power

    # ------------------------------------------------------------------ #
    # Assembly and solve
    # ------------------------------------------------------------------ #
    def system_matrix(self) -> sparse.csc_matrix:
        """The sparse stiffness matrix ``K`` (assembled once, then cached).

        Depends only on geometry, grid and conductivity — never on the
        sources — so every solve over this solver shares one assembly.
        Mutating ``material`` / ``ambient_temperature`` after the first
        solve raises rather than silently serving the stale assembly.
        """
        conductivity = self.material.conductivity_at(self.ambient_temperature)
        if self._matrix is not None:
            if conductivity != self._assembled_conductivity:
                raise ValueError(
                    "solver configuration changed after the system was "
                    "assembled; build a new FiniteVolumeThermalSolver per "
                    "configuration"
                )
            return self._matrix
        n_cells = self.nx * self.ny * self.nz

        gx = conductivity * self.dy * self.dz / self.dx
        gy = conductivity * self.dx * self.dz / self.dy
        gz = conductivity * self.dx * self.dy / self.dz
        g_bottom = conductivity * self.dx * self.dy / (0.5 * self.dz)

        # Cell (i, j, k) sits at flat index (i * ny + j) * nz + k.
        i, j, k = (
            axis.reshape(-1)
            for axis in np.indices((self.nx, self.ny, self.nz))
        )
        center = np.arange(n_cells)
        # Each cell's six neighbours in a fixed order: (exists, offset,
        # conductance).
        neighbors = [
            (i > 0, -self.ny * self.nz, gx),
            (i < self.nx - 1, self.ny * self.nz, gx),
            (j > 0, -self.nz, gy),
            (j < self.ny - 1, self.nz, gy),
            (k > 0, -1, gz),
            (k < self.nz - 1, 1, gz),
        ]
        # Bottom layer: conductance to the isothermal sink at temperature
        # rise zero.  The diagonal then adds the neighbour conductances in
        # the order above (a missing neighbour adds an exact 0.0).
        diagonal = np.where(k == self.nz - 1, g_bottom, 0.0)
        for exists, _, conductance in neighbors:
            diagonal = diagonal + np.where(exists, conductance, 0.0)

        # One row per cell: its neighbour entries, then its diagonal.
        # Masking keeps that per-cell order in the flattened triplets.
        present = np.column_stack(
            [exists for exists, _, _ in neighbors] + [np.ones(n_cells, bool)]
        )
        cols = np.column_stack(
            [center + offset for _, offset, _ in neighbors] + [center]
        )
        vals = np.column_stack(
            [np.full(n_cells, -conductance) for _, _, conductance in neighbors]
            + [diagonal]
        )
        rows = np.broadcast_to(center[:, None], present.shape)

        self._matrix = sparse.csc_matrix(
            (vals[present], (rows[present], cols[present])),
            shape=(n_cells, n_cells),
        )
        self._assembled_conductivity = conductivity
        return self._matrix

    @property
    def factorization(self) -> SuperLU:
        """Cached ``splu`` factorization of :meth:`system_matrix`.

        Computed on first access; subsequent solves (any number of
        right-hand sides) reuse the LU factors and pay only the triangular
        substitutions.
        """
        # Always route through system_matrix(): on the cached path it only
        # re-derives the conductivity, which is what detects configuration
        # mutations that would make the cached factors stale.
        matrix = self.system_matrix()
        if self._factorization is None:
            self._factorization = splu(matrix)
        return self._factorization

    def _right_hand_side(self, sources: Sequence[RectangularSource]) -> np.ndarray:
        """Load vector: surface powers injected into the top cell layer."""
        if not sources:
            raise ValueError("at least one heat source is required")
        surface_power = self._surface_power_map(sources)
        rhs = np.zeros((self.nx, self.ny, self.nz))
        rhs[:, :, 0] = surface_power
        return rhs.reshape(-1)

    def _wrap(self, solution: np.ndarray) -> SteadyStateResult:
        temperature = solution.reshape((self.nx, self.ny, self.nz))
        return SteadyStateResult(
            x_centers=self.x_centers,
            y_centers=self.y_centers,
            z_centers=self.z_centers,
            temperature_rise=temperature,
            ambient_temperature=self.ambient_temperature,
        )

    def solve(self, sources: Sequence[RectangularSource]) -> SteadyStateResult:
        """Solve for the steady-state temperature rise produced by ``sources``."""
        # Validate sources (and build the load) before paying for the
        # assembly + factorization.
        rhs = self._right_hand_side(sources)
        return self._wrap(self.factorization.solve(rhs))

    def solve_many(
        self, source_sets: Sequence[Sequence[RectangularSource]]
    ) -> List[SteadyStateResult]:
        """Solve several source configurations against one factorization.

        ``n`` configurations cost one LU factorization plus ``n`` pairs of
        triangular substitutions — the fast path behind
        :meth:`~repro.core.thermal.operator.FdmOperator.reduce`.

        Each right-hand side is its own ``SuperLU.solve`` call.  A single
        multi-column call runs level-3 BLAS on every supernode, and a
        threaded OpenBLAS synchronises its threads on each of those small
        calls: on a 2-vCPU machine, 10 columns of a 30x30x8 grid took
        0.2 s that way against 0.04 s column by column.  With one BLAS
        thread the two ways cost 0.012 s and 0.019 s, and on the shipped
        examples they give the same doubles.
        """
        if not source_sets:
            raise ValueError("at least one source configuration is required")
        loads = [self._right_hand_side(sources) for sources in source_sets]
        return [self._wrap(self.factorization.solve(load)) for load in loads]

    def thermal_resistance(self, source: RectangularSource) -> float:
        """Lumped thermal resistance [K/W] seen by a single source.

        Defined as the peak surface temperature rise divided by the source
        power; used to cross-check the analytical Rth model of Fig. 10.
        """
        if source.power <= 0.0:
            raise ValueError("source power must be positive for Rth extraction")
        result = self.solve([source])
        return result.rise_at(source.x, source.y) / source.power
