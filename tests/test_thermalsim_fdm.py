"""Tests for repro.thermalsim.fdm (finite-volume reference solver)."""

import numpy as np
import pytest
from scipy import sparse

from repro.thermalsim.fdm import FiniteVolumeThermalSolver, RectangularSource


@pytest.fixture(scope="module")
def solver():
    # Coarse grid keeps the suite fast while exercising the full assembly.
    return FiniteVolumeThermalSolver(
        die_width=1.0e-3,
        die_length=1.0e-3,
        die_thickness=0.3e-3,
        nx=20,
        ny=20,
        nz=6,
        ambient_temperature=298.15,
    )


@pytest.fixture(scope="module")
def centered_source():
    return RectangularSource(x=0.5e-3, y=0.5e-3, width=0.2e-3, length=0.2e-3, power=0.5)


@pytest.fixture(scope="module")
def centered_solution(solver, centered_source):
    return solver.solve([centered_source])


class TestValidation:
    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            FiniteVolumeThermalSolver(0.0, 1e-3, 1e-4)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            FiniteVolumeThermalSolver(1e-3, 1e-3, 1e-4, nx=1)

    def test_source_outside_die_rejected(self, solver):
        outside = RectangularSource(x=5e-3, y=5e-3, width=1e-4, length=1e-4, power=1.0)
        with pytest.raises(ValueError):
            solver.solve([outside])

    def test_empty_source_list_rejected(self, solver):
        with pytest.raises(ValueError):
            solver.solve([])

    def test_configuration_mutation_after_assembly_raises(self, centered_source):
        # The assembled system is cached; serving it at a silently changed
        # conductivity would be stale physics, so the solver refuses.
        fresh = FiniteVolumeThermalSolver(1e-3, 1e-3, 3e-4, nx=8, ny=8, nz=4)
        fresh.solve([centered_source])
        fresh.ambient_temperature = 350.0
        with pytest.raises(ValueError, match="configuration changed"):
            fresh.solve([centered_source])

    def test_empty_source_list_fails_before_assembly(self):
        # Source validation must not pay for the sparse assembly and
        # factorization (the expensive, source-independent steps).
        fresh = FiniteVolumeThermalSolver(1e-3, 1e-3, 1e-4)
        with pytest.raises(ValueError):
            fresh.solve([])
        assert fresh._matrix is None and fresh._factorization is None
        with pytest.raises(ValueError):
            fresh.solve_many([])
        assert fresh._matrix is None

    def test_bad_source_geometry_rejected(self):
        with pytest.raises(ValueError):
            RectangularSource(x=0.0, y=0.0, width=0.0, length=1e-4, power=1.0)


class TestSolutionPhysics:
    def test_all_rises_positive(self, centered_solution):
        assert (centered_solution.temperature_rise >= 0.0).all()
        assert centered_solution.peak_rise > 0.0

    def test_hotspot_at_source_center(self, centered_solution):
        import numpy as np

        surface = centered_solution.surface_rise
        index = np.unravel_index(int(np.argmax(surface)), surface.shape)
        x = centered_solution.x_centers[index[0]]
        y = centered_solution.y_centers[index[1]]
        assert abs(x - 0.5e-3) < 0.1e-3
        assert abs(y - 0.5e-3) < 0.1e-3

    def test_temperature_decreases_with_depth(self, centered_solution):
        column = centered_solution.temperature_rise[10, 10, :]
        assert all(b < a for a, b in zip(column, column[1:]))

    def test_linearity_in_power(self, solver, centered_source):
        single = solver.solve([centered_source]).peak_rise
        double = solver.solve(
            [
                RectangularSource(
                    x=centered_source.x, y=centered_source.y,
                    width=centered_source.width, length=centered_source.length,
                    power=2.0 * centered_source.power,
                )
            ]
        ).peak_rise
        assert double == pytest.approx(2.0 * single, rel=1e-9)

    def test_superposition_of_two_sources(self, solver):
        a = RectangularSource(x=0.3e-3, y=0.3e-3, width=0.1e-3, length=0.1e-3, power=0.3)
        b = RectangularSource(x=0.7e-3, y=0.7e-3, width=0.1e-3, length=0.1e-3, power=0.2)
        combined = solver.solve([a, b])
        separate_a = solver.solve([a])
        separate_b = solver.solve([b])
        probe = (0.5e-3, 0.5e-3)
        assert combined.rise_at(*probe) == pytest.approx(
            separate_a.rise_at(*probe) + separate_b.rise_at(*probe), rel=1e-9
        )

    def test_absolute_temperature_adds_ambient(self, centered_solution):
        assert centered_solution.temperature_at(0.5e-3, 0.5e-3) == pytest.approx(
            centered_solution.rise_at(0.5e-3, 0.5e-3) + 298.15
        )

    def test_thermal_resistance_positive_and_sane(self, solver, centered_source):
        resistance = solver.thermal_resistance(centered_source)
        # A 200 um block on a 300 um-thick die: tens of K/W.
        assert 1.0 < resistance < 500.0

    def test_thinner_die_is_cooler(self, centered_source):
        thick = FiniteVolumeThermalSolver(
            1e-3, 1e-3, 0.5e-3, nx=16, ny=16, nz=6
        ).solve([centered_source]).peak_rise
        thin = FiniteVolumeThermalSolver(
            1e-3, 1e-3, 0.1e-3, nx=16, ny=16, nz=6
        ).solve([centered_source]).peak_rise
        assert thin < thick


def per_cell_system_matrix(solver):
    """Reference assembly: one cell at a time, neighbours in a fixed order
    (-x, +x, -y, +y, -z, +z) and then the diagonal, which starts from the
    sink conductance of a bottom cell and adds each neighbour's in turn."""
    nx, ny, nz = solver.nx, solver.ny, solver.nz
    conductivity = solver.material.conductivity_at(solver.ambient_temperature)
    gx = conductivity * solver.dy * solver.dz / solver.dx
    gy = conductivity * solver.dx * solver.dz / solver.dy
    gz = conductivity * solver.dx * solver.dy / solver.dz
    g_bottom = conductivity * solver.dx * solver.dy / (0.5 * solver.dz)

    def index(i, j, k):
        return (i * ny + j) * nz + k

    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                diagonal = g_bottom if k == nz - 1 else 0.0
                for exists, neighbor, conductance in (
                    (i > 0, (i - 1, j, k), gx),
                    (i < nx - 1, (i + 1, j, k), gx),
                    (j > 0, (i, j - 1, k), gy),
                    (j < ny - 1, (i, j + 1, k), gy),
                    (k > 0, (i, j, k - 1), gz),
                    (k < nz - 1, (i, j, k + 1), gz),
                ):
                    if exists:
                        rows.append(index(i, j, k))
                        cols.append(index(*neighbor))
                        vals.append(-conductance)
                        diagonal += conductance
                rows.append(index(i, j, k))
                cols.append(index(i, j, k))
                vals.append(diagonal)
    size = nx * ny * nz
    return sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))


class TestAssembly:
    @pytest.mark.parametrize("grid", [(2, 2, 2), (3, 4, 2), (5, 2, 3), (6, 5, 4)])
    def test_system_matrix_matches_per_cell_reference(self, grid):
        nx, ny, nz = grid
        solver = FiniteVolumeThermalSolver(
            1.0e-3, 2.0e-3, 0.4e-3, nx=nx, ny=ny, nz=nz, ambient_temperature=310.0
        )
        matrix = solver.system_matrix()
        reference = per_cell_system_matrix(solver)
        assert matrix.format == reference.format == "csc"
        assert matrix.data.tobytes() == reference.data.tobytes()
        assert np.array_equal(matrix.indices, reference.indices)
        assert np.array_equal(matrix.indptr, reference.indptr)

    def test_solve_many_matches_single_solves(self, solver):
        source_sets = [
            [RectangularSource(0.3e-3, 0.4e-3, 0.1e-3, 0.2e-3, power=0.2)],
            [
                RectangularSource(0.7e-3, 0.6e-3, 0.2e-3, 0.1e-3, power=0.4),
                RectangularSource(0.2e-3, 0.8e-3, 0.1e-3, 0.1e-3, power=0.1),
            ],
        ]
        many = solver.solve_many(source_sets)
        for sources, result in zip(source_sets, many):
            single = solver.solve(sources).temperature_rise
            assert result.temperature_rise.tobytes() == single.tobytes()
