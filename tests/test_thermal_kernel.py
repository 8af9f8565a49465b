"""Parity and property tests for the vectorized thermal kernel.

The kernel (:mod:`repro.core.thermal.kernel`) must reproduce the scalar
Eq. 20/21 path to round-off on arbitrary dies, source sets and image-ring
counts — that is the contract that lets every consumer (surface maps,
resistance matrices, analysis helpers) switch to the batched path without
changing any physics.
"""

import numpy as np
import pytest

from repro.core.cosim.engine import ElectroThermalEngine
from repro.core.cosim.coupling import block_models_from_powers
from repro.core.thermal.images import (
    DieGeometry,
    ImageExpansion,
    lateral_axis_positions,
)
from repro.core.thermal.kernel import SourceArray, pairwise_rise, temperature_rise
from repro.core.thermal.profile import rectangle_temperature
from repro.core.thermal.sources import HeatSource
from repro.core.thermal.superposition import (
    ChipThermalModel,
    superposed_temperature_rise,
)
from repro.floorplan import three_block_floorplan

K_SI = 148.0
#: Required agreement between the vectorized kernel and the scalar path.
PARITY = 1e-10


def random_case(rng, max_sources: int = 6):
    """A random die with a random set of on-die surface sources."""
    width = float(rng.uniform(0.5e-3, 3e-3))
    length = float(rng.uniform(0.5e-3, 3e-3))
    thickness = float(rng.uniform(0.2e-3, 0.7e-3))
    die = DieGeometry(width=width, length=length, thickness=thickness)
    sources = []
    for index in range(int(rng.integers(1, max_sources + 1))):
        source_width = float(rng.uniform(0.05, 0.3) * width)
        source_length = float(rng.uniform(0.05, 0.3) * length)
        sources.append(
            HeatSource(
                x=float(rng.uniform(0.5 * source_width, width - 0.5 * source_width)),
                y=float(rng.uniform(0.5 * source_length, length - 0.5 * source_length)),
                width=source_width,
                length=source_length,
                power=float(rng.uniform(0.01, 1.0)),
                name=f"s{index}",
            )
        )
    return die, sources


def random_points(rng, die, count: int = 25) -> np.ndarray:
    return np.column_stack(
        [rng.uniform(0.0, die.width, count), rng.uniform(0.0, die.length, count)]
    )


class TestScalarParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_dies_sources_and_rings(self, seed):
        rng = np.random.default_rng(seed)
        die, sources = random_case(rng)
        expansion = ImageExpansion(
            die,
            rings=int(rng.integers(0, 3)),
            include_bottom_images=bool(rng.integers(0, 2)),
            bottom_image_terms=int(rng.integers(1, 5)),
        )
        expanded_list = expansion.expand(sources)
        expanded_array, _ = expansion.expand_arrays(sources)
        points = random_points(rng, die)
        batched = temperature_rise(points, expanded_array, K_SI)
        scalar = np.asarray(
            [
                superposed_temperature_rise(x, y, expanded_list, K_SI)
                for x, y in points
            ]
        )
        assert np.abs(batched - scalar).max() <= PARITY

    def test_pairwise_matches_per_source_scalar(self):
        rng = np.random.default_rng(42)
        die, sources = random_case(rng)
        expanded = ImageExpansion(die, rings=1).expand(sources)
        points = random_points(rng, die, count=10)
        matrix = pairwise_rise(points, expanded, K_SI)
        assert matrix.shape == (10, len(expanded))
        for i, (x, y) in enumerate(points):
            for j, source in enumerate(expanded):
                assert matrix[i, j] == pytest.approx(
                    rectangle_temperature(x, y, source, K_SI), abs=PARITY
                )

    def test_grouped_pairwise_sums_image_families(self):
        rng = np.random.default_rng(7)
        die, sources = random_case(rng, max_sources=4)
        expansion = ImageExpansion(die, rings=2)
        expanded_array, groups = expansion.expand_arrays(sources)
        points = random_points(rng, die, count=8)
        grouped = pairwise_rise(
            points, expanded_array, K_SI, groups=groups, group_count=len(sources)
        )
        assert grouped.shape == (8, len(sources))
        for j, source in enumerate(sources):
            family = expansion.expand([source])
            for i, (x, y) in enumerate(points):
                assert grouped[i, j] == pytest.approx(
                    superposed_temperature_rise(x, y, family, K_SI), abs=PARITY
                )

    def test_chunking_does_not_change_the_result(self):
        rng = np.random.default_rng(3)
        die, sources = random_case(rng)
        expanded, _ = ImageExpansion(die, rings=2).expand_arrays(sources)
        points = random_points(rng, die, count=64)
        full = temperature_rise(points, expanded, K_SI)
        chunked = temperature_rise(points, expanded, K_SI, chunk_elements=16)
        assert np.array_equal(full, chunked)

    def test_surface_map_matches_scalar_double_loop(self):
        die = DieGeometry(width=1e-3, length=1.4e-3, thickness=0.3e-3)
        chip = ChipThermalModel(die, image_rings=1)
        chip.add_sources(
            [
                HeatSource(0.3e-3, 0.4e-3, 0.1e-3, 0.2e-3, 0.3, name="a"),
                HeatSource(0.7e-3, 1.0e-3, 0.2e-3, 0.1e-3, 0.15, name="b"),
            ]
        )
        surface = chip.surface_map(nx=9, ny=9)
        expanded = chip.expansion.expand(list(chip.sources))
        for i, x in enumerate(surface.x_coordinates):
            for j, y in enumerate(surface.y_coordinates):
                scalar = chip.ambient_temperature + superposed_temperature_rise(
                    float(x), float(y), expanded, chip.conductivity
                )
                assert surface.temperature[i, j] == pytest.approx(scalar, abs=PARITY)

    def test_resistance_matrix_matches_scalar_assembly(self, tech012):
        plan = three_block_floorplan()
        models = block_models_from_powers(
            tech012,
            dynamic_powers={"core": 0.25, "cache": 0.10, "io": 0.05},
            static_powers_at_reference={"core": 0.05, "cache": 0.02, "io": 0.01},
        )
        engine = ElectroThermalEngine(
            tech012, plan, models, ambient_temperature=318.15, image_rings=2
        )
        expansion = ImageExpansion(plan.die, rings=2, include_bottom_images=True)
        matrix = engine.resistance_matrix
        for j, emitter_name in enumerate(engine.modelled_blocks):
            family = expansion.expand([plan.block(emitter_name).to_heat_source(1.0)])
            for i, observer_name in enumerate(engine.modelled_blocks):
                observer = plan.block(observer_name)
                scalar = superposed_temperature_rise(
                    observer.x, observer.y, family, engine.conductivity
                )
                assert matrix[i, j] == pytest.approx(scalar, abs=PARITY)


def _shared_x_case():
    """Three blocks at one x: without rings, "a"'s buried columns are
    followed by "b"'s at the same ``x`` but another ``y`` (two slots), and
    "c" sits exactly on "b" (one slot for both)."""
    die = DieGeometry(width=1e-3, length=1.2e-3, thickness=0.3e-3)
    sources = [
        HeatSource(0.4e-3, 0.3e-3, 0.2e-3, 0.1e-3, 0.3, name="a"),
        HeatSource(0.4e-3, 0.8e-3, 0.1e-3, 0.2e-3, 0.2, name="b"),
        HeatSource(0.4e-3, 0.8e-3, 0.05e-3, 0.05e-3, 0.1, name="c"),
    ]
    return die, sources


def _blocking_cases():
    """(expansion, sources, points) over rings, bottom images and a
    shared-position floorplan."""
    rng = np.random.default_rng(19)
    die, sources = random_case(rng)
    points = random_points(rng, die, count=53)
    for rings in (0, 1, 2):
        yield ImageExpansion(die, rings=rings), sources, points
    yield ImageExpansion(die, rings=2, include_bottom_images=False), sources, points
    shared_die, shared = _shared_x_case()
    shared_points = random_points(rng, shared_die, count=41)
    for rings in (0, 1):
        yield ImageExpansion(shared_die, rings=rings), shared, shared_points


BLOCKINGS = (2**21, 16)


class TestBlockingIsBitIdentical:
    """Block size and the shared bottom-image ladder never move a bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_temperature_rise(self, dtype):
        for expansion, sources, points in _blocking_cases():
            array = expansion.expand_arrays(sources)[0].cast(np, dtype)
            points = points.astype(dtype)
            default = temperature_rise(points, array, K_SI)
            assert default.dtype == dtype
            for chunk_elements in BLOCKINGS:
                blocked = temperature_rise(
                    points, array, K_SI, chunk_elements=chunk_elements
                )
                assert np.array_equal(default, blocked)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pairwise_rise(self, dtype):
        for expansion, sources, points in _blocking_cases():
            array, groups = expansion.expand_arrays(sources)
            array = array.cast(np, dtype)
            points = points.astype(dtype)
            default = pairwise_rise(points, array, K_SI)
            for chunk_elements in (2**16,) + BLOCKINGS:
                blocked = pairwise_rise(
                    points, array, K_SI, chunk_elements=chunk_elements
                )
                assert np.array_equal(default, blocked)
            # Grouped sums are a matmul per block, whose fold depends on
            # its row count: the default keeps the recorded block size.
            grouping = {"groups": groups, "group_count": len(sources)}
            assert np.array_equal(
                pairwise_rise(points, array, K_SI, **grouping),
                pairwise_rise(points, array, K_SI, chunk_elements=2**21, **grouping),
            )

    def test_buried_columns_match_the_per_column_formula(self):
        # The ladder shares dx^2 + dy^2 across a slot; each column must
        # still equal the per-column chain it replaced, bit for bit.
        for expansion, sources, points in _blocking_cases():
            array = expansion.expand_arrays(sources)[0]
            buried = np.flatnonzero(array.depth != 0.0)
            if not buried.size:
                continue
            dx = points[:, 0:1] - array.x[buried]
            dy = points[:, 1:2] - array.y[buried]
            r_sq = (dx * dx + dy * dy) + array.depth[buried] * array.depth[buried]
            expected = array.power[buried] / (np.sqrt(r_sq) * (2.0 * np.pi * K_SI))
            matrix = pairwise_rise(points, array, K_SI)
            assert np.array_equal(matrix[:, buried], expected)

    def test_ladder_shares_one_slot_per_surface_image(self):
        from repro.core.thermal.kernel import _KernelPlan

        die, sources = _shared_x_case()
        for rings, merged in ((0, 1), (1, 0)):
            expansion = ImageExpansion(die, rings=rings, bottom_image_terms=3)
            array, _ = expansion.expand_arrays(sources)
            plan = _KernelPlan(array, K_SI)
            surface = int((array.depth == 0.0).sum())
            # One slot per surface image, less one where "b"'s last image
            # sits exactly on "c"'s first (only without rings).
            assert plan.sx.size == surface - merged
            assert plan.slot.size == 3 * surface
            assert np.array_equal(plan.sx[plan.slot], array.x[plan.buried_index])
            assert np.array_equal(plan.sy[plan.slot], array.y[plan.buried_index])


class TestSuperpositionProperty:
    def test_linearity_in_source_powers(self):
        """Eq. 21 linearity: T(a*P1 + b*P2) == a*T(P1) + b*T(P2)."""
        rng = np.random.default_rng(11)
        die, sources = random_case(rng, max_sources=5)
        expanded, _ = ImageExpansion(die, rings=1).expand_arrays(sources)
        points = random_points(rng, die, count=30)
        powers_one = rng.uniform(0.0, 1.0, len(expanded))
        powers_two = rng.uniform(0.0, 1.0, len(expanded))
        alpha, beta = 0.7, 2.5
        combined = temperature_rise(
            points, expanded.with_powers(alpha * powers_one + beta * powers_two), K_SI
        )
        separate = alpha * temperature_rise(
            points, expanded.with_powers(powers_one), K_SI
        ) + beta * temperature_rise(points, expanded.with_powers(powers_two), K_SI)
        scale = np.abs(separate).max()
        assert np.abs(combined - separate).max() <= 1e-9 * max(scale, 1.0)

    def test_doubling_every_power_doubles_the_field(self):
        rng = np.random.default_rng(5)
        die, sources = random_case(rng)
        chip = ChipThermalModel(die, image_rings=1)
        chip.add_sources(sources)
        points = random_points(rng, die, count=12)
        base = chip.temperature_rises(points)
        chip.set_source_powers({s.name: 2.0 * s.power for s in sources})
        doubled = chip.temperature_rises(points)
        assert np.allclose(doubled, 2.0 * base, rtol=1e-12, atol=1e-12)


class TestSourceArray:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        _, sources = random_case(rng)
        array = SourceArray.from_sources(sources)
        assert len(array) == len(sources)
        unpacked = array.to_sources()
        for original, copy in zip(sources, unpacked):
            assert copy.x == original.x and copy.power == original.power
        assert array.total_power() == pytest.approx(sum(s.power for s in sources))

    def test_expand_arrays_matches_expand_exactly(self):
        rng = np.random.default_rng(2)
        die, sources = random_case(rng)
        for rings, bottom in ((0, True), (1, True), (2, False)):
            expansion = ImageExpansion(die, rings=rings, include_bottom_images=bottom)
            packed = SourceArray.from_sources(expansion.expand(sources))
            array, groups = expansion.expand_arrays(sources)
            for field in ("x", "y", "width", "length", "power", "depth"):
                assert np.array_equal(getattr(packed, field), getattr(array, field))
            assert groups.shape == (len(array),)
            assert np.all(np.diff(groups) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceArray(
                x=np.zeros(2),
                y=np.zeros(2),
                width=np.asarray([1e-6, -1e-6]),
                length=np.ones(2) * 1e-6,
                power=np.ones(2),
                depth=np.zeros(2),
            )
        with pytest.raises(ValueError):
            temperature_rise(np.zeros((3, 3)), SourceArray.from_sources([]), K_SI)

    def test_empty_source_set_rejected(self):
        with pytest.raises(ValueError):
            temperature_rise(np.zeros((3, 2)), [], K_SI)


class TestIntegerRingIndices:
    def test_generic_coordinate_yields_all_distinct_images(self):
        positions = lateral_axis_positions(0.3e-3, 1e-3, 2)
        assert positions.size == 2 * (2 * 2 + 1)
        assert np.unique(positions).size == positions.size

    def test_near_plane_images_are_not_collapsed(self):
        # A coordinate within 1e-15 of a mirror plane produces physically
        # distinct image pairs; the old round(v, 15) dedup collapsed them.
        tiny = 1e-16
        positions = lateral_axis_positions(tiny, 1e-3, 1)
        assert positions.size == 6
        assert np.unique(positions).size == 6

    def test_exact_plane_coordinate_dedupes_symbolically(self):
        extent = 1e-3
        on_left = lateral_axis_positions(0.0, extent, 1)
        on_right = lateral_axis_positions(extent, extent, 1)
        # Coincident mirror pairs collapse to exact integer multiples.
        assert np.array_equal(on_left, np.asarray([-2, 0, 2]) * extent)
        assert np.array_equal(on_right, np.asarray([-3, -1, 1, 3]) * extent)

    def test_ring_zero_is_identity(self):
        assert np.array_equal(lateral_axis_positions(0.4e-3, 1e-3, 0), [0.4e-3])

    def test_negative_rings_rejected(self):
        with pytest.raises(ValueError):
            lateral_axis_positions(0.1, 1.0, -1)


class TestSetSourcePowers:
    @pytest.fixture
    def chip(self):
        die = DieGeometry(width=1e-3, length=1e-3, thickness=0.3e-3)
        chip = ChipThermalModel(die)
        chip.add_sources(
            [
                HeatSource(0.3e-3, 0.3e-3, 0.1e-3, 0.1e-3, 0.3, name="a"),
                HeatSource(0.7e-3, 0.6e-3, 0.1e-3, 0.1e-3, 0.2, name="b"),
            ]
        )
        return chip

    def test_unknown_names_raise_key_error(self, chip):
        with pytest.raises(KeyError) as excinfo:
            chip.set_source_powers({"a": 0.5, "ghost": 1.0, "zombie": 2.0})
        message = str(excinfo.value)
        assert "ghost" in message and "zombie" in message

    def test_failed_update_leaves_powers_untouched(self, chip):
        before = chip.total_power()
        with pytest.raises(KeyError):
            chip.set_source_powers({"ghost": 1.0})
        assert chip.total_power() == pytest.approx(before)

    def test_update_preserves_geometry_and_names(self, chip):
        chip.set_source_powers({"a": 0.6})
        updated = {source.name: source for source in chip.sources}
        assert updated["a"].power == pytest.approx(0.6)
        assert updated["a"].x == pytest.approx(0.3e-3)
        assert updated["b"].power == pytest.approx(0.2)
