"""Tests for repro.floorplan (blocks, floorplans, power maps)."""

import math

import pytest

from repro.core.thermal.images import DieGeometry
from repro.floorplan.block import Block
from repro.floorplan.floorplan import Floorplan, three_block_floorplan
from repro.floorplan.powermap import (
    fdm_sources_from_blocks,
    heat_sources_from_blocks,
    rasterize_block_powers,
)


@pytest.fixture
def die():
    return DieGeometry(width=1e-3, length=1e-3, thickness=0.3e-3)


@pytest.fixture
def plan(die):
    plan = Floorplan(die, name="test")
    plan.add_block(Block("a", x=0.25e-3, y=0.25e-3, width=0.3e-3, length=0.3e-3))
    plan.add_block(Block("b", x=0.75e-3, y=0.75e-3, width=0.2e-3, length=0.4e-3))
    return plan


class TestBlock:
    def test_geometry(self):
        block = Block("a", x=0.5e-3, y=0.5e-3, width=0.2e-3, length=0.1e-3)
        assert block.area == pytest.approx(0.2e-3 * 0.1e-3)
        assert block.x_min == pytest.approx(0.4e-3)
        assert block.y_max == pytest.approx(0.55e-3)

    def test_contains(self):
        block = Block("a", x=0.5e-3, y=0.5e-3, width=0.2e-3, length=0.1e-3)
        assert block.contains(0.5e-3, 0.5e-3)
        assert not block.contains(0.7e-3, 0.5e-3)

    def test_overlaps(self):
        a = Block("a", x=0.5e-3, y=0.5e-3, width=0.2e-3, length=0.2e-3)
        b = Block("b", x=0.6e-3, y=0.6e-3, width=0.2e-3, length=0.2e-3)
        c = Block("c", x=0.9e-3, y=0.9e-3, width=0.1e-3, length=0.1e-3)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_to_heat_source(self):
        block = Block("a", x=0.5e-3, y=0.5e-3, width=0.2e-3, length=0.1e-3)
        source = block.to_heat_source(0.4)
        assert source.power == pytest.approx(0.4)
        assert source.name == "a"
        assert source.width == pytest.approx(block.width)

    def test_validation(self):
        with pytest.raises(ValueError):
            Block("", x=0.0, y=0.0, width=1e-3, length=1e-3)
        with pytest.raises(ValueError):
            Block("a", x=0.0, y=0.0, width=0.0, length=1e-3)
        with pytest.raises(ValueError):
            Block("a", x=0.0, y=0.0, width=1e-3, length=1e-3, gate_count=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_geometry_is_rejected_by_name(self, value):
        geometry = dict(x=0.5e-3, y=0.5e-3, width=1e-4, length=1e-4)
        for key in geometry:
            with pytest.raises(ValueError, match=f"field '{key}' must be finite"):
                Block("a", **{**geometry, key: value})
            with pytest.raises(ValueError, match=f"field '{key}' must be finite"):
                Block.from_mapping({"name": "a", **geometry, key: value})

    def test_transforms(self):
        block = Block("a", x=0.5e-3, y=0.5e-3, width=0.2e-3, length=0.1e-3)
        assert block.moved_to(0.1e-3, 0.2e-3).x == pytest.approx(0.1e-3)
        assert block.resized(0.4e-3, 0.2e-3).width == pytest.approx(0.4e-3)


class TestFloorplan:
    def test_block_registry(self, plan):
        assert len(plan) == 2
        assert "a" in plan and "z" not in plan
        assert plan.block("a").name == "a"
        with pytest.raises(KeyError):
            plan.block("z")

    def test_duplicate_name_rejected(self, plan):
        with pytest.raises(ValueError):
            plan.add_block(Block("a", x=0.5e-3, y=0.5e-3, width=0.1e-3, length=0.1e-3))

    def test_block_outside_die_rejected(self, plan):
        with pytest.raises(ValueError):
            plan.add_block(Block("c", x=0.95e-3, y=0.5e-3, width=0.2e-3, length=0.1e-3))

    def test_overlap_rejected_unless_allowed(self, die, plan):
        with pytest.raises(ValueError):
            plan.add_block(Block("c", x=0.3e-3, y=0.3e-3, width=0.2e-3, length=0.2e-3))
        relaxed = Floorplan(die, allow_overlaps=True)
        relaxed.add_block(Block("a", x=0.3e-3, y=0.3e-3, width=0.2e-3, length=0.2e-3))
        relaxed.add_block(Block("b", x=0.35e-3, y=0.35e-3, width=0.2e-3, length=0.2e-3))
        assert len(relaxed) == 2

    def test_utilization(self, plan):
        expected = (0.3e-3 * 0.3e-3 + 0.2e-3 * 0.4e-3) / (1e-3 * 1e-3)
        assert plan.utilization == pytest.approx(expected)

    def test_block_at(self, plan):
        assert plan.block_at(0.25e-3, 0.25e-3).name == "a"
        assert plan.block_at(0.5e-3, 0.05e-3) is None

    def test_heat_sources_skip_zero_power(self, plan):
        sources = plan.to_heat_sources({"a": 0.5})
        assert len(sources) == 1
        assert sources[0].name == "a"

    def test_heat_sources_unknown_block_rejected(self, plan):
        with pytest.raises(KeyError):
            plan.to_heat_sources({"zz": 1.0})

    def test_heat_sources_require_some_power(self, plan):
        with pytest.raises(ValueError):
            plan.to_heat_sources({"a": 0.0})

    def test_three_block_floorplan_matches_fig6_setup(self):
        plan = three_block_floorplan()
        assert len(plan) == 3
        assert plan.die.width == pytest.approx(1e-3)
        assert plan.die.length == pytest.approx(1e-3)
        assert set(plan.block_names()) == {"core", "cache", "io"}


class TestPowerMap:
    def test_power_conservation(self, plan):
        powers = {"a": 0.4, "b": 0.25}
        power_map = rasterize_block_powers(plan, powers, nx=32, ny=32)
        assert power_map.total_power == pytest.approx(0.65, rel=1e-9)

    def test_resolution_independence(self, plan):
        powers = {"a": 0.4, "b": 0.25}
        coarse = rasterize_block_powers(plan, powers, nx=8, ny=8)
        fine = rasterize_block_powers(plan, powers, nx=64, ny=64)
        assert coarse.total_power == pytest.approx(fine.total_power, rel=1e-9)

    def test_peak_density_in_block(self, plan):
        power_map = rasterize_block_powers(plan, {"a": 0.9}, nx=32, ny=32)
        expected_density = 0.9 / (0.3e-3 * 0.3e-3)
        assert power_map.peak_power_density == pytest.approx(expected_density, rel=0.05)

    def test_cell_centers_shape(self, plan):
        power_map = rasterize_block_powers(plan, {"a": 0.1}, nx=16, ny=24)
        xc, yc = power_map.cell_centers()
        assert xc.shape == (16,) and yc.shape == (24,)
        assert power_map.cell_power.shape == (16, 24)

    def test_invalid_grid_rejected(self, plan):
        with pytest.raises(ValueError):
            rasterize_block_powers(plan, {"a": 0.1}, nx=0, ny=8)

    def test_source_converters(self, plan):
        heat = heat_sources_from_blocks(plan, {"a": 0.3, "b": 0.2})
        fdm = fdm_sources_from_blocks(plan, {"a": 0.3, "b": 0.2})
        assert len(heat) == len(fdm) == 2
        assert heat[0].power == pytest.approx(fdm[0].power)
        assert heat[1].x == pytest.approx(fdm[1].x)
