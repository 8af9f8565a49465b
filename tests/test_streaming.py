"""Streaming execution: chunked runs must be bit-identical to monolithic.

The constant-memory path (``repro.core.cosim.streaming`` plus the
``StudySpec`` streaming fields) re-executes the exact monolithic
arithmetic chunk by chunk, so every test here asserts *exact* equality —
``np.array_equal``, not ``allclose`` — between chunked and monolithic
results across chunk sizes, including the degenerate 1-scenario chunks
and chunks larger than the grid.  The hypothesis property generalizes
the fixed sizes: any chunk size yields the same series.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    ScenarioGridSpec,
    ScenarioSpec,
    Study,
    StudyResult,
    StudySpec,
    as_scenario_grid_spec,
    run_study,
)
from repro.api.cli import main as cli_main
from repro.api.study import build_engine
from repro.core.cosim import (
    PWMActivity,
    Scenario,
    ScenarioEngine,
    ScenarioGrid,
    StepActivity,
    TransientScenarioEngine,
    format_progress,
    scenario_grid,
    stream_steady,
    stream_transient,
)
from repro.floorplan import three_block_floorplan
from repro.technology import make_technology

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC = {"core": 0.045, "cache": 0.018, "io": 0.008}
TAUS = {"core": 2e-3, "cache": 1.5e-3, "io": 1e-3}
NODES = ("0.18um", "0.12um", "70nm")


@pytest.fixture(scope="module")
def plan():
    return three_block_floorplan()


@pytest.fixture(scope="module")
def engine(plan):
    return ScenarioEngine(plan, DYNAMIC, STATIC)


@pytest.fixture(scope="module")
def grid():
    technologies = [make_technology(name) for name in NODES]
    return scenario_grid(
        technologies,
        supply_scales=(0.9, 1.0, 1.1),
        ambient_temperatures=(298.15, 338.15),
        activities=(0.5, 1.0),
    )


@pytest.fixture(scope="module")
def steady_batch(engine, grid):
    return engine.solve(grid)


def assert_same_arrays(result, reference):
    """Bit-identical array payloads (specs/metadata may differ by design:
    the streamed result records its chunking, ``equals`` would reject it)."""
    assert set(result.arrays) == set(reference.arrays)
    for name, array in reference.arrays.items():
        streamed = result.array(name)
        assert streamed.dtype == array.dtype, name
        equal_nan = array.dtype.kind == "f"
        assert np.array_equal(streamed, array, equal_nan=equal_nan), name


def assert_fields_equal(fields, reference):
    """Exact per-field equality, NaN-tolerant for float arrays."""
    assert set(fields) == set(reference)
    for name, array in reference.items():
        streamed = np.asarray(fields[name])
        assert streamed.dtype == np.asarray(array).dtype
        equal_nan = streamed.dtype.kind == "f"
        assert np.array_equal(streamed, array, equal_nan=equal_nan), name


# --------------------------------------------------------------------- #
# Core: chunked steady streams vs the monolithic batch
# --------------------------------------------------------------------- #
class TestSteadyStreaming:
    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 36))
    def test_fields_bit_identical(self, engine, grid, steady_batch, chunk_size):
        stream = stream_steady(
            engine, grid, chunk_size=chunk_size, keep_fields=True
        )
        assert stream.scenario_count == len(grid)
        assert stream.chunk_count == -(-len(grid) // chunk_size)
        assert_fields_equal(
            stream.fields,
            {
                "block_temperatures": steady_batch.block_temperatures,
                "dynamic_power": steady_batch.dynamic_power,
                "static_power": steady_batch.static_power,
                "ambient_temperatures": steady_batch.ambient_temperatures,
                "converged": steady_batch.converged,
                "iteration_counts": steady_batch.iteration_counts,
            },
        )

    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 36))
    def test_series_bit_identical(self, engine, grid, steady_batch, chunk_size):
        stream = stream_steady(engine, grid, chunk_size=chunk_size)
        assert stream.fields is None
        assert np.array_equal(
            stream.series["peak_temperature"], steady_batch.peak_temperature
        )
        assert np.array_equal(stream.series["peak_rise"], steady_batch.peak_rise)
        assert np.array_equal(
            stream.series["total_power"], steady_batch.total_power
        )
        assert np.array_equal(
            stream.series["total_static_power"], steady_batch.total_static_power
        )
        assert np.array_equal(stream.series["converged"], steady_batch.converged)
        assert np.array_equal(
            stream.series["iteration_counts"], steady_batch.iteration_counts
        )
        assert np.array_equal(
            stream.block_temperature_max,
            steady_batch.block_temperatures.max(axis=0),
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(chunk_size=st.integers(min_value=1, max_value=50))
    def test_chunk_size_invariance(self, engine, grid, steady_batch, chunk_size):
        # The property behind the fixed sizes above: *any* chunking of the
        # grid reproduces the monolithic series exactly.
        stream = stream_steady(engine, grid, chunk_size=chunk_size)
        assert np.array_equal(
            stream.series["peak_temperature"], steady_batch.peak_temperature
        )
        assert np.array_equal(stream.series["converged"], steady_batch.converged)

    def test_progress_reports_every_chunk(self, engine, grid):
        updates = []
        stream = stream_steady(
            engine, grid, chunk_size=10, progress=updates.append
        )
        assert len(updates) == stream.chunk_count
        assert [u.chunk_index for u in updates] == list(range(len(updates)))
        rows = [u.rows_done for u in updates]
        assert rows == sorted(rows)
        assert rows[-1] == len(grid)
        assert all(u.total_rows == len(grid) for u in updates)
        line = format_progress(updates[0])
        assert "chunk" in line and "scenarios" in line

    def test_chunk_size_must_be_positive(self, engine, grid):
        with pytest.raises(ValueError):
            stream_steady(engine, grid, chunk_size=0)

    def test_unsized_iterator_is_refused(self, engine, grid):
        # A chunk is a row range of one sized source; a generator has none.
        with pytest.raises(TypeError, match="generator"):
            stream_steady(engine, (scenario for scenario in grid))
        with pytest.raises(ValueError, match="at least one scenario"):
            stream_steady(engine, [])


# --------------------------------------------------------------------- #
# Core: chunked transient streams vs the monolithic batch
# --------------------------------------------------------------------- #
class TestTransientStreaming:
    DURATION = 10e-3
    TIME_STEP = 0.5e-3

    @pytest.fixture(scope="class")
    def tengine(self, plan):
        return TransientScenarioEngine.from_powers(
            plan, DYNAMIC, STATIC, time_constants=TAUS
        )

    @pytest.fixture(scope="class")
    def tgrid(self):
        technologies = [make_technology(name) for name in ("0.18um", "0.12um")]
        return scenario_grid(
            technologies,
            supply_scales=(0.95, 1.05),
            ambient_temperatures=(298.15, 328.15),
            activities=(0.5, 1.0),
        )

    @pytest.fixture(scope="class")
    def activity(self):
        return PWMActivity(4e-3, 0.5)

    @pytest.fixture(scope="class")
    def transient_batch(self, tengine, tgrid, activity):
        return tengine.simulate(
            tgrid, self.DURATION, self.TIME_STEP, activity=activity
        )

    @pytest.mark.parametrize("chunk_size", (1, 5, 16))
    def test_fields_bit_identical(
        self, tengine, tgrid, activity, transient_batch, chunk_size
    ):
        stream = stream_transient(
            tengine,
            tgrid,
            self.DURATION,
            self.TIME_STEP,
            activity=activity,
            chunk_size=chunk_size,
            keep_fields=True,
        )
        assert np.array_equal(stream.times, transient_batch.times)
        assert_fields_equal(
            stream.fields,
            {
                "times": transient_batch.times,
                "block_temperatures": transient_batch.block_temperatures,
                "block_powers": transient_batch.block_powers,
                "ambient_temperatures": transient_batch.ambient_temperatures,
                "runaway": transient_batch.runaway,
                "runaway_times": transient_batch.runaway_times,
            },
        )

    @pytest.mark.parametrize("chunk_size", (1, 5, 16))
    def test_series_bit_identical(
        self, tengine, tgrid, activity, transient_batch, chunk_size
    ):
        stream = stream_transient(
            tengine,
            tgrid,
            self.DURATION,
            self.TIME_STEP,
            activity=activity,
            chunk_size=chunk_size,
        )
        assert stream.fields is None
        assert np.array_equal(
            stream.series["peak_temperature"], transient_batch.peak_temperature
        )
        assert np.array_equal(
            stream.series["overshoot"], transient_batch.overshoot
        )
        assert np.array_equal(
            stream.series["settle_time"], transient_batch.settle_times(0.5)
        )
        assert np.array_equal(
            stream.series["total_energy"], transient_batch.total_energy()
        )
        assert np.array_equal(stream.series["runaway"], transient_batch.runaway)
        assert np.array_equal(
            stream.series["runaway_times"],
            transient_batch.runaway_times,
            equal_nan=True,
        )
        assert stream.runaway_count == int(transient_batch.runaway.sum())
        assert stream.max_overshoot == float(transient_batch.overshoot.max())
        assert np.array_equal(
            stream.block_temperature_max,
            transient_batch.block_temperatures.max(axis=(0, 1)),
        )

    @pytest.fixture(scope="class", params=("pwm", "step"))
    def per_row(self, request, tengine, tgrid):
        """A workload with one period or switch time per grid row, and its
        monolithic run."""
        rows = len(tgrid)
        if request.param == "pwm":
            periods = [1e-3 * (1 + index % 5) for index in range(rows)]
            activity = PWMActivity(periods, np.linspace(0.2, 0.8, rows))
        else:
            switch = np.linspace(0.5e-3, 8e-3, rows)
            activity = StepActivity(0.1, [1.0, 0.5, 0.8], switch)
        batch = tengine.simulate(
            tgrid, self.DURATION, self.TIME_STEP, activity=activity
        )
        return activity, batch

    @pytest.mark.parametrize("chunk_size", (1, 7, 16))
    def test_per_row_workloads_are_chunk_invariant(
        self, tengine, tgrid, per_row, chunk_size
    ):
        activity, batch = per_row
        stream = stream_transient(
            tengine,
            tgrid,
            self.DURATION,
            self.TIME_STEP,
            activity=activity,
            chunk_size=chunk_size,
            keep_fields=True,
        )
        assert_fields_equal(
            stream.fields, {name: getattr(batch, name) for name in batch.FIELDS}
        )

    def test_each_chunk_evaluates_only_its_own_rows(
        self, tengine, tgrid, per_row, monkeypatch
    ):
        activity, _ = per_row
        grid_class = type(activity)
        original = grid_class.values
        calls = []  # (evaluated on the whole grid, rows evaluated)

        def spy(grid, time):
            values = original(grid, time)
            calls.append((grid is activity, np.shape(values)[0]))
            return values

        monkeypatch.setattr(grid_class, "values", spy)
        chunk_size = 5
        stream_transient(
            tengine,
            tgrid,
            self.DURATION,
            self.TIME_STEP,
            activity=activity,
            chunk_size=chunk_size,
        )
        whole = [rows for on_grid, rows in calls if on_grid]
        chunked = [rows for on_grid, rows in calls if not on_grid]
        # One broadcast check over the grid, then only chunk-sized steps.
        assert whole == [len(tgrid)]
        assert max(chunked) == chunk_size
        assert min(chunked) == len(tgrid) % chunk_size


# --------------------------------------------------------------------- #
# Lazy grids: ScenarioGrid rows and ScenarioGridSpec
# --------------------------------------------------------------------- #
class TestScenarioGridStream:
    def test_streams_the_grid_in_order(self):
        technologies = [make_technology(name) for name in NODES]
        kwargs = dict(
            supply_scales=(0.9, 1.1),
            ambient_temperatures=(298.15, 338.15),
            activities=(0.5, 1.0),
        )
        streamed = list(ScenarioGrid(technologies, **kwargs))
        materialized = scenario_grid(technologies, **kwargs)
        assert len(streamed) == len(materialized)
        for lazy, eager in zip(streamed, materialized):
            assert lazy.technology is eager.technology
            assert lazy.supply_scale == eager.supply_scale
            assert lazy.ambient == eager.ambient
            assert lazy.activity == eager.activity


class TestScenarioGridSpec:
    def test_count_and_stream_match_scenariospec_grid(self):
        spec = ScenarioGridSpec(
            technologies=("0.18um", "0.12um"),
            supply_scales=(0.9, 1.0),
            ambient_temperatures=(298.15, 318.15),
            activities=(0.5, 1.0),
        )
        assert spec.count == 16
        streamed = list(spec.build_stream())
        assert len(streamed) == 16
        reference = [
            s.build()
            for s in ScenarioSpec.grid(
                ["0.18um", "0.12um"],
                supply_scales=(0.9, 1.0),
                ambient_temperatures=(298.15, 318.15),
                activities=(0.5, 1.0),
            )
        ]
        for lazy, eager in zip(streamed, reference):
            assert lazy.vdd == eager.vdd
            assert lazy.ambient == eager.ambient
            assert lazy.activity == eager.activity

    def test_json_round_trip(self):
        spec = ScenarioGridSpec(
            technologies=("0.18um",),
            supply_scales=(0.9, 1.1),
            activities=(0.25, {"core": 1.0, "cache": 0.5, "io": 0.1}),
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioGridSpec.from_dict(data) == spec
        # Default axes are omitted from the serialized form.
        assert "ambient_temperatures" not in data

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one technology"):
            ScenarioGridSpec(technologies=())
        with pytest.raises(ValueError, match="sequence of technology"):
            ScenarioGridSpec(technologies="0.12um")
        with pytest.raises(ValueError, match="supply_scales must be positive"):
            ScenarioGridSpec(technologies=("0.12um",), supply_scales=(0.0,))
        with pytest.raises(ValueError, match="non-negative"):
            ScenarioGridSpec(technologies=("0.12um",), activities=(-0.5,))

    def test_as_scenario_grid_spec(self):
        assert as_scenario_grid_spec(None) is None
        spec = ScenarioGridSpec(technologies=("0.12um",))
        assert as_scenario_grid_spec(spec) is spec
        from_mapping = as_scenario_grid_spec({"technologies": ["0.12um"]})
        assert from_mapping == spec
        with pytest.raises(TypeError):
            as_scenario_grid_spec(42)


# --------------------------------------------------------------------- #
# Columnar sources: grid slices vs scenario objects
# --------------------------------------------------------------------- #
#: The serve ``streamed`` request shape: 5 nodes x 6 x 8 x 9 = 2160 rows.
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
STREAMED_GRID = EXAMPLES / "study_streamed_grid.json"


class TestColumnarStreaming:
    @pytest.fixture(scope="class")
    def streamed(self):
        spec = StudySpec.from_json(STREAMED_GRID)
        grid = spec.build_scenarios()
        assert isinstance(grid, ScenarioGrid) and len(grid) == 2160
        return build_engine(spec), grid, list(grid)

    @pytest.mark.parametrize("chunk_size", (1, 7, 256, 2160))
    def test_columns_stream_like_scenario_objects(self, streamed, chunk_size):
        engine, grid, scenarios = streamed
        columnar = stream_steady(engine, grid, chunk_size=chunk_size, keep_fields=True)
        reference = stream_steady(
            engine, scenarios, chunk_size=chunk_size, keep_fields=True
        )
        assert columnar.chunk_count == reference.chunk_count
        assert_fields_equal(columnar.fields, reference.fields)
        assert_fields_equal(columnar.series, reference.series)

    def test_reduced_grid_run_builds_no_scenario(self, monkeypatch):
        built = []
        original = Scenario.__post_init__

        def counting(scenario):
            built.append(scenario)
            original(scenario)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        result = Study.from_json(STREAMED_GRID).run()
        assert result.summary()["scenario_count"] == 2160
        assert built == []
        # The counter does see scenario objects where they are asked for.
        assert len(scenario_grid([make_technology("0.12um")], (0.9, 1.0))) == 2
        assert len(built) == 2


# --------------------------------------------------------------------- #
# StudySpec streaming fields
# --------------------------------------------------------------------- #
def _steady_spec(**overrides):
    base = dict(
        kind="steady",
        floorplan=three_block_floorplan(),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
        scenarios=tuple(
            ScenarioSpec.grid(
                ["0.18um", "0.12um"],
                supply_scales=(0.9, 1.0),
                ambient_temperatures=(298.15, 318.15),
            )
        ),
    )
    base.update(overrides)
    return StudySpec(**base)


class TestStudySpecStreaming:
    def test_defaults_do_not_stream(self):
        spec = _steady_spec()
        assert not spec.streaming
        data = spec.to_dict()
        for key in ("chunk_size", "reduction", "memmap_path", "scenario_grid"):
            assert key not in data

    @pytest.mark.parametrize(
        "overrides",
        (
            {"chunk_size": 4},
            {"reduction": True},
            {"memmap_path": "fields"},
        ),
    )
    def test_any_streaming_field_engages_streaming(self, overrides):
        assert _steady_spec(**overrides).streaming

    def test_round_trip_preserves_streaming_fields(self, tmp_path):
        spec = _steady_spec(
            scenarios=(),
            scenario_grid=ScenarioGridSpec(technologies=("0.12um",)),
            chunk_size=128,
            reduction=True,
            memmap_path=str(tmp_path / "fields"),
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert StudySpec.from_dict(data) == spec

    def test_scenario_count_and_stream(self):
        grid = ScenarioGridSpec(
            technologies=("0.18um", "0.12um"), supply_scales=(0.9, 1.0)
        )
        spec = _steady_spec(scenarios=(), scenario_grid=grid)
        assert spec.scenario_count == grid.count == 4
        stream, total = spec.scenario_stream()
        assert total == 4
        assert len(list(stream)) == 4
        assert len(spec.build_scenarios()) == 4

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            _steady_spec(chunk_size=0)

    def test_scenarios_and_grid_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            _steady_spec(
                scenario_grid=ScenarioGridSpec(technologies=("0.12um",))
            )

    def test_thermal_map_rejects_streaming_fields(self):
        plan = three_block_floorplan()
        for overrides, message in (
            ({"chunk_size": 4}, "chunk_size"),
            ({"reduction": True}, "reduction"),
            ({"memmap_path": "x"}, "memmap_path"),
        ):
            with pytest.raises(ValueError, match=message):
                StudySpec(
                    kind="thermal_map",
                    floorplan=plan,
                    block_powers=DYNAMIC,
                    **overrides,
                )

    def test_sweep_rejects_reduction_memmap_and_grid(self):
        def sweep_spec(**overrides):
            ambients = (298.15, 318.15)
            base = dict(
                kind="sweep",
                floorplan=three_block_floorplan(),
                dynamic_powers=DYNAMIC,
                static_powers=STATIC,
                parameter_name="ambient_K",
                parameter_values=ambients,
                scenarios=tuple(
                    ScenarioSpec.grid(
                        ["0.12um"], ambient_temperatures=ambients
                    )
                ),
            )
            base.update(overrides)
            return StudySpec(**base)

        with pytest.raises(ValueError, match="always reduced"):
            sweep_spec(reduction=True)
        with pytest.raises(ValueError, match="memmap_path applies"):
            sweep_spec(memmap_path="x")
        with pytest.raises(ValueError, match="scenario_grid applies"):
            sweep_spec(
                scenarios=(),
                scenario_grid=ScenarioGridSpec(technologies=("0.12um",)),
            )
        # chunk_size alone is the supported sweep streaming mode.
        assert sweep_spec(chunk_size=1).streaming

    def test_default_chunk_sizes_agree(self):
        # kinds.py mirrors the core default so the CLI stays numpy-free;
        # this pin keeps the two constants from drifting apart.
        from repro.api.kinds import DEFAULT_CHUNK_SIZE as api_default
        from repro.core.cosim.streaming import DEFAULT_CHUNK_SIZE as core_default

        assert api_default == core_default


# --------------------------------------------------------------------- #
# Facade: streamed studies vs their monolithic runs
# --------------------------------------------------------------------- #
class TestStreamedStudies:
    def test_chunked_steady_study_is_bit_identical(self):
        monolithic = run_study(_steady_spec())
        for chunk_size in (1, 3, 8):
            chunked = run_study(_steady_spec(chunk_size=chunk_size))
            assert_same_arrays(chunked, monolithic)
            assert chunked.metadata["streaming"]["chunk_size"] == chunk_size
            assert not chunked.metadata["streaming"]["reduced"]

    def test_reduced_steady_study_matches_series(self):
        monolithic = run_study(_steady_spec())
        reduced = run_study(_steady_spec(chunk_size=3, reduction=True))
        assert reduced.metadata["streaming"]["reduced"]
        assert "block_temperatures" not in reduced.arrays
        assert np.array_equal(
            reduced.array("peak_temperature"),
            monolithic.array("block_temperatures").max(axis=1),
        )
        assert np.array_equal(
            reduced.array("converged"), monolithic.array("converged")
        )
        assert np.array_equal(
            reduced.array("block_temperature_max"),
            monolithic.array("block_temperatures").max(axis=0),
        )
        summary = reduced.summary()
        assert summary["scenario_count"] == 8
        assert summary["peak_temperature_K"] == pytest.approx(
            float(monolithic.array("block_temperatures").max())
        )

    def test_memmap_fields_land_on_disk(self, tmp_path):
        target = tmp_path / "fields"
        result = run_study(_steady_spec(chunk_size=3, memmap_path=str(target)))
        monolithic = run_study(_steady_spec())
        assert_same_arrays(result, monolithic)
        on_disk = sorted(path.name for path in target.glob("*.npy"))
        assert "block_temperatures.npy" in on_disk
        reloaded = np.load(target / "block_temperatures.npy")
        assert np.array_equal(reloaded, monolithic.array("block_temperatures"))

    def test_grid_spec_study_matches_explicit_scenarios(self):
        grid = ScenarioGridSpec(
            technologies=("0.18um", "0.12um"),
            supply_scales=(0.9, 1.0),
            ambient_temperatures=(298.15, 318.15),
        )
        from_grid = run_study(
            _steady_spec(scenarios=(), scenario_grid=grid, chunk_size=3)
        )
        explicit = run_study(_steady_spec())
        assert_same_arrays(from_grid, explicit)

    def test_streamed_transient_study_is_bit_identical(self):
        def build(**overrides):
            study = Study.transient(
                floorplan=three_block_floorplan(),
                dynamic_powers=DYNAMIC,
                static_powers=STATIC,
                scenarios=ScenarioSpec.grid(["0.12um"], activities=(0.5, 1.0)),
                duration=10e-3,
                time_step=0.5e-3,
                time_constants=TAUS,
                **overrides,
            )
            return study

        monolithic = build().run()
        chunked = build(chunk_size=1).run()
        assert_same_arrays(chunked, monolithic)
        reduced = build(chunk_size=1, reduction=True).run()
        assert np.array_equal(
            reduced.array("times"), monolithic.array("times")
        )
        assert np.array_equal(
            reduced.array("runaway"), monolithic.array("runaway")
        )

    def test_streamed_sweep_study_matches_monolithic(self):
        ambients = (298.15, 318.15, 338.15)

        def build():
            return Study.sweep(
                floorplan=three_block_floorplan(),
                parameter_name="ambient_K",
                parameter_values=ambients,
                scenarios=ScenarioSpec.grid(
                    ["0.12um"], ambient_temperatures=ambients
                ),
                dynamic_powers=DYNAMIC,
                static_powers=STATIC,
            )

        monolithic = build().run()
        chunked = build().with_streaming(chunk_size=2).run()
        assert_same_arrays(chunked, monolithic)

    def test_with_streaming_returns_new_study(self):
        study = Study(_steady_spec())
        assert study.with_streaming() is study
        streamed = study.with_streaming(chunk_size=4, reduction=True)
        assert streamed is not study
        assert streamed.spec.chunk_size == 4
        assert streamed.spec.reduction
        assert not study.spec.streaming

    def test_run_accepts_progress_callback(self):
        updates = []
        study = Study(_steady_spec(chunk_size=3))
        study.run(progress=updates.append)
        assert [u.chunk_index for u in updates] == [0, 1, 2]
        assert updates[-1].rows_done == 8


# --------------------------------------------------------------------- #
# CLI streaming flags
# --------------------------------------------------------------------- #
class TestCLIStreaming:
    def _write_study(self, tmp_path):
        study_path = tmp_path / "study.json"
        Study(_steady_spec()).to_json(study_path)
        return study_path

    def test_chunk_size_reproduces_the_monolithic_result(
        self, tmp_path, capsys
    ):
        study_path = self._write_study(tmp_path)
        out_path = tmp_path / "results.json"
        assert (
            cli_main(
                [
                    "run",
                    str(study_path),
                    "--chunk-size",
                    "3",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        loaded = StudyResult.from_json(out_path)
        assert_same_arrays(loaded, run_study(_steady_spec()))

    def test_stream_flag_reduces(self, tmp_path, capsys):
        study_path = self._write_study(tmp_path)
        out_path = tmp_path / "reduced.json"
        assert (
            cli_main(
                [
                    "run",
                    str(study_path),
                    "--stream",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        loaded = StudyResult.from_json(out_path)
        assert loaded.metadata["streaming"]["reduced"]
        assert "peak_temperature" in loaded.arrays

    def test_progress_goes_to_stderr_and_respects_quiet(
        self, tmp_path, capsys
    ):
        study_path = self._write_study(tmp_path)
        assert (
            cli_main(
                [
                    "run",
                    str(study_path),
                    "--chunk-size",
                    "3",
                    "--progress",
                    "--quiet",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chunk" in captured.err
        assert captured.err.count("\n") == 3

    def test_memmap_flag_writes_fields(self, tmp_path, capsys):
        study_path = self._write_study(tmp_path)
        target = tmp_path / "fields"
        assert (
            cli_main(
                [
                    "run",
                    str(study_path),
                    "--memmap",
                    str(target),
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (target / "block_temperatures.npy").exists()

    def test_streaming_flags_rejected_for_thermal_map(self, tmp_path, capsys):
        study_path = tmp_path / "map.json"
        Study.thermal_map(
            floorplan=three_block_floorplan(),
            block_powers=DYNAMIC,
        ).to_json(study_path)
        assert cli_main(["run", str(study_path), "--stream"]) == 2
        assert "cannot stream" in capsys.readouterr().err
