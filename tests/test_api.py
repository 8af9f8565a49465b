"""Tests for the `repro.api` facade: specs, study execution, results, CLI.

The serialization contract is property-tested with hypothesis:

* every spec survives ``spec -> to_dict -> json -> from_dict`` *equal*;
* every :class:`StudyResult` survives ``to_json -> from_json`` with
  bit-identical arrays (well inside the 1e-12 acceptance band);
* a re-run of a JSON-round-tripped :class:`StudySpec` reproduces the
  original result arrays bit-for-bit (the cache/replay guarantee).
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.api import (
    FloorplanSpec,
    OptimizeSpec,
    OptimizeVariable,
    ScenarioGridSpec,
    ScenarioSpec,
    Study,
    StudyResult,
    StudySpec,
    TechnologySpec,
    WorkloadSpec,
    as_floorplan_spec,
    as_optimize_spec,
    as_scenario_grid_spec,
    as_scenario_spec,
    as_technology_spec,
    as_workload_spec,
    run_study,
)
from repro.api.cli import main as cli_main
from repro.api.results import encode_payload
from repro.api.specs import as_optimize_variable
from repro.core.cosim import (
    PWMActivity,
    ScenarioEngine,
    TransientScenarioEngine,
    scenario_grid,
)
from repro.core.thermal import ChipThermalModel
from repro.floorplan import Block, Floorplan, as_block, three_block_floorplan
from repro.serve.server import error_body
from repro.technology import make_technology
from repro.technology.nodes import node_names

DYNAMIC = {"core": 0.22, "cache": 0.09, "io": 0.04}
STATIC = {"core": 0.045, "cache": 0.018, "io": 0.008}

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
finite = dict(allow_nan=False, allow_infinity=False)

technology_specs = st.builds(
    TechnologySpec,
    node=st.sampled_from(node_names()),
    ambient_celsius=st.floats(0.0, 100.0, **finite),
)

activities = st.one_of(
    st.floats(0.0, 2.0, **finite),
    st.dictionaries(
        st.sampled_from(("core", "cache", "io")),
        st.floats(0.0, 2.0, **finite),
        max_size=3,
    ),
)


@st.composite
def scenario_specs(draw):
    supply_mode = draw(st.sampled_from(("default", "scale", "voltage")))
    return ScenarioSpec(
        technology=draw(technology_specs),
        supply_scale=(
            draw(st.floats(0.5, 1.5, **finite)) if supply_mode == "scale" else None
        ),
        supply_voltage=(
            draw(st.floats(0.5, 5.0, **finite)) if supply_mode == "voltage" else None
        ),
        ambient_temperature=draw(
            st.one_of(st.none(), st.floats(250.0, 400.0, **finite))
        ),
        activity=draw(activities),
        label=draw(st.sampled_from(("", "hot", "corner A"))),
    )


@st.composite
def floorplan_specs(draw):
    # Non-overlapping by construction: each block is centred in its own
    # cell of a 2 x 2 grid on a 1 mm die.
    cells = draw(
        st.lists(
            st.sampled_from(((0, 0), (0, 1), (1, 0), (1, 1))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    die = 1.0e-3
    half = die / 2.0
    blocks = []
    for index, (i, j) in enumerate(cells):
        fill = draw(st.floats(0.2, 0.9, **finite))
        blocks.append(
            Block(
                name=f"block{index}",
                x=(i + 0.5) * half,
                y=(j + 0.5) * half,
                width=fill * half,
                length=fill * half,
            )
        )
    return FloorplanSpec(
        die_width=die,
        die_length=die,
        die_thickness=draw(st.floats(100e-6, 700e-6, **finite)),
        blocks=tuple(blocks),
        name=draw(st.sampled_from(("floorplan", "soc"))),
    )


@st.composite
def workload_specs(draw):
    kind = draw(st.sampled_from(("constant", "step", "pwm", "trace")))
    if kind == "constant":
        parameters = {"multipliers": draw(st.floats(0.0, 2.0, **finite))}
    elif kind == "step":
        parameters = {
            "before": draw(st.floats(0.0, 2.0, **finite)),
            "after": draw(st.floats(0.0, 2.0, **finite)),
            "switch_times": draw(st.floats(1e-4, 1e-2, **finite)),
        }
    elif kind == "pwm":
        parameters = {
            "periods": draw(st.floats(1e-4, 1e-2, **finite)),
            "duty_cycles": draw(st.floats(0.05, 0.95, **finite)),
            "on": draw(st.floats(0.5, 2.0, **finite)),
            "off": draw(st.floats(0.0, 0.4, **finite)),
        }
    else:
        times = draw(
            st.lists(
                st.floats(0.0, 1e-2, **finite), min_size=1, max_size=5, unique=True
            )
        )
        times = sorted(times)
        values = draw(
            st.lists(
                st.floats(0.0, 2.0, **finite),
                min_size=len(times),
                max_size=len(times),
            )
        )
        parameters = {"times": times, "values": values}
    return WorkloadSpec(kind=kind, parameters=parameters)


@st.composite
def optimize_specs(draw):
    # Valid against the three-block floorplan study_specs() builds around:
    # movable/variable names must resolve to core/cache/io-derived names.
    problem = draw(st.sampled_from(("placement", "supply")))
    objective = draw(
        st.one_of(
            st.sampled_from(
                (
                    "peak_rise",
                    "peak_temperature",
                    "total_power",
                    "total_static_power",
                    "runaway_margin",
                )
            ),
            st.just({"peak_rise": 1.0, "total_power": 5.0}),
        )
    )
    constraints = {}
    if draw(st.booleans()):
        constraints["temperature_cap"] = draw(st.floats(350.0, 450.0, **finite))
        if draw(st.booleans()):
            constraints["penalty_weight"] = draw(st.floats(0.1, 50.0, **finite))
    movable = ()
    variables = ()
    if problem == "placement":
        movable = tuple(
            draw(
                st.lists(
                    st.sampled_from(("core", "cache", "io")),
                    unique=True,
                    max_size=3,
                )
            )
        )
    elif draw(st.booleans()):
        variables = (
            OptimizeVariable(
                name="supply_scale",
                lower=draw(st.floats(0.6, 0.9, **finite)),
                upper=draw(st.floats(1.0, 1.2, **finite)),
            ),
        )
    return OptimizeSpec(
        problem=problem,
        objective=objective,
        variables=variables,
        constraints=constraints,
        strategy=draw(
            st.sampled_from(("random", "grid", "coordinate", "nelder_mead"))
        ),
        budget=draw(st.integers(1, 128)),
        generation_size=draw(st.integers(1, 32)),
        seed=draw(st.integers(0, 2**16)),
        movable=movable,
    )


@st.composite
def study_specs(draw):
    kind = draw(
        st.sampled_from(("steady", "transient", "thermal_map", "sweep", "optimize"))
    )
    floorplan = FloorplanSpec.from_floorplan(three_block_floorplan())
    if kind == "thermal_map":
        return StudySpec(
            kind=kind,
            floorplan=floorplan,
            block_powers={"core": 0.3, "cache": 0.1},
            technology=draw(st.one_of(st.none(), technology_specs)),
            ambient_temperature=draw(
                st.one_of(st.none(), st.floats(250.0, 400.0, **finite))
            ),
            map_samples=(draw(st.integers(2, 30)), draw(st.integers(2, 30))),
        )
    scenarios = tuple(draw(st.lists(scenario_specs(), min_size=1, max_size=3)))
    thermal_backend = draw(st.sampled_from(("analytical", "fdm", "foster")))
    backend_options = {}
    if thermal_backend == "fdm" and draw(st.booleans()):
        backend_options = {
            "nx": draw(st.integers(2, 24)),
            "ny": draw(st.integers(2, 24)),
            "nz": draw(st.integers(2, 8)),
        }
    common = dict(
        floorplan=floorplan,
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
        scenarios=scenarios,
        thermal_backend=thermal_backend,
        backend_options=backend_options,
        label=draw(st.sampled_from(("", "study"))),
    )
    if kind == "transient":
        return StudySpec(
            kind=kind,
            duration=draw(st.floats(1e-3, 1e-1, **finite)),
            time_step=draw(st.floats(1e-4, 1e-3, **finite)),
            workload=draw(st.one_of(st.none(), workload_specs())),
            time_constants=draw(
                st.one_of(
                    st.none(),
                    st.just({"core": 2e-3, "cache": 1.5e-3, "io": 1e-3}),
                )
            ),
            **common,
        )
    if kind == "sweep":
        return StudySpec(
            kind=kind,
            parameter_name="axis",
            parameter_values=tuple(float(i) for i in range(len(scenarios))),
            **common,
        )
    if kind == "optimize":
        return StudySpec(kind=kind, optimize=draw(optimize_specs()), **common)
    return StudySpec(kind=kind, **common)


# --------------------------------------------------------------------- #
# Spec round trips (spec -> dict -> json -> spec, equality)
# --------------------------------------------------------------------- #
class TestSpecRoundTrip:
    @given(spec=technology_specs)
    def test_technology(self, spec):
        assert TechnologySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert TechnologySpec.from_json(spec.to_json()) == spec

    @given(spec=scenario_specs())
    def test_scenario(self, spec):
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @given(spec=floorplan_specs())
    def test_floorplan(self, spec):
        assert FloorplanSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert FloorplanSpec.from_json(spec.to_json()) == spec

    @given(spec=workload_specs())
    def test_workload(self, spec):
        assert WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert WorkloadSpec.from_json(spec.to_json()) == spec

    @given(spec=optimize_specs())
    def test_optimize(self, spec):
        assert OptimizeSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert OptimizeSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=30, deadline=None)
    @given(spec=study_specs())
    def test_study(self, spec):
        assert StudySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = StudySpec(
            kind="steady",
            floorplan=FloorplanSpec.from_floorplan(three_block_floorplan()),
            dynamic_powers=DYNAMIC,
            static_powers=STATIC,
            scenarios=(ScenarioSpec(technology=TechnologySpec("0.12um")),),
        )
        path = tmp_path / "study.json"
        spec.to_json(path)
        assert StudySpec.from_json(path) == spec


# --------------------------------------------------------------------- #
# Result round trips (StudyResult -> JSON -> StudyResult, array parity)
# --------------------------------------------------------------------- #
def _minimal_spec():
    return StudySpec(
        kind="steady",
        floorplan=FloorplanSpec.from_floorplan(three_block_floorplan()),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
        scenarios=(ScenarioSpec(technology=TechnologySpec("0.12um")),),
    )


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
#: The shipped example studies (``examples/study_*.json``).
EXAMPLE_STUDIES = sorted(path.stem for path in EXAMPLES.glob("study_*.json"))


def _strict_json(text: str):
    """``json.loads`` that refuses the ``NaN``/``Infinity`` tokens, which
    are not JSON."""

    def refuse(token: str):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


#: float64 values an exact encoder must keep: signed zeros, subnormals,
#: the ends of the finite range, and values whose shortest decimal has a
#: short exponent (orjson writes ``1e-05`` as ``0.00001``).
_EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e-05,
    -1e-05,
    1e-07,
    1e16,
    1e22,
    0.1,
    math.nan,
)


@st.composite
def _payload_arrays(draw):
    """A thermal-map result's arrays (coordinates matching the map) plus
    int64 and bool arrays, with finite floats, edge values and NaN."""
    rows, columns = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    elements = st.one_of(st.floats(allow_infinity=False), st.sampled_from(_EDGE_FLOATS))

    def floats(shape):
        return draw(npst.arrays(np.float64, shape, elements=elements))

    return {
        "temperature": floats((rows, columns)),
        "x_coordinates": floats(rows),
        "y_coordinates": floats(columns),
        "counts": draw(npst.arrays(np.int64, st.integers(0, 6))),
        "flags": draw(npst.arrays(np.bool_, st.integers(0, 6))),
    }


class TestResultRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        temperatures=npst.arrays(
            dtype=np.float64,
            shape=npst.array_shapes(min_dims=2, max_dims=2, max_side=5),
            elements=st.one_of(
                st.floats(min_value=-1e30, max_value=1e30, allow_subnormal=False),
                st.just(float("nan")),
            ),
        ),
        flags=npst.arrays(dtype=np.bool_, shape=st.integers(1, 5)),
    )
    def test_arbitrary_arrays_survive_json(self, temperatures, flags):
        result = StudyResult(
            kind="steady",
            spec=_minimal_spec(),
            arrays={"block_temperatures": temperatures, "converged": flags},
            metadata={"block_names": ["core", "cache", "io"]},
        )
        loaded = StudyResult.from_json(result.to_json())
        assert loaded.equals(result)
        for name, array in result.arrays.items():
            reloaded = loaded.array(name)
            assert reloaded.dtype == array.dtype
            assert reloaded.shape == array.shape
            # Bit-identical, which trivially satisfies the <=1e-12 band.
            assert np.array_equal(reloaded, array, equal_nan=True) or np.array_equal(
                reloaded, array
            )

    @settings(max_examples=60, deadline=None)
    @given(arrays=_payload_arrays())
    def test_encoder_reloads_arrays_bit_for_bit(self, arrays):
        # Both encoded forms of a result, the file and the service reply,
        # reload every float64, int64 and bool element bit for bit; NaN
        # (written as null) comes back at the same positions.
        result = StudyResult(
            kind="thermal_map",
            spec=_minimal_spec(),
            arrays=arrays,
            metadata={"ambient_temperature": 300.0},
        )
        reply = json.loads(encode_payload(result.envelope({"result_cache": "miss"})))
        for loaded in (
            StudyResult.from_json(result.to_json()),
            StudyResult.from_envelope(reply),
        ):
            assert set(loaded.arrays) == set(arrays)
            for name, array in arrays.items():
                reloaded = loaded.array(name)
                assert reloaded.dtype == array.dtype
                assert reloaded.shape == array.shape
                if array.dtype.kind == "f":
                    nan = np.isnan(array)
                    assert np.array_equal(np.isnan(reloaded), nan)
                    reloaded, array = reloaded[~nan], array[~nan]
                assert reloaded.tobytes() == array.tobytes()

    def test_numpy_float_block_coordinates_encode_as_their_floats(self):
        # numpy arithmetic leaves numpy.float64 coordinates in a floorplan;
        # both encoded forms write them as the floats they are, and the
        # spec hashes as the plain-float floorplan does.
        plain = three_block_floorplan()
        moved = Floorplan(plain.die, name=plain.name)
        for block in plain.blocks():
            moved.add_block(
                replace(block, x=np.float64(block.x), width=np.float64(block.width))
            )
        result = Study.thermal_map(moved, {"core": 0.3}, samples=(8, 8)).run()
        expected = Study.thermal_map(plain, {"core": 0.3}, samples=(8, 8)).run()
        assert result.spec.content_hash() == expected.spec.content_hash()
        reply = json.loads(encode_payload(result.envelope()))
        for loaded in (
            StudyResult.from_json(result.to_json()),
            StudyResult.from_envelope(reply),
        ):
            assert loaded.equals(expected)

    def test_non_ascii_text_round_trips_through_a_file(self, tmp_path):
        # Result files hold non-ASCII text unescaped, as UTF-8.
        result = StudyResult(
            kind="thermal_map",
            spec=_minimal_spec(),
            arrays={"temperature": np.ones((1, 1))},
            metadata={"ambient_temperature": 300.0, "note": "ΔT in µs, 25 °C"},
        )
        path = tmp_path / "result.json"
        result.to_json(path)
        assert "ΔT in µs, 25 °C".encode("utf-8") in path.read_bytes()
        assert StudyResult.from_json(path).equals(result)

    def test_every_kind_round_trips(self, tmp_path):
        for study in (
            _steady_study(),
            _transient_study(),
            _thermal_map_study(),
            _sweep_study(),
            _optimize_study(),
        ):
            result = study.run()
            path = tmp_path / f"{result.kind}.json"
            result.to_json(path)
            loaded = StudyResult.from_json(path)
            assert loaded.equals(result)
            assert loaded.summary() == result.summary()
            assert loaded.native is None

    @pytest.mark.parametrize("name", EXAMPLE_STUDIES + ["study_transient_reduced"])
    def test_example_results_are_strict_json(self, name):
        result = _example_study(name).run()
        loaded = StudyResult.from_dict(_strict_json(result.to_json()))
        assert loaded.equals(result)

    def test_never_ran_away_is_null_and_older_nan_tokens_still_load(self):
        result = _transient_study().run()
        assert np.isnan(result.array("runaway_times")).all()
        data = json.loads(result.to_json())
        entry = data["arrays"]["runaway_times"]
        assert entry["data"] == [None] * len(entry["data"])
        # Files written before NaN became null hold the NaN token instead.
        entry["data"] = [math.nan] * len(entry["data"])
        older = json.dumps(data, indent=2)
        assert "NaN" in older
        assert StudyResult.from_json(older).equals(result)

    def test_result_arrays_are_read_only(self):
        result = _steady_study().run()
        with pytest.raises(ValueError):
            result.array("block_temperatures")[0, 0] = 0.0
        copy = result.as_arrays()["block_temperatures"]
        copy[0, 0] = 0.0  # copies are writable

    def test_equals_detects_metadata_divergence(self):
        result = _steady_study().run()
        loaded = StudyResult.from_json(result.to_json())
        loaded.metadata["block_names"] = ["tampered"]
        assert not loaded.equals(result)


# --------------------------------------------------------------------- #
# Facade execution parity against the engines it fronts
# --------------------------------------------------------------------- #
def _steady_study():
    return Study.steady(
        floorplan=three_block_floorplan(),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
        scenarios=ScenarioSpec.grid(
            ["0.18um", "0.12um"],
            supply_scales=(0.9, 1.0),
            ambient_temperatures=(298.15, 318.15),
        ),
    )


def _transient_study():
    return Study.transient(
        floorplan=three_block_floorplan(),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
        scenarios=ScenarioSpec.grid(["0.12um"], activities=(0.5, 1.0)),
        duration=20e-3,
        time_step=0.5e-3,
        workload=WorkloadSpec(
            kind="pwm", parameters={"periods": 4e-3, "duty_cycles": 0.4}
        ),
        time_constants={"core": 2e-3, "cache": 1.5e-3, "io": 1e-3},
    )


def _thermal_map_study():
    return Study.thermal_map(
        floorplan=three_block_floorplan(),
        block_powers={"core": 0.3, "cache": 0.12, "io": 0.06},
        technology="0.12um",
        ambient_temperature=318.15,
        samples=(40, 40),
    )


def _sweep_study():
    ambients = (298.15, 318.15, 338.15)
    return Study.sweep(
        floorplan=three_block_floorplan(),
        parameter_name="ambient_K",
        parameter_values=ambients,
        scenarios=ScenarioSpec.grid(["0.12um"], ambient_temperatures=ambients),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
    )


def _optimize_study():
    return Study.optimize(
        floorplan=three_block_floorplan(),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
        scenarios=ScenarioSpec.grid(
            ["0.12um"], ambient_temperatures=(298.15, 318.15)
        ),
        problem="supply",
        objective="total_power",
        constraints={"temperature_cap": 420.0, "penalty_weight": 2.0},
        strategy="random",
        budget=12,
        generation_size=6,
        seed=3,
    )


class TestFacadeParity:
    def test_steady_matches_direct_engine(self):
        result = _steady_study().run()
        engine = ScenarioEngine(three_block_floorplan(), DYNAMIC, STATIC)
        technologies = [make_technology("0.18um"), make_technology("0.12um")]
        batch = engine.solve(
            scenario_grid(
                technologies,
                supply_scales=(0.9, 1.0),
                ambient_temperatures=(298.15, 318.15),
            )
        )
        assert np.array_equal(
            result.array("block_temperatures"), batch.block_temperatures
        )
        assert np.array_equal(result.array("static_power"), batch.static_power)
        assert np.array_equal(result.array("converged"), batch.converged)
        assert result.native is not None
        assert result.metadata["block_names"] == list(batch.block_names)

    def test_transient_matches_direct_engine(self):
        result = _transient_study().run()
        engine = TransientScenarioEngine(
            ScenarioEngine(three_block_floorplan(), DYNAMIC, STATIC),
            time_constants={"core": 2e-3, "cache": 1.5e-3, "io": 1e-3},
        )
        batch = engine.simulate(
            scenario_grid([make_technology("0.12um")], activities=(0.5, 1.0)),
            duration=20e-3,
            time_step=0.5e-3,
            activity=PWMActivity(periods=4e-3, duty_cycles=0.4),
        )
        assert np.array_equal(result.array("times"), batch.times)
        assert np.array_equal(
            result.array("block_temperatures"), batch.block_temperatures
        )
        assert np.array_equal(result.array("block_powers"), batch.block_powers)

    def test_thermal_map_matches_direct_model(self):
        result = _thermal_map_study().run()
        plan = three_block_floorplan()
        technology = make_technology("0.12um")
        model = ChipThermalModel(
            plan.die,
            ambient_temperature=318.15,
            material=technology.thermal.silicon,
        )
        model.add_sources(
            plan.to_heat_sources({"core": 0.3, "cache": 0.12, "io": 0.06})
        )
        surface = model.surface_map(nx=40, ny=40)
        assert np.array_equal(result.array("temperature"), surface.temperature)
        assert result.summary()["peak_temperature_K"] == surface.peak_temperature

    def test_sweep_matches_analysis_helper(self):
        from repro.analysis import scenario_sweep

        result = _sweep_study().run()
        ambients = (298.15, 318.15, 338.15)
        engine = ScenarioEngine(three_block_floorplan(), DYNAMIC, STATIC)
        sweep = scenario_sweep(
            engine,
            "ambient_K",
            ambients,
            scenario_grid([make_technology("0.12um")], ambient_temperatures=ambients),
        )
        for label in sweep.labels():
            assert np.array_equal(result.array(label), sweep.series(label)), label
        assert np.array_equal(result.array("values"), np.asarray(sweep.values))

    def test_rerun_of_reloaded_spec_is_bit_identical(self, tmp_path):
        # The acceptance criterion: write the spec to JSON, reload, re-run,
        # compare every result array bit-for-bit.
        for study in (
            _steady_study(),
            _transient_study(),
            _thermal_map_study(),
            _optimize_study(),
        ):
            first = study.run()
            path = tmp_path / "spec.json"
            study.to_json(path)
            reloaded = Study.from_json(path)
            assert reloaded.spec == study.spec
            second = reloaded.run()
            assert second.equals(first)

    def test_scenario_spec_grid_matches_runtime_grid(self):
        specs = ScenarioSpec.grid(
            ["0.18um", "0.12um"],
            supply_scales=(0.9, 1.1),
            ambient_temperatures=(None, 318.15),
            activities=(0.5, {"core": 1.5}),
        )
        spec_scenarios = StudySpec(
            kind="steady",
            floorplan=FloorplanSpec.from_floorplan(three_block_floorplan()),
            dynamic_powers=DYNAMIC,
            scenarios=specs,
        ).build_scenarios()
        technologies = [make_technology("0.18um"), make_technology("0.12um")]
        runtime = scenario_grid(
            technologies,
            supply_scales=(0.9, 1.1),
            ambient_temperatures=(None, 318.15),
            activities=(0.5, {"core": 1.5}),
        )
        assert len(spec_scenarios) == len(runtime) == 16
        for built, reference in zip(spec_scenarios, runtime):
            assert built.vdd == reference.vdd
            assert built.ambient == reference.ambient
            assert built.activity_factor("core") == reference.activity_factor("core")

    def test_scenario_spec_grid_accepts_one_shot_iterators(self):
        specs = ScenarioSpec.grid(
            ["0.18um", "0.12um"],
            supply_scales=iter([0.9, 1.1]),
            ambient_temperatures=iter([None, 318.15]),
        )
        assert len(specs) == 8
        assert specs[4].technology == specs[7].technology != specs[0].technology

    def test_technologies_are_shared_across_scenarios(self):
        spec = _steady_study().spec
        scenarios = spec.build_scenarios()
        assert scenarios[0].technology is scenarios[1].technology

    def test_fluent_refinement(self):
        study = _steady_study().with_solver(tolerance=1e-3).with_label("refined")
        assert study.spec.solver == {"tolerance": 1e-3}
        assert study.spec.label == "refined"
        assert study.run().summary()["study"] == "refined"


# --------------------------------------------------------------------- #
# Optimize studies through the declarative layer
# --------------------------------------------------------------------- #
class TestOptimizeStudies:
    def test_run_matches_direct_search(self):
        # The facade adds nothing to the physics: the same problem driven
        # through run_search directly yields the identical outcome.
        from repro.optimize import SupplyProblem, TemperatureCap, run_search

        result = _optimize_study().run()
        spec = _optimize_study().spec
        problem = SupplyProblem(
            three_block_floorplan(),
            DYNAMIC,
            STATIC,
            spec.build_scenarios(),
            objective="total_power",
            temperature_cap=TemperatureCap(limit=420.0, penalty_weight=2.0),
        )
        outcome = run_search(
            problem, strategy="random", budget=12, generation_size=6, seed=3
        )
        assert np.array_equal(result.array("best_candidate"), outcome.best_candidate)
        assert np.array_equal(result.array("objective_trace"), outcome.objective_trace)
        assert result.metadata["best_objective"] == outcome.best_objective
        assert result.metadata["evaluations"] == outcome.evaluations
        assert result.metadata["variable_names"] == list(outcome.variable_names)

    def test_seeded_replay_is_bit_identical(self, tmp_path):
        first = _optimize_study().run()
        assert run_study(first.spec).equals(first)
        # ... and through a JSON-shipped result file, as the CI smoke does.
        path = tmp_path / "optimize.json"
        first.to_json(path)
        loaded = StudyResult.from_json(path)
        assert loaded.equals(first)
        assert run_study(loaded.spec).equals(first)

    def test_placement_study_runs_and_replays(self):
        study = Study.optimize(
            floorplan=three_block_floorplan(),
            dynamic_powers=DYNAMIC,
            static_powers=STATIC,
            scenarios=(ScenarioSpec(technology=TechnologySpec("0.12um")),),
            problem="placement",
            objective="peak_rise",
            movable=("core",),
            strategy="coordinate",
            budget=10,
            seed=5,
        )
        result = study.run()
        assert result.metadata["variable_names"] == ["core.x", "core.y"]
        assert result.metadata["best_feasible"]
        # The moved core stays on the die.
        best = result.metadata["best_detail"]
        assert 0.0 <= best["core.x"] <= 1.0e-3
        assert 0.0 <= best["core.y"] <= 1.0e-3
        assert run_study(study.spec).equals(result)

    def test_summary_reports_search_shape(self):
        result = _optimize_study().run()
        summary = result.summary()
        assert summary["problem"] == "supply"
        assert summary["strategy"] == "random"
        assert summary["evaluations"] <= 12
        assert summary["generation_count"] == result.array("objective_trace").shape[0]
        assert math.isfinite(summary["best_objective"])
        assert "supply_scale" in result.metadata["variable_names"]

    def test_kind_literals_mirror_runtime_registries(self):
        # api.kinds keeps plain literals so `repro --help` stays
        # numpy-free; they must track the optimizer registries exactly.
        from repro.api.kinds import (
            OPTIMIZE_OBJECTIVES,
            OPTIMIZE_PROBLEMS,
            OPTIMIZE_STRATEGIES,
            STUDY_KINDS,
        )
        from repro.optimize import objectives, search

        assert "optimize" in STUDY_KINDS
        assert OPTIMIZE_STRATEGIES == search.STRATEGIES
        assert OPTIMIZE_OBJECTIVES == tuple(objectives.OBJECTIVES)
        assert OPTIMIZE_PROBLEMS == ("placement", "supply")


class TestOptimizeValidation:
    """Every rejection names the offending field (the spec ergonomics bar)."""

    def test_optimize_kind_requires_optimize_block(self):
        with pytest.raises(ValueError, match="require an optimize block"):
            _minimal_spec().replace(kind="optimize")

    def test_optimize_block_requires_optimize_kind(self):
        with pytest.raises(ValueError, match="only applies to optimize"):
            _minimal_spec().replace(optimize=OptimizeSpec())

    def test_unknown_problem_lists_known(self):
        with pytest.raises(ValueError, match="placement, supply"):
            OptimizeSpec(problem="routing")

    def test_unknown_objective_lists_known(self):
        with pytest.raises(ValueError, match="known objectives: peak_rise"):
            OptimizeSpec(objective="nope")

    def test_zero_objective_weight_named(self):
        with pytest.raises(ValueError, match="'total_power'"):
            OptimizeSpec(objective={"total_power": 0.0})

    def test_unknown_strategy_lists_known(self):
        with pytest.raises(ValueError, match="nelder_mead"):
            OptimizeSpec(strategy="anneal")

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget"):
            OptimizeSpec(budget=0)

    def test_penalty_weight_requires_cap(self):
        with pytest.raises(
            ValueError,
            match=r"constraints\['penalty_weight'\] requires "
            r"constraints\['temperature_cap'\]",
        ):
            OptimizeSpec(constraints={"penalty_weight": 2.0})

    def test_unknown_constraint_named(self):
        with pytest.raises(ValueError, match="bogus"):
            OptimizeSpec(constraints={"bogus": 1.0})

    def test_variable_bounds_must_be_ordered(self):
        with pytest.raises(
            ValueError, match=r"variables\['x'\] requires lower < upper"
        ):
            OptimizeVariable(name="x", lower=1.0, upper=1.0)

    def test_movable_unknown_block_named(self):
        spec = _optimize_study().spec
        with pytest.raises(ValueError, match="gpu"):
            spec.replace(
                optimize=OptimizeSpec(problem="placement", movable=("gpu",))
            )

    def test_movable_is_placement_only(self):
        spec = _optimize_study().spec
        with pytest.raises(ValueError, match="only applies to the 'placement'"):
            spec.replace(optimize=OptimizeSpec(problem="supply", movable=("core",)))

    def test_variable_override_must_match_problem(self):
        spec = _optimize_study().spec
        with pytest.raises(ValueError, match="'core.z' matches no"):
            spec.replace(
                optimize=OptimizeSpec(
                    problem="placement",
                    variables=(
                        OptimizeVariable(name="core.z", lower=0.0, upper=1.0),
                    ),
                )
            )

    def test_scenario_grid_is_rejected(self):
        with pytest.raises(ValueError, match="enumerate their operating"):
            _optimize_study().spec.replace(
                scenario_grid={"technologies": ("0.12um",)}
            )

    def test_streaming_fields_are_rejected(self):
        with pytest.raises(ValueError, match="chunk_size does not apply"):
            _optimize_study().spec.replace(chunk_size=8)
        with pytest.raises(ValueError, match="reduction does not apply"):
            _optimize_study().spec.replace(reduction=True)


# --------------------------------------------------------------------- #
# Validation ergonomics
# --------------------------------------------------------------------- #
class TestValidation:
    def test_unknown_node_names_node(self):
        with pytest.raises(ValueError, match="13nm"):
            TechnologySpec(node="13nm")

    def test_block_mapping_missing_field(self):
        with pytest.raises(ValueError, match="width"):
            Block.from_mapping({"name": "a", "x": 0.0, "y": 0.0, "length": 1e-3})

    def test_block_mapping_unknown_field(self):
        with pytest.raises(ValueError, match="depth"):
            Block.from_mapping(
                {"name": "a", "x": 0, "y": 0, "width": 1e-3, "length": 1e-3, "depth": 1}
            )

    def test_block_mapping_bad_number(self):
        with pytest.raises(ValueError, match="'x'"):
            Block.from_mapping(
                {"name": "a", "x": "wide", "y": 0, "width": 1e-3, "length": 1e-3}
            )

    def test_block_tuple_coercion(self):
        block = as_block(("a", 1e-4, 2e-4, 1e-4, 1e-4))
        assert block.name == "a"
        with pytest.raises(ValueError, match="tuple"):
            as_block(("a", 1e-4))

    def test_floorplan_accepts_plain_block_descriptions(self):
        plan = Floorplan(three_block_floorplan().die)
        plan.add_block(
            {"name": "m", "x": 5e-4, "y": 5e-4, "width": 1e-4, "length": 1e-4}
        )
        plan.add_block(("t", 1e-4, 1e-4, 1e-4, 1e-4))
        assert set(plan.block_names()) == {"m", "t"}

    def test_floorplan_spec_rejects_overlaps(self):
        with pytest.raises(ValueError, match="overlaps"):
            FloorplanSpec(
                blocks=(
                    ("a", 5e-4, 5e-4, 4e-4, 4e-4),
                    ("b", 5e-4, 5e-4, 4e-4, 4e-4),
                )
            )

    def test_scenario_rejects_double_supply(self):
        with pytest.raises(ValueError, match="supply_scale or supply_voltage"):
            ScenarioSpec(supply_scale=1.0, supply_voltage=1.2)

    def test_workload_unknown_kind(self):
        with pytest.raises(ValueError, match="sawtooth"):
            WorkloadSpec(kind="sawtooth")

    def test_workload_missing_parameter(self):
        with pytest.raises(ValueError, match="duty_cycles"):
            WorkloadSpec(kind="pwm", parameters={"periods": 1e-3})

    def test_workload_unknown_parameter(self):
        with pytest.raises(ValueError, match="phase"):
            WorkloadSpec(
                kind="pwm",
                parameters={"periods": 1e-3, "duty_cycles": 0.5, "phase": 0.1},
            )

    def test_study_unknown_kind(self):
        with pytest.raises(ValueError, match="spectral"):
            StudySpec(kind="spectral")

    def test_study_unknown_block_in_powers(self):
        with pytest.raises(ValueError, match="gpu"):
            _minimal_spec().replace(dynamic_powers={"gpu": 1.0})

    def test_steady_rejects_transient_fields(self):
        with pytest.raises(ValueError, match="duration"):
            _minimal_spec().replace(duration=1.0)

    def test_sweep_requires_aligned_values(self):
        with pytest.raises(ValueError, match="one-to-one"):
            _minimal_spec().replace(
                kind="sweep", parameter_name="x", parameter_values=(1.0, 2.0)
            )

    def test_solver_keys_are_kind_checked(self):
        with pytest.raises(ValueError, match="settle_tolerance"):
            _minimal_spec().replace(solver={"settle_tolerance": 0.1})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_solver_options_are_rejected(self, value):
        for option in ("tolerance", "damping", "max_temperature"):
            with pytest.raises(ValueError, match=f"'{option}' must be finite"):
                _minimal_spec().replace(solver={option: value})
        transient = _transient_study().spec
        with pytest.raises(ValueError, match="'settle_tolerance' must be finite"):
            transient.replace(solver={"settle_tolerance": value})
        for field_name in ("duration", "time_step"):
            with pytest.raises(ValueError, match=f"{field_name} must be finite"):
                transient.replace(**{field_name: value})
        with pytest.raises(ValueError, match="ambient_temperature must be finite"):
            ScenarioSpec(technology="0.12um", ambient_temperature=value)
        with pytest.raises(ValueError, match="die_width must be finite"):
            FloorplanSpec(die_width=value)
        grid = {"technologies": ("0.12um",)}
        for axis in ("supply_scales", "ambient_temperatures", "activities"):
            with pytest.raises(ValueError, match=f"{axis} must be finite"):
                ScenarioGridSpec(**grid, **{axis: (value,)})
        with pytest.raises(ValueError, match=r"activities\['core'\] must be finite"):
            ScenarioGridSpec(**grid, activities=({"core": value},))
        with pytest.raises(ValueError, match="activity must be finite"):
            ScenarioSpec(activity=value)
        with pytest.raises(ValueError, match=r"activity\['core'\] must be finite"):
            ScenarioSpec(activity={"core": value})
        with pytest.raises(ValueError, match="ambient_celsius must be finite"):
            TechnologySpec(ambient_celsius=value)
        for bound in ("lower", "upper"):
            with pytest.raises(ValueError, match=f"{bound} must be finite"):
                OptimizeVariable(name="x", **{bound: value})
        for field_name in ("dynamic_powers", "static_powers"):
            with pytest.raises(
                ValueError, match=rf"{field_name}\['core'\] must be finite"
            ):
                _minimal_spec().replace(**{field_name: {"core": value}})
        with pytest.raises(ValueError, match=r"time_constants\['io'\] must be finite"):
            transient.replace(time_constants={"core": 1e-3, "io": value})
        with pytest.raises(ValueError, match=r"block_powers\['core'\] must be finite"):
            _thermal_map_study().spec.replace(block_powers={"core": value})
        with pytest.raises(
            ValueError, match=r"objective\['peak_rise'\] must be finite"
        ):
            OptimizeSpec(objective={"peak_rise": value})
        with pytest.raises(
            ValueError, match=r"constraints\['temperature_cap'\] must be finite"
        ):
            OptimizeSpec(constraints={"temperature_cap": value})
        with pytest.raises(ValueError, match="parameter_values must be finite"):
            _sweep_study().spec.replace(parameter_values=(1.0, 2.0, value))
        for periods in (value, [1e-3, value]):
            with pytest.raises(
                ValueError, match=r"parameters\['periods'\] must be finite"
            ):
                WorkloadSpec(
                    kind="pwm", parameters={"periods": periods, "duty_cycles": 0.5}
                )
        for column, key in enumerate(("x", "y", "width", "length"), start=1):
            block = ["core", 4e-4, 4e-4, 4e-4, 4e-4]
            block[column] = value
            with pytest.raises(ValueError, match=f"field '{key}' must be finite"):
                FloorplanSpec(blocks=(block,))

    def test_wrong_json_types_are_rejected_by_name(self):
        # Each once raised TypeError (a 500 from serve), failed without
        # naming the field, or was silently truncated.
        steady = _minimal_spec().to_dict()
        sweep = _sweep_study().spec.to_dict()
        thermal_map = _thermal_map_study().spec.to_dict()
        for base, name, value in (
            (steady, "floorplan", 5),
            (thermal_map, "map_samples", 5),
            (thermal_map, "map_samples", ["a", "b"]),
            (thermal_map, "map_samples", [2.7, 3]),
            (sweep, "parameter_values", 5),
            (steady, "image_rings", [1]),
            (steady, "image_rings", "x"),
            (steady, "image_rings", 1.5),
        ):
            with pytest.raises(ValueError, match=name) as excinfo:
                StudySpec.from_dict({**base, name: value})
            assert error_body(str(excinfo.value))["error"]["field"] == name
        for option, value in (("tolerance", "x"), ("max_iterations", 2.5)):
            with pytest.raises(ValueError, match=f"'{option}'"):
                StudySpec.from_dict({**steady, "solver": {option: value}})
        # Stored exactly as before: a whole-number float stays a float.
        spec = StudySpec.from_dict({**steady, "solver": {"max_iterations": 7}})
        assert spec.solver["max_iterations"] == 7.0
        assert isinstance(spec.solver["max_iterations"], float)

    def test_wrong_python_objects_still_raise_type_error(self):
        for coerce in (
            as_technology_spec,
            as_floorplan_spec,
            as_workload_spec,
            as_scenario_spec,
            as_scenario_grid_spec,
            as_optimize_variable,
            as_optimize_spec,
        ):
            with pytest.raises(TypeError, match="cannot interpret 'int'"):
                coerce(42)
        assert as_technology_spec("0.18um") == TechnologySpec("0.18um")
        plan = three_block_floorplan()
        assert as_floorplan_spec(plan) == FloorplanSpec.from_floorplan(plan)
        with pytest.raises(TypeError, match="rather than a built Scenario"):
            as_scenario_spec(ScenarioSpec().build())
        with pytest.raises(TypeError, match="rather than a built PWMActivity"):
            as_workload_spec(PWMActivity(periods=1e-3, duty_cycles=0.5))

    def test_unknown_spec_field_named(self):
        with pytest.raises(ValueError, match="florplan"):
            StudySpec.from_dict({"kind": "steady", "florplan": {}})

    def test_study_requires_scenarios(self):
        with pytest.raises(ValueError, match="scenario"):
            _minimal_spec().replace(scenarios=())

    def test_steady_rejects_thermal_map_fields(self):
        with pytest.raises(ValueError, match="ambient_temperature"):
            _minimal_spec().replace(ambient_temperature=398.15)
        with pytest.raises(ValueError, match="technology"):
            _minimal_spec().replace(technology=TechnologySpec("0.12um"))
        with pytest.raises(ValueError, match="block_powers"):
            _minimal_spec().replace(block_powers={"core": 1.0})
        with pytest.raises(ValueError, match="map_samples"):
            _minimal_spec().replace(map_samples=(10, 10))

    def test_thermal_map_rejects_engine_fields(self):
        spec = _thermal_map_study().spec
        with pytest.raises(ValueError, match="dynamic_powers"):
            spec.replace(dynamic_powers={"core": 1.0})
        with pytest.raises(ValueError, match="duration"):
            spec.replace(duration=1.0)

    def test_spec_mappings_are_read_only(self):
        # A mutable mapping would let callers desync a Study's cached
        # compilation from its spec and break bit-identical replay.
        spec = _minimal_spec()
        with pytest.raises(TypeError):
            spec.dynamic_powers["core"] = 2.0
        with pytest.raises(TypeError):
            spec.solver["tolerance"] = 1.0
        workload = WorkloadSpec(
            kind="pwm", parameters={"periods": 1e-3, "duty_cycles": 0.5}
        )
        with pytest.raises(TypeError):
            workload.parameters["periods"] = 2e-3


# --------------------------------------------------------------------- #
# Thermal backends through the declarative layer
# --------------------------------------------------------------------- #
class TestThermalBackendSpec:
    def test_kind_registry_mirrors_operator_registry(self):
        # api.kinds keeps plain literals so `repro --help` stays
        # numpy-free; they must track the operator registry exactly.
        from repro.api.kinds import FDM_GRID_OPTIONS, THERMAL_BACKENDS
        from repro.core.thermal import operator

        assert THERMAL_BACKENDS == operator.THERMAL_BACKENDS
        assert FDM_GRID_OPTIONS == operator.FDM_GRID_OPTIONS

    @settings(max_examples=25, deadline=None)
    @given(
        backend=st.sampled_from(("analytical", "fdm", "foster")),
        grid=st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    "nx": st.integers(2, 48),
                    "ny": st.integers(2, 48),
                    "nz": st.integers(2, 16),
                }
            ),
        ),
    )
    def test_thermal_backend_round_trips_through_json(self, backend, grid):
        spec = _minimal_spec().replace(
            thermal_backend=backend,
            backend_options=grid if (grid and backend == "fdm") else {},
        )
        reloaded = StudySpec.from_json(spec.to_json())
        assert reloaded == spec
        assert reloaded.thermal_backend == backend
        # Defaults stay out of the serialized form (forward-compatible
        # with pre-backend study files).
        if backend == "analytical":
            assert "thermal_backend" not in spec.to_dict()

    def test_unknown_backend_is_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="analytical, fdm, foster"):
            _minimal_spec().replace(thermal_backend="spectral")

    def test_backend_options_require_fdm(self):
        with pytest.raises(ValueError, match="only apply to the 'fdm'"):
            _minimal_spec().replace(backend_options={"nx": 8})

    def test_backend_options_are_kind_and_range_checked(self):
        with pytest.raises(ValueError, match="cells"):
            _minimal_spec().replace(
                thermal_backend="fdm", backend_options={"cells": 8}
            )
        for bad in (1, 2.5, "eight", True):
            with pytest.raises(ValueError, match="nx"):
                _minimal_spec().replace(
                    thermal_backend="fdm", backend_options={"nx": bad}
                )

    def test_thermal_map_is_analytical_only(self):
        with pytest.raises(ValueError, match="field-map"):
            _thermal_map_study().spec.replace(thermal_backend="fdm")

    def test_fdm_study_runs_end_to_end_and_records_backend(self):
        study = Study.steady(
            floorplan=three_block_floorplan(),
            dynamic_powers=DYNAMIC,
            static_powers=STATIC,
            scenarios=(ScenarioSpec(technology=TechnologySpec("0.12um")),),
            thermal_backend="fdm",
            backend_options={"nx": 16, "ny": 16, "nz": 6},
        )
        result = study.run()
        assert result.summary()["thermal_backend"] == "fdm"
        assert result.array("converged").all()
        # The engine the facade compiled really reduces through FDM.
        assert study._engine.thermal_backend == "fdm"
        # And a JSON-shipped copy reproduces the arrays bit for bit.
        replay = run_study(StudySpec.from_json(study.to_json()))
        assert np.array_equal(
            replay.array("block_temperatures"), result.array("block_temperatures")
        )

    def test_with_backend_produces_comparable_studies(self):
        base = Study.steady(
            floorplan=three_block_floorplan(),
            dynamic_powers=DYNAMIC,
            static_powers=STATIC,
            scenarios=(ScenarioSpec(technology=TechnologySpec("0.12um")),),
        )
        foster = base.with_backend("foster")
        assert base.spec.thermal_backend == "analytical"
        assert foster.spec.thermal_backend == "foster"
        hot_analytical = base.run().summary()["peak_temperature_K"]
        hot_foster = foster.run().summary()["peak_temperature_K"]
        # The uncoupled 1-D-column limit runs hotter on the hot block.
        assert hot_foster > hot_analytical

    def test_sweep_helper_accepts_backend(self):
        from repro.analysis.sweep import scenario_sweep

        engine = ScenarioEngine(three_block_floorplan(), DYNAMIC, STATIC)
        scenarios = scenario_grid([make_technology("0.12um")], supply_scales=(0.9, 1.0))
        swept = scenario_sweep(
            engine,
            "supply_scale",
            (0.9, 1.0),
            scenarios,
            thermal_backend="foster",
        )
        direct = engine.with_backend("foster").solve(scenarios)
        assert np.allclose(swept.series("peak_temperature"), direct.peak_temperature)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCLI:
    def test_run_executes_and_writes_results(self, tmp_path, capsys):
        study_path = tmp_path / "study.json"
        out_path = tmp_path / "results.json"
        _steady_study().to_json(study_path)
        assert cli_main(["run", str(study_path), "--out", str(out_path)]) == 0
        captured = capsys.readouterr().out
        assert "steady" in captured
        loaded = StudyResult.from_json(out_path)
        assert loaded.equals(_steady_study().run())

    def test_run_quiet(self, tmp_path, capsys):
        study_path = tmp_path / "study.json"
        _thermal_map_study().to_json(study_path)
        assert cli_main(["run", str(study_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_missing_file(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_run_invalid_study(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "spectral"}))
        assert cli_main(["run", str(bad)]) == 2
        assert "invalid study file" in capsys.readouterr().err

    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        captured = capsys.readouterr().out
        assert "study kinds" in captured
        assert "0.12um" in captured
        # The backend listing names every backend with capability flags.
        assert "thermal backends" in captured
        for backend in ("analytical", "fdm", "foster"):
            assert f"{backend}: " in captured
        assert "field_maps=yes" in captured
        assert "numerical=yes" in captured
        # The optimizer registries are listed (numpy-free literals).
        assert "optimize problems: placement, supply" in captured
        assert "optimize strategies: " in captured
        assert "optimize objectives: " in captured
        assert "nelder_mead" in captured
        # The runtime dependencies' versions sit beside Python's.
        for module in ("python", "numpy", "scipy", "orjson"):
            assert f"\n{module}: " in captured

    def test_run_reports_engine_errors(self, tmp_path, capsys):
        # Validates as a spec, but the engine rejects the combination at
        # run time: the CLI must report and exit 2, not traceback.
        study_path = tmp_path / "study.json"
        _steady_study().with_solver(max_temperature=200.0).to_json(study_path)
        assert cli_main(["run", str(study_path)]) == 2
        assert "failed to run" in capsys.readouterr().err

    def test_argument_parsing_is_numpy_free(self):
        # `repro --help` must not pay for the model stack.
        import subprocess
        import sys as _sys

        code = (
            "import sys, repro.api.cli; "
            "assert 'numpy' not in sys.modules, 'cli import pulled numpy'"
        )
        subprocess.run([_sys.executable, "-c", code], check=True)

    def test_example_studies_run(self, tmp_path):
        # The JSON files shipped under examples/ (exercised by CI's
        # cli-smoke job) must stay loadable and runnable.
        from pathlib import Path

        examples = Path(__file__).resolve().parents[1] / "examples"
        for name in (
            "study_steady",
            "study_transient",
            "study_thermal_map",
            "study_backend_fdm",
            "study_optimize",
        ):
            spec = StudySpec.from_json(examples / f"{name}.json")
            result = run_study(spec.replace(label=spec.label or name))
            assert result.kind == spec.kind


#: SHA-256 over the result arrays of the shipped example studies, recorded
#: before the scenario engines' in-place loops were folded into their
#: functional twins.  They pin the numpy results themselves, which the
#: namespace-parity suite (one implementation under two namespaces) cannot.
GOLDEN_DIGESTS = {
    "study_steady": "d3b5ea8955a22282a238af73cc4b3021b5db46c6e5662e59ae598e7ca03d09f6",
    "study_transient": (
        "62835eac3d808dc1573711b59e8493fd886a90b49ef3665b18d366b23d631a6a"
    ),
    "study_streamed_grid": (
        "7fbbb5ffcd336f98fe7f3034567a457cbfed533636bc48234bf67939a9d7939b"
    ),
    "study_steady_float32": (
        "0e109cbf431a3ace17c8b3772b70f5f7b9289a2bb50792e30339b62bd5c22fca"
    ),
    # Streamed in chunks of 2 with online reduction: pins the reduced
    # transient series values themselves (streamed and monolithic series
    # share one definition, so their equality alone cannot).
    "study_transient_reduced": (
        "b8cecc3f2694a88af744a02cc7fab5f1812caa616dd6b2410f48a8d33910c941"
    ),
    # Surface maps: a 1-ulp change in how the kernel folds a row sum
    # changes these, which the 1e-10 K parity checks cannot see.
    "study_thermal_map": (
        "c17da65388fa49cd8ba3142333bcd39f3c1d2c5a5af01e389d2c8524c277a688"
    ),
    "study_thermal_map_float32": (
        "cc6fbfa128663a61072f1b0a2cc1e46a8173469b9211feebaed9443bab794ee8"
    ),
}

#: SHA-256 of the elementwise math kernels those studies use, on fixed
#: inputs, where the digests were recorded (numpy 2.4, x86-64 AVX-512).
#: numpy dispatches ``exp``/``log``/``arcsinh`` to different SIMD or libm
#: code per CPU and release, which may round the last bit differently.
GOLDEN_MATH_KERNELS = "4a190c74e9e4bc6d4e485e1f9bef9b086c349516dcb00e1fc374c65ba25745b9"


def _math_kernel_digest() -> str:
    x = np.linspace(-40.0, 40.0, 8001)
    digest = hashlib.sha256()
    for values in (
        np.exp(x),
        np.log(np.abs(x) + 1e-3),
        np.log1p(np.abs(x)),
        np.arcsinh(x),
        np.exp(x.astype(np.float32)),
    ):
        digest.update(values.tobytes())
    return digest.hexdigest()


def _result_digest(result: StudyResult) -> str:
    digest = hashlib.sha256()
    for name in sorted(result.arrays):
        array = np.ascontiguousarray(result.arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _example_study(name: str) -> Study:
    """An ``examples/`` study, or a variant named by a suffix: ``_float32``
    (float32 precision), ``_reduced`` (streamed in chunks of 2 with online
    reduction) or ``_retained`` (streamed with the full fields kept)."""
    stem = name
    for suffix in ("_float32", "_reduced", "_retained"):
        stem = stem.removesuffix(suffix)
    study = Study.from_json(EXAMPLES / f"{stem}.json")
    if name.endswith("_float32"):
        study = study.with_precision("float32")
    if name.endswith("_reduced"):
        study = study.with_streaming(chunk_size=2, reduction=True)
    if name.endswith("_retained"):
        study = study.with_streaming(reduction=False)
    return study


golden_math = pytest.mark.skipif(
    _math_kernel_digest() != GOLDEN_MATH_KERNELS,
    reason="numpy's exp/log/arcsinh round differently here than where the "
    "golden digests were recorded",
)


@golden_math
@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_example_study_results_match_golden_digests(name):
    assert _result_digest(_example_study(name).run()) == GOLDEN_DIGESTS[name]


#: ``json.dumps(result.summary())`` of every example study, and of a
#: float32, a reduced and a retained-fields variant, recorded before the
#: per-kind summary branches became one table: the keys, their order and
#: every value must stay as they were.  Retained fields and reduced series
#: give the same headline numbers (``_retained`` against the reduced
#: ``study_streamed_grid``, ``_reduced`` against ``study_transient``).
GOLDEN_SUMMARIES = {
    "study_backend_fdm": (
        '{"kind": "steady", "study": "backend comparison: the steady grid reduced '
        'by the FDM reference", "thermal_backend": "fdm", "scenario_count": 6, '
        '"block_names": ["core", "cache", "io"], "converged_count": 6, '
        '"runaway_count": 0, "peak_temperature_K": 324.83446405713875, '
        '"max_total_power_W": 0.8085877111403713}'
    ),
    "study_optimize": (
        '{"kind": "optimize", "study": "placement search: move the core to '
        'minimise worst-case peak rise", "thermal_backend": "analytical", '
        '"problem": "placement", "strategy": "coordinate", "evaluations": 48, '
        '"generation_count": 13, "best_objective": 7.009297490333097, '
        '"best_feasible": true, "improvement": 1004799992.9907024, "best": '
        '{"core.x": 0.00035433593750000005, "core.y": 0.0005109375}}'
    ),
    "study_steady": (
        '{"kind": "steady", "study": "steady grid: 2 nodes x 3 supplies x 2 '
        'ambients x 2 activities", "thermal_backend": "analytical", '
        '"scenario_count": 24, "block_names": ["core", "cache", "io"], '
        '"converged_count": 24, "runaway_count": 0, "peak_temperature_K": '
        '327.40275577075954, "max_total_power_W": 0.9137382874594748}'
    ),
    "study_steady_float32": (
        '{"kind": "steady", "study": "steady grid: 2 nodes x 3 supplies x 2 '
        'ambients x 2 activities", "thermal_backend": "analytical", '
        '"scenario_count": 24, "block_names": ["core", "cache", "io"], '
        '"converged_count": 24, "runaway_count": 0, "peak_temperature_K": '
        '327.40277099609375, "max_total_power_W": 0.9137393310666084}'
    ),
    "study_streamed_grid": (
        '{"kind": "steady", "study": "streamed grid: 5 nodes x 6 supplies x 8 '
        'ambients x 9 activities", "thermal_backend": "analytical", '
        '"scenario_count": 2160, "block_names": ["core", "cache", "io"], '
        '"converged_count": 1310, "runaway_count": 850, "peak_temperature_K": '
        '500.0, "max_total_power_W": 1253.5228039481226}'
    ),
    "study_streamed_grid_retained": (
        '{"kind": "steady", "study": "streamed grid: 5 nodes x 6 supplies x 8 '
        'ambients x 9 activities", "thermal_backend": "analytical", '
        '"scenario_count": 2160, "block_names": ["core", "cache", "io"], '
        '"converged_count": 1310, "runaway_count": 850, "peak_temperature_K": '
        '500.0, "max_total_power_W": 1253.5228039481226}'
    ),
    "study_thermal_map": (
        '{"kind": "thermal_map", "study": "three-block surface map at a 45 degC '
        'heat sink", "samples": [120, 120], "ambient_temperature_K": 318.15, '
        '"peak_temperature_K": 323.02424817022666, "peak_location_m": '
        '[0.00047058823529411766, 0.0006302521008403362], "source_temperatures_K": '
        '{"core": 322.8495899021377, "cache": 321.5539564763991, "io": '
        '320.52164277326665}}'
    ),
    "study_transient": (
        '{"kind": "transient", "study": "PWM transient grid at 250 Hz, 40% duty", '
        '"thermal_backend": "analytical", "scenario_count": 6, "step_count": 91, '
        '"block_names": ["core", "cache", "io"], "peak_temperature_K": '
        '324.7901785502865, "max_overshoot_K": 2.3058976054580285, '
        '"runaway_count": 0}'
    ),
    "study_transient_reduced": (
        '{"kind": "transient", "study": "PWM transient grid at 250 Hz, 40% duty", '
        '"thermal_backend": "analytical", "scenario_count": 6, "step_count": 91, '
        '"block_names": ["core", "cache", "io"], "peak_temperature_K": '
        '324.7901785502865, "max_overshoot_K": 2.3058976054580285, '
        '"runaway_count": 0}'
    ),
}


@golden_math
@pytest.mark.parametrize("name", sorted(GOLDEN_SUMMARIES))
def test_example_study_summaries_match_golden_values(name):
    summary = _example_study(name).run().summary()
    assert json.dumps(summary) == GOLDEN_SUMMARIES[name]


def test_transient_workload_none_means_nominal():
    base = _transient_study()
    explicit = Study(
        base.spec.replace(
            workload=WorkloadSpec(kind="constant", parameters={"multipliers": 1.0})
        )
    )
    nominal = Study(base.spec.replace(workload=None))
    temps_explicit = explicit.run().array("block_temperatures")
    temps_nominal = nominal.run().array("block_temperatures")
    assert np.array_equal(temps_explicit, temps_nominal)


def test_math_is_finite_on_defaults():
    # Guard rail: the default steady study converges to finite physics.
    result = _steady_study().run()
    assert np.isfinite(result.array("block_temperatures")).all()
    assert math.isfinite(result.summary()["peak_temperature_K"])


# --------------------------------------------------------------------- #
# Golden spec hashes: the serialized form is a cache-key contract
# --------------------------------------------------------------------- #
def _rich_scenarios():
    return (
        ScenarioSpec(
            technology=TechnologySpec("0.18um", ambient_celsius=40.0),
            supply_voltage=1.62,
            ambient_temperature=318.15,
            activity={"core": 0.8, "cache": 0.4},
            label="hot corner",
        ),
        ScenarioSpec(technology="0.12um", supply_scale=0.9, activity=0.5),
    )


def _rich_common():
    """Engine fields away from their defaults, shared by the engine kinds."""
    return dict(
        floorplan=FloorplanSpec(
            die_width=1.2e-3,
            die_length=1.1e-3,
            die_thickness=400e-6,
            blocks=(
                ("core", 4e-4, 4e-4, 4e-4, 4e-4),
                ("cache", 5e-4, 5e-4, 4e-4, 4e-4),
                {
                    "name": "io",
                    "x": 9e-4,
                    "y": 9e-4,
                    "width": 2e-4,
                    "length": 2e-4,
                    "gate_count": 1200,
                },
            ),
            name="overlapping",
            allow_overlaps=True,
        ),
        dynamic_powers=DYNAMIC,
        static_powers=STATIC,
        image_rings=2,
        include_bottom_images=False,
        device_type="pmos",
        thermal_backend="fdm",
        backend_options={"nx": 12, "ny": 10, "nz": 4},
        array_backend="numpy",
        precision="float32",
        label="every field",
    )


def _spec_hash_corpus():
    """Every example study plus one spec per kind with every field set."""
    from pathlib import Path

    examples = Path(__file__).resolve().parents[1] / "examples"
    corpus = {
        path.stem: StudySpec.from_json(path) for path in sorted(examples.glob("*.json"))
    }
    common = _rich_common()
    corpus["rich_steady"] = StudySpec(
        kind="steady",
        scenarios=_rich_scenarios(),
        chunk_size=3,
        memmap_path="fields",
        solver={
            "max_iterations": 7,
            "tolerance": 1e-9,
            "damping": 0.6,
            "max_temperature": 600.0,
        },
        **common,
    )
    corpus["rich_grid"] = StudySpec(
        kind="steady",
        scenario_grid={
            "technologies": ["0.12um", {"node": "0.18um", "ambient_celsius": 30.0}],
            "supply_scales": [0.9, 1.1],
            "ambient_temperatures": [None, 330.0],
            "activities": [0.5, {"core": 1.2, "io": 0.3}],
        },
        chunk_size=4,
        reduction=True,
        **common,
    )
    corpus["rich_transient"] = StudySpec(
        kind="transient",
        scenarios=_rich_scenarios(),
        workload={
            "kind": "pwm",
            "parameters": {
                "periods": [4e-3, 2e-3, 1e-3],
                "duty_cycles": 0.4,
                "on": 1.5,
                "off": 0.1,
            },
        },
        duration=20e-3,
        time_step=0.5e-3,
        time_constants={"core": 2e-3, "cache": 1.5e-3, "io": 1e-3},
        solver={
            "max_temperature": 700.0,
            "settle_tolerance": 1e-4,
            "include_activity_edges": False,
        },
        **common,
    )
    corpus["rich_sweep"] = StudySpec(
        kind="sweep",
        scenarios=_rich_scenarios(),
        parameter_name="corner",
        parameter_values=(1, 2.5),
        chunk_size=1,
        solver={"damping": 0.5},
        **common,
    )
    corpus["rich_optimize"] = StudySpec(
        kind="optimize",
        scenarios=_rich_scenarios(),
        optimize=OptimizeSpec(
            problem="placement",
            objective={"peak_rise": 1.0, "total_power": 5.0},
            variables=(
                OptimizeVariable("core.x", 3e-4, 6e-4),
                {"name": "cache.y", "lower": 4e-4, "upper": 7e-4},
            ),
            constraints={"temperature_cap": 420.0, "penalty_weight": 2.0},
            strategy="nelder_mead",
            budget=12,
            generation_size=6,
            seed=3,
            movable=("core", "cache"),
        ),
        solver={"tolerance": 1e-8},
        **common,
    )
    corpus["rich_supply"] = StudySpec(
        kind="optimize",
        scenarios=_rich_scenarios(),
        optimize={
            "problem": "supply",
            "objective": "total_static_power",
            "variables": [
                {"name": "supply_scale", "lower": 0.7, "upper": 1.1},
                {"name": "activity.io", "lower": 0.0, "upper": 2.0},
            ],
            "constraints": {"temperature_cap": 400.0},
            "strategy": "grid",
            "budget": 9,
            "generation_size": 9,
            "seed": 11,
        },
        **common,
    )
    corpus["rich_thermal_map"] = StudySpec(
        kind="thermal_map",
        floorplan=common["floorplan"],
        technology=TechnologySpec("0.18um", ambient_celsius=35.5),
        block_powers={"core": 0.3, "io": 0.05},
        ambient_temperature=330.0,
        map_samples=(12, 9),
        image_rings=0,
        include_bottom_images=False,
        device_type="pmos",
        precision="float64",
        label="map",
    )
    return corpus


#: ``(content_hash, engine_hash)`` of every spec in :func:`_spec_hash_corpus`,
#: recorded before the spec codec became field-driven.  Serve's result and
#: engine caches key on these, so any change to the canonical JSON shows up
#: here.
GOLDEN_SPEC_HASHES = {
    "rich_grid": (
        "26891007fc910afa1a889324fc49fbb882ff1aa65c749fbf8cabff7f6c12a634",
        "fc1b154347e93d16336cdcf5fbe14ee6b284c2f288480b1b4793460a788a58ca",
    ),
    "rich_optimize": (
        "1e799838c78bfc1c5bff120762e315d59f2455199d1c61679e404b2d1d58dd6a",
        "fc1b154347e93d16336cdcf5fbe14ee6b284c2f288480b1b4793460a788a58ca",
    ),
    "rich_steady": (
        "493af3a5bc48d41df1d00e22ada88e9e866ec970a586679ead1053afb413f3a1",
        "fc1b154347e93d16336cdcf5fbe14ee6b284c2f288480b1b4793460a788a58ca",
    ),
    "rich_supply": (
        "db4a25d57691d41c193e1b8ce90352585ce3ee552074cd1f59f49fcc31589600",
        "fc1b154347e93d16336cdcf5fbe14ee6b284c2f288480b1b4793460a788a58ca",
    ),
    "rich_sweep": (
        "56b2beff77af92e2446d5265ead8941321aa99ce5658b2cf5b8116b26be602ec",
        "fc1b154347e93d16336cdcf5fbe14ee6b284c2f288480b1b4793460a788a58ca",
    ),
    "rich_thermal_map": (
        "5fa5fff9f94d5608413326c955132b795fb71f5fd7b41153dc489c80c67218e6",
        "2116f75e1952111e3e4ec9a0f2c640d9c306db1ac474fa8131563ffc4537ea3b",
    ),
    "rich_transient": (
        "e5ee8ef863e891e776803e63a374c3bb8c0bbca96eb7ddb9d3e42f4b3eb472da",
        "fc1b154347e93d16336cdcf5fbe14ee6b284c2f288480b1b4793460a788a58ca",
    ),
    "study_backend_fdm": (
        "fae52fe01c5630bccd1c7949249fd21c61b68d2593e0c19655b436c3f5104e93",
        "a6053d1fb0360a3cbd143f323a51f53e4f14c8575ab78b5cbb875d8c538c3d77",
    ),
    "study_optimize": (
        "8e0b7b057f5b93e2551958add9ff420aa435332ba74e66372277d339cb3369d7",
        "9d7ff9dd51ff6366645d55b698b0499a97fb06c325afa1dcd268930935653750",
    ),
    "study_steady": (
        "9046a788a980d3850abc27ddfbe2843028373592502ea3f469cbbdb9f106b05e",
        "9d7ff9dd51ff6366645d55b698b0499a97fb06c325afa1dcd268930935653750",
    ),
    "study_streamed_grid": (
        "03fa21cebfa40126110507f66561992c90ddf6c6306979e004e48fff2494f8e3",
        "9d7ff9dd51ff6366645d55b698b0499a97fb06c325afa1dcd268930935653750",
    ),
    "study_thermal_map": (
        "e221714f328a496734fced4876ba176edc0137811705135923859ea43dbe33c9",
        "12202fbe1b1418c3d9384e02ded1f4078483a50199eb3a6b81da109afc5d8b35",
    ),
    "study_transient": (
        "dedd0846f87ed764dadcf387de876ff072152064dc63a97e77a10ee8ff15e5dc",
        "9d7ff9dd51ff6366645d55b698b0499a97fb06c325afa1dcd268930935653750",
    ),
}


@pytest.mark.parametrize("name", sorted(_spec_hash_corpus()))
def test_spec_hashes_match_golden_values(name):
    spec = _spec_hash_corpus()[name]
    canonical = hashlib.sha256(spec.canonical_json().encode("utf-8")).hexdigest()
    assert spec.content_hash() == canonical
    assert (canonical, spec.engine_hash()) == GOLDEN_SPEC_HASHES[name]
    assert StudySpec.from_dict(json.loads(spec.to_json())) == spec
    assert StudySpec.from_json(spec.to_json()).canonical_json() == spec.canonical_json()


# --------------------------------------------------------------------- #
# Golden builder hashes: every `Study` builder call is a spec contract
# --------------------------------------------------------------------- #
def _builder_corpus():
    """``Study`` builder calls, each reduced to the spec it builds.

    The calls cover the defaults, every argument set, ``None`` for each
    optional mapping, a generator of scenarios, a ``Path`` memmap
    directory, a ``scenario_grid`` mapping and every optimize field.
    """
    from pathlib import Path

    plan = three_block_floorplan()
    one = (ScenarioSpec(technology="0.12um"),)
    common = _rich_common()
    engine = {
        name: value
        for name, value in common.items()
        if name not in ("floorplan", "dynamic_powers", "static_powers")
    }
    studies = {
        "steady_defaults": Study.steady(plan, DYNAMIC, scenarios=one),
        "steady_every_argument": Study.steady(
            scenarios=_rich_scenarios(),
            chunk_size=3,
            reduction=True,
            memmap_path=Path("fields"),
            solver={"max_iterations": 7, "tolerance": 1e-9},
            **common,
        ),
        "steady_none_mappings": Study.steady(
            plan,
            dynamic_powers=None,
            static_powers=STATIC,
            scenarios=one,
            scenario_grid=None,
            memmap_path=None,
            backend_options=None,
            solver=None,
        ),
        "steady_generator": Study.steady(
            plan,
            DYNAMIC,
            STATIC,
            scenarios=(
                {"technology": node, "supply_scale": 0.9}
                for node in ("0.18um", "0.12um")
            ),
        ),
        "steady_grid": Study.steady(
            common["floorplan"].to_dict(),
            DYNAMIC,
            scenario_grid={
                "technologies": ["0.12um", {"node": "0.18um"}],
                "supply_scales": [0.9, 1.1],
                "activities": [0.5, {"core": 1.2}],
            },
            chunk_size=4,
        ),
        "transient_defaults": Study.transient(plan, DYNAMIC, STATIC, one),
        "transient_every_argument": Study.transient(
            scenarios=_rich_scenarios(),
            chunk_size=2,
            reduction=True,
            memmap_path=Path("transient_fields"),
            duration=20e-3,
            time_step=0.5e-3,
            workload={
                "kind": "pwm",
                "parameters": {"periods": [4e-3, 2e-3, 1e-3], "duty_cycles": 0.4},
            },
            time_constants={"core": 2e-3, "io": 1e-3},
            solver={"max_temperature": 700.0, "include_activity_edges": False},
            **common,
        ),
        "transient_none_mappings": Study.transient(
            plan,
            None,
            STATIC,
            one,
            workload=None,
            time_constants=None,
            backend_options=None,
            solver=None,
        ),
        "thermal_map_defaults": Study.thermal_map(plan, {"core": 0.3}),
        "thermal_map_every_argument": Study.thermal_map(
            common["floorplan"],
            {"core": 0.3, "io": 0.05},
            technology="0.18um",
            ambient_temperature=330.0,
            samples=[12, 9],
            label="map",
            image_rings=0,
            include_bottom_images=False,
            precision="float64",
        ),
        "thermal_map_technology_mapping": Study.thermal_map(
            plan,
            {"cache": 0.1},
            technology={"node": "0.25um", "ambient_celsius": 40.0},
        ),
        "sweep_every_argument": Study.sweep(
            parameter_name="corner",
            parameter_values=[1, 2.5],
            scenarios=list(_rich_scenarios()),
            solver={"damping": 0.5},
            **common,
        ),
        "optimize_defaults": Study.optimize(plan, DYNAMIC, STATIC, one),
        "optimize_every_argument": Study.optimize(
            common["floorplan"],
            DYNAMIC,
            STATIC,
            _rich_scenarios(),
            problem="placement",
            objective={"peak_rise": 1.0, "total_power": 5.0},
            variables=[
                OptimizeVariable("core.x", 3e-4, 6e-4),
                {"name": "cache.y", "lower": 4e-4, "upper": 7e-4},
            ],
            constraints={"temperature_cap": 420.0, "penalty_weight": 2.0},
            strategy="nelder_mead",
            budget=12,
            generation_size=6,
            seed=3,
            movable=["core", "cache"],
            solver={"tolerance": 1e-8},
            **engine,
        ),
        "optimize_supply_none_mappings": Study.optimize(
            plan,
            DYNAMIC,
            None,
            one,
            problem="supply",
            objective="total_static_power",
            constraints=None,
            backend_options=None,
            solver=None,
        ),
    }
    return {name: study.spec for name, study in studies.items()}


#: ``content_hash()`` of every spec in :func:`_builder_corpus`, recorded
#: while each builder still spelled out its own keyword list.
GOLDEN_BUILDER_HASHES = {
    "optimize_defaults": (
        "df2d72df3a54d27c78ab75765d430b63cf31e80019bbab25df26b27b005ca658"
    ),
    "optimize_every_argument": (
        "1e799838c78bfc1c5bff120762e315d59f2455199d1c61679e404b2d1d58dd6a"
    ),
    "optimize_supply_none_mappings": (
        "f95d892bc6b50e00821ec79d9f18328470016abeed8e81e6d98b25fa116c3ef2"
    ),
    "steady_defaults": (
        "a4d5bb596a4373c6fc66bf7e3b1eae3e256a4232d4c0fbf51fb9e0679815be1a"
    ),
    "steady_every_argument": (
        "5366a1feff955119c3d2e7493adeedf6ba0603ef1c80bb516229d522c48d7edf"
    ),
    "steady_generator": (
        "f100b00a9e9dacffc4414b40c41eb98cc707d9134ceb079fb326e398c66f1fac"
    ),
    "steady_grid": "34fd66070d1303d2b7275c2adbd8605506aa18a7108d5e131ebd11af97c3f179",
    "steady_none_mappings": (
        "b096812ccb6caab061009602ccdd50bd36bcd6ed74a5bad1d64e117eec9b3eb6"
    ),
    "sweep_every_argument": (
        "21d2347b4155829288b4ef80a7c1b1def9d04779f5a7545a123e9e83ed18cbae"
    ),
    "thermal_map_defaults": (
        "964640967e97d99f2e8684c75779cba8a10d20e508aad7e1dbfe6254eb7362eb"
    ),
    "thermal_map_every_argument": (
        "00f0575b9bcfc841b98228135bc61f2042d53c777301a79e7bb9e8894b249e59"
    ),
    "thermal_map_technology_mapping": (
        "68c37fece215db2e923d49538b4b51b90abe3c34da1501f890243cc1502f4cec"
    ),
    "transient_defaults": (
        "de1f7e5fa15a5898c2488c35db17ce24a887cec199526162e6406e609c69e6bb"
    ),
    "transient_every_argument": (
        "d982741d346ac940108878c4afbb8e1033ba51dec11fe0a32d544e15094b9165"
    ),
    "transient_none_mappings": (
        "1f859cb1d181a8faddb009d04554f27947b3955a0066fa36d79a2aced5dfe44d"
    ),
}


@pytest.mark.parametrize("name", sorted(_builder_corpus()))
def test_builder_hashes_match_golden_values(name):
    spec = _builder_corpus()[name]
    assert spec.content_hash() == GOLDEN_BUILDER_HASHES[name]
    assert StudySpec.from_json(spec.to_json()) == spec


def test_build_engine_reads_exactly_the_engine_fields():
    """The compile cache keys on ``engine_hash``; it must cover every spec
    field ``build_engine`` reads, and nothing else."""
    from repro.api.specs import ENGINE_FIELDS
    from repro.api.study import build_engine

    class Recording:
        def __init__(self, spec):
            self.spec, self.read = spec, set()

        def __getattr__(self, name):
            self.read.add(name)
            return getattr(self.spec, name)

    spec = _builder_corpus()["steady_defaults"]
    recording = Recording(spec)
    build_engine(recording)
    assert recording.read == set(ENGINE_FIELDS)
