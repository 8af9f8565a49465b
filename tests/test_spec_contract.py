"""Property test of the spec input contract.

Valid ``StudySpec`` dicts are generated from the spec layer's own kind
table (:data:`repro.api.specs.KIND_FIELDS`), so every field a kind accepts
gets exercised.  Each one must round-trip with stable canonical JSON.
Then one field — top level, one level down in a nested spec, a key of
the first floorplan block or a workload parameter — is replaced with an
adversarial value (NaN, +-inf, a negative number, a wrong JSON type, a
fractional integer).
Whatever happens must be either a valid spec with finite JSON, or a
``ValueError`` for which ``serve``'s ``error_body`` names a field; never
another exception.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StudySpec
from repro.api.kinds import STUDY_KINDS
from repro.api.specs import KIND_FIELDS
from repro.serve.server import error_body
from repro.technology.nodes import node_names

finite = dict(allow_nan=False, allow_infinity=False)

FLOORPLAN = {
    "die_width": 1e-3,
    "die_length": 1e-3,
    "blocks": [
        {"name": "core", "x": 3e-4, "y": 6.2e-4, "width": 3.4e-4, "length": 3e-4},
        {"name": "cache", "x": 7.2e-4, "y": 7e-4, "width": 2.6e-4, "length": 2.2e-4},
        {"name": "io", "x": 5.5e-4, "y": 2.5e-4, "width": 3e-4, "length": 1.8e-4},
    ],
}

technologies = st.builds(
    lambda node, ambient: {"node": node, "ambient_celsius": ambient},
    st.sampled_from(node_names()),
    st.floats(0.0, 100.0, **finite),
)
activities = st.one_of(
    st.floats(0.0, 2.0, **finite),
    st.dictionaries(
        st.sampled_from(("core", "cache", "io")), st.floats(0.0, 2.0, **finite)
    ),
)
scenarios = st.fixed_dictionaries(
    {"technology": technologies},
    optional={
        "supply_scale": st.floats(0.5, 1.5, **finite),
        "ambient_temperature": st.floats(250.0, 400.0, **finite),
        "activity": activities,
        "label": st.sampled_from(("", "corner")),
    },
)

#: Valid JSON values for every optional ``StudySpec`` field.
FIELD_VALUES = {
    "dynamic_powers": st.just({"core": 0.22, "cache": 0.09, "io": 0.04}),
    "static_powers": st.just({"core": 0.045, "io": 0.008}),
    "scenarios": st.lists(scenarios, min_size=1, max_size=2),
    "scenario_grid": st.fixed_dictionaries(
        {"technologies": st.lists(technologies, min_size=1, max_size=2)},
        optional={
            "supply_scales": st.lists(st.floats(0.5, 1.5, **finite), min_size=1),
            "ambient_temperatures": st.lists(
                st.one_of(st.none(), st.floats(250.0, 400.0, **finite)),
                min_size=1,
            ),
            "activities": st.lists(activities, min_size=1, max_size=2),
        },
    ),
    "chunk_size": st.integers(1, 64),
    "reduction": st.booleans(),
    "memmap_path": st.just("fields"),
    "workload": st.just(
        {"kind": "pwm", "parameters": {"periods": 4e-3, "duty_cycles": 0.4}}
    ),
    "duration": st.floats(1e-3, 1e-1, **finite),
    "time_step": st.floats(1e-4, 1e-3, **finite),
    "time_constants": st.just({"core": 2e-3, "io": 1e-3}),
    "technology": technologies,
    "block_powers": st.just({"core": 0.3, "io": 0.05}),
    "ambient_temperature": st.floats(250.0, 400.0, **finite),
    "map_samples": st.lists(st.integers(2, 20), min_size=2, max_size=2),
    "parameter_name": st.just("axis"),
    "optimize": st.fixed_dictionaries(
        {"problem": st.just("supply")},
        optional={
            "objective": st.sampled_from(("total_power", {"peak_rise": 2.0})),
            "constraints": st.just({"temperature_cap": 420.0}),
            "variables": st.just(
                [{"name": "supply_scale", "lower": 0.8, "upper": 1.1}]
            ),
            "budget": st.integers(1, 16),
            "seed": st.integers(0, 9),
        },
    ),
    "image_rings": st.integers(0, 3),
    "include_bottom_images": st.booleans(),
    "device_type": st.sampled_from(("nmos", "pmos")),
    "thermal_backend": st.sampled_from(("analytical", "fdm", "foster")),
    "array_backend": st.sampled_from(("numpy", "array_api_strict")),
    "precision": st.sampled_from(("float64", "float32")),
    "label": st.sampled_from(("", "study")),
}

#: Fields each kind cannot run without.
REQUIRED = {
    "steady": ("dynamic_powers",),
    "transient": ("dynamic_powers", "duration", "time_step"),
    "thermal_map": ("block_powers",),
    "sweep": ("static_powers", "parameter_name", "scenarios"),
    "optimize": ("dynamic_powers", "optimize", "scenarios"),
}

ADVERSARIAL = (
    math.nan,
    math.inf,
    -math.inf,
    2.5,
    True,
    None,
    "x",
    [math.nan],
    [1],
    {"core": math.nan},
    -5.0,
    {"core": -5.0},
)


@st.composite
def study_dicts(draw):
    """A valid StudySpec dict, its optional fields drawn per the kind table."""
    kind = draw(st.sampled_from(STUDY_KINDS))
    data = {"kind": kind, "floorplan": FLOORPLAN}
    accepted = [
        name
        for name in FIELD_VALUES
        if kind in KIND_FIELDS.get(name, STUDY_KINDS)
        and not (kind == "thermal_map" and name in ("thermal_backend", "array_backend"))
    ]
    for name in accepted:
        if name in REQUIRED[kind] or draw(st.booleans()):
            data[name] = draw(FIELD_VALUES[name])
    if kind != "thermal_map":
        if "scenario_grid" in data:
            data.pop("scenarios", None)
        elif "scenarios" not in data:
            data["scenarios"] = draw(FIELD_VALUES["scenarios"])
    if kind == "sweep":
        data["parameter_values"] = [float(i) for i in range(len(data["scenarios"]))]
    if data.get("thermal_backend") == "fdm" and draw(st.booleans()):
        data["backend_options"] = {"nx": 8, "ny": 6, "nz": 3}
    solver_keys = {
        "transient": ("settle_tolerance", "include_activity_edges"),
        "thermal_map": (),
    }.get(kind, ("max_iterations", "tolerance", "damping"))
    if solver_keys and draw(st.booleans()):
        key = draw(st.sampled_from(solver_keys))
        value = {"max_iterations": 7, "include_activity_edges": False}.get(key, 0.5)
        data["solver"] = {key: value}
    return data


def _paths(data):
    """Every top-level key, each key of a nested spec dict one level down,
    and each key of the first block and of the workload parameters."""
    for key, value in data.items():
        yield (key,)
        if key == "scenarios":
            yield from ((key, 0, inner) for inner in value[0])
        elif isinstance(value, dict) and key in (
            "floorplan",
            "scenario_grid",
            "workload",
            "technology",
            "optimize",
        ):
            yield from ((key, inner) for inner in value)
    block = FLOORPLAN["blocks"][0]
    yield from (("floorplan", "blocks", 0, inner) for inner in block)
    if "workload" in data:
        parameters = data["workload"]["parameters"]
        yield from (("workload", "parameters", inner) for inner in parameters)


def _corrupt(data, path, value):
    copy = json.loads(json.dumps(data))
    target = copy
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return copy


def _assert_valid(spec):
    canonical = spec.canonical_json()
    json.dumps(spec.to_dict(), allow_nan=False)  # finite numbers only
    reloaded = StudySpec.from_dict(json.loads(spec.to_json()))
    assert reloaded == spec
    assert reloaded.canonical_json() == canonical


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=study_dicts(), choice=st.data())
def test_generated_specs_round_trip_and_corruptions_name_a_field(data, choice):
    _assert_valid(StudySpec.from_dict(data))
    path = choice.draw(st.sampled_from(sorted(_paths(data), key=str)))
    value = choice.draw(st.sampled_from(ADVERSARIAL))
    try:
        spec = StudySpec.from_dict(_corrupt(data, path, value))
    except ValueError as error:
        body = error_body(str(error))
        assert "field" in body["error"], (path, value, str(error))
    else:
        _assert_valid(spec)


@pytest.mark.parametrize(
    "kind, name",
    [
        ("steady", "dynamic_powers"),
        ("steady", "static_powers"),
        ("thermal_map", "block_powers"),
    ],
)
def test_negative_power_is_rejected_naming_the_field(kind, name):
    data = {"kind": kind, "floorplan": FLOORPLAN, name: {"core": 0.2, "io": -5.0}}
    if kind == "steady":
        data["scenarios"] = [{"technology": {"node": "0.12um"}}]
    with pytest.raises(ValueError, match="non-negative") as excinfo:
        StudySpec.from_dict(data)
    assert error_body(str(excinfo.value))["error"]["field"] == name
    assert f"{name}['io']" in str(excinfo.value)


@pytest.mark.parametrize("value", [-1e-3, 0.0])
def test_non_positive_time_constant_is_rejected_naming_the_field(value):
    data = {
        "kind": "transient",
        "floorplan": FLOORPLAN,
        "scenarios": [{"technology": {"node": "0.12um"}}],
        "dynamic_powers": {"core": 0.2},
        "duration": 1e-2,
        "time_step": 1e-3,
        "time_constants": {"core": value},
    }
    with pytest.raises(ValueError, match="positive") as excinfo:
        StudySpec.from_dict(data)
    assert error_body(str(excinfo.value))["error"]["field"] == "time_constants"
    assert "time_constants['core']" in str(excinfo.value)
