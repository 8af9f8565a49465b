"""`repro.api` — the declarative front door to the whole toolkit.

Three layers:

* **specs** (:mod:`repro.api.specs`) — frozen, validated, JSON-serializable
  descriptions of technologies, floorplans, workloads, scenarios and whole
  studies;
* **facade** (:mod:`repro.api.study`) — the fluent :class:`Study` builder
  whose single :meth:`Study.run` dispatches to the batched engines and
  returns a unified, serializable :class:`StudyResult`; its kind
  builders (``Study.steady(...)`` and friends) take :class:`StudySpec`
  fields as keywords, and ``None`` keeps a field's default;
* **CLI** (:mod:`repro.api.cli`) — ``repro run study.json`` /
  ``repro info`` (also ``python -m repro``).

Quick start::

    from repro.api import ScenarioSpec, Study
    from repro.floorplan import three_block_floorplan

    study = Study.steady(
        floorplan=three_block_floorplan(),
        dynamic_powers={"core": 0.25, "cache": 0.10, "io": 0.05},
        static_powers={"core": 0.05, "cache": 0.02, "io": 0.01},
        scenarios=ScenarioSpec.grid(
            ["0.18um", "0.12um"], ambient_temperatures=(298.15, 318.15)
        ),
    )
    result = study.run()
    print(result.summary())

Names resolve lazily (PEP 562) so that the CLI's argument parsing can
import :mod:`repro.api.cli` without paying for numpy and the model stack.
"""

from importlib import import_module
from typing import TYPE_CHECKING

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "DEFAULT_CHUNK_SIZE": "repro.api.kinds",
    "STUDY_KINDS": "repro.api.kinds",
    "THERMAL_BACKENDS": "repro.api.kinds",
    "WORKLOAD_KINDS": "repro.api.kinds",
    "OPTIMIZE_OBJECTIVES": "repro.api.kinds",
    "OPTIMIZE_PROBLEMS": "repro.api.kinds",
    "OPTIMIZE_STRATEGIES": "repro.api.kinds",
    "TechnologySpec": "repro.api.specs",
    "FloorplanSpec": "repro.api.specs",
    "OptimizeSpec": "repro.api.specs",
    "OptimizeVariable": "repro.api.specs",
    "WorkloadSpec": "repro.api.specs",
    "ScenarioSpec": "repro.api.specs",
    "ScenarioGridSpec": "repro.api.specs",
    "StudySpec": "repro.api.specs",
    "as_technology_spec": "repro.api.specs",
    "as_floorplan_spec": "repro.api.specs",
    "as_optimize_spec": "repro.api.specs",
    "as_workload_spec": "repro.api.specs",
    "as_scenario_spec": "repro.api.specs",
    "as_scenario_grid_spec": "repro.api.specs",
    "load_json_object": "repro.api.specs",
    "Study": "repro.api.study",
    "build_engine": "repro.api.study",
    "run_study": "repro.api.study",
    "load_study": "repro.api.study",
    "StudyResult": "repro.api.results",
    "steady_batch_series": "repro.analysis.sweep",
    "transient_batch_series": "repro.analysis.sweep",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # static analyzers see eager imports; runtime stays lazy
    from ..analysis.sweep import steady_batch_series, transient_batch_series
    from .kinds import (
        DEFAULT_CHUNK_SIZE,
        OPTIMIZE_OBJECTIVES,
        OPTIMIZE_PROBLEMS,
        OPTIMIZE_STRATEGIES,
        STUDY_KINDS,
        THERMAL_BACKENDS,
        WORKLOAD_KINDS,
    )
    from .results import StudyResult
    from .specs import (
        FloorplanSpec,
        OptimizeSpec,
        OptimizeVariable,
        ScenarioGridSpec,
        ScenarioSpec,
        StudySpec,
        TechnologySpec,
        WorkloadSpec,
        as_floorplan_spec,
        as_optimize_spec,
        as_scenario_grid_spec,
        as_scenario_spec,
        as_technology_spec,
        as_workload_spec,
        load_json_object,
    )
    from .study import Study, build_engine, load_study, run_study
