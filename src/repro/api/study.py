"""The `Study` facade: one fluent front door for the whole stack.

A :class:`Study` wraps a validated :class:`~repro.api.specs.StudySpec` and
exposes one ``run()`` that dispatches to the batched engines:

* ``steady`` → :class:`~repro.core.cosim.scenarios.ScenarioEngine`
  (batched damped fixed points);
* ``transient`` →
  :class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`
  (batched exponential-update integration);
* ``thermal_map`` →
  :class:`~repro.core.thermal.superposition.ChipThermalModel`
  (vectorized analytical surface map);
* ``sweep`` → a steady batch reported as an aligned 1-D parameter sweep;
* ``optimize`` → :func:`~repro.optimize.search.run_search` over a
  declarative design problem (placement or supply assignment), every
  candidate generation scored by batched engine solves.

Quick start::

    from repro.api import ScenarioSpec, Study

    study = Study.steady(
        floorplan=my_floorplan,                # Floorplan, spec or dict
        dynamic_powers={"core": 0.25, "cache": 0.10, "io": 0.05},
        static_powers={"core": 0.05, "cache": 0.02, "io": 0.01},
        scenarios=ScenarioSpec.grid(["0.12um"], ambient_temperatures=(318.15,)),
    )
    result = study.run()
    print(result.summary())
    study.to_json("study.json")               # ship it; `repro run study.json`
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..core.cosim.scenarios import ScenarioEngine
from ..core.cosim.streaming import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_TRANSIENT_CHUNK_SIZE,
    ProgressCallback,
    stream_steady,
    stream_transient,
)
from ..core.cosim.transient_scenarios import TransientScenarioEngine
from ..core.thermal.superposition import ChipThermalModel
from ..optimize.objectives import TemperatureCap
from ..optimize.problems import PlacementProblem, SupplyProblem
from ..optimize.search import run_search
from .results import StudyResult
from .specs import (
    OptimizeSpec,
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
)


def _scenario_specs(scenarios: Iterable) -> Tuple[ScenarioSpec, ...]:
    return tuple(as_scenario_spec(scenario) for scenario in scenarios)


def build_engine(spec: StudySpec) -> ScenarioEngine:
    """The steady-state scenario engine a spec describes."""
    return ScenarioEngine(
        spec.floorplan.build(),
        spec.dynamic_powers,
        spec.static_powers,
        image_rings=spec.image_rings,
        include_bottom_images=spec.include_bottom_images,
        device_type=spec.device_type,
        thermal_backend=spec.thermal_backend,
        backend_options=spec.backend_options,
        array_backend=spec.array_backend,
        precision=spec.precision,
    )


def _solver_options(spec: StudySpec) -> Dict[str, Any]:
    """Kind-appropriate solver kwargs (integer-valued options un-floated)."""
    options = dict(spec.solver)
    if "max_iterations" in options:
        options["max_iterations"] = int(options["max_iterations"])
    return options


def run_study(
    spec: StudySpec,
    engine: Optional[ScenarioEngine] = None,
    scenarios: Optional[Sequence] = None,
    progress: Optional[ProgressCallback] = None,
) -> StudyResult:
    """Execute a study spec and wrap the outcome in a :class:`StudyResult`.

    The interpreter behind :meth:`Study.run`; given equal specs it performs
    the identical floating-point computation, so re-running a reloaded spec
    reproduces the original result arrays bit-for-bit.  ``engine`` and
    ``scenarios`` let :class:`Study` pass in its cached compilation of the
    spec; when omitted they are rebuilt from the spec (same outcome either
    way, since both are pure functions of the spec).  ``progress`` observes
    streamed runs chunk by chunk (ignored on the monolithic path, which has
    no chunks to report).
    """
    if spec.kind == "thermal_map":
        return _run_thermal_map(spec)
    if spec.kind == "optimize":
        return _run_optimize(spec)
    if engine is None:
        engine = build_engine(spec)
    if spec.streaming:
        return _run_streamed(spec, engine, scenarios, progress)
    if scenarios is None:
        scenarios = spec.build_scenarios()
    options = _solver_options(spec)
    if spec.kind == "transient":
        transient = TransientScenarioEngine(engine, time_constants=spec.time_constants)
        activity = spec.workload.build() if spec.workload is not None else None
        batch = transient.simulate(
            scenarios,
            duration=spec.duration,
            time_step=spec.time_step,
            activity=activity,
            **options,
        )
        return StudyResult.from_transient_batch(spec, batch)
    batch = engine.solve(scenarios, **options)
    if spec.kind == "sweep":
        return StudyResult.from_sweep_batch(spec, batch)
    return StudyResult.from_steady_batch(spec, batch)


def _run_streamed(
    spec: StudySpec,
    engine: ScenarioEngine,
    scenarios: Optional[Sequence],
    progress: Optional[ProgressCallback],
) -> StudyResult:
    """The chunked execution path behind :func:`run_study`.

    Dispatches to :func:`~repro.core.cosim.streaming.stream_steady` /
    :func:`~repro.core.cosim.streaming.stream_transient`; full fields are
    retained (in RAM) unless the spec asked for ``reduction`` or routed
    them to ``memmap_path``, so a plain ``chunk_size=`` run reproduces the
    monolithic result arrays bit-for-bit.
    """
    options = _solver_options(spec)
    if scenarios is not None:
        stream_source, total = iter(scenarios), len(scenarios)
    else:
        stream_source, total = spec.scenario_stream()
    # Sweep results only ever report the reduced series, so their streamed
    # path never retains fields; steady/transient keep them unless reduced
    # away or routed to disk.
    keep_fields = (
        spec.kind != "sweep" and not spec.reduction and spec.memmap_path is None
    )
    if spec.kind == "transient":
        transient = TransientScenarioEngine(engine, time_constants=spec.time_constants)
        activity = spec.workload.build() if spec.workload is not None else None
        stream = stream_transient(
            transient,
            stream_source,
            duration=spec.duration,
            time_step=spec.time_step,
            activity=activity,
            chunk_size=spec.chunk_size or DEFAULT_TRANSIENT_CHUNK_SIZE,
            total=total,
            keep_fields=keep_fields,
            memmap_path=spec.memmap_path,
            progress=progress,
            **options,
        )
        return StudyResult.from_transient_stream(spec, stream)
    stream = stream_steady(
        engine,
        stream_source,
        chunk_size=spec.chunk_size or DEFAULT_CHUNK_SIZE,
        total=total,
        keep_fields=keep_fields,
        memmap_path=spec.memmap_path,
        progress=progress,
        **options,
    )
    if spec.kind == "sweep":
        return StudyResult.from_sweep_stream(spec, stream)
    return StudyResult.from_steady_stream(spec, stream)


def _run_thermal_map(spec: StudySpec) -> StudyResult:
    floorplan = spec.floorplan.build()
    technology = spec.technology.build() if spec.technology is not None else None
    ambient = spec.ambient_temperature
    if ambient is None:
        ambient = (
            technology.thermal.ambient_temperature
            if technology is not None
            else 298.15
        )
    model_kwargs: Dict[str, Any] = {}
    if technology is not None:
        model_kwargs["material"] = technology.thermal.silicon
    model = ChipThermalModel(
        floorplan.die,
        ambient_temperature=ambient,
        image_rings=spec.image_rings,
        include_bottom_images=spec.include_bottom_images,
        precision=spec.precision,
        **model_kwargs,
    )
    model.add_sources(floorplan.to_heat_sources(spec.block_powers))
    nx, ny = spec.map_samples
    surface = model.surface_map(nx=nx, ny=ny)
    return StudyResult.from_surface_map(spec, surface, model.source_temperatures())


def _engine_options(spec: StudySpec) -> Dict[str, Any]:
    """The :class:`ScenarioEngine` keyword arguments a spec carries."""
    return {
        "image_rings": spec.image_rings,
        "include_bottom_images": spec.include_bottom_images,
        "device_type": spec.device_type,
        "thermal_backend": spec.thermal_backend,
        "backend_options": spec.backend_options,
        "array_backend": spec.array_backend,
        "precision": spec.precision,
    }


def _run_optimize(spec: StudySpec) -> StudyResult:
    """Compile the declarative optimize block and run the search.

    The spec's ``optimize`` block selects and parameterises one of the
    concrete :mod:`repro.optimize.problems`; every generation of candidates
    the chosen strategy proposes is scored through batched engine solves.
    The search is a pure function of the spec (fixed seed, deterministic
    strategies), so re-running a reloaded spec reproduces the result arrays
    bit for bit — the same replay property as the other kinds.
    """
    opt = spec.optimize
    assert opt is not None  # StudySpec._validate guarantees the block exists
    scenarios = spec.build_scenarios()
    cap = None
    if "temperature_cap" in opt.constraints:
        cap = TemperatureCap(
            limit=opt.constraints["temperature_cap"],
            penalty_weight=opt.constraints.get("penalty_weight", 1.0),
        )
    bounds = {
        variable.name: (variable.lower, variable.upper)
        for variable in opt.variables
    }
    common = dict(
        objective=opt.objective,
        temperature_cap=cap,
        bounds=bounds or None,
        engine_options=_engine_options(spec),
        solver_options=_solver_options(spec),
    )
    if opt.problem == "placement":
        problem = PlacementProblem(
            spec.floorplan.build(),
            spec.dynamic_powers,
            spec.static_powers,
            scenarios,
            movable=opt.movable or None,
            **common,
        )
    else:  # supply
        problem = SupplyProblem(
            spec.floorplan.build(),
            spec.dynamic_powers,
            spec.static_powers,
            scenarios,
            **common,
        )
    outcome = run_search(
        problem,
        strategy=opt.strategy,
        budget=opt.budget,
        generation_size=opt.generation_size,
        seed=opt.seed,
    )
    return StudyResult.from_optimize(spec, outcome, problem)


class Study:
    """Fluent builder over a :class:`StudySpec` with a single :meth:`run`.

    Construct via the kind-specific classmethods (:meth:`steady`,
    :meth:`transient`, :meth:`thermal_map`, :meth:`sweep`,
    :meth:`optimize`) or from a
    serialized spec (:meth:`from_dict`, :meth:`from_json`).  Builders
    accept runtime objects (a built
    :class:`~repro.floorplan.floorplan.Floorplan`) and plain data
    (mappings, node names) interchangeably; everything is normalized into
    the declarative spec, so any study a builder produces can be shipped as
    JSON and re-run by the CLI.
    """

    def __init__(self, spec: StudySpec) -> None:
        if not isinstance(spec, StudySpec):
            raise TypeError(f"Study wraps a StudySpec, got {type(spec).__name__!r}")
        self._spec = spec
        # Compiled runtime objects, built on first run().  The spec is
        # frozen, so the compilation is a pure function of it and safe to
        # reuse across runs (repeated run() pays only the engine solve).
        self._engine: Optional[ScenarioEngine] = None
        self._scenarios: Optional[Sequence] = None

    @property
    def spec(self) -> StudySpec:
        """The validated declarative description of this study."""
        return self._spec

    @property
    def kind(self) -> str:
        """The study kind (``steady`` / ``transient`` / ...)."""
        return self._spec.kind

    def __repr__(self) -> str:
        return f"Study({self._spec.describe()!r})"

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def steady(
        cls,
        floorplan,
        dynamic_powers: Optional[Mapping[str, float]] = None,
        static_powers: Optional[Mapping[str, float]] = None,
        scenarios: Iterable = (),
        scenario_grid: Optional[Union[ScenarioGridSpec, Mapping[str, Any]]] = None,
        chunk_size: Optional[int] = None,
        reduction: bool = False,
        memmap_path: Optional[Union[str, Path]] = None,
        label: str = "",
        image_rings: int = 1,
        include_bottom_images: bool = True,
        device_type: str = "nmos",
        thermal_backend: str = "analytical",
        backend_options: Optional[Mapping[str, int]] = None,
        array_backend: Optional[str] = None,
        precision: Optional[str] = None,
        solver: Optional[Mapping[str, Any]] = None,
    ) -> "Study":
        """A batched steady-state study (one fixed point per scenario)."""
        return cls(
            StudySpec(
                kind="steady",
                floorplan=as_floorplan_spec(floorplan),
                dynamic_powers=dict(dynamic_powers or {}),
                static_powers=dict(static_powers or {}),
                scenarios=_scenario_specs(scenarios),
                scenario_grid=as_scenario_grid_spec(scenario_grid),
                chunk_size=chunk_size,
                reduction=reduction,
                memmap_path=(
                    str(memmap_path) if memmap_path is not None else None
                ),
                label=label,
                image_rings=image_rings,
                include_bottom_images=include_bottom_images,
                device_type=device_type,
                thermal_backend=thermal_backend,
                backend_options=dict(backend_options or {}),
                array_backend=array_backend,
                precision=precision,
                solver=dict(solver or {}),
            )
        )

    @classmethod
    def transient(
        cls,
        floorplan,
        dynamic_powers: Optional[Mapping[str, float]] = None,
        static_powers: Optional[Mapping[str, float]] = None,
        scenarios: Iterable = (),
        scenario_grid: Optional[Union[ScenarioGridSpec, Mapping[str, Any]]] = None,
        chunk_size: Optional[int] = None,
        reduction: bool = False,
        memmap_path: Optional[Union[str, Path]] = None,
        duration: float = 1.0,
        time_step: float = 1e-2,
        workload: Optional[Union[WorkloadSpec, Mapping[str, Any]]] = None,
        time_constants: Optional[Mapping[str, float]] = None,
        label: str = "",
        image_rings: int = 1,
        include_bottom_images: bool = True,
        device_type: str = "nmos",
        thermal_backend: str = "analytical",
        backend_options: Optional[Mapping[str, int]] = None,
        array_backend: Optional[str] = None,
        precision: Optional[str] = None,
        solver: Optional[Mapping[str, Any]] = None,
    ) -> "Study":
        """A batched time-domain study (one integration per scenario)."""
        return cls(
            StudySpec(
                kind="transient",
                floorplan=as_floorplan_spec(floorplan),
                dynamic_powers=dict(dynamic_powers or {}),
                static_powers=dict(static_powers or {}),
                scenarios=_scenario_specs(scenarios),
                scenario_grid=as_scenario_grid_spec(scenario_grid),
                chunk_size=chunk_size,
                reduction=reduction,
                memmap_path=(
                    str(memmap_path) if memmap_path is not None else None
                ),
                duration=duration,
                time_step=time_step,
                workload=as_workload_spec(workload),
                time_constants=(
                    dict(time_constants) if time_constants is not None else None
                ),
                label=label,
                image_rings=image_rings,
                include_bottom_images=include_bottom_images,
                device_type=device_type,
                thermal_backend=thermal_backend,
                backend_options=dict(backend_options or {}),
                array_backend=array_backend,
                precision=precision,
                solver=dict(solver or {}),
            )
        )

    @classmethod
    def thermal_map(
        cls,
        floorplan,
        block_powers: Mapping[str, float],
        technology: Optional[Union[TechnologySpec, str, Mapping[str, Any]]] = None,
        ambient_temperature: Optional[float] = None,
        samples: Tuple[int, int] = (50, 50),
        label: str = "",
        image_rings: int = 1,
        include_bottom_images: bool = True,
        precision: Optional[str] = None,
    ) -> "Study":
        """An analytical surface-map study of fixed block powers."""
        return cls(
            StudySpec(
                kind="thermal_map",
                floorplan=as_floorplan_spec(floorplan),
                block_powers=dict(block_powers),
                technology=(
                    as_technology_spec(technology) if technology is not None else None
                ),
                ambient_temperature=ambient_temperature,
                map_samples=samples,
                label=label,
                image_rings=image_rings,
                include_bottom_images=include_bottom_images,
                precision=precision,
            )
        )

    @classmethod
    def sweep(
        cls,
        floorplan,
        parameter_name: str,
        parameter_values: Sequence[float],
        scenarios: Iterable,
        dynamic_powers: Optional[Mapping[str, float]] = None,
        static_powers: Optional[Mapping[str, float]] = None,
        label: str = "",
        image_rings: int = 1,
        include_bottom_images: bool = True,
        device_type: str = "nmos",
        thermal_backend: str = "analytical",
        backend_options: Optional[Mapping[str, int]] = None,
        array_backend: Optional[str] = None,
        precision: Optional[str] = None,
        solver: Optional[Mapping[str, Any]] = None,
    ) -> "Study":
        """A steady batch reported as a 1-D sweep over ``parameter_name``."""
        return cls(
            StudySpec(
                kind="sweep",
                floorplan=as_floorplan_spec(floorplan),
                parameter_name=parameter_name,
                parameter_values=tuple(parameter_values),
                scenarios=_scenario_specs(scenarios),
                dynamic_powers=dict(dynamic_powers or {}),
                static_powers=dict(static_powers or {}),
                label=label,
                image_rings=image_rings,
                include_bottom_images=include_bottom_images,
                device_type=device_type,
                thermal_backend=thermal_backend,
                backend_options=dict(backend_options or {}),
                array_backend=array_backend,
                precision=precision,
                solver=dict(solver or {}),
            )
        )

    @classmethod
    def optimize(
        cls,
        floorplan,
        dynamic_powers: Optional[Mapping[str, float]] = None,
        static_powers: Optional[Mapping[str, float]] = None,
        scenarios: Iterable = (),
        problem: str = "placement",
        objective: Union[str, Mapping[str, float]] = "peak_rise",
        variables: Iterable = (),
        constraints: Optional[Mapping[str, float]] = None,
        strategy: str = "random",
        budget: int = 64,
        generation_size: int = 16,
        seed: int = 0,
        movable: Iterable = (),
        label: str = "",
        image_rings: int = 1,
        include_bottom_images: bool = True,
        device_type: str = "nmos",
        thermal_backend: str = "analytical",
        backend_options: Optional[Mapping[str, int]] = None,
        array_backend: Optional[str] = None,
        precision: Optional[str] = None,
        solver: Optional[Mapping[str, Any]] = None,
    ) -> "Study":
        """A design-space optimization study over batched engine solves.

        ``problem`` picks the search space (``"placement"`` moves blocks on
        the die under non-overlap; ``"supply"`` assigns a supply scale and
        per-block activities); ``objective`` is an objective name or a
        ``{name: weight}`` combination; ``constraints`` may carry a
        ``temperature_cap`` (and ``penalty_weight``); ``variables`` entries
        (:class:`~repro.api.specs.OptimizeVariable` or mappings) override
        the problem's automatic bounds.  Fixed ``seed`` makes the whole
        search replayable bit for bit.
        """
        return cls(
            StudySpec(
                kind="optimize",
                floorplan=as_floorplan_spec(floorplan),
                dynamic_powers=dict(dynamic_powers or {}),
                static_powers=dict(static_powers or {}),
                scenarios=_scenario_specs(scenarios),
                optimize=as_optimize_spec(
                    OptimizeSpec(
                        problem=problem,
                        objective=objective,
                        variables=tuple(variables),
                        constraints=dict(constraints or {}),
                        strategy=strategy,
                        budget=budget,
                        generation_size=generation_size,
                        seed=seed,
                        movable=tuple(movable),
                    )
                ),
                label=label,
                image_rings=image_rings,
                include_bottom_images=include_bottom_images,
                device_type=device_type,
                thermal_backend=thermal_backend,
                backend_options=dict(backend_options or {}),
                array_backend=array_backend,
                precision=precision,
                solver=dict(solver or {}),
            )
        )

    # ------------------------------------------------------------------ #
    # Fluent refinement
    # ------------------------------------------------------------------ #
    def with_solver(self, **options) -> "Study":
        """Copy of the study with extra solver options merged in."""
        merged = dict(self._spec.solver)
        merged.update(options)
        return Study(self._spec.replace(solver=merged))

    def with_label(self, label: str) -> "Study":
        """Copy of the study with a display label."""
        return Study(self._spec.replace(label=label))

    def with_scenarios(self, scenarios: Iterable) -> "Study":
        """Copy of the study over a different scenario list."""
        return Study(self._spec.replace(scenarios=_scenario_specs(scenarios)))

    def with_streaming(
        self,
        chunk_size: Optional[int] = None,
        reduction: Optional[bool] = None,
        memmap_path: Optional[Union[str, Path]] = None,
    ) -> "Study":
        """Copy of the study with streaming-execution options replaced.

        Any option given engages the chunked path; the study's physics and
        reduced metrics are unchanged (chunking is bit-identical to the
        monolithic solve), only memory behavior and result retention move.
        """
        overrides: Dict[str, Any] = {}
        if chunk_size is not None:
            overrides["chunk_size"] = chunk_size
        if reduction is not None:
            overrides["reduction"] = reduction
        if memmap_path is not None:
            overrides["memmap_path"] = str(memmap_path)
        if not overrides:
            return self
        return Study(self._spec.replace(**overrides))

    def with_backend(
        self,
        thermal_backend: str,
        backend_options: Optional[Mapping[str, int]] = None,
    ) -> "Study":
        """Copy of the study over a different thermal backend.

        The one-liner behind accuracy/speed comparisons: run the same
        declarative study through ``"analytical"`` and ``"fdm"`` and diff
        the results.
        """
        return Study(
            self._spec.replace(
                thermal_backend=thermal_backend,
                backend_options=dict(backend_options or {}),
            )
        )

    def with_precision(
        self,
        precision: Optional[str],
        array_backend: Optional[str] = None,
    ) -> "Study":
        """Copy of the study under another precision/namespace policy.

        The one-liner behind fast-vs-exact comparisons: run the same
        declarative study as ``float64`` (bit-exact reference) and
        ``float32`` (serving speed) and diff the results against the
        tolerances documented in ``docs/precision.md``.
        """
        return Study(
            self._spec.replace(precision=precision, array_backend=array_backend)
        )

    # ------------------------------------------------------------------ #
    # Execution / serialization
    # ------------------------------------------------------------------ #
    def run(self, progress: Optional[ProgressCallback] = None) -> StudyResult:
        """Execute the study through the appropriate batched engine.

        ``progress`` observes streamed (chunked) runs per completed chunk;
        monolithic runs have no chunks and never call it.
        """
        if self._spec.kind in ("thermal_map", "optimize"):
            # Neither kind compiles a cacheable engine up front: thermal
            # maps build their analytical model per run, and optimize
            # problems build their engines inside the search.
            return run_study(self._spec)
        if self._spec.streaming:
            # Streaming keeps memory flat in the grid size: only the engine
            # compilation is cached, never a materialized scenario list.
            if self._engine is None:
                self._engine = build_engine(self._spec)
            return run_study(self._spec, engine=self._engine, progress=progress)
        if self._engine is None:
            self._engine = build_engine(self._spec)
            self._scenarios = self._spec.build_scenarios()
        return run_study(
            self._spec,
            engine=self._engine,
            scenarios=self._scenarios,
            progress=progress,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data."""
        return self._spec.to_dict()

    def to_json(self, path: Optional[Union[str, Path]] = None, indent: int = 2) -> str:
        """Serialize the spec, optionally writing it to ``path``."""
        return self._spec.to_json(path, indent=indent)

    @classmethod
    def from_spec(cls, spec: StudySpec) -> "Study":
        """Wrap an existing spec."""
        return cls(spec)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Study":
        """Build from plain data (inverse of :meth:`to_dict`)."""
        return cls(StudySpec.from_dict(data))

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "Study":
        """Build from a JSON string or a path to a JSON study file."""
        return cls(StudySpec.from_json(source))


def load_study(path: Union[str, Path]) -> Study:
    """Load a study from a JSON file (the CLI entry point's helper)."""
    return Study.from_json(Path(path))
