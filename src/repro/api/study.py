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

import dataclasses
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Union

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
from .specs import ENGINE_FIELDS, OptimizeSpec, StudySpec

#: ``Study.optimize`` keywords that describe the search, not the study.
_SEARCH_FIELDS = frozenset(field.name for field in dataclasses.fields(OptimizeSpec))


def _given(values: Mapping[str, Any]) -> Dict[str, Any]:
    """The entries of ``values`` that are not ``None``: a ``None`` keyword
    leaves its spec field at the field's default."""
    return {name: value for name, value in values.items() if value is not None}


def _engine_options(spec: StudySpec) -> Dict[str, Any]:
    """The :class:`ScenarioEngine` keyword arguments a spec carries.

    Every :data:`~repro.api.specs.ENGINE_FIELDS` entry after the first
    three (the floorplan and its two power maps, which engines and
    optimize problems take positionally).
    """
    return {name: getattr(spec, name) for name in ENGINE_FIELDS[3:]}


def build_engine(spec: StudySpec) -> ScenarioEngine:
    """The steady-state scenario engine a spec describes.

    It reads exactly the spec's :data:`~repro.api.specs.ENGINE_FIELDS`,
    which is what :meth:`~repro.api.specs.StudySpec.engine_hash` keys
    compiled engines on.
    """
    return ScenarioEngine(
        spec.floorplan.build(),
        spec.dynamic_powers,
        spec.static_powers,
        **_engine_options(spec),
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
    options = _solver_options(spec)
    if spec.kind == "transient":
        engine = TransientScenarioEngine(engine, time_constants=spec.time_constants)
        options.update(
            duration=spec.duration,
            time_step=spec.time_step,
            activity=spec.workload.build() if spec.workload is not None else None,
        )
    if scenarios is None:
        scenarios = spec.build_scenarios()
    if spec.streaming:
        return _run_streamed(spec, engine, scenarios, progress, options)
    if spec.kind == "transient":
        batch = engine.simulate(scenarios, **options)
        return StudyResult.from_transient_batch(spec, batch)
    # Steady and sweep studies: the packer reads the kind off the spec.
    return StudyResult.from_steady_batch(spec, engine.solve(scenarios, **options))


def _run_streamed(
    spec: StudySpec,
    engine: Union[ScenarioEngine, TransientScenarioEngine],
    scenarios: Sequence,
    progress: Optional[ProgressCallback],
    options: Dict[str, Any],
) -> StudyResult:
    """The chunked execution path behind :func:`run_study`.

    Dispatches to :func:`~repro.core.cosim.streaming.stream_steady` /
    :func:`~repro.core.cosim.streaming.stream_transient` with the solver
    (and, for transient studies, integration) ``options``; full fields are
    retained (in RAM) unless the spec asked for ``reduction`` or routed
    them to ``memmap_path``, so a plain ``chunk_size=`` run reproduces the
    monolithic result arrays bit-for-bit.
    """
    # Sweep results only ever report the reduced series, so their streamed
    # path never retains fields; steady/transient keep them unless reduced
    # away or routed to disk.
    keep_fields = (
        spec.kind != "sweep" and not spec.reduction and spec.memmap_path is None
    )
    transient = spec.kind == "transient"
    default_chunk = DEFAULT_TRANSIENT_CHUNK_SIZE if transient else DEFAULT_CHUNK_SIZE
    options.update(
        chunk_size=spec.chunk_size or default_chunk,
        keep_fields=keep_fields,
        memmap_path=spec.memmap_path,
        progress=progress,
    )
    if transient:
        stream = stream_transient(engine, scenarios, **options)
        return StudyResult.from_transient_stream(spec, stream)
    stream = stream_steady(engine, scenarios, **options)
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
        common["movable"] = opt.movable or None
    problem_class = PlacementProblem if opt.problem == "placement" else SupplyProblem
    problem = problem_class(
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
    :meth:`optimize`) or from a serialized spec (:meth:`from_dict`,
    :meth:`from_json`).  Builders take :class:`StudySpec` fields as
    keywords (``Study.steady(plan, chunk_size=4096, precision="float32")``)
    and a ``None`` keyword leaves its field at the default.  The spec's
    own checks coerce every value, so builders accept runtime objects (a
    built :class:`~repro.floorplan.floorplan.Floorplan`, a ``Path``) and
    plain data (mappings, node names, generators) interchangeably; any
    study a builder produces can be shipped as JSON and re-run by the CLI.
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
    # Builders: keywords are StudySpec fields
    # ------------------------------------------------------------------ #
    @classmethod
    def _build(cls, kind: str, floorplan, **fields: Any) -> "Study":
        """A study of ``kind``; ``None``-valued fields keep their defaults."""
        return cls(StudySpec(kind=kind, floorplan=floorplan, **_given(fields)))

    @classmethod
    def steady(
        cls,
        floorplan,
        dynamic_powers: Optional[Mapping[str, float]] = None,
        static_powers: Optional[Mapping[str, float]] = None,
        scenarios: Optional[Iterable] = None,
        **fields: Any,
    ) -> "Study":
        """A batched steady-state study (one fixed point per scenario)."""
        return cls._build(
            "steady",
            floorplan,
            dynamic_powers=dynamic_powers,
            static_powers=static_powers,
            scenarios=scenarios,
            **fields,
        )

    @classmethod
    def transient(
        cls,
        floorplan,
        dynamic_powers: Optional[Mapping[str, float]] = None,
        static_powers: Optional[Mapping[str, float]] = None,
        scenarios: Optional[Iterable] = None,
        duration: float = 1.0,
        time_step: float = 1e-2,
        **fields: Any,
    ) -> "Study":
        """A batched time-domain study (one integration per scenario),
        over 1 s in 10 ms steps unless told otherwise."""
        return cls._build(
            "transient",
            floorplan,
            dynamic_powers=dynamic_powers,
            static_powers=static_powers,
            scenarios=scenarios,
            duration=duration,
            time_step=time_step,
            **fields,
        )

    @classmethod
    def thermal_map(
        cls,
        floorplan,
        block_powers: Mapping[str, float],
        samples: Optional[Sequence[int]] = None,
        **fields: Any,
    ) -> "Study":
        """An analytical surface-map study of fixed block powers, sampled
        on ``samples`` (the spec's ``map_samples``, ``(nx, ny)``)."""
        return cls._build(
            "thermal_map",
            floorplan,
            block_powers=block_powers,
            map_samples=samples,
            **fields,
        )

    @classmethod
    def sweep(
        cls,
        floorplan,
        parameter_name: str,
        parameter_values: Sequence[float],
        scenarios: Iterable,
        **fields: Any,
    ) -> "Study":
        """A steady batch reported as a 1-D sweep over ``parameter_name``."""
        return cls._build(
            "sweep",
            floorplan,
            parameter_name=parameter_name,
            parameter_values=parameter_values,
            scenarios=scenarios,
            **fields,
        )

    @classmethod
    def optimize(
        cls,
        floorplan,
        dynamic_powers: Optional[Mapping[str, float]] = None,
        static_powers: Optional[Mapping[str, float]] = None,
        scenarios: Optional[Iterable] = None,
        **fields: Any,
    ) -> "Study":
        """A design-space optimization study over batched engine solves.

        :class:`~repro.api.specs.OptimizeSpec` field names among the
        keywords describe the search and build the spec's ``optimize``
        block: ``problem`` picks the search space (``"placement"`` moves
        blocks on the die under non-overlap; ``"supply"`` assigns a supply
        scale and per-block activities); ``objective`` is an objective
        name or a ``{name: weight}`` combination; ``constraints`` may carry
        a ``temperature_cap`` (and ``penalty_weight``); ``variables``
        entries override the problem's automatic bounds.  A fixed ``seed``
        makes the whole search replayable bit for bit.
        """
        search = {name: fields.pop(name) for name in _SEARCH_FIELDS & set(fields)}
        return cls._build(
            "optimize",
            floorplan,
            dynamic_powers=dynamic_powers,
            static_powers=static_powers,
            scenarios=scenarios,
            optimize=OptimizeSpec(**_given(search)),
            **fields,
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
        overrides = _given(
            dict(chunk_size=chunk_size, reduction=reduction, memmap_path=memmap_path)
        )
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
                thermal_backend=thermal_backend, backend_options=backend_options
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
