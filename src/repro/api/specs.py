"""Declarative, serializable study specifications.

Every spec in this module is a frozen dataclass describing *what* to
compute, never *how*: technology nodes are named, floorplans are plain
geometry, workloads are parameter dictionaries.  Each spec

* validates eagerly on construction, reporting the offending field in a
  :class:`ValueError`;
* round-trips through plain data — ``spec.to_dict()`` /
  ``Spec.from_dict(data)`` and ``spec.to_json()`` / ``Spec.from_json(text)``
  reproduce an *equal* spec (the property pinned by ``tests/test_api.py``);
* knows how to ``build()`` the corresponding runtime object (a
  :class:`~repro.technology.parameters.TechnologyParameters`, a
  :class:`~repro.floorplan.floorplan.Floorplan`, an
  :class:`~repro.core.cosim.transient_scenarios.ActivityGrid`, a
  :class:`~repro.core.cosim.scenarios.Scenario`).

:class:`StudySpec` composes them into one complete, executable description
of a steady, transient, thermal-map, sweep or optimize study —
:func:`repro.api.study.run_study` is its interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import abc
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.cosim.scenarios import Scenario, scenario_grid_stream
from ..core.cosim.transient_scenarios import (
    ActivityGrid,
    ConstantActivity,
    PWMActivity,
    StepActivity,
    TraceActivity,
)
from ..core.thermal.images import DieGeometry
from ..core.thermal.operator import validated_int
from ..floorplan.block import Block, as_block
from ..floorplan.floorplan import Floorplan
from ..technology.nodes import make_technology, node_names
from ..technology.parameters import TechnologyParameters
from .kinds import (
    ARRAY_BACKENDS,
    FDM_GRID_OPTIONS,
    OPTIMIZE_OBJECTIVES,
    OPTIMIZE_PROBLEMS,
    OPTIMIZE_STRATEGIES,
    PRECISIONS,
    STUDY_KINDS,
    THERMAL_BACKENDS,
    WORKLOAD_KINDS,
)

#: Solver options each study kind forwards to its engine.
_SOLVER_KEYS: Dict[str, Tuple[str, ...]] = {
    "steady": ("max_iterations", "tolerance", "damping", "max_temperature"),
    "sweep": ("max_iterations", "tolerance", "damping", "max_temperature"),
    "optimize": ("max_iterations", "tolerance", "damping", "max_temperature"),
    "transient": (
        "max_temperature",
        "settle_tolerance",
        "include_activity_edges",
    ),
    "thermal_map": (),
}


def _freeze(value: Any, label: str) -> Any:
    """Recursively normalize plain data: sequences to tuples, numbers to
    floats, string-keyed mappings to dicts.

    This makes specs insensitive to whether their parameters arrived as
    Python tuples or as the lists a JSON parser produces, which is what
    gives ``from_dict(to_dict(spec)) == spec``.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, abc.Mapping):
        frozen = {}
        for key, entry in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{label} keys must be strings, got {key!r}")
            frozen[key] = _freeze(entry, f"{label}[{key!r}]")
        return frozen
    if isinstance(value, abc.Sequence):
        return tuple(_freeze(entry, label) for entry in value)
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return _freeze(value.tolist(), label)
    raise ValueError(f"{label} must be plain data (numbers, strings, lists, dicts)")


def _power_map(value: Optional[Mapping[str, float]], label: str) -> Mapping[str, float]:
    """Validate a per-block power/float mapping.

    Returns a read-only view: spec fields must stay immutable so that a
    :class:`~repro.api.study.Study`'s cached compilation can never desync
    from its spec.
    """
    if value is None:
        return MappingProxyType({})
    if not isinstance(value, abc.Mapping):
        raise ValueError(f"{label} must be a mapping of block name to value")
    result = {}
    for key, entry in value.items():
        if not isinstance(key, str):
            raise ValueError(f"{label} keys must be block names, got {key!r}")
        try:
            result[key] = float(entry)
        except (TypeError, ValueError):
            raise ValueError(
                f"{label}[{key!r}] must be a number, got {entry!r}"
            ) from None
    return MappingProxyType(result)


def _positive_number(value: Any, label: str) -> float:
    """``value`` as a finite positive float, or a ValueError naming ``label``."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")
    if value <= 0.0:
        raise ValueError(f"{label} must be positive")
    return value


def _reject_unknown_keys(cls, data: Mapping[str, Any]) -> None:
    known = {spec.name for spec in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{cls.__name__} has no field(s) {', '.join(map(repr, unknown))}; "
            f"known fields: {', '.join(sorted(known))}"
        )


def load_json_object(source: Union[str, Path], owner: str) -> Dict[str, Any]:
    """Read a JSON object from a path or a JSON string.

    A :class:`~pathlib.Path` is always read from disk; a plain string is
    treated as JSON text when it starts with ``{`` and as a file path
    otherwise.  Shared by the spec and result ``from_json`` entry points.
    """
    if isinstance(source, Path):
        text = source.read_text()
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{owner} JSON must be an object")
    return data


class _SpecSerialization:
    """Shared JSON plumbing: every spec serializes via ``to_dict``."""

    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        """The spec as plain data, defaults omitted (each subclass defines it)."""
        raise NotImplementedError

    def to_json(self, path: Optional[Union[str, Path]] = None, indent: int = 2) -> str:
        """Serialize to a JSON string, optionally writing it to ``path``."""
        text = json.dumps(self.to_dict(), indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    def canonical_json(self) -> str:
        """The spec as one canonical JSON line (sorted keys, no spaces).

        Equal specs produce byte-identical canonical text regardless of
        field order or formatting of the JSON they were loaded from, which
        is what makes :meth:`content_hash` a usable cache key.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Content address of the spec: SHA-256 of :meth:`canonical_json`.

        The study service (:mod:`repro.serve`) keys its result cache on
        this hash — two requests carrying equal specs (however formatted)
        collapse onto one cache entry, and any semantic difference, however
        small, produces a different key.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def from_json(cls, source: Union[str, Path]):
        """Parse a spec from a JSON string or a path to a JSON file."""
        data = load_json_object(source, cls.__name__)
        return cls.from_dict(data)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class TechnologySpec(_SpecSerialization):
    """A predefined CMOS technology node plus its thermal environment.

    Attributes
    ----------
    node:
        One of :func:`repro.technology.node_names` (e.g. ``"0.12um"``).
    ambient_celsius:
        Heat-sink temperature [degC] baked into the node's thermal
        defaults.
    """

    node: str = "0.12um"
    ambient_celsius: float = 25.0

    def __post_init__(self) -> None:
        if self.node not in node_names():
            known = ", ".join(node_names())
            raise ValueError(
                f"unknown technology node {self.node!r}; known nodes: {known}"
            )
        object.__setattr__(self, "ambient_celsius", float(self.ambient_celsius))

    def build(self) -> TechnologyParameters:
        """Materialize the node's :class:`TechnologyParameters`."""
        return make_technology(self.node, ambient_celsius=self.ambient_celsius)

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data, defaults omitted (minimal JSON)."""
        data: Dict[str, Any] = {"node": self.node}
        if self.ambient_celsius != 25.0:
            data["ambient_celsius"] = self.ambient_celsius
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TechnologySpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)


def as_technology_spec(value) -> TechnologySpec:
    """Coerce a node name / mapping / spec into a :class:`TechnologySpec`."""
    if isinstance(value, TechnologySpec):
        return value
    if isinstance(value, str):
        return TechnologySpec(node=value)
    if isinstance(value, abc.Mapping):
        return TechnologySpec.from_dict(value)
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as a technology spec; "
        "expected TechnologySpec, node name or mapping"
    )


@dataclass(frozen=True)
class FloorplanSpec(_SpecSerialization):
    """Declarative die floorplan: geometry plus a tuple of blocks.

    ``blocks`` entries may be :class:`~repro.floorplan.block.Block`
    instances, plain mappings or ``(name, x, y, width, length)`` tuples;
    they are normalized to blocks on construction and the whole plan is
    validated (fit, overlaps) immediately.
    """

    die_width: float = 1.0e-3
    die_length: float = 1.0e-3
    die_thickness: float = 500.0e-6
    blocks: Tuple[Block, ...] = ()
    name: str = "floorplan"
    allow_overlaps: bool = False

    def __post_init__(self) -> None:
        for label in ("die_width", "die_length", "die_thickness"):
            value = getattr(self, label)
            object.__setattr__(self, label, _positive_number(value, label))
        if not isinstance(self.blocks, abc.Iterable) or isinstance(self.blocks, str):
            raise ValueError("blocks must be a sequence of block descriptions")
        object.__setattr__(
            self, "blocks", tuple(as_block(block) for block in self.blocks)
        )
        if not self.blocks:
            raise ValueError("blocks must name at least one block")
        self.build()  # validates fit and overlaps eagerly

    @classmethod
    def from_floorplan(cls, floorplan: Floorplan) -> "FloorplanSpec":
        """Lift an existing :class:`Floorplan` into a declarative spec."""
        return cls(
            die_width=floorplan.die.width,
            die_length=floorplan.die.length,
            die_thickness=floorplan.die.thickness,
            blocks=floorplan.blocks(),
            name=floorplan.name,
            allow_overlaps=floorplan.allow_overlaps,
        )

    @property
    def block_names(self) -> Tuple[str, ...]:
        """Names of the declared blocks, in declaration order."""
        return tuple(block.name for block in self.blocks)

    def build(self) -> Floorplan:
        """Materialize the :class:`Floorplan`."""
        die = DieGeometry(
            width=self.die_width,
            length=self.die_length,
            thickness=self.die_thickness,
        )
        return Floorplan.from_blocks(
            die, self.blocks, name=self.name, allow_overlaps=self.allow_overlaps
        )

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data, defaults omitted (minimal JSON)."""
        data: Dict[str, Any] = {
            "die_width": self.die_width,
            "die_length": self.die_length,
            "die_thickness": self.die_thickness,
            "blocks": [block.as_dict() for block in self.blocks],
        }
        if self.name != "floorplan":
            data["name"] = self.name
        if self.allow_overlaps:
            data["allow_overlaps"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FloorplanSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)


def as_floorplan_spec(value) -> FloorplanSpec:
    """Coerce a floorplan / mapping / spec into a :class:`FloorplanSpec`."""
    if isinstance(value, FloorplanSpec):
        return value
    if isinstance(value, Floorplan):
        return FloorplanSpec.from_floorplan(value)
    if isinstance(value, abc.Mapping):
        return FloorplanSpec.from_dict(value)
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as a floorplan spec; "
        "expected FloorplanSpec, Floorplan or mapping"
    )


#: Required / optional parameter names per workload kind.
_WORKLOAD_PARAMETERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "constant": ((), ("multipliers",)),
    "step": (("before", "after", "switch_times"), ()),
    "pwm": (("periods", "duty_cycles"), ("on", "off")),
    "trace": (("times", "values"), ()),
}


@dataclass(frozen=True)
class WorkloadSpec(_SpecSerialization):
    """Declarative transient workload, built into an :class:`ActivityGrid`.

    Attributes
    ----------
    kind:
        ``"constant"``, ``"step"``, ``"pwm"`` or ``"trace"``.
    parameters:
        Keyword arguments of the corresponding activity-grid class
        (:class:`ConstantActivity`, :class:`StepActivity`,
        :class:`PWMActivity`, :class:`TraceActivity`), as plain data.
    """

    kind: str = "constant"
    parameters: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"known kinds: {', '.join(WORKLOAD_KINDS)}"
            )
        if not isinstance(self.parameters, abc.Mapping):
            raise ValueError("parameters must be a mapping")
        required, optional = _WORKLOAD_PARAMETERS[self.kind]
        allowed = set(required) | set(optional)
        missing = [name for name in required if name not in self.parameters]
        if missing:
            raise ValueError(
                f"{self.kind!r} workload is missing required parameter(s): "
                f"{', '.join(missing)}"
            )
        unknown = sorted(set(self.parameters) - allowed)
        if unknown:
            raise ValueError(
                f"{self.kind!r} workload has unknown parameter(s): "
                f"{', '.join(unknown)}; allowed: {', '.join(sorted(allowed))}"
            )
        object.__setattr__(
            self,
            "parameters",
            MappingProxyType(_freeze(dict(self.parameters), "parameters")),
        )
        self.build()  # validate parameter values eagerly

    def build(self) -> ActivityGrid:
        """Materialize the vectorized :class:`ActivityGrid`."""
        grids = {
            "constant": ConstantActivity,
            "step": StepActivity,
            "pwm": PWMActivity,
            "trace": TraceActivity,
        }
        return grids[self.kind](**self.parameters)

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data, defaults omitted (minimal JSON)."""
        data: Dict[str, Any] = {"kind": self.kind}
        if self.parameters:
            data["parameters"] = _to_plain(self.parameters)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)


def as_workload_spec(value) -> Optional[WorkloadSpec]:
    """Coerce a workload description into a :class:`WorkloadSpec`."""
    if value is None or isinstance(value, WorkloadSpec):
        return value
    if isinstance(value, abc.Mapping):
        return WorkloadSpec.from_dict(value)
    if isinstance(value, ActivityGrid):
        raise TypeError(
            "pass a WorkloadSpec (declarative) rather than a built "
            f"{type(value).__name__}; activity grids are not serializable"
        )
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as a workload spec; "
        "expected WorkloadSpec or mapping"
    )


@dataclass(frozen=True)
class ScenarioSpec(_SpecSerialization):
    """One declarative operating condition.

    The serializable counterpart of
    :class:`~repro.core.cosim.scenarios.Scenario`: the technology is named
    (not embedded), and the supply may be given either as an absolute
    voltage or as a fraction of the node's nominal ``Vdd`` (at most one of
    the two).
    """

    technology: TechnologySpec = field(default_factory=TechnologySpec)
    supply_scale: Optional[float] = None
    supply_voltage: Optional[float] = None
    ambient_temperature: Optional[float] = None
    activity: Union[float, Dict[str, float]] = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "technology", as_technology_spec(self.technology))
        if self.supply_scale is not None and self.supply_voltage is not None:
            raise ValueError(
                "give supply_scale or supply_voltage, not both "
                f"(got supply_scale={self.supply_scale!r}, "
                f"supply_voltage={self.supply_voltage!r})"
            )
        for label in ("supply_scale", "supply_voltage", "ambient_temperature"):
            value = getattr(self, label)
            if value is None:
                continue
            object.__setattr__(self, label, _positive_number(value, label))
        if isinstance(self.activity, abc.Mapping):
            object.__setattr__(self, "activity", _power_map(self.activity, "activity"))
            if any(value < 0.0 for value in self.activity.values()):
                raise ValueError("activity factors must be non-negative")
        else:
            try:
                activity = float(self.activity)
            except (TypeError, ValueError):
                raise ValueError(
                    f"activity must be a number or per-block mapping, "
                    f"got {self.activity!r}"
                ) from None
            if activity < 0.0:
                raise ValueError("activity must be non-negative")
            object.__setattr__(self, "activity", activity)
        if not isinstance(self.label, str):
            raise ValueError("label must be a string")

    def build(
        self,
        technologies: Optional[Dict[TechnologySpec, TechnologyParameters]] = None,
    ) -> Scenario:
        """Materialize the runtime :class:`Scenario`.

        ``technologies`` is an optional per-study cache: scenario grids name
        the same few nodes hundreds of times, and sharing one
        :class:`TechnologyParameters` instance per distinct spec lets the
        batched engines dedup their per-node precomputation.
        """
        if technologies is None:
            technology = self.technology.build()
        else:
            technology = technologies.get(self.technology)
            if technology is None:
                technology = self.technology.build()
                technologies[self.technology] = technology
        supply = self.supply_voltage
        if supply is None and self.supply_scale is not None:
            supply = self.supply_scale * technology.vdd
        activity = self.activity
        if isinstance(activity, abc.Mapping):
            activity = dict(activity)
        return Scenario(
            technology=technology,
            supply_voltage=supply,
            ambient_temperature=self.ambient_temperature,
            activity=activity,
            label=self.label,
        )

    @classmethod
    def grid(
        cls,
        technologies: Sequence[Union[TechnologySpec, str, Mapping[str, Any]]],
        supply_scales: Iterable[float] = (1.0,),
        ambient_temperatures: Iterable[Optional[float]] = (None,),
        activities: Iterable[Union[float, Mapping[str, float]]] = (1.0,),
    ) -> Tuple["ScenarioSpec", ...]:
        """Cross product of the four scenario axes, in deterministic order.

        The declarative mirror of
        :func:`~repro.core.cosim.scenarios.scenario_grid`, producing the
        same scenarios in the same order once built.
        """
        specs = [as_technology_spec(value) for value in technologies]
        if not specs:
            raise ValueError("at least one technology is required")
        return tuple(
            cls(
                technology=technology,
                supply_scale=scale,
                ambient_temperature=ambient,
                activity=activity,
            )
            for technology in specs
            for scale in tuple(supply_scales)
            for ambient in tuple(ambient_temperatures)
            for activity in tuple(activities)
        )

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data, defaults omitted (minimal JSON)."""
        data: Dict[str, Any] = {"technology": self.technology.to_dict()}
        for label in ("supply_scale", "supply_voltage", "ambient_temperature"):
            value = getattr(self, label)
            if value is not None:
                data[label] = value
        if self.activity != 1.0:
            activity = self.activity
            if isinstance(activity, abc.Mapping):
                activity = dict(activity)
            data["activity"] = activity
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)


def as_scenario_spec(value) -> ScenarioSpec:
    """Coerce a scenario description into a :class:`ScenarioSpec`."""
    if isinstance(value, ScenarioSpec):
        return value
    if isinstance(value, abc.Mapping):
        return ScenarioSpec.from_dict(value)
    if isinstance(value, Scenario):
        raise TypeError(
            "pass a ScenarioSpec (declarative) rather than a built Scenario; "
            "scenarios embed a full TechnologyParameters object and are not "
            "serializable"
        )
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as a scenario spec; "
        "expected ScenarioSpec or mapping"
    )


@dataclass(frozen=True)
class ScenarioGridSpec(_SpecSerialization):
    """Compact cross product of the four scenario axes.

    The constant-size counterpart of a tuple of :class:`ScenarioSpec`: the
    axes alone describe a 10^6+-scenario grid in a few lines of JSON, and
    :meth:`build_stream` yields the runtime scenarios lazily — in exactly
    the order of :func:`~repro.core.cosim.scenarios.scenario_grid` and
    :meth:`ScenarioSpec.grid` (technology x supply scale x ambient x
    activity) — so the grid never has to exist in memory at once.  The
    declarative source feeding the streaming execution path
    (``StudySpec.scenario_grid`` + ``chunk_size``).
    """

    technologies: Tuple[TechnologySpec, ...] = ()
    supply_scales: Tuple[float, ...] = (1.0,)
    ambient_temperatures: Tuple[Optional[float], ...] = (None,)
    activities: Tuple[Union[float, Mapping[str, float]], ...] = (1.0,)

    def __post_init__(self) -> None:
        if not isinstance(self.technologies, abc.Iterable) or isinstance(
            self.technologies, (str, abc.Mapping)
        ):
            raise ValueError(
                "technologies must be a sequence of technology descriptions"
            )
        object.__setattr__(
            self,
            "technologies",
            tuple(as_technology_spec(value) for value in self.technologies),
        )
        if not self.technologies:
            raise ValueError("at least one technology is required")
        scales = []
        for value in tuple(self.supply_scales):
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"supply_scales entries must be numbers, got {value!r}"
                ) from None
            if value <= 0.0:
                raise ValueError("supply_scales must be positive")
            scales.append(value)
        if not scales:
            raise ValueError("supply_scales must name at least one scale")
        object.__setattr__(self, "supply_scales", tuple(scales))
        ambients = []
        for value in tuple(self.ambient_temperatures):
            if value is not None:
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    raise ValueError(
                        "ambient_temperatures entries must be numbers or "
                        f"null, got {value!r}"
                    ) from None
                if value <= 0.0:
                    raise ValueError("ambient_temperatures must be positive")
            ambients.append(value)
        if not ambients:
            raise ValueError("ambient_temperatures must name at least one entry")
        object.__setattr__(self, "ambient_temperatures", tuple(ambients))
        activities = []
        for value in tuple(self.activities):
            if isinstance(value, abc.Mapping):
                mapping = _power_map(value, "activities")
                if any(entry < 0.0 for entry in mapping.values()):
                    raise ValueError("activity factors must be non-negative")
                activities.append(mapping)
                continue
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    "activities entries must be numbers or per-block "
                    f"mappings, got {value!r}"
                ) from None
            if value < 0.0:
                raise ValueError("activities must be non-negative")
            activities.append(value)
        if not activities:
            raise ValueError("activities must name at least one entry")
        object.__setattr__(self, "activities", tuple(activities))

    @property
    def count(self) -> int:
        """Grid size: the product of the four axis lengths."""
        return (
            len(self.technologies)
            * len(self.supply_scales)
            * len(self.ambient_temperatures)
            * len(self.activities)
        )

    def build_stream(self) -> Iterator[Scenario]:
        """Lazily yield the runtime scenarios in deterministic grid order.

        Technology parameters are built once per axis entry and shared by
        every scenario naming them; only the O(chunk) scenarios a consumer
        holds at a time exist in memory.
        """
        technologies = [spec.build() for spec in self.technologies]
        activities = tuple(
            dict(value) if isinstance(value, abc.Mapping) else value
            for value in self.activities
        )
        return scenario_grid_stream(
            technologies,
            supply_scales=self.supply_scales,
            ambient_temperatures=self.ambient_temperatures,
            activities=activities,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data, defaults omitted (minimal JSON)."""
        data: Dict[str, Any] = {
            "technologies": [spec.to_dict() for spec in self.technologies]
        }
        if self.supply_scales != (1.0,):
            data["supply_scales"] = list(self.supply_scales)
        if self.ambient_temperatures != (None,):
            data["ambient_temperatures"] = list(self.ambient_temperatures)
        if self.activities != (1.0,):
            data["activities"] = [
                dict(value) if isinstance(value, abc.Mapping) else value
                for value in self.activities
            ]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioGridSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)


def as_scenario_grid_spec(value) -> Optional[ScenarioGridSpec]:
    """Coerce a grid description into a :class:`ScenarioGridSpec`."""
    if value is None or isinstance(value, ScenarioGridSpec):
        return value
    if isinstance(value, abc.Mapping):
        return ScenarioGridSpec.from_dict(value)
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as a scenario grid spec; "
        "expected ScenarioGridSpec or mapping"
    )


def _to_plain(value: Any) -> Any:
    """Tuples back to lists (and mapping views back to dicts) for JSON."""
    if isinstance(value, tuple):
        return [_to_plain(entry) for entry in value]
    if isinstance(value, abc.Mapping):
        return {key: _to_plain(entry) for key, entry in value.items()}
    return value


#: Constraint keys :class:`OptimizeSpec` understands.
_OPTIMIZE_CONSTRAINTS = ("temperature_cap", "penalty_weight")


@dataclass(frozen=True)
class OptimizeVariable(_SpecSerialization):
    """One bounded search variable of an optimize study.

    The declarative mirror of
    :class:`~repro.optimize.search.SearchVariable`: a name plus inclusive
    ``[lower, upper]`` bounds with ``lower < upper``.  Optimize problems
    derive their variables automatically; spec entries *override* the
    derived bounds of the named variable.
    """

    name: str = ""
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("variable name must be a non-empty string")
        for label in ("lower", "upper"):
            value = getattr(self, label)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"variables[{self.name!r}].{label} must be a number, "
                    f"got {value!r}"
                ) from None
            object.__setattr__(self, label, value)
        if not self.lower < self.upper:
            raise ValueError(
                f"variables[{self.name!r}] requires lower < upper, got "
                f"[{self.lower!r}, {self.upper!r}]"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The variable as plain data (all three fields are meaningful)."""
        return {"name": self.name, "lower": self.lower, "upper": self.upper}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizeVariable":
        """Rebuild (and re-validate) a variable from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)


def as_optimize_variable(value) -> OptimizeVariable:
    """Coerce a mapping / spec into an :class:`OptimizeVariable`."""
    if isinstance(value, OptimizeVariable):
        return value
    if isinstance(value, abc.Mapping):
        return OptimizeVariable.from_dict(value)
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as an optimize variable; "
        "expected OptimizeVariable or mapping"
    )


@dataclass(frozen=True)
class OptimizeSpec(_SpecSerialization):
    """Declarative design-space search riding an optimize study.

    Attributes
    ----------
    problem:
        ``"placement"`` (move floorplan blocks, non-overlap constrained)
        or ``"supply"`` (supply scale + per-block activity on one shared
        engine) — :data:`~repro.api.kinds.OPTIMIZE_PROBLEMS`.
    objective:
        An objective name (:data:`~repro.api.kinds.OPTIMIZE_OBJECTIVES`)
        or a ``{name: weight}`` mapping for a weighted combination; lower
        is always better.
    variables:
        Optional bound overrides for the problem's auto-derived variables
        (each an :class:`OptimizeVariable` or plain mapping).
    constraints:
        ``temperature_cap`` (peak-temperature ceiling [K], scenarios above
        it are infeasible and penalised) and optionally ``penalty_weight``
        (objective units per Kelvin of excess, requires the cap).
    strategy:
        Search strategy — :data:`~repro.api.kinds.OPTIMIZE_STRATEGIES`.
    budget:
        Maximum candidate evaluations.
    generation_size:
        Candidates per batched generation (random/grid strategies).
    seed:
        Random seed; a fixed seed replays the search bit for bit.
    movable:
        Placement problem only: which blocks may move (default: all).
    """

    problem: str = "placement"
    objective: Union[str, Dict[str, float]] = "peak_rise"
    variables: Tuple[OptimizeVariable, ...] = ()
    constraints: Dict[str, float] = field(default_factory=dict)
    strategy: str = "random"
    budget: int = 64
    generation_size: int = 16
    seed: int = 0
    movable: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.problem not in OPTIMIZE_PROBLEMS:
            raise ValueError(
                f"unknown optimize problem {self.problem!r}; "
                f"known problems: {', '.join(OPTIMIZE_PROBLEMS)}"
            )
        if isinstance(self.objective, str):
            if self.objective not in OPTIMIZE_OBJECTIVES:
                raise ValueError(
                    f"unknown objective {self.objective!r}; known objectives: "
                    f"{', '.join(OPTIMIZE_OBJECTIVES)}"
                )
        elif isinstance(self.objective, abc.Mapping):
            weights = _power_map(self.objective, "objective")
            if not weights:
                raise ValueError(
                    "objective mapping must name at least one objective"
                )
            for name, weight in weights.items():
                if name not in OPTIMIZE_OBJECTIVES:
                    raise ValueError(
                        f"unknown objective {name!r}; known objectives: "
                        f"{', '.join(OPTIMIZE_OBJECTIVES)}"
                    )
                if weight <= 0.0:
                    raise ValueError(
                        f"objective weight for {name!r} must be positive, "
                        f"got {weight!r}"
                    )
            object.__setattr__(self, "objective", weights)
        else:
            raise ValueError(
                "objective must be an objective name or a {name: weight} "
                f"mapping, got {self.objective!r}"
            )
        if not isinstance(self.variables, abc.Iterable) or isinstance(
            self.variables, (str, abc.Mapping)
        ):
            raise ValueError("variables must be a sequence of variable overrides")
        variables = tuple(as_optimize_variable(value) for value in self.variables)
        names = [variable.name for variable in variables]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ValueError(
                f"variables name(s) {', '.join(map(repr, duplicates))} appear "
                "more than once"
            )
        object.__setattr__(self, "variables", variables)
        constraints = _power_map(self.constraints, "constraints")
        unknown = sorted(set(constraints) - set(_OPTIMIZE_CONSTRAINTS))
        if unknown:
            raise ValueError(
                f"unknown constraints key(s) {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(_OPTIMIZE_CONSTRAINTS)}"
            )
        for name, value in constraints.items():
            if value <= 0.0:
                raise ValueError(
                    f"constraints[{name!r}] must be positive, got {value!r}"
                )
        if "penalty_weight" in constraints and "temperature_cap" not in constraints:
            raise ValueError(
                "constraints['penalty_weight'] requires "
                "constraints['temperature_cap']"
            )
        object.__setattr__(self, "constraints", constraints)
        if self.strategy not in OPTIMIZE_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; known strategies: "
                f"{', '.join(OPTIMIZE_STRATEGIES)}"
            )
        object.__setattr__(self, "budget", validated_int(self.budget, "budget", 1))
        object.__setattr__(
            self,
            "generation_size",
            validated_int(self.generation_size, "generation_size", 1),
        )
        object.__setattr__(self, "seed", validated_int(self.seed, "seed", 0))
        if not isinstance(self.movable, abc.Iterable) or isinstance(
            self.movable, (str, abc.Mapping)
        ):
            raise ValueError("movable must be a sequence of block names")
        movable = tuple(self.movable)
        if any(not isinstance(name, str) for name in movable):
            raise ValueError("movable entries must be block names")
        object.__setattr__(self, "movable", movable)

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data, defaults omitted (minimal JSON)."""
        data: Dict[str, Any] = {}
        if self.problem != "placement":
            data["problem"] = self.problem
        if self.objective != "peak_rise":
            objective = self.objective
            if isinstance(objective, abc.Mapping):
                objective = dict(objective)
            data["objective"] = objective
        if self.variables:
            data["variables"] = [variable.to_dict() for variable in self.variables]
        if self.constraints:
            data["constraints"] = dict(self.constraints)
        if self.strategy != "random":
            data["strategy"] = self.strategy
        if self.budget != 64:
            data["budget"] = self.budget
        if self.generation_size != 16:
            data["generation_size"] = self.generation_size
        if self.seed != 0:
            data["seed"] = self.seed
        if self.movable:
            data["movable"] = list(self.movable)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizeSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)


def as_optimize_spec(value) -> Optional[OptimizeSpec]:
    """Coerce an optimize description into an :class:`OptimizeSpec`."""
    if value is None or isinstance(value, OptimizeSpec):
        return value
    if isinstance(value, abc.Mapping):
        return OptimizeSpec.from_dict(value)
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as an optimize spec; "
        "expected OptimizeSpec or mapping"
    )


#: :class:`StudySpec` fields that determine the compiled
#: :class:`~repro.core.cosim.scenarios.ScenarioEngine` — everything
#: :func:`repro.api.study.build_engine` reads.  Scenario lists, workloads
#: and solver options deliberately stay out: requests differing only in
#: those share one engine (the seam the serve layer's compile cache and
#: admission batching key on).
ENGINE_FIELDS = (
    "floorplan",
    "dynamic_powers",
    "static_powers",
    "image_rings",
    "include_bottom_images",
    "device_type",
    "thermal_backend",
    "backend_options",
    "array_backend",
    "precision",
)


def _default_floorplan() -> "FloorplanSpec":
    """One full-die block: the placeholder floorplan of a default spec."""
    block = {"name": "chip", "x": 0.5e-3, "y": 0.5e-3, "width": 1e-3, "length": 1e-3}
    return FloorplanSpec(blocks=(block,))


@dataclass(frozen=True)
class StudySpec(_SpecSerialization):
    """One complete, executable study description.

    Attributes
    ----------
    kind:
        ``"steady"`` (batched fixed points), ``"transient"`` (batched
        time-domain integration), ``"thermal_map"`` (analytical surface
        map), ``"sweep"`` (a steady batch reported as a 1-D parameter
        sweep) or ``"optimize"`` (a design-space search driving batched
        engine solves as its inner loop).
    floorplan:
        The die and its blocks.
    dynamic_powers, static_powers:
        Per-block reference powers [W] at nominal supply / reference
        temperature (steady, transient and sweep studies).
    scenarios:
        Operating conditions to evaluate (steady, transient, sweep).
    scenario_grid:
        Steady and transient studies only: a compact
        :class:`ScenarioGridSpec` cross product used *instead of*
        ``scenarios`` — the constant-size description of grids too large
        to enumerate (built lazily, one chunk at a time, when streaming).
    chunk_size:
        Stream the engine in fixed-size chunks of this many scenarios
        (constant work-buffer memory).  ``None`` (default) solves the whole
        batch monolithically unless another streaming option is set.
    reduction:
        Keep only the online-reduced per-scenario metric series, dropping
        the full ``(scenarios, blocks)`` field arrays — the constant-memory
        result for million-row grids.  Steady and transient studies only.
    memmap_path:
        Persist the full per-scenario field arrays as ``<name>.npy``
        memmaps under this directory instead of RAM (implies chunked
        execution).  Steady and transient studies only.
    workload:
        Transient studies only: the activity grid driving the integration.
    duration, time_step:
        Transient studies only: simulated span and base step [s].
    time_constants:
        Transient studies only: optional per-block thermal time constants
        [s].
    technology:
        Thermal-map studies only: the node supplying the substrate /
        ambient defaults.
    block_powers:
        Thermal-map studies only: dissipated power [W] per block.
    ambient_temperature:
        Thermal-map studies only: heat-sink temperature [K] override.
    map_samples:
        Thermal-map studies only: ``(nx, ny)`` surface-map sampling.
    parameter_name, parameter_values:
        Sweep studies only: the swept axis (one value per scenario).
    optimize:
        Optimize studies only: the :class:`OptimizeSpec` describing the
        search (problem, objective, variables, constraints, strategy,
        budget, seed).
    image_rings, include_bottom_images, device_type:
        Boundary-image / leakage-polarity configuration shared by every
        engine.
    thermal_backend:
        Which :class:`~repro.core.thermal.operator.ThermalOperator` reduces
        the floorplan: ``"analytical"`` (the paper's closed-form model,
        default and bit-identical to pre-backend studies), ``"fdm"`` (the
        finite-volume numerical reference) or ``"foster"`` (lumped RC
        steady-state limit).  ``thermal_map`` studies are the analytical
        model's field-map capability and accept only ``"analytical"``.
    backend_options:
        Backend-specific options; only the ``fdm`` backend takes any
        (its grid resolution ``nx`` / ``ny`` / ``nz``, integers >= 2).
        Unlike ``backend_options``, the image settings are *retained* (not
        rejected) under non-analytical backends, which model the die
        boundaries exactly and ignore them — deliberately, so a backend
        comparison can toggle ``thermal_backend`` alone while the settings
        keep applying to the analytical side.
    array_backend:
        Array namespace the engine computes in —
        :data:`~repro.api.kinds.ARRAY_BACKENDS` name.  ``None`` (default)
        and ``"numpy"`` are bit-identical to pre-seam studies;
        ``"array_api_strict"`` runs the same functional loops on the
        standard's reference namespace (resolved lazily at engine build
        time, erroring there if not installed).  ``thermal_map`` studies
        are numpy-evaluated and accept only the default/``"numpy"``.
    precision:
        Working-precision policy — :data:`~repro.api.kinds.PRECISIONS`
        name.  ``None`` (default) and ``"float64"`` are the bit-exact
        reference; ``"float32"`` trades the tolerances documented in
        ``docs/precision.md`` for throughput (fast serving maps).
    solver:
        Kind-specific solver options (see
        :meth:`~repro.core.cosim.scenarios.ScenarioEngine.solve` and
        :meth:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine.simulate`).
    label:
        Optional display name for reports.
    """

    kind: str = "steady"
    floorplan: FloorplanSpec = field(default_factory=lambda: _default_floorplan())
    dynamic_powers: Dict[str, float] = field(default_factory=dict)
    static_powers: Dict[str, float] = field(default_factory=dict)
    scenarios: Tuple[ScenarioSpec, ...] = ()
    scenario_grid: Optional[ScenarioGridSpec] = None
    chunk_size: Optional[int] = None
    reduction: bool = False
    memmap_path: Optional[str] = None
    workload: Optional[WorkloadSpec] = None
    duration: Optional[float] = None
    time_step: Optional[float] = None
    time_constants: Optional[Dict[str, float]] = None
    technology: Optional[TechnologySpec] = None
    block_powers: Dict[str, float] = field(default_factory=dict)
    ambient_temperature: Optional[float] = None
    map_samples: Tuple[int, int] = (50, 50)
    parameter_name: str = ""
    parameter_values: Tuple[float, ...] = ()
    optimize: Optional[OptimizeSpec] = None
    image_rings: int = 1
    include_bottom_images: bool = True
    device_type: str = "nmos"
    thermal_backend: str = "analytical"
    backend_options: Dict[str, int] = field(default_factory=dict)
    array_backend: Optional[str] = None
    precision: Optional[str] = None
    solver: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in STUDY_KINDS:
            raise ValueError(
                f"unknown study kind {self.kind!r}; "
                f"known kinds: {', '.join(STUDY_KINDS)}"
            )
        object.__setattr__(self, "floorplan", as_floorplan_spec(self.floorplan))
        object.__setattr__(
            self, "dynamic_powers", _power_map(self.dynamic_powers, "dynamic_powers")
        )
        object.__setattr__(
            self, "static_powers", _power_map(self.static_powers, "static_powers")
        )
        object.__setattr__(
            self, "block_powers", _power_map(self.block_powers, "block_powers")
        )
        if self.time_constants is not None:
            object.__setattr__(
                self,
                "time_constants",
                _power_map(self.time_constants, "time_constants"),
            )
        if not isinstance(self.scenarios, abc.Iterable) or isinstance(
            self.scenarios, (str, abc.Mapping)
        ):
            raise ValueError("scenarios must be a sequence of scenario descriptions")
        object.__setattr__(
            self,
            "scenarios",
            tuple(as_scenario_spec(value) for value in self.scenarios),
        )
        object.__setattr__(
            self, "scenario_grid", as_scenario_grid_spec(self.scenario_grid)
        )
        object.__setattr__(self, "optimize", as_optimize_spec(self.optimize))
        if self.chunk_size is not None:
            object.__setattr__(
                self, "chunk_size", validated_int(self.chunk_size, "chunk_size", 1)
            )
        object.__setattr__(self, "reduction", bool(self.reduction))
        if self.memmap_path is not None:
            if not isinstance(self.memmap_path, (str, Path)):
                raise ValueError(
                    f"memmap_path must be a directory path, got {self.memmap_path!r}"
                )
            object.__setattr__(self, "memmap_path", str(self.memmap_path))
        object.__setattr__(self, "workload", as_workload_spec(self.workload))
        if self.technology is not None:
            object.__setattr__(self, "technology", as_technology_spec(self.technology))
        for label in ("duration", "time_step", "ambient_temperature"):
            value = getattr(self, label)
            if value is None:
                continue
            object.__setattr__(self, label, _positive_number(value, label))
        samples = tuple(self.map_samples)
        if len(samples) != 2 or any(int(n) < 2 for n in samples):
            raise ValueError(
                f"map_samples must be two sample counts >= 2, got {self.map_samples!r}"
            )
        object.__setattr__(self, "map_samples", tuple(int(n) for n in samples))
        object.__setattr__(
            self,
            "parameter_values",
            _freeze(tuple(self.parameter_values), "parameter_values"),
        )
        if int(self.image_rings) < 0:
            raise ValueError("image_rings must be non-negative")
        object.__setattr__(self, "image_rings", int(self.image_rings))
        object.__setattr__(
            self, "include_bottom_images", bool(self.include_bottom_images)
        )
        if self.device_type not in ("nmos", "pmos"):
            raise ValueError("device_type must be 'nmos' or 'pmos'")
        if self.thermal_backend not in THERMAL_BACKENDS:
            raise ValueError(
                f"unknown thermal_backend {self.thermal_backend!r}; "
                f"known backends: {', '.join(THERMAL_BACKENDS)}"
            )
        if not isinstance(self.backend_options, abc.Mapping):
            raise ValueError("backend_options must be a mapping")
        if self.backend_options and self.thermal_backend != "fdm":
            raise ValueError(
                "backend_options only apply to the 'fdm' thermal backend "
                f"(thermal_backend is {self.thermal_backend!r})"
            )
        options: Dict[str, int] = {}
        for key, value in self.backend_options.items():
            if key not in FDM_GRID_OPTIONS:
                raise ValueError(
                    f"unknown backend_options key {key!r}; "
                    f"allowed: {', '.join(FDM_GRID_OPTIONS)}"
                )
            options[key] = validated_int(value, f"backend_options[{key!r}]", 2)
        object.__setattr__(self, "backend_options", MappingProxyType(options))
        if self.array_backend is not None and self.array_backend not in ARRAY_BACKENDS:
            raise ValueError(
                f"unknown array_backend {self.array_backend!r}; "
                f"known backends: {', '.join(ARRAY_BACKENDS)}"
            )
        if self.precision is not None and self.precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {self.precision!r}; "
                f"known precisions: {', '.join(PRECISIONS)}"
            )
        if not isinstance(self.solver, abc.Mapping):
            raise ValueError("solver must be a mapping of solver options")
        allowed = _SOLVER_KEYS[self.kind]
        unknown = sorted(set(self.solver) - set(allowed))
        if unknown:
            raise ValueError(
                f"{self.kind!r} studies do not understand solver option(s) "
                f"{', '.join(map(repr, unknown))}"
                + (f"; allowed: {', '.join(allowed)}" if allowed else "")
            )
        solver = _freeze(dict(self.solver), "solver")
        for key, value in solver.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"solver option {key!r} must be finite, got {value!r}")
        object.__setattr__(self, "solver", MappingProxyType(solver))
        if not isinstance(self.label, str):
            raise ValueError("label must be a string")
        self._validate_kind()

    # ------------------------------------------------------------------ #
    # Kind-specific validation
    # ------------------------------------------------------------------ #
    def _validate_kind(self) -> None:
        kind = self.kind
        block_names = set(self.floorplan.block_names)

        def check_blocks(mapping: Mapping[str, float], label: str) -> None:
            unknown = sorted(set(mapping) - block_names)
            if unknown:
                raise ValueError(
                    f"{label} references unknown block(s): {', '.join(unknown)}; "
                    f"floorplan blocks: {', '.join(sorted(block_names))}"
                )

        check_blocks(self.dynamic_powers, "dynamic_powers")
        check_blocks(self.static_powers, "static_powers")
        check_blocks(self.block_powers, "block_powers")
        if self.time_constants:
            check_blocks(self.time_constants, "time_constants")

        if kind == "thermal_map":
            if self.thermal_backend != "analytical":
                raise ValueError(
                    "thermal_map studies are the analytical model's "
                    "field-map capability and require "
                    "thermal_backend='analytical' "
                    f"(got {self.thermal_backend!r})"
                )
            if self.array_backend not in (None, "numpy"):
                raise ValueError(
                    "thermal_map studies are numpy-evaluated and accept "
                    "only the default array_backend "
                    f"(got {self.array_backend!r})"
                )
            if not self.block_powers:
                raise ValueError("thermal_map studies require block_powers")
            if self.scenarios:
                raise ValueError("thermal_map studies take block_powers, not scenarios")
            # Engine-only fields must not be silently ignored either.
            for label in (
                "workload",
                "duration",
                "time_step",
                "time_constants",
                "scenario_grid",
                "chunk_size",
                "memmap_path",
                "optimize",
            ):
                if getattr(self, label) is not None:
                    raise ValueError(f"{label} does not apply to thermal_map studies")
            if self.reduction:
                raise ValueError("reduction does not apply to thermal_map studies")
            for label in (
                "dynamic_powers",
                "static_powers",
                "parameter_name",
                "parameter_values",
            ):
                if getattr(self, label):
                    raise ValueError(f"{label} does not apply to thermal_map studies")
            return

        # Engine-backed kinds share the scenario/power requirements, and
        # must not silently ignore thermal_map-only fields.
        for label in ("technology", "ambient_temperature"):
            if getattr(self, label) is not None:
                raise ValueError(f"{label} only applies to thermal_map studies")
        if self.block_powers:
            raise ValueError("block_powers only apply to thermal_map studies")
        if self.map_samples != (50, 50):
            raise ValueError("map_samples only apply to thermal_map studies")
        if self.scenario_grid is not None:
            if kind == "sweep":
                raise ValueError(
                    "sweep studies enumerate scenarios explicitly (aligned "
                    "one-to-one with parameter_values); scenario_grid applies "
                    "to steady and transient studies"
                )
            if kind == "optimize":
                raise ValueError(
                    "optimize studies enumerate their operating scenarios "
                    "explicitly; scenario_grid applies to steady and "
                    "transient studies"
                )
            if self.scenarios:
                raise ValueError("give scenarios or scenario_grid, not both")
        if kind == "sweep":
            if self.reduction:
                raise ValueError(
                    "sweep results are always reduced series; the reduction "
                    "flag applies to steady and transient studies"
                )
            if self.memmap_path is not None:
                raise ValueError(
                    "memmap_path applies to steady and transient studies"
                )
        if kind == "optimize":
            for label in ("chunk_size", "memmap_path"):
                if getattr(self, label) is not None:
                    raise ValueError(
                        f"{label} does not apply to optimize studies"
                    )
            if self.reduction:
                raise ValueError("reduction does not apply to optimize studies")
        if not self.scenarios and self.scenario_grid is None:
            raise ValueError(f"{kind!r} studies require at least one scenario")
        if not self.dynamic_powers and not self.static_powers:
            raise ValueError(
                f"{kind!r} studies require dynamic_powers and/or static_powers"
            )
        if kind == "transient":
            for label in ("duration", "time_step"):
                if getattr(self, label) is None:
                    raise ValueError(f"transient studies require {label}")
        else:
            for label in ("duration", "time_step"):
                if getattr(self, label) is not None:
                    raise ValueError(f"{label} only applies to transient studies")
            if self.workload is not None:
                raise ValueError("workload only applies to transient studies")
            if self.time_constants is not None:
                raise ValueError("time_constants only apply to transient studies")
        if kind == "sweep":
            if not self.parameter_name:
                raise ValueError("sweep studies require parameter_name")
            if len(self.parameter_values) != len(self.scenarios):
                raise ValueError(
                    "parameter_values must align one-to-one with scenarios "
                    f"({len(self.parameter_values)} value(s) vs "
                    f"{len(self.scenarios)} scenario(s))"
                )
        elif self.parameter_name or self.parameter_values:
            raise ValueError(
                "parameter_name/parameter_values only apply to sweep studies"
            )
        if kind == "optimize":
            if self.optimize is None:
                raise ValueError(
                    "optimize studies require an optimize block describing "
                    "the search"
                )
            self._validate_optimize()
        elif self.optimize is not None:
            raise ValueError("optimize only applies to optimize studies")

    def _validate_optimize(self) -> None:
        """Cross-check the optimize block against the floorplan."""
        spec = self.optimize
        assert spec is not None
        block_names = tuple(self.floorplan.block_names)
        if spec.problem == "placement":
            unknown = sorted(set(spec.movable) - set(block_names))
            if unknown:
                raise ValueError(
                    "optimize.movable references unknown block(s): "
                    f"{', '.join(unknown)}; floorplan blocks: "
                    f"{', '.join(sorted(block_names))}"
                )
            movable = spec.movable or block_names
            allowed = {
                f"{name}.{axis}" for name in movable for axis in ("x", "y")
            }
        else:  # supply
            if spec.movable:
                raise ValueError(
                    "optimize.movable only applies to the 'placement' problem"
                )
            allowed = {"supply_scale"}
            allowed.update(f"activity.{name}" for name in block_names)
        for variable in spec.variables:
            if variable.name not in allowed:
                raise ValueError(
                    f"optimize.variables entry {variable.name!r} matches no "
                    f"{spec.problem!r} search variable; allowed: "
                    f"{', '.join(sorted(allowed))}"
                )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data, defaults omitted (minimal JSON)."""
        data: Dict[str, Any] = {
            "kind": self.kind,
            "floorplan": self.floorplan.to_dict(),
        }
        if self.dynamic_powers:
            data["dynamic_powers"] = dict(self.dynamic_powers)
        if self.static_powers:
            data["static_powers"] = dict(self.static_powers)
        if self.scenarios:
            data["scenarios"] = [scenario.to_dict() for scenario in self.scenarios]
        if self.scenario_grid is not None:
            data["scenario_grid"] = self.scenario_grid.to_dict()
        if self.chunk_size is not None:
            data["chunk_size"] = self.chunk_size
        if self.reduction:
            data["reduction"] = True
        if self.memmap_path is not None:
            data["memmap_path"] = self.memmap_path
        if self.workload is not None:
            data["workload"] = self.workload.to_dict()
        for label in ("duration", "time_step", "ambient_temperature"):
            value = getattr(self, label)
            if value is not None:
                data[label] = value
        if self.time_constants is not None:
            data["time_constants"] = dict(self.time_constants)
        if self.technology is not None:
            data["technology"] = self.technology.to_dict()
        if self.block_powers:
            data["block_powers"] = dict(self.block_powers)
        if self.map_samples != (50, 50):
            data["map_samples"] = list(self.map_samples)
        if self.parameter_name:
            data["parameter_name"] = self.parameter_name
        if self.parameter_values:
            data["parameter_values"] = list(self.parameter_values)
        if self.optimize is not None:
            data["optimize"] = self.optimize.to_dict()
        if self.image_rings != 1:
            data["image_rings"] = self.image_rings
        if not self.include_bottom_images:
            data["include_bottom_images"] = False
        if self.device_type != "nmos":
            data["device_type"] = self.device_type
        if self.thermal_backend != "analytical":
            data["thermal_backend"] = self.thermal_backend
        if self.backend_options:
            data["backend_options"] = dict(self.backend_options)
        if self.array_backend is not None:
            data["array_backend"] = self.array_backend
        if self.precision is not None:
            data["precision"] = self.precision
        if self.solver:
            data["solver"] = _to_plain(self.solver)
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""

        _reject_unknown_keys(cls, data)
        return cls(**data)

    # ------------------------------------------------------------------ #
    # Runtime construction helpers (consumed by repro.api.study)
    # ------------------------------------------------------------------ #
    @property
    def streaming(self) -> bool:
        """Whether any option engages the chunked streaming path."""
        return (
            self.chunk_size is not None
            or self.reduction
            or self.memmap_path is not None
        )

    @property
    def scenario_count(self) -> int:
        """Grid size, without materializing a single scenario."""
        if self.scenario_grid is not None:
            return self.scenario_grid.count
        return len(self.scenarios)

    def build_scenarios(self) -> List[Scenario]:
        """Materialize every scenario, sharing technology objects."""
        if self.scenario_grid is not None:
            return list(self.scenario_grid.build_stream())
        technologies: Dict[TechnologySpec, TechnologyParameters] = {}
        return [spec.build(technologies) for spec in self.scenarios]

    def scenario_stream(self) -> Tuple[Iterator[Scenario], int]:
        """A lazy scenario iterator plus the known grid size.

        The streaming path's counterpart of :meth:`build_scenarios`: with a
        ``scenario_grid`` the scenarios are generated on the fly and never
        exist in memory at once; an explicit ``scenarios`` tuple is built
        eagerly (it is already O(n) in memory as specs).
        """
        if self.scenario_grid is not None:
            return self.scenario_grid.build_stream(), self.scenario_grid.count
        scenarios = self.build_scenarios()
        return iter(scenarios), len(scenarios)

    def engine_canonical_json(self) -> str:
        """Canonical JSON of the :data:`ENGINE_FIELDS` subset of the spec.

        Two studies with equal engine-determining fields — whatever their
        scenarios, workload, streaming or solver options — produce
        byte-identical text here, so hashing it keys compiled engines (and
        their reduced operator matrices) across requests.
        """
        data = self.to_dict()
        subset = {name: data[name] for name in ENGINE_FIELDS if name in data}
        return json.dumps(subset, sort_keys=True, separators=(",", ":"))

    def engine_hash(self) -> str:
        """Compile-cache key: SHA-256 of :meth:`engine_canonical_json`."""
        digest = hashlib.sha256(self.engine_canonical_json().encode("utf-8"))
        return digest.hexdigest()

    def describe(self) -> str:
        """Human-readable study name."""
        if self.label:
            return self.label
        return f"{self.kind} study on {self.floorplan.name!r}"

    def replace(self, **overrides) -> "StudySpec":
        """Copy of the spec with the given fields replaced (re-validated)."""
        return replace(self, **overrides)
