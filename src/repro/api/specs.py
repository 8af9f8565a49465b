"""Declarative, serializable study specifications.

Every spec in this module is a frozen dataclass describing *what* to
compute, never *how*: technology nodes are named, floorplans are plain
geometry, workloads are parameter dictionaries.  The spec classes carry
no serialization or validation code of their own; one field-driven
mechanism, installed by the :func:`_spec` class decorator, serves them
all:

* **Codec.**  :meth:`_Spec.to_dict` walks the dataclass fields and writes
  a field only when it differs from its default, except for the few each
  class names as *always written* (``TechnologySpec.node``, the die size
  and blocks of a ``FloorplanSpec``, ``WorkloadSpec.kind``,
  ``ScenarioSpec.technology``, ``ScenarioGridSpec.technologies``, every
  ``OptimizeVariable`` field, and ``StudySpec.kind``/``floorplan``).
  :meth:`_Spec.from_dict` rejects unknown keys and calls the constructor,
  so ``from_dict(to_dict(spec)) == spec`` (pinned by ``tests/test_api.py``)
  and :meth:`_Spec.canonical_json` is a stable content address.
* **Validators.**  Each class lists one checker per field in ``_CHECKS``;
  construction runs them in field order, normalizing the value (tuples,
  floats, read-only mappings) or raising a :class:`ValueError` that names
  the field, then runs the class's cross-field ``_validate``.  Checkers
  are built from a handful of shared primitives (:func:`_choice`,
  :func:`_number`, :func:`_positive_number`, ``validated_int``) applied
  per field and per sequence entry.
* **Kind rules.**  :data:`KIND_FIELDS` says which study kinds accept each
  :class:`StudySpec` field; a field counts as set when it differs from
  its default, the same test the codec uses.

Each spec also knows how to ``build()`` its runtime object (a
:class:`~repro.technology.parameters.TechnologyParameters`, a
:class:`~repro.floorplan.floorplan.Floorplan`, an
:class:`~repro.core.cosim.transient_scenarios.ActivityGrid`, a
:class:`~repro.core.cosim.scenarios.Scenario`).  :class:`StudySpec`
composes them into one complete, executable description of a steady,
transient, thermal-map, sweep or optimize study —
:func:`repro.api.study.run_study` is its interpreter.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import abc
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.cosim.scenarios import (
    Scenario,
    ScenarioColumns,
    ScenarioGrid,
)
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

#: A field checker: ``check(value, label)`` returns the normalized value or
#: raises a :class:`ValueError` naming ``label``.
_Check = Callable[[Any, str], Any]


class SpecTypeError(TypeError, ValueError):
    """A value of the wrong type where a spec (or block) was expected.

    A :class:`TypeError` for Python callers handing in the wrong object,
    and a :class:`ValueError` so that malformed JSON is reported like any
    other invalid field (``repro serve`` answers 400, not 500).
    """


# --------------------------------------------------------------------- #
# Shared checkers
# --------------------------------------------------------------------- #
def _choice(known: Sequence[str], noun: str, plural: str) -> _Check:
    """A checker accepting one of ``known``; its error lists them all."""

    def check(value: Any, label: str) -> str:
        if isinstance(value, str) and value in known:
            return value
        raise ValueError(
            f"unknown {noun} {value!r}; known {plural}: {', '.join(known)}"
        )

    return check


def _number(value: Any, label: str, non_negative: bool = False) -> float:
    """``value`` as a finite float (and ``>= 0`` if asked), or a ValueError.

    Booleans and strings are wrong JSON types here, not numbers.
    """
    try:
        if isinstance(value, (bool, str, bytes)):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{label} must be finite, got {value!r}")
    if non_negative and number < 0.0:
        raise ValueError(f"{label} must be non-negative")
    return number


def _non_negative(value: Any, label: str) -> float:
    return _number(value, label, non_negative=True)


def _positive_number(value: Any, label: str) -> float:
    """``value`` as a finite positive float, or a ValueError naming ``label``."""
    number = _number(value, label)
    if number <= 0.0:
        raise ValueError(f"{label} must be positive")
    return number


def _integer(minimum: int) -> _Check:
    """A checker accepting exact integers ``>= minimum``."""
    return lambda value, label: validated_int(value, label, minimum)


def _flag(value: Any, label: str) -> bool:
    if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
        return bool(value)
    raise ValueError(f"{label} must be true or false, got {value!r}")


def _text(value: Any, label: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{label} must be a string")
    return value


def _path(value: Any, label: str) -> str:
    if not isinstance(value, (str, Path)):
        raise ValueError(f"{label} must be a directory path, got {value!r}")
    return str(value)


def _optional(check: _Check) -> _Check:
    """``check``, letting ``None`` through unchanged."""
    return lambda value, label: None if value is None else check(value, label)


def _sequence(check: _Check, noun: str, nonempty: bool = False) -> _Check:
    """A checker for a sequence whose every entry passes ``check``."""

    def entries(value: Any, label: str) -> tuple:
        if isinstance(value, (str, bytes, abc.Mapping)) or not isinstance(
            value, abc.Iterable
        ):
            raise ValueError(f"{label} must be a sequence of {noun}s, got {value!r}")
        result = tuple(check(entry, label) for entry in value)
        if nonempty and not result:
            raise ValueError(f"{label} must name at least one {noun}")
        return result

    return entries


def _mapping(check: _Check, keys: Optional[Sequence[str]] = None) -> _Check:
    """A checker for a string-keyed mapping whose values pass ``check``.

    ``None`` reads as an empty mapping; ``keys`` restricts the allowed
    keys.  The result is a read-only view: spec fields must stay immutable
    so that a :class:`~repro.api.study.Study`'s cached compilation can
    never desync from its spec.
    """

    def mapping(value: Any, label: str) -> Mapping[str, Any]:
        if value is None:
            value = {}
        if not isinstance(value, abc.Mapping):
            raise ValueError(f"{label} must be a mapping of names to values")
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"{label} keys must be names, got {key!r}")
        unknown = sorted(set(value) - set(keys)) if keys is not None else ()
        if unknown:
            raise ValueError(
                f"unknown {label} key(s) {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(keys)}"
            )
        return MappingProxyType(
            {key: check(entry, f"{label}[{key!r}]") for key, entry in value.items()}
        )

    return mapping


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


def _plain_mapping(value: Any, label: str) -> Mapping[str, Any]:
    """A read-only :func:`_freeze` of a mapping of options."""
    if not isinstance(value, abc.Mapping):
        raise ValueError(f"{label} must be a mapping")
    return MappingProxyType(_freeze(dict(value), label))


def _number_mapping(value: Any, label: str) -> Mapping[str, Any]:
    """:func:`_plain_mapping` whose every entry is a finite number or a
    (nested) list of them; the error names the entry's key."""

    def check(entry: Any, name: str) -> None:
        if isinstance(entry, tuple):
            for item in entry:
                check(item, name)
        else:
            _number(entry, name)

    mapping = _plain_mapping(value, label)
    for key, entry in mapping.items():
        check(entry, f"{label}[{key!r}]")
    return mapping


def _activity(value: Any, label: str) -> Union[float, Mapping[str, float]]:
    """A non-negative activity factor, scalar or per block."""
    if isinstance(value, abc.Mapping):
        return _mapping(_non_negative)(value, label)
    return _non_negative(value, label)


def _block(value: Any, label: str) -> Block:
    try:
        return as_block(value)
    except TypeError as error:
        raise SpecTypeError(f"{label}: {error}") from None


#: Per-block powers [W]: a block dissipates, it never absorbs.
_powers = _mapping(_non_negative)


def _nested(cls: type) -> _Check:
    """A checker coercing a field into the spec class ``cls``."""
    return lambda value, label: _as_spec(cls, value, label)


def load_json_object(source: Union[str, Path], owner: str) -> Dict[str, Any]:
    """Read a JSON object from a path or a JSON string.

    A :class:`~pathlib.Path` is always read from disk; a plain string is
    treated as JSON text when it starts with ``{`` and as a file path
    otherwise.  Shared by the spec and result ``from_json`` entry points.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{owner} JSON must be an object")
    return data


# --------------------------------------------------------------------- #
# The shared codec
# --------------------------------------------------------------------- #
#: Default placeholder of an always-written field: unequal to every value.
_ALWAYS = object()

#: Value types :func:`_to_plain` passes through unchanged.
_SCALARS = frozenset((str, float, int, bool, type(None)))


def _to_plain(value: Any) -> Any:
    """A field value as JSON-ready plain data (specs and blocks as dicts)."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, _Spec):
        return value.to_dict()
    if isinstance(value, Block):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_to_plain(entry) for entry in value]
    if isinstance(value, abc.Mapping):
        return {key: _to_plain(entry) for key, entry in value.items()}
    return value


class _Spec:
    """Codec, validation and JSON plumbing shared by every spec class."""

    #: Field name -> default (``_ALWAYS`` for always-written fields); set
    #: by :func:`_spec`.
    _DEFAULTS: Dict[str, Any] = {}
    #: Field name -> checker, run in order on construction.
    _CHECKS: Dict[str, _Check] = {}
    #: ``(type, description, convert)`` inputs the class's ``as_*``
    #: coercer accepts besides the spec itself and a mapping.
    _ACCEPTS: Tuple[Tuple[type, str, Callable[[Any], Any]], ...] = ()
    #: ``(type, reason)``: a built runtime object refused with a reason.
    _REFUSES: Optional[Tuple[type, str]] = None

    def __post_init__(self) -> None:
        for name, check in self._CHECKS.items():
            object.__setattr__(self, name, check(getattr(self, name), name))
        self._validate()

    def _validate(self) -> None:
        """Cross-field rules, run after every field passed its checker."""

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data: default-valued fields are omitted,
        except the class's always-written ones."""
        return self._plain_fields(self._DEFAULTS)

    def _plain_fields(self, names: Iterable[str]) -> Dict[str, Any]:
        """:meth:`to_dict` restricted to ``names``, in their order."""
        values, defaults = self.__dict__, self._DEFAULTS
        return {
            name: _to_plain(value)
            for name in names
            if (value := values[name]) != defaults[name]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Rebuild (and re-validate) a spec from :meth:`to_dict` data."""
        unknown = sorted(set(data) - set(cls._DEFAULTS), key=str)
        if unknown:
            raise ValueError(
                f"{cls.__name__} has no field(s) {', '.join(map(repr, unknown))}; "
                f"known fields: {', '.join(sorted(cls._DEFAULTS))}"
            )
        return cls(**data)

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
        return cls.from_dict(load_json_object(source, cls.__name__))


def _default(spec: Field) -> Any:
    if spec.default is MISSING:
        return spec.default_factory()
    return spec.default


def _spec(*always: str):
    """Class decorator: a frozen dataclass carrying the shared codec.

    ``always`` names the fields :meth:`_Spec.to_dict` writes even at their
    default.  Each class gets its own ``from_dict`` classmethod object, so
    that it can be wrapped per class (as the benchmark tracer does).
    """

    def decorate(cls):
        cls = dataclass(frozen=True)(cls)
        cls._DEFAULTS = {
            spec.name: _ALWAYS if spec.name in always else _default(spec)
            for spec in fields(cls)
        }
        cls.from_dict = classmethod(_Spec.from_dict.__func__)
        return cls

    return decorate


def _as_spec(cls: type, value: Any, label: Optional[str] = None):
    """Coerce ``value`` into the spec class ``cls`` (the ``as_*`` helpers).

    ``label`` names the field being coerced in the error message.
    """
    if isinstance(value, cls):
        return value
    if isinstance(value, abc.Mapping):
        return cls.from_dict(value)
    for kind, _, convert in cls._ACCEPTS:
        if isinstance(value, kind):
            return convert(value)
    if cls._REFUSES is not None and isinstance(value, cls._REFUSES[0]):
        message = (
            f"pass a {cls.__name__} (declarative) rather than a built "
            f"{type(value).__name__}; {cls._REFUSES[1]}"
        )
    else:
        expected = ", ".join([cls.__name__, *(what for _, what, _ in cls._ACCEPTS)])
        message = (
            f"cannot interpret {type(value).__name__!r} as a {cls.__name__}; "
            f"expected {expected} or mapping"
        )
    raise SpecTypeError(f"{label}: {message}" if label else message)


# --------------------------------------------------------------------- #
# Spec classes
# --------------------------------------------------------------------- #
@_spec("node")
class TechnologySpec(_Spec):
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

    _CHECKS = {
        "node": _choice(node_names(), "technology node", "nodes"),
        "ambient_celsius": _number,
    }
    _ACCEPTS = ((str, "node name", lambda node: TechnologySpec(node=node)),)

    def build(self) -> TechnologyParameters:
        """Materialize the node's :class:`TechnologyParameters`."""
        return make_technology(self.node, ambient_celsius=self.ambient_celsius)


def as_technology_spec(value) -> TechnologySpec:
    """Coerce a node name / mapping / spec into a :class:`TechnologySpec`."""
    return _as_spec(TechnologySpec, value)


@_spec("die_width", "die_length", "die_thickness", "blocks")
class FloorplanSpec(_Spec):
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

    _CHECKS = {
        "die_width": _positive_number,
        "die_length": _positive_number,
        "die_thickness": _positive_number,
        "blocks": _sequence(_block, "block description", nonempty=True),
        "name": _text,
        "allow_overlaps": _flag,
    }
    _ACCEPTS = (
        (Floorplan, "Floorplan", lambda plan: FloorplanSpec.from_floorplan(plan)),
    )

    def _validate(self) -> None:
        try:
            self.build()  # validates fit and overlaps eagerly
        except ValueError as error:
            raise ValueError(f"blocks: {error}") from None

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


def as_floorplan_spec(value) -> FloorplanSpec:
    """Coerce a floorplan / mapping / spec into a :class:`FloorplanSpec`."""
    return _as_spec(FloorplanSpec, value)


#: Required / optional parameter names per workload kind.
_WORKLOAD_PARAMETERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "constant": ((), ("multipliers",)),
    "step": (("before", "after", "switch_times"), ()),
    "pwm": (("periods", "duty_cycles"), ("on", "off")),
    "trace": (("times", "values"), ()),
}


@_spec("kind")
class WorkloadSpec(_Spec):
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

    _CHECKS = {
        "kind": _choice(WORKLOAD_KINDS, "workload kind", "kinds"),
        "parameters": _number_mapping,
    }
    _REFUSES = (ActivityGrid, "activity grids are not serializable")

    def _validate(self) -> None:
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
        try:
            self.build()  # validate parameter values eagerly
        except ValueError as error:
            raise ValueError(f"parameters: {error}") from None

    def build(self) -> ActivityGrid:
        """Materialize the vectorized :class:`ActivityGrid`."""
        grids = {
            "constant": ConstantActivity,
            "step": StepActivity,
            "pwm": PWMActivity,
            "trace": TraceActivity,
        }
        return grids[self.kind](**self.parameters)


def as_workload_spec(value) -> Optional[WorkloadSpec]:
    """Coerce a workload description into a :class:`WorkloadSpec`."""
    return None if value is None else _as_spec(WorkloadSpec, value)


@_spec("technology")
class ScenarioSpec(_Spec):
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

    _CHECKS = {
        "technology": _nested(TechnologySpec),
        "supply_scale": _optional(_positive_number),
        "supply_voltage": _optional(_positive_number),
        "ambient_temperature": _optional(_positive_number),
        "activity": _activity,
        "label": _text,
    }
    _REFUSES = (
        Scenario,
        "scenarios embed a full TechnologyParameters object and are not "
        "serializable",
    )

    def _validate(self) -> None:
        if self.supply_scale is not None and self.supply_voltage is not None:
            raise ValueError(
                "give supply_scale or supply_voltage, not both "
                f"(got supply_scale={self.supply_scale!r}, "
                f"supply_voltage={self.supply_voltage!r})"
            )

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
        axes = itertools.product(specs, supply_scales, ambient_temperatures, activities)
        return tuple(
            cls(
                technology=technology,
                supply_scale=scale,
                ambient_temperature=ambient,
                activity=activity,
            )
            for technology, scale, ambient, activity in axes
        )


def as_scenario_spec(value) -> ScenarioSpec:
    """Coerce a scenario description into a :class:`ScenarioSpec`."""
    return _as_spec(ScenarioSpec, value)


@_spec("technologies")
class ScenarioGridSpec(_Spec):
    """Compact cross product of the four scenario axes.

    The constant-size counterpart of a tuple of :class:`ScenarioSpec`: the
    axes alone describe a 10^6+-scenario grid in a few lines of JSON, and
    :meth:`build_stream` gives the runtime grid lazily — in exactly
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

    _CHECKS = {
        "technologies": _sequence(
            _nested(TechnologySpec), "technology description", nonempty=True
        ),
        "supply_scales": _sequence(_positive_number, "supply scale", nonempty=True),
        "ambient_temperatures": _sequence(
            _optional(_positive_number), "ambient temperature", nonempty=True
        ),
        "activities": _sequence(_activity, "activity factor", nonempty=True),
    }

    @property
    def count(self) -> int:
        """Grid size: the product of the four axis lengths."""
        return (
            len(self.technologies)
            * len(self.supply_scales)
            * len(self.ambient_temperatures)
            * len(self.activities)
        )

    def build_stream(self) -> ScenarioGrid:
        """The lazy runtime grid, in deterministic grid order.

        Technology parameters are built once per axis entry and shared by
        every row naming them; a slice of the grid is columns computed by
        index arithmetic, so only the O(chunk) rows a consumer holds at a
        time exist in memory, and no scenario object is built.
        """
        return ScenarioGrid(
            [spec.build() for spec in self.technologies],
            supply_scales=self.supply_scales,
            ambient_temperatures=self.ambient_temperatures,
            activities=[
                dict(value) if isinstance(value, abc.Mapping) else value
                for value in self.activities
            ],
        )


def as_scenario_grid_spec(value) -> Optional[ScenarioGridSpec]:
    """Coerce a grid description into a :class:`ScenarioGridSpec`."""
    return None if value is None else _as_spec(ScenarioGridSpec, value)


@_spec("name", "lower", "upper")
class OptimizeVariable(_Spec):
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

    _CHECKS = {"name": _text, "lower": _number, "upper": _number}

    def _validate(self) -> None:
        if not self.name:
            raise ValueError("variable name must be a non-empty string")
        if not self.lower < self.upper:
            raise ValueError(
                f"variables[{self.name!r}] requires lower < upper, got "
                f"[{self.lower!r}, {self.upper!r}]"
            )


def as_optimize_variable(value) -> OptimizeVariable:
    """Coerce a mapping / spec into an :class:`OptimizeVariable`."""
    return _as_spec(OptimizeVariable, value)


_objective_name = _choice(OPTIMIZE_OBJECTIVES, "objective", "objectives")


def _objective(value: Any, label: str) -> Union[str, Mapping[str, float]]:
    """An objective name or a non-empty ``{name: positive weight}`` map."""
    if isinstance(value, str):
        return _objective_name(value, label)
    if not isinstance(value, abc.Mapping):
        raise ValueError(
            "objective must be an objective name or a {name: weight} "
            f"mapping, got {value!r}"
        )
    if not value:
        raise ValueError("objective mapping must name at least one objective")
    for name in value:
        _objective_name(name, label)
    return _mapping(_positive_number)(value, label)


@_spec()
class OptimizeSpec(_Spec):
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

    _CHECKS = {
        "problem": _choice(OPTIMIZE_PROBLEMS, "optimize problem", "problems"),
        "objective": _objective,
        "variables": _sequence(_nested(OptimizeVariable), "variable override"),
        "constraints": _mapping(
            _positive_number, keys=("temperature_cap", "penalty_weight")
        ),
        "strategy": _choice(OPTIMIZE_STRATEGIES, "strategy", "strategies"),
        "budget": _integer(1),
        "generation_size": _integer(1),
        "seed": _integer(0),
        "movable": _sequence(_text, "block name"),
    }

    def _validate(self) -> None:
        names = [variable.name for variable in self.variables]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"variables name(s) {', '.join(map(repr, duplicates))} appear "
                "more than once"
            )
        constraints = self.constraints
        if "penalty_weight" in constraints and "temperature_cap" not in constraints:
            raise ValueError(
                "constraints['penalty_weight'] requires "
                "constraints['temperature_cap']"
            )


def as_optimize_spec(value) -> Optional[OptimizeSpec]:
    """Coerce an optimize description into an :class:`OptimizeSpec`."""
    return None if value is None else _as_spec(OptimizeSpec, value)


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

_ENGINE_KINDS = ("steady", "transient", "sweep", "optimize")

#: Which study kinds accept each :class:`StudySpec` field (fields not
#: listed apply to every kind).  A field is *set* when it differs from
#: its default — the test :meth:`_Spec.to_dict` uses to write it.
KIND_FIELDS: Dict[str, Tuple[str, ...]] = {
    "dynamic_powers": _ENGINE_KINDS,
    "static_powers": _ENGINE_KINDS,
    "scenarios": _ENGINE_KINDS,
    "scenario_grid": ("steady", "transient"),
    "chunk_size": ("steady", "transient", "sweep"),
    "reduction": ("steady", "transient"),
    "memmap_path": ("steady", "transient"),
    "workload": ("transient",),
    "duration": ("transient",),
    "time_step": ("transient",),
    "time_constants": ("transient",),
    "technology": ("thermal_map",),
    "block_powers": ("thermal_map",),
    "ambient_temperature": ("thermal_map",),
    "map_samples": ("thermal_map",),
    "parameter_name": ("sweep",),
    "parameter_values": ("sweep",),
    "optimize": ("optimize",),
}

#: Why a kind refuses a field, where the kind's name alone does not say.
_KIND_NOTES = {
    ("scenario_grid", "sweep"): (
        "sweep studies enumerate scenarios explicitly "
        "(aligned one-to-one with parameter_values)"
    ),
    ("scenario_grid", "optimize"): (
        "optimize studies enumerate their operating scenarios explicitly"
    ),
    ("reduction", "sweep"): "sweep results are always reduced series",
}

#: Fields a kind cannot run without (each must differ from its default).
_KIND_REQUIRES = {
    "transient": ("duration", "time_step"),
    "thermal_map": ("block_powers",),
    "sweep": ("parameter_name",),
}

_FIXED_POINT_OPTIONS: Dict[str, _Check] = {
    "max_iterations": _integer(1),
    "tolerance": _number,
    "damping": _number,
    "max_temperature": _number,
}

#: Solver options each study kind forwards to its engine, with the checker
#: each value must pass (values are stored as :func:`_freeze` stores them).
_SOLVER_OPTIONS: Dict[str, Dict[str, _Check]] = {
    "steady": _FIXED_POINT_OPTIONS,
    "sweep": _FIXED_POINT_OPTIONS,
    "optimize": _FIXED_POINT_OPTIONS,
    "transient": {
        "max_temperature": _number,
        "settle_tolerance": _optional(_number),
        "include_activity_edges": _flag,
    },
    "thermal_map": {},
}


def _map_samples(value: Any, label: str) -> Tuple[int, int]:
    samples = _sequence(_integer(2), "sample count")(value, label)
    if len(samples) != 2:
        raise ValueError(f"{label} must be two sample counts >= 2, got {value!r}")
    return samples


def _default_floorplan() -> "FloorplanSpec":
    """One full-die block: the placeholder floorplan of a default spec."""
    block = {"name": "chip", "x": 0.5e-3, "y": 0.5e-3, "width": 1e-3, "length": 1e-3}
    return FloorplanSpec(blocks=(block,))


@_spec("kind", "floorplan")
class StudySpec(_Spec):
    """One complete, executable study description.

    Attributes
    ----------
    kind:
        ``"steady"`` (batched fixed points), ``"transient"`` (batched
        time-domain integration), ``"thermal_map"`` (analytical surface
        map), ``"sweep"`` (a steady batch reported as a 1-D parameter
        sweep) or ``"optimize"`` (a design-space search driving batched
        engine solves as its inner loop).  :data:`KIND_FIELDS` lists the
        fields each kind accepts.
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
    floorplan: FloorplanSpec = field(default_factory=_default_floorplan)
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

    _CHECKS = {
        "kind": _choice(STUDY_KINDS, "study kind", "kinds"),
        "floorplan": _nested(FloorplanSpec),
        "dynamic_powers": _powers,
        "static_powers": _powers,
        "scenarios": _sequence(_nested(ScenarioSpec), "scenario description"),
        "scenario_grid": _optional(_nested(ScenarioGridSpec)),
        "chunk_size": _optional(_integer(1)),
        "reduction": _flag,
        "memmap_path": _optional(_path),
        "workload": _optional(_nested(WorkloadSpec)),
        "duration": _optional(_positive_number),
        "time_step": _optional(_positive_number),
        "time_constants": _optional(_mapping(_positive_number)),
        "technology": _optional(_nested(TechnologySpec)),
        "block_powers": _powers,
        "ambient_temperature": _optional(_positive_number),
        "map_samples": _map_samples,
        "parameter_name": _text,
        "parameter_values": _sequence(_number, "parameter value"),
        "optimize": _optional(_nested(OptimizeSpec)),
        "image_rings": _integer(0),
        "include_bottom_images": _flag,
        "device_type": _choice(("nmos", "pmos"), "device_type", "device types"),
        "thermal_backend": _choice(THERMAL_BACKENDS, "thermal_backend", "backends"),
        "backend_options": _mapping(_integer(2), keys=FDM_GRID_OPTIONS),
        "array_backend": _optional(
            _choice(ARRAY_BACKENDS, "array_backend", "backends")
        ),
        "precision": _optional(_choice(PRECISIONS, "precision", "precisions")),
        "solver": _plain_mapping,
        "label": _text,
    }

    # ------------------------------------------------------------------ #
    # Cross-field and kind-specific validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        kind = self.kind
        if self.backend_options and self.thermal_backend != "fdm":
            raise ValueError(
                "backend_options only apply to the 'fdm' thermal backend "
                f"(thermal_backend is {self.thermal_backend!r})"
            )
        options = _SOLVER_OPTIONS[kind]
        unknown = sorted(set(self.solver) - set(options))
        if unknown:
            raise ValueError(
                f"{kind!r} studies do not understand solver option(s) "
                f"{', '.join(map(repr, unknown))}"
                + (f"; allowed: {', '.join(options)}" if options else "")
            )
        for key, value in self.solver.items():
            options[key](value, f"solver option {key!r}")

        block_names = set(self.floorplan.block_names)
        for label in (
            "dynamic_powers",
            "static_powers",
            "block_powers",
            "time_constants",
        ):
            unknown = sorted(set(getattr(self, label) or ()) - block_names)
            if unknown:
                raise ValueError(
                    f"{label} references unknown block(s): {', '.join(unknown)}; "
                    f"floorplan blocks: {', '.join(sorted(block_names))}"
                )

        for name, kinds in KIND_FIELDS.items():
            if kind not in kinds and self._is_set(name):
                note = _KIND_NOTES.get((name, kind))
                only = "only " if len(kinds) == 1 else ""
                raise ValueError(
                    f"{name} does not apply to {kind} studies; "
                    + (f"{note}; " if note else "")
                    + f"{name} {only}applies to {_join(kinds)} studies"
                )
        for name in _KIND_REQUIRES.get(kind, ()):
            if not self._is_set(name):
                raise ValueError(f"{kind} studies require {name}")

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
            return
        if self.scenarios and self.scenario_grid is not None:
            raise ValueError("give scenarios or scenario_grid, not both")
        if not self.scenarios and self.scenario_grid is None:
            raise ValueError(
                f"scenarios must name at least one scenario for {kind!r} studies"
            )
        if not self.dynamic_powers and not self.static_powers:
            raise ValueError(
                f"{kind!r} studies require dynamic_powers and/or static_powers"
            )
        if kind == "sweep" and len(self.parameter_values) != len(self.scenarios):
            raise ValueError(
                "parameter_values must align one-to-one with scenarios "
                f"({len(self.parameter_values)} value(s) vs "
                f"{len(self.scenarios)} scenario(s))"
            )
        if kind == "optimize":
            self._validate_optimize()

    def _is_set(self, name: str) -> bool:
        """Whether field ``name`` differs from its default."""
        return getattr(self, name) != self._DEFAULTS[name]

    def _validate_optimize(self) -> None:
        """Cross-check the optimize block against the floorplan."""
        spec = self.optimize
        if spec is None:
            raise ValueError(
                "optimize studies require an optimize block describing the search"
            )
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

    def build_scenarios(self) -> Union[ScenarioGrid, ScenarioColumns]:
        """Every scenario, sharing technology objects: the lazy grid of a
        ``scenario_grid`` (whose slices are columns computed on the fly),
        or the explicit ``scenarios`` built into columns."""
        if self.scenario_grid is not None:
            return self.scenario_grid.build_stream()
        technologies: Dict[TechnologySpec, TechnologyParameters] = {}
        return ScenarioColumns.from_scenarios(
            spec.build(technologies) for spec in self.scenarios
        )

    def scenario_stream(self) -> Tuple[Union[ScenarioGrid, ScenarioColumns], int]:
        """:meth:`build_scenarios` plus its row count."""
        source = self.build_scenarios()
        return source, len(source)

    def engine_canonical_json(self) -> str:
        """Canonical JSON of the :data:`ENGINE_FIELDS` subset of the spec.

        Two studies with equal engine-determining fields — whatever their
        scenarios, workload, streaming or solver options — produce
        byte-identical text here, so hashing it keys compiled engines (and
        their reduced operator matrices) across requests.
        """
        subset = self._plain_fields(ENGINE_FIELDS)
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


def _join(names: Sequence[str]) -> str:
    """``a``, ``a and b``, ``a, b and c``."""
    return " and ".join(filter(None, (", ".join(names[:-1]), names[-1])))


#: Every spec class, nested ones first: the vocabulary of spec fields.
SPEC_CLASSES = (
    TechnologySpec,
    FloorplanSpec,
    WorkloadSpec,
    ScenarioSpec,
    ScenarioGridSpec,
    OptimizeVariable,
    OptimizeSpec,
    StudySpec,
)
