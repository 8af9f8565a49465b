"""Unified, serializable study results.

:class:`StudyResult` is the single return type of the
:class:`~repro.api.study.Study` facade: whatever engine ran — the batched
steady-state fixed point, the transient integrator or the analytical
thermal model — the result exposes the same surface:

* ``summary()`` — headline metrics as plain data (what the CLI prints);
* ``as_arrays()`` — the numerical payload as named numpy arrays;
* ``to_json()`` / ``from_json()`` — lossless persistence.  Arrays are
  serialized element-exactly (:func:`encode_payload` writes each
  ``float64`` as its shortest round-tripping decimal; a NaN element, such
  as a ``runaway_times`` entry of a row that never ran away, is written as
  ``null``, so the output is strict JSON), and a reloaded result compares
  bit-identically to the original — the cache/replay property pinned by
  ``tests/test_api.py``;
* ``native`` — the engine's own result object
  (:class:`~repro.core.cosim.scenarios.ScenarioBatchResult`,
  :class:`~repro.core.cosim.transient_scenarios.TransientBatchResult`,
  :class:`~repro.core.cosim.streaming.StreamResult`,
  :class:`~repro.core.thermal.superposition.SurfaceMap` or a search
  outcome) for callers that want the full rich API.  ``native`` is
  runtime-only: results reloaded from JSON carry ``native=None`` but
  identical arrays.

One packer (:meth:`StudyResult._pack`) turns whatever an engine returned
into every kind's arrays and metadata, and one table per kind
(``_SUMMARY``) lists the headline entries.  The array fields and
per-scenario metric series come from the batch classes' ``FIELDS``,
properties and ``series()``, so monolithic, streamed and sweep-kind
studies and the classic :func:`repro.analysis.sweep.scenario_sweep` /
:func:`~repro.analysis.sweep.transient_scenario_sweep` helpers report the
*same* quantities from one definition.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np
import orjson

from ..analysis.convergence import improvement
from ..analysis.sweep import sweep_series
from ..core.cosim.scenarios import ScenarioBatchResult, ScenarioColumns
from ..core.cosim.streaming import StreamResult
from ..core.cosim.transient_scenarios import TransientBatchResult
from ..core.thermal.superposition import SurfaceMap
from .specs import StudySpec, load_json_object

#: Serialization format version (bump on incompatible layout changes).
RESULT_FORMAT = 1

#: The batch class behind each scenario-engine kind's fields and series.
_BATCHES = {"steady": ScenarioBatchResult, "transient": TransientBatchResult}


def _float_subclass(value: Any) -> float:
    """orjson's fallback for a type it does not write itself.

    A float subclass, such as a ``numpy.float64`` block coordinate of a
    floorplan built with numpy, is written as its float value, as the
    stdlib encoder writes it; anything else is refused.
    """
    if isinstance(value, float):
        return float(value)
    raise TypeError(f"Type is not JSON serializable: {type(value).__name__}")


def encode_payload(payload: Mapping[str, Any], indent: bool = False) -> bytes:
    """UTF-8 JSON bytes of a result payload: every result file and every
    service reply goes through here.

    orjson writes each float as its shortest round-tripping decimal (so a
    ``float64`` reloads bit for bit, ``-0.0`` and subnormals included) and
    any non-finite float as ``null``.  The text is compact, or 2-space
    indented with ``indent``.  Specs and their hashes stay on the stdlib
    encoder, whose bytes are pinned.
    """
    option = orjson.OPT_INDENT_2 if indent else 0
    return orjson.dumps(payload, default=_float_subclass, option=option)


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    data = array
    if array.dtype.kind == "f" and np.isnan(array).any():
        # NaN is not JSON; ``null`` decodes back to NaN in a float array.
        data = array.astype(object)
        data[np.isnan(array)] = None
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": data.tolist(),
    }


def _decode_array(data: Mapping[str, Any]) -> np.ndarray:
    array = np.asarray(data["data"], dtype=np.dtype(data["dtype"]))
    return array.reshape(tuple(data["shape"]))


def _scenario_labels(scenarios) -> Callable[[], Dict[str, Any]]:
    """The per-scenario display labels, as deferred metadata: formatting
    them would otherwise dominate small studies."""
    return lambda: {
        "scenario_labels": ScenarioColumns.from_scenarios(scenarios).describe()
    }


class StudyResult:
    """The unified result of one executed study.

    Attributes
    ----------
    kind:
        The study kind that produced the result.
    spec:
        The executed :class:`~repro.api.specs.StudySpec` (re-runnable).
    arrays:
        Named numerical payload, read-only.
    metadata:
        Plain-data context (block names, scenario labels, ...).  Parts of
        it may be computed lazily — e.g. the per-scenario display labels,
        whose string formatting would otherwise dominate small studies.
    native:
        The engine's own result object; ``None`` after JSON reload.
    """

    def __init__(
        self,
        kind: str,
        spec: StudySpec,
        arrays: Dict[str, np.ndarray],
        metadata: Optional[Dict[str, Any]] = None,
        native: Optional[Any] = None,
        deferred_metadata: Optional[Any] = None,
    ) -> None:
        self.kind = kind
        self.spec = spec
        frozen = {}
        for name, value in arrays.items():
            array = np.asarray(value).view()
            array.setflags(write=False)
            frozen[name] = array
        self.arrays = frozen
        self._metadata: Dict[str, Any] = dict(metadata or {})
        self._deferred_metadata = deferred_metadata
        self.native = native

    @property
    def metadata(self) -> Dict[str, Any]:
        """Plain-data context; lazily completed on first access."""
        if self._deferred_metadata is not None:
            self._metadata.update(self._deferred_metadata())
            self._deferred_metadata = None
        return self._metadata

    def __repr__(self) -> str:
        return (
            f"StudyResult(kind={self.kind!r}, "
            f"arrays=[{', '.join(sorted(self.arrays))}])"
        )

    # ------------------------------------------------------------------ #
    # Constructors: every engine outcome goes through one packer
    # ------------------------------------------------------------------ #
    @classmethod
    def _pack(cls, spec: StudySpec, native: Any, context: Any = None) -> "StudyResult":
        """The result of ``spec`` from what its engine returned.

        ``native`` is a solved steady or transient batch, a
        :class:`~repro.core.cosim.streaming.StreamResult` (retained fields,
        or the reduced series plus ``block_temperature_max``/``times``), a
        :class:`~repro.core.thermal.superposition.SurfaceMap` (``context``:
        the solved source temperatures) or a search outcome (``context``:
        the problem that decodes its best candidate).  A sweep reports the
        reduced series of its batch or stream over the parameter values.
        """
        kind = spec.kind
        metadata: Dict[str, Any] = {}
        deferred = None
        if kind == "thermal_map":
            arrays = {
                "x_coordinates": native.x_coordinates,
                "y_coordinates": native.y_coordinates,
                "temperature": native.temperature,
            }
            metadata["ambient_temperature"] = float(native.ambient_temperature)
            metadata["source_temperatures"] = {
                name: float(value) for name, value in context.items()
            }
        elif kind == "optimize":
            generations = native.generations
            arrays = {
                "best_candidate": native.best_candidate,
                "objective_trace": native.objective_trace,
                "generation_best": np.array([g.best for g in generations], float),
                "generation_mean": np.array([g.mean for g in generations], float),
                "generation_sizes": np.array([g.size for g in generations], np.int64),
                "generation_feasible": np.array(
                    [g.feasible for g in generations], np.int64
                ),
            }
            objective = spec.optimize.objective
            if not isinstance(objective, str):
                objective = {name: float(value) for name, value in objective.items()}
            metadata.update(
                problem=spec.optimize.problem,
                objective=objective,
                strategy=native.strategy,
                variable_names=list(native.variable_names),
                evaluations=int(native.evaluations),
                best_objective=float(native.best_objective),
                best_feasible=bool(native.best_feasible),
                best_detail={
                    name: value if isinstance(value, (dict, str)) else float(value)
                    for name, value in context.describe(native.best_candidate).items()
                },
            )
        else:
            stream = native if isinstance(native, StreamResult) else None
            if kind == "sweep":
                series = native.series() if stream is None else stream.series
                reported = sweep_series(series)
                arrays = {"values": np.asarray(spec.parameter_values, float)}
                arrays.update(reported)
                metadata["parameter_name"] = spec.parameter_name
                metadata["series"] = list(reported)
            elif stream is None:
                arrays = {name: getattr(native, name) for name in native.FIELDS}
            elif stream.fields is not None:
                fields = _BATCHES[kind].FIELDS
                arrays = {name: stream.fields[name] for name in fields}
            else:
                arrays = dict(stream.series)
                if stream.times is not None:
                    arrays["times"] = stream.times
                arrays["block_temperature_max"] = stream.block_temperature_max
            metadata["block_names"] = list(native.block_names)
            if stream is None:
                deferred = _scenario_labels(native.scenarios)
            else:
                streaming = metadata["streaming"] = {
                    "chunk_size": int(stream.chunk_size),
                    "chunk_count": int(stream.chunk_count),
                    "reduced": stream.fields is None,
                }
                if stream.memmap_path is not None:
                    streaming["memmap_path"] = stream.memmap_path
        return cls(kind, spec, arrays, metadata, native, deferred)

    @classmethod
    def from_steady_batch(
        cls, spec: StudySpec, batch: ScenarioBatchResult
    ) -> "StudyResult":
        """Package a solved :class:`ScenarioBatchResult` for a steady or
        sweep ``spec`` (a sweep reports its per-scenario series)."""
        return cls._pack(spec, batch)

    @classmethod
    def from_transient_batch(
        cls, spec: StudySpec, batch: TransientBatchResult
    ) -> "StudyResult":
        """Package a solved :class:`TransientBatchResult` for ``spec``."""
        return cls._pack(spec, batch)

    @classmethod
    def from_surface_map(
        cls,
        spec: StudySpec,
        surface: SurfaceMap,
        source_temperatures: Mapping[str, float],
    ) -> "StudyResult":
        """Package a sampled :class:`SurfaceMap` and its source solve."""
        return cls._pack(spec, surface, source_temperatures)

    @classmethod
    def from_optimize(cls, spec: StudySpec, outcome, problem) -> "StudyResult":
        """Package a :class:`~repro.optimize.search.SearchOutcome` for ``spec``.

        Arrays carry the best candidate vector, the monotone best-so-far
        objective trace and the per-generation batch statistics; metadata
        records the search setup plus the best candidate decoded through
        the problem's :meth:`~repro.optimize.search.BatchProblem.describe`.
        Everything is plain data, so a reloaded result compares
        bit-identically (the replay property shared with the other kinds).
        """
        return cls._pack(spec, outcome, problem)

    @classmethod
    def from_steady_stream(cls, spec: StudySpec, stream: StreamResult) -> "StudyResult":
        """Wrap a streamed steady or sweep run.

        With retained fields (in RAM or memmapped) the arrays are exactly
        those of :meth:`from_steady_batch`, bit-identical to the monolithic
        path; a reduced run instead carries the 1-D per-scenario metric
        series plus the per-block maxima — constant-size in the grid.  A
        sweep reports the same series, in the same order and dtype, as its
        monolithic counterpart.
        """
        return cls._pack(spec, stream)

    @classmethod
    def from_transient_stream(
        cls, spec: StudySpec, stream: StreamResult
    ) -> "StudyResult":
        """Wrap a streamed transient run (see :meth:`from_steady_stream`)."""
        return cls._pack(spec, stream)

    # ------------------------------------------------------------------ #
    # Common accessors
    # ------------------------------------------------------------------ #
    def as_arrays(self) -> Dict[str, np.ndarray]:
        """The numerical payload as writable array copies."""
        return {name: array.copy() for name, array in self.arrays.items()}

    def array(self, name: str) -> np.ndarray:
        """One named array (read-only view)."""
        if name not in self.arrays:
            known = ", ".join(sorted(self.arrays))
            raise KeyError(f"no array named {name!r}; known arrays: {known}")
        return self.arrays[name]

    def _per_scenario(self, name: str) -> np.ndarray:
        """One per-scenario series (``peak_temperature``, ``total_power``,
        ``overshoot``): stored by reduced and sweep results, otherwise the
        batch class's own property over the retained fields."""
        if name in self.arrays:
            return self.arrays[name]
        batch_class = _BATCHES[self.kind]
        fields = {field: self.arrays[field] for field in batch_class.FIELDS}
        return getattr(batch_class(scenarios=(), block_names=(), **fields), name)

    def summary(self) -> Dict[str, Any]:
        """Headline metrics as plain data (the CLI report)."""
        return {key: value(self) for key, value in _SUMMARY[self.kind]}

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (``native`` is intentionally dropped)."""
        payload = {key: encode(self) for key, (encode, _) in _PAYLOAD.items()}
        return {"format": RESULT_FORMAT, **payload}

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialize to 2-space indented JSON, optionally writing to
        ``path`` (as UTF-8)."""
        data = encode_payload(self.to_dict(), indent=True) + b"\n"
        if path is not None:
            Path(path).write_bytes(data)
        return data.decode("utf-8")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudyResult":
        """Rebuild a result from :meth:`to_dict` data (format-checked)."""
        if data.get("format") != RESULT_FORMAT:
            raise ValueError(
                f"unsupported result format {data.get('format')!r} "
                f"(this build reads format {RESULT_FORMAT})"
            )
        return cls(**{key: decode(data[key]) for key, (_, decode) in _PAYLOAD.items()})

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "StudyResult":
        """Parse a result from a JSON string or a path to a JSON file."""
        return cls.from_dict(load_json_object(source, cls.__name__))

    # ------------------------------------------------------------------ #
    # Service envelopes (the repro.serve wire format)
    # ------------------------------------------------------------------ #
    def envelope(self, served: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """The result wrapped as a service response envelope.

        The JSON body the study service (:mod:`repro.serve`) returns from
        ``POST /run``: the full :meth:`to_dict` payload under ``"result"``
        (so a client round-trips it through :meth:`from_envelope` /
        :meth:`from_dict` bit-identically), the headline :meth:`summary`,
        the spec's content hash (the service's result-cache key, which a
        client can use to deduplicate or re-request), and a ``"served"``
        mapping of delivery metadata (cache hits, timings) that the caller
        supplies — it describes *this* delivery, never the result, and is
        deliberately excluded from bit-identity comparisons.
        """
        return {
            "status": "ok",
            "spec_hash": self.spec.content_hash(),
            "summary": self.summary(),
            "served": dict(served or {}),
            "result": self.to_dict(),
        }

    @classmethod
    def from_envelope(cls, data: Mapping[str, Any]) -> "StudyResult":
        """Unwrap a service response envelope (inverse of :meth:`envelope`)."""
        status = data.get("status")
        if status != "ok":
            message = data.get("error", {}).get("message", "unknown error")
            raise ValueError(f"envelope reports status {status!r}: {message}")
        if "result" not in data:
            raise ValueError("envelope has no 'result' payload")
        return cls.from_dict(data["result"])

    def equals(self, other: "StudyResult") -> bool:
        """Exact equality: same kind, spec, metadata and bit-identical arrays."""
        if self.kind != other.kind or self.spec != other.spec:
            return False
        if self.metadata != other.metadata:
            return False
        if set(self.arrays) != set(other.arrays):
            return False
        for name, array in self.arrays.items():
            equal_nan = array.dtype.kind == "f"
            if not np.array_equal(array, other.arrays[name], equal_nan=equal_nan):
                return False
        return True


#: The :meth:`StudyResult.to_dict` payload after ``"format"``, in order:
#: each key's encoder from a result and decoder into the constructor
#: keyword of the same name.
_PAYLOAD: Dict[str, Tuple[Callable[[StudyResult], Any], Callable[[Any], Any]]] = {
    "kind": (lambda result: result.kind, str),
    "spec": (lambda result: result.spec.to_dict(), StudySpec.from_dict),
    "metadata": (lambda result: result.metadata, dict),
    "arrays": (
        lambda result: {name: _encode_array(a) for name, a in result.arrays.items()},
        lambda arrays: {name: _decode_array(e) for name, e in arrays.items()},
    ),
}

#: One :meth:`StudyResult.summary` entry: its key and its getter.
_Entry = Tuple[str, Callable[[StudyResult], Any]]


def _count(name: str, flag: bool) -> Callable[[StudyResult], int]:
    """Getter: how many entries of the boolean array ``name`` are ``flag``."""
    return lambda result: int((result.arrays[name].astype(bool) == flag).sum())


def _series_max(name: str) -> Callable[[StudyResult], float]:
    """Getter: the largest value of one per-scenario series."""
    return lambda result: float(result._per_scenario(name).max())


def _peak_location(result: StudyResult) -> list:
    temperature = result.arrays["temperature"]
    x, y = np.unravel_index(int(np.argmax(temperature)), temperature.shape)
    return [
        float(result.arrays["x_coordinates"][x]),
        float(result.arrays["y_coordinates"][y]),
    ]


_KIND_AND_STUDY: Tuple[_Entry, ...] = (
    ("kind", lambda result: result.kind),
    ("study", lambda result: result.spec.describe()),
)
#: The head of every engine-backed kind: which thermal backend reduced
#: the floorplan (thermal maps are always the analytical model).
_HEAD = (
    *_KIND_AND_STUDY,
    ("thermal_backend", lambda result: result.spec.thermal_backend),
)
_BLOCK_NAMES: _Entry = (
    "block_names",
    lambda result: list(result.metadata.get("block_names", ())),
)
_PEAK: _Entry = ("peak_temperature_K", _series_max("peak_temperature"))

#: :meth:`StudyResult.summary` of each kind: ``(key, getter)`` in report
#: order.
_SUMMARY: Dict[str, Tuple[_Entry, ...]] = {
    "steady": (
        *_HEAD,
        ("scenario_count", lambda result: len(result.arrays["converged"])),
        _BLOCK_NAMES,
        ("converged_count", _count("converged", True)),
        ("runaway_count", _count("converged", False)),
        _PEAK,
        ("max_total_power_W", _series_max("total_power")),
    ),
    "transient": (
        *_HEAD,
        ("scenario_count", lambda result: len(result.arrays["runaway"])),
        ("step_count", lambda result: len(result.arrays["times"])),
        _BLOCK_NAMES,
        _PEAK,
        ("max_overshoot_K", _series_max("overshoot")),
        ("runaway_count", _count("runaway", True)),
    ),
    "thermal_map": (
        *_KIND_AND_STUDY,
        ("samples", lambda result: list(result.arrays["temperature"].shape)),
        (
            "ambient_temperature_K",
            lambda result: float(result.metadata["ambient_temperature"]),
        ),
        (
            "peak_temperature_K",
            lambda result: float(result.arrays["temperature"].max()),
        ),
        ("peak_location_m", _peak_location),
        (
            "source_temperatures_K",
            lambda result: dict(result.metadata.get("source_temperatures", {})),
        ),
    ),
    "sweep": (
        *_HEAD,
        ("parameter_name", lambda result: result.metadata.get("parameter_name", "")),
        ("point_count", lambda result: len(result.arrays["values"])),
        ("series", lambda result: list(result.metadata.get("series", ()))),
        _PEAK,
    ),
    "optimize": (
        *_HEAD,
        ("problem", lambda result: result.metadata.get("problem", "")),
        ("strategy", lambda result: result.metadata.get("strategy", "")),
        ("evaluations", lambda result: int(result.metadata.get("evaluations", 0))),
        ("generation_count", lambda result: len(result.arrays["objective_trace"])),
        ("best_objective", lambda result: float(result.metadata["best_objective"])),
        ("best_feasible", lambda result: bool(result.metadata.get("best_feasible"))),
        ("improvement", lambda result: improvement(result.arrays["objective_trace"])),
        ("best", lambda result: dict(result.metadata.get("best_detail", {}))),
    ),
}
