"""Unified, serializable study results.

:class:`StudyResult` is the single return type of the
:class:`~repro.api.study.Study` facade: whatever engine ran — the batched
steady-state fixed point, the transient integrator or the analytical
thermal model — the result exposes the same surface:

* ``summary()`` — headline metrics as plain data (what the CLI prints);
* ``as_arrays()`` — the numerical payload as named numpy arrays;
* ``to_json()`` / ``from_json()`` — lossless persistence.  Arrays are
  serialized element-exactly (JSON floats round-trip ``float64`` via
  ``repr``), so a reloaded result compares bit-identically to the original
  — the cache/replay property pinned by ``tests/test_api.py``;
* ``native`` — the engine's own result object
  (:class:`~repro.core.cosim.scenarios.ScenarioBatchResult`,
  :class:`~repro.core.cosim.transient_scenarios.TransientBatchResult`,
  :class:`~repro.core.thermal.superposition.SurfaceMap` or
  :class:`~repro.analysis.sweep`-style series) for callers that want the
  full rich API.  ``native`` is runtime-only: results reloaded from JSON
  carry ``native=None`` but identical arrays.

The array fields and per-scenario metric series come from the batch
classes' ``FIELDS`` and ``series()``
(:class:`~repro.core.cosim.scenarios.ScenarioBatchResult`,
:class:`~repro.core.cosim.transient_scenarios.TransientBatchResult`), so
monolithic, streamed and sweep-kind studies and the classic
:func:`repro.analysis.sweep.scenario_sweep` /
:func:`~repro.analysis.sweep.transient_scenario_sweep` helpers report the
*same* quantities from one definition.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.convergence import improvement
from ..analysis.sweep import sweep_series
from ..core.cosim.scenarios import ScenarioBatchResult
from ..core.cosim.streaming import StreamResult
from ..core.cosim.transient_scenarios import TransientBatchResult
from ..core.thermal.superposition import SurfaceMap
from .specs import StudySpec, load_json_object

#: Serialization format version (bump on incompatible layout changes).
RESULT_FORMAT = 1


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": array.tolist(),
    }


def _decode_array(data: Mapping[str, Any]) -> np.ndarray:
    array = np.asarray(data["data"], dtype=np.dtype(data["dtype"]))
    return array.reshape(tuple(data["shape"]))


def _streaming_metadata(stream: StreamResult) -> Dict[str, Any]:
    streaming: Dict[str, Any] = {
        "chunk_size": int(stream.chunk_size),
        "chunk_count": int(stream.chunk_count),
        "reduced": stream.fields is None,
    }
    if stream.memmap_path is not None:
        streaming["memmap_path"] = stream.memmap_path
    return streaming


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
    # Constructors (one per study kind)
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_batch(
        cls,
        kind: str,
        spec: StudySpec,
        batch: Union[ScenarioBatchResult, TransientBatchResult],
    ) -> "StudyResult":
        return cls(
            kind=kind,
            spec=spec,
            arrays={name: getattr(batch, name) for name in batch.FIELDS},
            metadata={"block_names": list(batch.block_names)},
            deferred_metadata=lambda: {
                "scenario_labels": [s.describe() for s in batch.scenarios]
            },
            native=batch,
        )

    @classmethod
    def from_steady_batch(
        cls, spec: StudySpec, batch: ScenarioBatchResult
    ) -> "StudyResult":
        """Package a solved steady :class:`ScenarioBatchResult` for ``spec``."""
        return cls._from_batch("steady", spec, batch)

    @classmethod
    def from_transient_batch(
        cls, spec: StudySpec, batch: TransientBatchResult
    ) -> "StudyResult":
        """Package a solved :class:`TransientBatchResult` for ``spec``."""
        return cls._from_batch("transient", spec, batch)

    @classmethod
    def from_surface_map(
        cls,
        spec: StudySpec,
        surface: SurfaceMap,
        source_temperatures: Mapping[str, float],
    ) -> "StudyResult":
        """Package a sampled :class:`SurfaceMap` and its source solve."""
        return cls(
            kind="thermal_map",
            spec=spec,
            arrays={
                "x_coordinates": surface.x_coordinates,
                "y_coordinates": surface.y_coordinates,
                "temperature": surface.temperature,
            },
            metadata={
                "ambient_temperature": float(surface.ambient_temperature),
                "source_temperatures": {
                    name: float(value)
                    for name, value in source_temperatures.items()
                },
            },
            native=surface,
        )

    @classmethod
    def _from_sweep(
        cls,
        spec: StudySpec,
        series: Mapping[str, np.ndarray],
        block_names: Sequence[str],
        native: Any,
        streaming: Optional[Dict[str, Any]] = None,
        deferred_metadata: Optional[Any] = None,
    ) -> "StudyResult":
        reported = sweep_series(series)
        metadata: Dict[str, Any] = {
            "parameter_name": spec.parameter_name,
            "series": list(reported),
            "block_names": list(block_names),
        }
        if streaming is not None:
            metadata["streaming"] = streaming
        return cls(
            kind="sweep",
            spec=spec,
            arrays={"values": np.asarray(spec.parameter_values, float), **reported},
            metadata=metadata,
            deferred_metadata=deferred_metadata,
            native=native,
        )

    @classmethod
    def from_sweep_batch(
        cls, spec: StudySpec, batch: ScenarioBatchResult
    ) -> "StudyResult":
        """Package a sweep: per-scenario metric series over the parameter axis."""
        return cls._from_sweep(
            spec,
            batch.series(),
            batch.block_names,
            native=batch,
            deferred_metadata=lambda: {
                "scenario_labels": [s.describe() for s in batch.scenarios]
            },
        )

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
        opt = spec.optimize
        assert opt is not None
        objective = (
            opt.objective
            if isinstance(opt.objective, str)
            else {name: float(value) for name, value in opt.objective.items()}
        )
        best_detail = {
            name: value if isinstance(value, (dict, str)) else float(value)
            for name, value in problem.describe(outcome.best_candidate).items()
        }
        return cls(
            kind="optimize",
            spec=spec,
            arrays={
                "best_candidate": outcome.best_candidate,
                "objective_trace": outcome.objective_trace,
                "generation_best": np.array(
                    [g.best for g in outcome.generations], dtype=float
                ),
                "generation_mean": np.array(
                    [g.mean for g in outcome.generations], dtype=float
                ),
                "generation_sizes": np.array(
                    [g.size for g in outcome.generations], dtype=np.int64
                ),
                "generation_feasible": np.array(
                    [g.feasible for g in outcome.generations], dtype=np.int64
                ),
            },
            metadata={
                "problem": opt.problem,
                "objective": objective,
                "strategy": outcome.strategy,
                "variable_names": list(outcome.variable_names),
                "evaluations": int(outcome.evaluations),
                "best_objective": float(outcome.best_objective),
                "best_feasible": bool(outcome.best_feasible),
                "best_detail": best_detail,
            },
            native=outcome,
        )

    # ------------------------------------------------------------------ #
    # Streamed constructors (chunked execution, possibly reduced)
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_stream(
        cls, kind: str, spec: StudySpec, stream: StreamResult, fields: Tuple[str, ...]
    ) -> "StudyResult":
        if stream.fields is not None:
            arrays = {name: stream.fields[name] for name in fields}
        else:
            arrays = dict(stream.series)
            if stream.times is not None:
                arrays["times"] = stream.times
            arrays["block_temperature_max"] = stream.block_temperature_max
        return cls(
            kind=kind,
            spec=spec,
            arrays=arrays,
            metadata={
                "block_names": list(stream.block_names),
                "streaming": _streaming_metadata(stream),
            },
            native=stream,
        )

    @classmethod
    def from_steady_stream(cls, spec: StudySpec, stream: StreamResult) -> "StudyResult":
        """Wrap a streamed steady run.

        With retained fields (in RAM or memmapped) the arrays are exactly
        those of :meth:`from_steady_batch`, bit-identical to the monolithic
        path; a reduced run instead carries the 1-D per-scenario metric
        series plus the per-block maxima — constant-size in the grid.
        """
        return cls._from_stream("steady", spec, stream, ScenarioBatchResult.FIELDS)

    @classmethod
    def from_transient_stream(
        cls, spec: StudySpec, stream: StreamResult
    ) -> "StudyResult":
        """Wrap a streamed transient run (see :meth:`from_steady_stream`)."""
        return cls._from_stream("transient", spec, stream, TransientBatchResult.FIELDS)

    @classmethod
    def from_sweep_stream(cls, spec: StudySpec, stream: StreamResult) -> "StudyResult":
        """Wrap a streamed steady run as a 1-D parameter sweep.

        Reports the same series, in the same order and dtype, as
        :meth:`from_sweep_batch` — the streamed values are bit-identical to
        their monolithic counterparts.
        """
        return cls._from_sweep(
            spec,
            stream.series,
            stream.block_names,
            native=stream,
            streaming=_streaming_metadata(stream),
        )

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

    def summary(self) -> Dict[str, Any]:
        """Headline metrics as plain data (the CLI report)."""
        summary: Dict[str, Any] = {"kind": self.kind, "study": self.spec.describe()}
        if self.kind != "thermal_map":
            # Engine-backed kinds record which thermal backend reduced the
            # floorplan (thermal maps are always the analytical model).
            summary["thermal_backend"] = self.spec.thermal_backend
        if self.kind == "steady":
            converged = self.arrays["converged"].astype(bool)
            summary.update(
                scenario_count=int(converged.shape[0]),
                block_names=list(self.metadata.get("block_names", ())),
                converged_count=int(converged.sum()),
                runaway_count=int((~converged).sum()),
            )
            if "block_temperatures" in self.arrays:
                temperatures = self.arrays["block_temperatures"]
                summary.update(
                    peak_temperature_K=float(temperatures.max()),
                    max_total_power_W=float(
                        (self.arrays["dynamic_power"] + self.arrays["static_power"])
                        .sum(axis=1)
                        .max()
                    ),
                )
            else:
                # Reduced streamed result: the full field tensor was never
                # retained; the per-scenario series carry the same maxima.
                summary.update(
                    peak_temperature_K=float(
                        self.arrays["peak_temperature"].max()
                    ),
                    max_total_power_W=float(self.arrays["total_power"].max()),
                )
        elif self.kind == "transient":
            summary.update(
                scenario_count=int(self.arrays["runaway"].shape[0]),
                step_count=int(self.arrays["times"].shape[0]),
                block_names=list(self.metadata.get("block_names", ())),
            )
            if "block_temperatures" in self.arrays:
                temperatures = self.arrays["block_temperatures"]
                final = temperatures[:, -1, :]
                overshoot = np.maximum(
                    (temperatures - final[:, np.newaxis, :]).max(axis=(1, 2)), 0.0
                )
                summary.update(
                    peak_temperature_K=float(temperatures.max()),
                    max_overshoot_K=float(overshoot.max()),
                )
            else:
                summary.update(
                    peak_temperature_K=float(
                        self.arrays["peak_temperature"].max()
                    ),
                    max_overshoot_K=float(self.arrays["overshoot"].max()),
                )
            summary["runaway_count"] = int(
                self.arrays["runaway"].astype(bool).sum()
            )
        elif self.kind == "thermal_map":
            temperature = self.arrays["temperature"]
            index = np.unravel_index(int(np.argmax(temperature)), temperature.shape)
            summary.update(
                samples=list(temperature.shape),
                ambient_temperature_K=float(self.metadata["ambient_temperature"]),
                peak_temperature_K=float(temperature.max()),
                peak_location_m=[
                    float(self.arrays["x_coordinates"][index[0]]),
                    float(self.arrays["y_coordinates"][index[1]]),
                ],
                source_temperatures_K=dict(
                    self.metadata.get("source_temperatures", {})
                ),
            )
        elif self.kind == "sweep":
            summary.update(
                parameter_name=self.metadata.get("parameter_name", ""),
                point_count=int(self.arrays["values"].shape[0]),
                series=list(self.metadata.get("series", ())),
                peak_temperature_K=float(self.arrays["peak_temperature"].max()),
            )
        elif self.kind == "optimize":
            trace = self.arrays["objective_trace"]
            summary.update(
                problem=self.metadata.get("problem", ""),
                strategy=self.metadata.get("strategy", ""),
                evaluations=int(self.metadata.get("evaluations", 0)),
                generation_count=int(trace.shape[0]),
                best_objective=float(self.metadata["best_objective"]),
                best_feasible=bool(self.metadata.get("best_feasible", False)),
                improvement=improvement(trace),
                best=dict(self.metadata.get("best_detail", {})),
            )
        return summary

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (``native`` is intentionally dropped)."""
        return {
            "format": RESULT_FORMAT,
            "kind": self.kind,
            "spec": self.spec.to_dict(),
            "metadata": self.metadata,
            "arrays": {
                name: _encode_array(array) for name, array in self.arrays.items()
            },
        }

    def to_json(self, path: Optional[Union[str, Path]] = None, indent: int = 2) -> str:
        """Serialize to JSON, optionally writing to ``path``."""
        text = json.dumps(self.to_dict(), indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudyResult":
        """Rebuild a result from :meth:`to_dict` data (format-checked)."""
        if data.get("format") != RESULT_FORMAT:
            raise ValueError(
                f"unsupported result format {data.get('format')!r} "
                f"(this build reads format {RESULT_FORMAT})"
            )
        return cls(
            kind=data["kind"],
            spec=StudySpec.from_dict(data["spec"]),
            arrays={
                name: _decode_array(entry)
                for name, entry in data["arrays"].items()
            },
            metadata=dict(data.get("metadata", {})),
            native=None,
        )

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
