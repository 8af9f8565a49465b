"""Constant-memory streaming execution over scenario grids.

The batched engines (:class:`~repro.core.cosim.scenarios.ScenarioEngine`,
:class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`)
materialize the full ``(n_scenarios, n_blocks)`` (× ``n_steps``) tensor in
one shot, so a 10^6–10^7-row grid swaps or OOMs long before the CPU is the
bottleneck.  This module keeps memory flat in the grid size instead:

* :class:`ChunkPlan` cuts one sized, columnar scenario source (a
  :class:`~repro.core.cosim.scenarios.ScenarioGrid` or
  :class:`~repro.core.cosim.scenarios.ScenarioColumns`) into row ranges,
  so the solver's working set scales with the chunk size, not with the
  grid;
* one online reduction (:class:`OnlineSteadyReduction` /
  :class:`OnlineTransientReduction` only pick the batch kind) folds each
  chunk's ``series()`` — the batch classes' one definition of the
  per-scenario metric series — plus the per-block maximum temperature,
  without ever holding the full field tensor;
* :func:`stream_steady` / :func:`stream_transient` supply the per-chunk
  solve to one chunk loop, which owns the plan, the row offset, progress
  and the optional persistence of the *full* per-scenario fields (each
  batch kind's ``FIELDS``) in RAM or as ``numpy`` memmaps (real ``.npy``
  files, reloadable with ``np.load``); both return a :class:`StreamResult`.

Chunked execution is **bit-identical** to the monolithic path by
construction: both run the one implementation of each update loop
(:func:`~repro.core.cosim.scenarios.solve_fixed_point`,
:func:`~repro.core.cosim.transient_scenarios.integrate_relaxation`), and
every scenario row's trajectory is independent of its neighbors, so the
chunk boundaries cannot change a single float.  ``tests/test_streaming.py``
pins exact equality across chunk sizes.
"""

from __future__ import annotations

import time
from collections import abc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .scenarios import (
    Scenario,
    ScenarioBatchResult,
    ScenarioColumns,
    ScenarioEngine,
    ScenarioGrid,
    validate_fixed_point_options,
)
from .transient_scenarios import (
    ActivityGrid,
    TransientBatchResult,
    TransientScenarioEngine,
)

#: Default scenario rows per chunk for steady fixed points (a few MB of
#: per-iteration arrays at typical block counts).
DEFAULT_CHUNK_SIZE = 65536

#: Default rows per chunk for transient integrations, where each row
#: carries a full time history (``steps x blocks``) through the chunk.
DEFAULT_TRANSIENT_CHUNK_SIZE = 2048

#: A solved chunk of either engine.
_Batch = Union[ScenarioBatchResult, TransientBatchResult]

#: A sized, columnar scenario source; chunks are its row ranges.
_Source = Union[ScenarioGrid, ScenarioColumns]


def _columnar(scenarios: Union[_Source, Sequence[Scenario]]) -> _Source:
    """The stream's one source: a grid or columns as given, a sequence of
    scenario objects converted once; an unsized iterator is refused."""
    if isinstance(scenarios, (ScenarioGrid, ScenarioColumns)):
        return scenarios
    if not isinstance(scenarios, abc.Sequence):
        raise TypeError(
            "a streamed run needs a ScenarioGrid, ScenarioColumns or a "
            f"scenario sequence, not {type(scenarios).__name__}"
        )
    return ScenarioColumns.from_scenarios(scenarios)


class ChunkPlan:
    """Fixed-size chunking of a columnar scenario source.

    One plan drives one streamed run: :meth:`chunks` slices a
    :class:`~repro.core.cosim.scenarios.ScenarioGrid` or
    :class:`~repro.core.cosim.scenarios.ScenarioColumns` into consecutive
    row ranges of at most ``chunk_size`` rows (the last chunk may be
    shorter), each one columns again.  Each chunk is solved on its own, so
    the solver's arrays never exceed one chunk; they are allocated in the
    engine's working dtype (see :mod:`repro.core.backend`), so a
    ``precision="float32"`` policy halves the streamed working-set memory
    too.  Results still leave every chunk as host ``float64`` arrays.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        chunk_size = int(chunk_size)
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.chunk_size = chunk_size

    def chunks(self, scenarios: _Source) -> Iterator[ScenarioColumns]:
        """Consecutive chunks of at most :attr:`chunk_size` rows."""
        for start in range(0, len(scenarios), self.chunk_size):
            yield scenarios[start : start + self.chunk_size]


@dataclass(frozen=True)
class StreamProgress:
    """One progress observation of a streamed run (per completed chunk)."""

    rows_done: int
    total_rows: int
    chunk_index: int
    elapsed_seconds: float

    @property
    def rows_per_second(self) -> float:
        """Throughput so far (0.0 until time has measurably passed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.rows_done / self.elapsed_seconds

    @property
    def eta_seconds(self) -> Optional[float]:
        """Projected remaining seconds (``None`` until a rate is known)."""
        rate = self.rows_per_second
        if rate <= 0.0:
            return None
        return max(self.total_rows - self.rows_done, 0) / rate


#: Per-chunk progress observer.
ProgressCallback = Callable[[StreamProgress], None]


class _FieldSink:
    """Full per-scenario field storage: in-memory arrays or ``.npy`` memmaps.

    Arrays are created on the first chunk (when trailing shapes are known)
    sized for the full grid, filled chunk by chunk, and handed out once at
    :meth:`finalize`.  With a directory path, each named field becomes a
    ``<name>.npy`` memmap on disk — a real array file, reloadable with
    ``np.load(..., mmap_mode="r")`` — so peak RSS stays bounded by the
    chunk, not the grid.
    """

    def __init__(self, total: int, directory: Optional[Union[str, Path]]) -> None:
        self.total = total
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._arrays: Dict[str, np.ndarray] = {}

    def _create(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        if self.directory is None:
            return np.empty(shape, dtype=dtype)
        return np.lib.format.open_memmap(
            self.directory / f"{name}.npy", mode="w+", dtype=dtype, shape=shape
        )

    def write(self, name: str, offset: int, values: np.ndarray) -> None:
        """Store one chunk's rows of the named field at ``offset``."""
        values = np.asarray(values)
        array = self._arrays.get(name)
        if array is None:
            array = self._create(name, (self.total, *values.shape[1:]), values.dtype)
            self._arrays[name] = array
        array[offset : offset + values.shape[0]] = values

    def write_shared(self, name: str, values: np.ndarray) -> None:
        """Store a grid-wide (non-per-scenario) array, e.g. the time grid."""
        if name not in self._arrays:
            values = np.asarray(values)
            array = self._arrays[name] = self._create(name, values.shape, values.dtype)
            array[...] = values

    def finalize(self) -> Dict[str, np.ndarray]:
        """Flush memmaps and return the named field arrays."""
        for array in self._arrays.values():
            if isinstance(array, np.memmap):
                array.flush()
        return dict(self._arrays)


class _OnlineReduction:
    """Chunk-by-chunk fold of a batch kind's per-scenario series.

    Each chunk's batch result contributes its own ``series()`` — the *same*
    definition the monolithic path reports — plus its per-block maximum
    temperature, so streamed values are bit-identical to their monolithic
    counterparts (every series is per-row and ``max`` is an exact
    associative fold, so chunk boundaries cannot change a single float).
    """

    def __init__(self) -> None:
        self._series: Dict[str, List[np.ndarray]] = {}
        self.scenario_count = 0
        self.chunk_count = 0
        self.block_names: Tuple[str, ...] = ()
        #: Shared step grid of transient chunks (``None`` for steady).
        self.times: Optional[np.ndarray] = None
        self._block_max: Optional[np.ndarray] = None

    def _batch_series(self, batch: _Batch) -> Dict[str, np.ndarray]:
        return batch.series()

    def update(self, batch: _Batch) -> None:
        """Fold one chunk's batch result into the running reduction."""
        if not self.block_names:
            self.block_names = batch.block_names
        elif self.block_names != batch.block_names:
            raise ValueError("chunks must share one block ordering")
        for name, values in self._batch_series(batch).items():
            self._series.setdefault(name, []).append(values)
        self.scenario_count += len(batch)
        self.chunk_count += 1
        temperatures = batch.block_temperatures
        chunk_max = temperatures.reshape(-1, temperatures.shape[-1]).max(axis=0)
        if self._block_max is None:
            self._block_max = chunk_max
        else:
            self._block_max = np.maximum(self._block_max, chunk_max)

    def series(self) -> Dict[str, np.ndarray]:
        """The accumulated per-scenario series, concatenated."""
        if self.scenario_count == 0:
            raise ValueError("no chunks were reduced")
        return {name: np.concatenate(parts) for name, parts in self._series.items()}

    @property
    def block_temperature_max(self) -> np.ndarray:
        """Hottest (sampled) junction temperature [K] per block over the grid."""
        if self._block_max is None:
            raise ValueError("no chunks were reduced")
        return self._block_max


class OnlineSteadyReduction(_OnlineReduction):
    """Online reduction of steady chunks: folds
    :meth:`~repro.core.cosim.scenarios.ScenarioBatchResult.series`."""


class OnlineTransientReduction(_OnlineReduction):
    """Online reduction of transient chunks: folds
    :meth:`~repro.core.cosim.transient_scenarios.TransientBatchResult.series`
    at ``settle_tolerance_kelvin`` and checks every chunk shares one time
    grid (kept as :attr:`times`)."""

    def __init__(self, settle_tolerance_kelvin: float = 0.5) -> None:
        if settle_tolerance_kelvin <= 0.0:
            raise ValueError("settle_tolerance_kelvin must be positive")
        super().__init__()
        self.settle_tolerance_kelvin = float(settle_tolerance_kelvin)

    def _batch_series(self, batch: TransientBatchResult) -> Dict[str, np.ndarray]:
        if self.times is None:
            self.times = np.asarray(batch.times).copy()
        elif not np.array_equal(self.times, batch.times):
            raise ValueError("chunks must share one time grid")
        return batch.series(self.settle_tolerance_kelvin)


@dataclass(frozen=True)
class StreamResult:
    """Reduced result of a streamed steady or transient run.

    ``series`` holds the per-scenario 1-D metric arrays of the batch kind's
    ``series()`` (8 MB per million scenarios per series — the
    constant-memory payload); ``times`` is the shared step grid of a
    transient run (``None`` for steady); ``fields`` holds the full
    per-scenario arrays only when field retention or a memmap directory
    was requested, ``None`` otherwise.  The counts below derive from the
    series.
    """

    block_names: Tuple[str, ...]
    scenario_count: int
    chunk_count: int
    chunk_size: int
    series: Dict[str, np.ndarray]
    block_temperature_max: np.ndarray
    elapsed_seconds: float
    times: Optional[np.ndarray] = None
    fields: Optional[Dict[str, np.ndarray]] = None
    memmap_path: Optional[str] = None

    @property
    def converged_count(self) -> int:
        """Converged scenarios of a steady run."""
        return int(np.count_nonzero(self.series["converged"]))

    @property
    def runaway_count(self) -> int:
        """Transient runaway flags, or steady rows that did not converge
        (incl. the runaway ceiling)."""
        if "runaway" in self.series:
            return int(np.count_nonzero(self.series["runaway"]))
        return self.scenario_count - self.converged_count

    @property
    def max_overshoot(self) -> float:
        """Largest overshoot [K] above the final state over a transient grid."""
        return float(self.series["overshoot"].max())

    @property
    def peak_temperature(self) -> float:
        """Hottest (sampled) junction temperature [K] over the whole grid."""
        return float(self.series["peak_temperature"].max())


def _stream(
    source: _Source,
    solve: Callable[[ScenarioColumns, int], _Batch],
    reduction: _OnlineReduction,
    chunk_size: int,
    keep_fields: bool,
    memmap_path: Optional[Union[str, Path]],
    progress: Optional[ProgressCallback],
) -> StreamResult:
    """The one chunk loop behind :func:`stream_steady` and
    :func:`stream_transient`: ``solve(chunk, offset)`` is the only per-kind
    step; the plan, field sink, row offset and progress live here."""
    plan = ChunkPlan(chunk_size)
    total = len(source)
    if total == 0:
        raise ValueError("at least one scenario is required")
    sink = None
    if keep_fields or memmap_path is not None:
        sink = _FieldSink(total, memmap_path)
    started = time.perf_counter()
    offset = 0
    for chunk_index, chunk in enumerate(plan.chunks(source)):
        batch = solve(chunk, offset)
        reduction.update(batch)
        if sink is not None:
            for name in batch.FIELDS:
                if name == "times":  # the one grid-wide (not per-row) field
                    sink.write_shared(name, batch.times)
                else:
                    sink.write(name, offset, getattr(batch, name))
        offset += len(batch)
        if progress is not None:
            progress(
                StreamProgress(
                    rows_done=offset,
                    total_rows=total,
                    chunk_index=chunk_index,
                    elapsed_seconds=time.perf_counter() - started,
                )
            )
    return StreamResult(
        block_names=reduction.block_names,
        scenario_count=reduction.scenario_count,
        chunk_count=reduction.chunk_count,
        chunk_size=plan.chunk_size,
        series=reduction.series(),
        block_temperature_max=reduction.block_temperature_max,
        elapsed_seconds=time.perf_counter() - started,
        times=reduction.times,
        fields=sink.finalize() if sink is not None else None,
        memmap_path=str(memmap_path) if memmap_path is not None else None,
    )


def stream_steady(
    engine: ScenarioEngine,
    scenarios: Union[_Source, Sequence[Scenario]],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    keep_fields: bool = False,
    memmap_path: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    max_iterations: int = 50,
    tolerance: float = 0.01,
    damping: float = 1.0,
    max_temperature: float = 500.0,
) -> StreamResult:
    """Solve a scenario stream chunk by chunk with online reduction.

    Parameters
    ----------
    engine:
        The steady :class:`~repro.core.cosim.scenarios.ScenarioEngine`.
    scenarios:
        A :class:`~repro.core.cosim.scenarios.ScenarioGrid` (sliced into
        column chunks by index arithmetic, so the grid never exists in
        memory at once and no scenario object is built),
        :class:`~repro.core.cosim.scenarios.ScenarioColumns`, or a sequence
        of scenarios (converted to columns once).  An unsized iterator
        raises ``TypeError``.
    chunk_size:
        Rows solved per chunk; working memory scales with this, not with
        the grid.
    keep_fields, memmap_path:
        Retain the full per-scenario field arrays — in memory
        (``keep_fields=True``) or as ``<name>.npy`` memmaps under the given
        directory (which implies retention).  The reduced series are always
        computed.
    progress:
        Per-chunk :class:`StreamProgress` observer.
    max_iterations, tolerance, damping, max_temperature:
        Fixed-point options, exactly as
        :meth:`~repro.core.cosim.scenarios.ScenarioEngine.solve`.
    """
    validate_fixed_point_options(max_iterations, tolerance, damping, max_temperature)
    source = _columnar(scenarios)
    reduction = OnlineSteadyReduction()

    def solve(chunk: ScenarioColumns, offset: int) -> ScenarioBatchResult:
        return engine.solve(
            chunk,
            max_iterations=max_iterations,
            tolerance=tolerance,
            damping=damping,
            max_temperature=max_temperature,
        )

    return _stream(
        source, solve, reduction, chunk_size, keep_fields, memmap_path, progress
    )


def stream_transient(
    engine: TransientScenarioEngine,
    scenarios: Union[_Source, Sequence[Scenario]],
    duration: float,
    time_step: float,
    activity: Optional[ActivityGrid] = None,
    chunk_size: int = DEFAULT_TRANSIENT_CHUNK_SIZE,
    keep_fields: bool = False,
    memmap_path: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    settle_tolerance_kelvin: float = 0.5,
    **simulate_kwargs,
) -> StreamResult:
    """Integrate a scenario stream chunk by chunk with online reduction.

    The transient counterpart of :func:`stream_steady` (same sources):
    each chunk runs
    :meth:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine.simulate`
    over the shared time grid with the workload cut to the chunk's own
    rows (:meth:`~repro.core.cosim.transient_scenarios.ActivityGrid.rows`,
    so per-step activity work is proportional to the chunk, and a chunked
    run sees exactly the monolithic workload), and the standard transient
    metrics are reduced online.  The workload must broadcast to
    ``(rows, blocks)`` of the whole source.  ``settle_tolerance_kelvin`` is
    the reporting band of the ``settle_time`` series, as in
    :meth:`~repro.core.cosim.transient_scenarios.TransientBatchResult.series`.
    """
    source = _columnar(scenarios)
    reduction = OnlineTransientReduction(settle_tolerance_kelvin)
    if activity is not None:
        np.broadcast_to(
            np.asarray(activity.values(0.0), dtype=float),
            (len(source), len(engine.block_names)),
        )

    def solve(chunk: ScenarioColumns, offset: int) -> TransientBatchResult:
        rows = None if activity is None else activity.rows(offset, offset + len(chunk))
        return engine.simulate(
            chunk, duration, time_step, activity=rows, **simulate_kwargs
        )

    return _stream(
        source, solve, reduction, chunk_size, keep_fields, memmap_path, progress
    )


def format_progress(update: StreamProgress) -> str:
    """One-line human-readable progress report (the CLI's ``--progress``)."""
    head = f"chunk {update.chunk_index + 1}: "
    head += f"{update.rows_done}/{update.total_rows} scenarios"
    rate = update.rows_per_second
    parts = [head, f"{rate:,.0f} rows/s" if rate else "-- rows/s"]
    eta = update.eta_seconds
    if eta is not None:
        parts.append(f"ETA {eta:.1f}s")
    return " | ".join(parts)
