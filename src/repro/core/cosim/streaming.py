"""Constant-memory streaming execution over scenario grids.

The batched engines (:class:`~repro.core.cosim.scenarios.ScenarioEngine`,
:class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`)
materialize the full ``(n_scenarios, n_blocks)`` (× ``n_steps``) tensor in
one shot, so a 10^6–10^7-row grid swaps or OOMs long before the CPU is the
bottleneck.  This module keeps memory flat in the grid size instead:

* :class:`ChunkPlan` cuts a (possibly lazy) scenario stream into
  fixed-size chunks, so the solver's working set scales with the chunk
  size, not with the grid;
* :class:`OnlineSteadyReduction` / :class:`OnlineTransientReduction`
  accumulate the standard per-scenario metric series (peak temperature and
  rise, powers, convergence/runaway verdicts and first-crossing times,
  settle times, energy) plus global and per-block aggregates chunk by
  chunk, without ever holding the full field tensor;
* :func:`stream_steady` / :func:`stream_transient` drive the two engines
  over a plan, optionally persisting the *full* per-scenario fields to
  ``numpy`` memmaps (real ``.npy`` files, reloadable with ``np.load``)
  when the caller does want every row on disk.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .scenarios import (
    Scenario,
    ScenarioBatchResult,
    ScenarioEngine,
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


class ChunkPlan:
    """Fixed-size chunking of a scenario stream.

    One plan drives one streamed run: :meth:`chunks` slices the scenario
    iterable into lists of at most ``chunk_size`` rows (the last chunk may
    be shorter).  Each chunk is solved on its own, so the solver's arrays
    never exceed one chunk; they are allocated in the engine's working
    dtype (see :mod:`repro.core.backend`), so a ``precision="float32"``
    policy halves the streamed working-set memory too.  Results still
    leave every chunk as host ``float64`` arrays.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        chunk_size = int(chunk_size)
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.chunk_size = chunk_size

    def chunks(self, scenarios: Iterable[Scenario]) -> Iterator[List[Scenario]]:
        """Consecutive chunks of at most :attr:`chunk_size` scenarios."""
        chunk: List[Scenario] = []
        for scenario in scenarios:
            chunk.append(scenario)
            if len(chunk) == self.chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


@dataclass(frozen=True)
class StreamProgress:
    """One progress observation of a streamed run (per completed chunk)."""

    rows_done: int
    total_rows: Optional[int]
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
        """Projected remaining seconds (``None`` without a known total)."""
        rate = self.rows_per_second
        if self.total_rows is None or rate <= 0.0:
            return None
        return max(self.total_rows - self.rows_done, 0) / rate


#: Per-chunk progress observer.
ProgressCallback = Callable[[StreamProgress], None]


def _known_total(
    scenarios: Iterable[Scenario], total: Optional[int]
) -> Optional[int]:
    if total is not None:
        total = int(total)
        if total < 1:
            raise ValueError("total must be at least 1 when given")
        return total
    try:
        return len(scenarios)  # type: ignore[arg-type]
    except TypeError:
        return None


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
        if total < 1:
            raise ValueError("field storage needs at least one scenario row")
        self.total = total
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._arrays: Dict[str, np.ndarray] = {}

    def _create(self, name: str, tail: Tuple[int, ...], dtype) -> np.ndarray:
        shape = (self.total, *tail)
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
            array = self._create(name, values.shape[1:], values.dtype)
            self._arrays[name] = array
        array[offset : offset + values.shape[0]] = values

    def write_shared(self, name: str, values: np.ndarray) -> None:
        """Store a grid-wide (non-per-scenario) array, e.g. the time grid."""
        values = np.asarray(values)
        if name not in self._arrays:
            if self.directory is None:
                self._arrays[name] = values.copy()
            else:
                array = np.lib.format.open_memmap(
                    self.directory / f"{name}.npy",
                    mode="w+",
                    dtype=values.dtype,
                    shape=values.shape,
                )
                array[...] = values
                self._arrays[name] = array

    def finalize(self) -> Dict[str, np.ndarray]:
        """Flush memmaps and return the named field arrays."""
        for array in self._arrays.values():
            if isinstance(array, np.memmap):
                array.flush()
        return dict(self._arrays)


class OnlineSteadyReduction:
    """Chunk-by-chunk accumulator of the steady batch metrics.

    Per-scenario series (1-D over the whole grid) and global/per-block
    aggregates are computed from each chunk's
    :class:`~repro.core.cosim.scenarios.ScenarioBatchResult` through the
    *same* property definitions the monolithic path reports, so streamed
    values are bit-identical to their monolithic counterparts (``max`` and
    ``sum``-per-row commute with chunking because every reduction here is
    per-row or an exact associative fold).
    """

    #: Per-scenario series accumulated, in emission order.
    SERIES = (
        "peak_temperature",
        "peak_rise",
        "total_power",
        "total_static_power",
        "converged",
        "iteration_counts",
        "ambient_temperatures",
    )

    def __init__(self) -> None:
        self._series: Dict[str, List[np.ndarray]] = {
            name: [] for name in self.SERIES
        }
        self.scenario_count = 0
        self.chunk_count = 0
        self.converged_count = 0
        self.block_names: Tuple[str, ...] = ()
        self._block_max: Optional[np.ndarray] = None

    def update(self, batch: ScenarioBatchResult) -> None:
        """Fold one chunk's batch result into the running reduction."""
        if not self.block_names:
            self.block_names = batch.block_names
        elif self.block_names != batch.block_names:
            raise ValueError("chunks must share one block ordering")
        self._series["peak_temperature"].append(batch.peak_temperature)
        self._series["peak_rise"].append(batch.peak_rise)
        self._series["total_power"].append(batch.total_power)
        self._series["total_static_power"].append(batch.total_static_power)
        self._series["converged"].append(batch.converged.copy())
        self._series["iteration_counts"].append(batch.iteration_counts.copy())
        self._series["ambient_temperatures"].append(
            batch.ambient_temperatures.copy()
        )
        self.scenario_count += len(batch)
        self.chunk_count += 1
        self.converged_count += int(batch.converged.sum())
        chunk_max = batch.block_temperatures.max(axis=0)
        if self._block_max is None:
            self._block_max = chunk_max
        else:
            self._block_max = np.maximum(self._block_max, chunk_max)

    def series(self) -> Dict[str, np.ndarray]:
        """The accumulated per-scenario series, concatenated."""
        if self.scenario_count == 0:
            raise ValueError("no chunks were reduced")
        return {
            name: np.concatenate(parts) for name, parts in self._series.items()
        }

    @property
    def block_temperature_max(self) -> np.ndarray:
        """Hottest junction temperature [K] per block over the grid."""
        if self._block_max is None:
            raise ValueError("no chunks were reduced")
        return self._block_max

    @property
    def runaway_count(self) -> int:
        """Scenarios reporting non-convergence (incl. runaway ceiling)."""
        return self.scenario_count - self.converged_count


class OnlineTransientReduction:
    """Chunk-by-chunk accumulator of the transient batch metrics.

    The per-scenario transient metrics (peak, overshoot, settle time,
    energy, runaway) each depend only on that scenario's own time history,
    which is complete within its chunk — so folding chunk results through
    the same :class:`TransientBatchResult` properties the monolithic path
    uses reproduces the monolithic series bit-for-bit.
    """

    SERIES = (
        "peak_temperature",
        "peak_rise",
        "overshoot",
        "settle_time",
        "total_energy",
        "runaway",
        "runaway_times",
        "ambient_temperatures",
    )

    def __init__(self, settle_tolerance_kelvin: float = 0.5) -> None:
        if settle_tolerance_kelvin <= 0.0:
            raise ValueError("settle_tolerance_kelvin must be positive")
        self.settle_tolerance_kelvin = float(settle_tolerance_kelvin)
        self._series: Dict[str, List[np.ndarray]] = {
            name: [] for name in self.SERIES
        }
        self.scenario_count = 0
        self.chunk_count = 0
        self.runaway_count = 0
        self.block_names: Tuple[str, ...] = ()
        self.times: Optional[np.ndarray] = None
        self._block_max: Optional[np.ndarray] = None
        self._max_overshoot = 0.0

    def update(self, batch: TransientBatchResult) -> None:
        """Fold one chunk's transient result into the running reduction."""
        if not self.block_names:
            self.block_names = batch.block_names
        elif self.block_names != batch.block_names:
            raise ValueError("chunks must share one block ordering")
        if self.times is None:
            self.times = np.asarray(batch.times).copy()
        elif not np.array_equal(self.times, batch.times):
            raise ValueError("chunks must share one time grid")
        overshoot = batch.overshoot
        self._series["peak_temperature"].append(batch.peak_temperature)
        self._series["peak_rise"].append(batch.peak_rise)
        self._series["overshoot"].append(overshoot)
        self._series["settle_time"].append(
            batch.settle_times(self.settle_tolerance_kelvin)
        )
        self._series["total_energy"].append(batch.total_energy())
        self._series["runaway"].append(batch.runaway.copy())
        self._series["runaway_times"].append(batch.runaway_times.copy())
        self._series["ambient_temperatures"].append(
            batch.ambient_temperatures.copy()
        )
        self.scenario_count += len(batch)
        self.chunk_count += 1
        self.runaway_count += int(batch.runaway.sum())
        self._max_overshoot = max(self._max_overshoot, float(overshoot.max()))
        chunk_max = batch.block_temperatures.max(axis=(0, 1))
        if self._block_max is None:
            self._block_max = chunk_max
        else:
            self._block_max = np.maximum(self._block_max, chunk_max)

    def series(self) -> Dict[str, np.ndarray]:
        """The accumulated per-scenario series, concatenated."""
        if self.scenario_count == 0:
            raise ValueError("no chunks were reduced")
        return {
            name: np.concatenate(parts) for name, parts in self._series.items()
        }

    @property
    def block_temperature_max(self) -> np.ndarray:
        """Hottest sampled temperature [K] per block over the grid."""
        if self._block_max is None:
            raise ValueError("no chunks were reduced")
        return self._block_max

    @property
    def max_overshoot(self) -> float:
        """Largest overshoot [K] above the final state over the grid."""
        return self._max_overshoot

    @property
    def step_count(self) -> int:
        """Samples of the shared time grid."""
        if self.times is None:
            raise ValueError("no chunks were reduced")
        return int(self.times.shape[0])


@dataclass(frozen=True)
class SteadyStreamResult:
    """Reduced result of a streamed steady run.

    ``series`` holds the per-scenario 1-D metric arrays (8 MB per million
    scenarios per series — the constant-memory payload); ``fields`` holds
    the full ``(scenarios, blocks)`` arrays only when field retention or a
    memmap directory was requested, ``None`` otherwise.
    """

    block_names: Tuple[str, ...]
    scenario_count: int
    chunk_count: int
    chunk_size: int
    series: Dict[str, np.ndarray]
    block_temperature_max: np.ndarray
    converged_count: int
    elapsed_seconds: float
    fields: Optional[Dict[str, np.ndarray]] = None
    memmap_path: Optional[str] = None

    @property
    def runaway_count(self) -> int:
        """Scenarios reporting non-convergence (incl. runaway ceiling)."""
        return self.scenario_count - self.converged_count

    @property
    def peak_temperature(self) -> float:
        """Hottest junction temperature [K] over the whole grid."""
        return float(self.series["peak_temperature"].max())

    @property
    def max_total_power(self) -> float:
        """Largest chip total power [W] over the whole grid."""
        return float(self.series["total_power"].max())


@dataclass(frozen=True)
class TransientStreamResult:
    """Reduced result of a streamed transient run (see
    :class:`SteadyStreamResult`; ``times`` is the shared step grid)."""

    block_names: Tuple[str, ...]
    scenario_count: int
    chunk_count: int
    chunk_size: int
    times: np.ndarray
    series: Dict[str, np.ndarray]
    block_temperature_max: np.ndarray
    runaway_count: int
    max_overshoot: float
    elapsed_seconds: float
    fields: Optional[Dict[str, np.ndarray]] = None
    memmap_path: Optional[str] = None

    @property
    def step_count(self) -> int:
        """Samples of the shared time grid."""
        return int(self.times.shape[0])

    @property
    def peak_temperature(self) -> float:
        """Hottest sampled temperature [K] over the whole grid."""
        return float(self.series["peak_temperature"].max())


def _prepare_sink(
    keep_fields: bool,
    memmap_path: Optional[Union[str, Path]],
    total: Optional[int],
) -> Optional[_FieldSink]:
    if not keep_fields and memmap_path is None:
        return None
    if total is None:
        raise ValueError(
            "full-field retention needs the grid size up front: pass a sized "
            "scenario sequence or total="
        )
    return _FieldSink(total, memmap_path)


def stream_steady(
    engine: ScenarioEngine,
    scenarios: Iterable[Scenario],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    total: Optional[int] = None,
    keep_fields: bool = False,
    memmap_path: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    max_iterations: int = 50,
    tolerance: float = 0.01,
    damping: float = 1.0,
    max_temperature: float = 500.0,
) -> SteadyStreamResult:
    """Solve a scenario stream chunk by chunk with online reduction.

    Parameters
    ----------
    engine:
        The steady :class:`~repro.core.cosim.scenarios.ScenarioEngine`.
    scenarios:
        Any scenario iterable — a list, or a lazy generator such as
        :func:`~repro.core.cosim.scenarios.scenario_grid_stream` (the grid
        then never exists in memory at once).
    chunk_size:
        Rows solved per chunk; working memory scales with this, not with
        the grid.
    total:
        Grid size when ``scenarios`` is an unsized iterator (required only
        for full-field retention and progress ETAs).
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
    plan = ChunkPlan(chunk_size)
    total = _known_total(scenarios, total)
    sink = _prepare_sink(keep_fields, memmap_path, total)
    reduction = OnlineSteadyReduction()
    started = time.perf_counter()
    offset = 0
    for chunk_index, chunk in enumerate(plan.chunks(scenarios)):
        batch = engine.solve(
            chunk,
            max_iterations=max_iterations,
            tolerance=tolerance,
            damping=damping,
            max_temperature=max_temperature,
        )
        reduction.update(batch)
        if sink is not None:
            sink.write("block_temperatures", offset, batch.block_temperatures)
            sink.write("dynamic_power", offset, batch.dynamic_power)
            sink.write("static_power", offset, batch.static_power)
            sink.write("ambient_temperatures", offset, batch.ambient_temperatures)
            sink.write("converged", offset, batch.converged)
            sink.write("iteration_counts", offset, batch.iteration_counts)
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
    if reduction.scenario_count == 0:
        raise ValueError("at least one scenario is required")
    return SteadyStreamResult(
        block_names=reduction.block_names,
        scenario_count=reduction.scenario_count,
        chunk_count=reduction.chunk_count,
        chunk_size=plan.chunk_size,
        series=reduction.series(),
        block_temperature_max=reduction.block_temperature_max,
        converged_count=reduction.converged_count,
        elapsed_seconds=time.perf_counter() - started,
        fields=sink.finalize() if sink is not None else None,
        memmap_path=str(memmap_path) if memmap_path is not None else None,
    )


def stream_transient(
    engine: TransientScenarioEngine,
    scenarios: Iterable[Scenario],
    duration: float,
    time_step: float,
    activity: Optional[ActivityGrid] = None,
    chunk_size: int = DEFAULT_TRANSIENT_CHUNK_SIZE,
    total: Optional[int] = None,
    keep_fields: bool = False,
    memmap_path: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    settle_tolerance_kelvin: float = 0.5,
    **simulate_kwargs,
) -> TransientStreamResult:
    """Integrate a scenario stream chunk by chunk with online reduction.

    The transient counterpart of :func:`stream_steady`: each chunk runs
    :meth:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine.simulate`
    over the shared time grid, per-scenario activity grids are sliced by
    the chunk's row offset (so a chunked run sees exactly the monolithic
    workload; this needs the grid size — pass a sized sequence or
    ``total=`` when the activity varies per scenario), and the standard
    transient metrics are reduced online.  ``settle_tolerance_kelvin`` is
    the reporting band of the ``settle_time`` series, as in
    :func:`repro.analysis.sweep.transient_batch_series`.
    """
    plan = ChunkPlan(chunk_size)
    total = _known_total(scenarios, total)
    if total is None and activity is not None:
        values = np.asarray(activity.values(0.0), dtype=float)
        if values.ndim == 2 and values.shape[0] > 1:
            raise ValueError(
                "per-scenario activity grids need the grid size up front: "
                "pass a sized scenario sequence or total="
            )
    sink = _prepare_sink(keep_fields, memmap_path, total)
    reduction = OnlineTransientReduction(settle_tolerance_kelvin)
    started = time.perf_counter()
    offset = 0
    for chunk_index, chunk in enumerate(plan.chunks(scenarios)):
        batch = engine.simulate(
            chunk,
            duration,
            time_step,
            activity=activity,
            # Without a known grid size the activity is scenario-uniform
            # (guarded above), so every chunk may start at row 0.
            scenario_offset=offset if total is not None else 0,
            total_scenarios=total,
            **simulate_kwargs,
        )
        reduction.update(batch)
        if sink is not None:
            sink.write_shared("times", batch.times)
            sink.write("block_temperatures", offset, batch.block_temperatures)
            sink.write("block_powers", offset, batch.block_powers)
            sink.write("ambient_temperatures", offset, batch.ambient_temperatures)
            sink.write("runaway", offset, batch.runaway)
            sink.write("runaway_times", offset, batch.runaway_times)
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
    if reduction.scenario_count == 0:
        raise ValueError("at least one scenario is required")
    assert reduction.times is not None
    return TransientStreamResult(
        block_names=reduction.block_names,
        scenario_count=reduction.scenario_count,
        chunk_count=reduction.chunk_count,
        chunk_size=plan.chunk_size,
        times=reduction.times,
        series=reduction.series(),
        block_temperature_max=reduction.block_temperature_max,
        runaway_count=reduction.runaway_count,
        max_overshoot=reduction.max_overshoot,
        elapsed_seconds=time.perf_counter() - started,
        fields=sink.finalize() if sink is not None else None,
        memmap_path=str(memmap_path) if memmap_path is not None else None,
    )


def format_progress(update: StreamProgress) -> str:
    """One-line human-readable progress report (the CLI's ``--progress``)."""
    if update.total_rows:
        head = f"chunk {update.chunk_index + 1}: "
        head += f"{update.rows_done}/{update.total_rows} scenarios"
    else:
        head = f"chunk {update.chunk_index + 1}: {update.rows_done} scenarios"
    rate = update.rows_per_second
    parts = [head, f"{rate:,.0f} rows/s" if rate else "-- rows/s"]
    eta = update.eta_seconds
    if eta is not None:
        parts.append(f"ETA {eta:.1f}s")
    return " | ".join(parts)
