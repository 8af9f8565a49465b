"""Parameter sweeps.

Benchmarks and examples repeatedly evaluate a model over a one- or
two-dimensional grid of parameters (stack depth, width ratio, temperature,
technology node ...).  :class:`SweepResult` packages that pattern: it
records the swept values together with the evaluated results and exposes
them as aligned arrays for reporting.

Electro-thermal sweeps are thin wrappers over scenario batches: declare
the swept operating points as :class:`~repro.core.cosim.scenarios.Scenario`
objects and :func:`scenario_sweep` solves them all in one batched
fixed-point call instead of looping whole co-simulations per value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.cosim.scenarios import Scenario, ScenarioBatchResult, ScenarioEngine
from ..core.cosim.transient_scenarios import (
    ActivityGrid,
    TransientBatchResult,
    TransientScenarioEngine,
)
from .grids import SurfaceGrid

#: Series of a batch's ``series()`` that echo a row's inputs or solver
#: bookkeeping rather than measure it; sweep reports leave them out.
_ROW_CONTEXT = frozenset({"iteration_counts", "ambient_temperatures", "runaway_times"})


def sweep_series(series: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The reported sweep subset of a batch's ``series()``, as float arrays.

    One selection shared by the monolithic and streamed sweep studies of
    the :mod:`repro.api` facade and the views below.
    """
    return {
        name: np.asarray(values, dtype=float)
        for name, values in series.items()
        if name not in _ROW_CONTEXT
    }


def steady_batch_series(batch: ScenarioBatchResult) -> Dict[str, List[float]]:
    """The standard per-scenario sweep series of a steady batch (a view of
    :meth:`~repro.core.cosim.scenarios.ScenarioBatchResult.series`)."""
    return {
        name: values.tolist() for name, values in sweep_series(batch.series()).items()
    }


def transient_batch_series(
    batch: TransientBatchResult, settle_tolerance_kelvin: float = 0.5
) -> Dict[str, List[float]]:
    """The standard per-scenario sweep series of a transient batch (a view of
    :meth:`~repro.core.cosim.transient_scenarios.TransientBatchResult.series`)."""
    series = batch.series(settle_tolerance_kelvin)
    return {name: values.tolist() for name, values in sweep_series(series).items()}


@dataclass
class SweepResult:
    """Result of a one-dimensional parameter sweep.

    Attributes
    ----------
    parameter_name:
        Name of the swept parameter.
    values:
        The swept parameter values, in sweep order.
    results:
        Per-value results keyed by series label.
    """

    parameter_name: str
    values: List[float] = field(default_factory=list)
    results: Dict[str, List[float]] = field(default_factory=dict)

    def series(self, label: str) -> np.ndarray:
        """One result series as an array."""
        if label not in self.results:
            known = ", ".join(sorted(self.results))
            raise KeyError(f"unknown series {label!r}; known series: {known}")
        return np.asarray(self.results[label])

    def labels(self) -> Tuple[str, ...]:
        """All series labels."""
        return tuple(self.results)

    def as_rows(self) -> List[Tuple[float, ...]]:
        """Rows of (parameter, series1, series2, ...) for tabular output."""
        labels = list(self.results)
        rows = []
        for index, value in enumerate(self.values):
            rows.append((value, *(self.results[label][index] for label in labels)))
        return rows


def sweep(
    parameter_name: str,
    values: Iterable[float],
    evaluators: Dict[str, Callable[[float], float]],
) -> SweepResult:
    """Evaluate several labelled functions over the same parameter values.

    Parameters
    ----------
    parameter_name:
        Name of the swept parameter (reporting only).
    values:
        Parameter values to sweep.
    evaluators:
        Mapping from series label to a callable of one parameter value.
    """
    if not evaluators:
        raise ValueError("at least one evaluator is required")
    result = SweepResult(parameter_name=parameter_name)
    result.results = {label: [] for label in evaluators}
    for value in values:
        result.values.append(float(value))
        for label, evaluator in evaluators.items():
            result.results[label].append(float(evaluator(value)))
    if not result.values:
        raise ValueError("at least one parameter value is required")
    return result


def grid_sweep(
    x_values: Sequence[float],
    y_values: Sequence[float],
    evaluator: Callable[..., float],
    batched: bool = False,
) -> np.ndarray:
    """Evaluate a function over a 2-D grid, returning a (len(x), len(y)) array.

    With ``batched=True`` the evaluator is called once with the full
    ``(len(x) * len(y), 2)`` array of parameter pairs and must return one
    value per pair — the convention of the vectorized thermal kernel, which
    turns whole-floorplan sweeps into a single broadcast.
    """
    if not len(x_values) or not len(y_values):
        raise ValueError("both parameter axes need at least one value")
    if batched:
        return SurfaceGrid(
            x_coordinates=np.asarray(x_values, dtype=float),
            y_coordinates=np.asarray(y_values, dtype=float),
        ).evaluate_batched(evaluator)
    grid = np.empty((len(x_values), len(y_values)))
    for i, x in enumerate(x_values):
        for j, y in enumerate(y_values):
            grid[i, j] = evaluator(float(x), float(y))
    return grid


def scenario_sweep(
    engine: ScenarioEngine,
    parameter_name: str,
    values: Sequence[float],
    scenarios: Sequence[Scenario],
    extra_series: Optional[
        Dict[str, Callable[[ScenarioBatchResult, int], float]]
    ] = None,
    thermal_backend: Optional[str] = None,
    backend_options: Optional[Dict[str, int]] = None,
    **solve_kwargs,
) -> SweepResult:
    """One batched fixed point packaged as a :class:`SweepResult`.

    The electro-thermal counterpart of :func:`sweep`: instead of calling a
    scalar evaluator per value, the swept operating points are declared as
    scenarios and solved concurrently by the
    :class:`~repro.core.cosim.scenarios.ScenarioEngine`.

    Parameters
    ----------
    engine:
        Scenario engine over the swept floorplan.
    parameter_name:
        Name of the swept parameter (reporting only).
    values:
        The swept parameter value of each scenario (same order/length).
    scenarios:
        One scenario per swept value.
    extra_series:
        Optional extra series, each computed as ``fn(batch, index)``.
    thermal_backend, backend_options:
        When set, the sweep runs through
        :meth:`~repro.core.cosim.scenarios.ScenarioEngine.with_backend`
        instead of ``engine``'s own backend — one keyword turns any sweep
        into a backend-comparison run.
    solve_kwargs:
        Forwarded to :meth:`~repro.core.cosim.scenarios.ScenarioEngine.solve`.
    """
    return _batched_sweep(
        engine,
        parameter_name,
        values,
        scenarios,
        lambda engine, rows: engine.solve(rows, **solve_kwargs),
        steady_batch_series,
        extra_series,
        thermal_backend,
        backend_options,
    )


def transient_scenario_sweep(
    engine: TransientScenarioEngine,
    parameter_name: str,
    values: Sequence[float],
    scenarios: Sequence[Scenario],
    duration: float,
    time_step: float,
    activity: Optional[ActivityGrid] = None,
    settle_tolerance_kelvin: float = 0.5,
    extra_series: Optional[
        Dict[str, Callable[[TransientBatchResult, int], float]]
    ] = None,
    thermal_backend: Optional[str] = None,
    backend_options: Optional[Dict[str, int]] = None,
    **simulate_kwargs,
) -> SweepResult:
    """One batched transient integration packaged as a :class:`SweepResult`.

    The time-domain counterpart of :func:`scenario_sweep`: the swept
    operating points are integrated concurrently by the
    :class:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine`
    and summarized per scenario with the standard transient metrics —
    peak temperature, overshoot above the final state, settle time (within
    ``settle_tolerance_kelvin`` of the final temperatures), dissipated
    energy and the thermal-runaway verdict.

    Parameters
    ----------
    engine:
        Transient scenario engine over the swept floorplan.
    parameter_name:
        Name of the swept parameter (reporting only).
    values:
        The swept parameter value of each scenario (same order/length).
    scenarios:
        One scenario per swept value.
    duration, time_step, activity:
        Forwarded to :meth:`TransientScenarioEngine.simulate`.
    settle_tolerance_kelvin:
        Band [K] around the final temperatures defining the settle time.
    extra_series:
        Optional extra series, each computed as ``fn(batch, index)``.
    thermal_backend, backend_options:
        When set, the sweep runs through
        :meth:`~repro.core.cosim.transient_scenarios.TransientScenarioEngine.with_backend`
        instead of ``engine``'s own backend.
    simulate_kwargs:
        Further keyword arguments for
        :meth:`TransientScenarioEngine.simulate`.
    """
    return _batched_sweep(
        engine,
        parameter_name,
        values,
        scenarios,
        lambda engine, rows: engine.simulate(
            rows, duration, time_step, activity=activity, **simulate_kwargs
        ),
        lambda batch: transient_batch_series(batch, settle_tolerance_kelvin),
        extra_series,
        thermal_backend,
        backend_options,
    )


def _batched_sweep(
    engine, parameter_name, values, scenarios, solve, series, extra, backend, options
) -> SweepResult:
    """The steps both scenario sweeps share: align values with scenarios,
    swap in the ``backend``, ``solve(engine, rows)`` once, then report
    ``series(batch)`` plus each ``extra`` series as ``fn(batch, index)``."""
    if len(values) != len(scenarios):
        raise ValueError("values and scenarios must align one-to-one")
    if backend is not None:
        engine = engine.with_backend(backend, options)
    elif options:
        raise ValueError("backend_options require thermal_backend")
    swept = [float(value) for value in values]
    batch = solve(engine, scenarios)
    results = series(batch)
    for label, evaluator in (extra or {}).items():
        results[label] = [float(evaluator(batch, row)) for row in range(len(batch))]
    return SweepResult(parameter_name, swept, results)


def logspace(start: float, stop: float, count: int) -> np.ndarray:
    """Logarithmically spaced values between two positive endpoints."""
    if start <= 0.0 or stop <= 0.0:
        raise ValueError("log spacing requires positive endpoints")
    if count < 2:
        raise ValueError("count must be at least 2")
    return np.logspace(np.log10(start), np.log10(stop), count)
