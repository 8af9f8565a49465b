"""In-memory span tracing of the program's layers, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`instrument` wraps
each layer's public entry points at the names their callers resolve (a
class attribute, or the module global a caller looks up at call time), so
every call records one span: a name, a start and an end on the shared
monotonic clock, its parent span on the same thread, and an optional
count (rows evaluated, point x source pairs, ...).  Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of a run.

:func:`summarize` tabulates calls, inclusive and self time and counts
per span name.  A span's *self* time is its duration minus the part its
children cover, a layer's self time is the sum over its spans, and
whatever the benchmark's own root spans (``bench.*``) contain that no
layer span covers is the ``unattributed`` remainder.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: (id, parent id or 0, name, thread id, start ns, end ns, count).
Span = tuple

#: Layers, by span-name prefix.  ``bench`` spans are the benchmark's own
#: operation roots; their self time is the unattributed remainder.
LAYERS = ("api", "cosim", "leakage", "thermal", "optimize", "serve")


class Tracer:
    """Collects spans from any number of threads of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span; close it with :meth:`end`.  Returns its handle."""
        stack = self._stack()
        span_id = next(self._ids)
        handle = [span_id, stack[-1] if stack else 0, name, threading.get_ident(),
                  time.perf_counter_ns(), 0, 0]
        stack.append(span_id)
        return handle

    def end(self, handle: list, count: int = 0) -> None:
        """Close the span ``handle`` with an optional work count."""
        handle[5] = time.perf_counter_ns()
        handle[6] = count
        self._stack().pop()
        self.spans.append(tuple(handle))

    def wrap(
        self,
        function: Callable,
        name: str,
        count: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``function`` recording one span per call.

        ``count(result, *args, **kwargs)`` gives the span's work count.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            handle = self.begin(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                self.end(handle, count(result, *args, **kwargs) if count else 0)

        return traced

    def wrap_generator(self, function: Callable, name: str) -> Callable:
        """A generator function whose every ``next()`` records one span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                handle = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(handle)
                yield item

        return traced

    def dump(self, path) -> None:
        """Write every span recorded so far as JSON lines of lists."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path) -> List[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path) as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def _physics_rows(result, physics, temperatures, *args, **kwargs) -> int:
    return int(temperatures.shape[0])


def _kernel_pairs(result, points, sources, *args, **kwargs) -> int:
    return int(len(points)) * int(len(sources))


def _candidates(result, *args, **kwargs) -> int:
    return int(result.evaluations) if result is not None else 0


class _TimedJson:
    """Stand-in for the ``json`` module inside one program module.

    Only ``dumps`` and ``loads`` are traced; every other attribute is the
    real module's.
    """

    def __init__(self, tracer: Tracer, module, dumps_name: str, loads_name: str):
        self._module = module
        self.dumps = tracer.wrap(module.dumps, dumps_name)
        self.loads = tracer.wrap(module.loads, loads_name)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer entry point of the imported program.

    Patches class attributes (seen by every caller) and the module globals
    through which callers reach free functions.  Call it once per process,
    before the first traced operation; there is no undo, because traced
    and untraced phases run in separate processes or after one another.
    """
    import json as json_module

    from repro.api import results as api_results
    from repro.api import specs as api_specs
    from repro.api import study as api_study
    from repro.core.cosim import scenarios as cosim_scenarios
    from repro.core.cosim import streaming as cosim_streaming
    from repro.core.cosim import transient_scenarios as cosim_transient
    from repro.core.thermal import images as thermal_images
    from repro.core.thermal import operator as thermal_operator
    from repro.core.thermal import superposition as thermal_superposition

    def method(cls, attribute: str, name: str, count=None) -> None:
        setattr(cls, attribute, tracer.wrap(getattr(cls, attribute), name, count))

    def classmethod_(cls, attribute: str, name: str) -> None:
        original = cls.__dict__[attribute].__func__
        setattr(cls, attribute, classmethod(tracer.wrap(original, name)))

    def function(module, attribute: str, name: str, count=None) -> None:
        setattr(module, attribute, tracer.wrap(getattr(module, attribute), name, count))

    # api: spec parse/validate, hashing, compile, grid generation, packing
    # and encoding.
    StudySpec = api_specs.StudySpec
    StudyResult = api_results.StudyResult
    classmethod_(StudySpec, "from_dict", "api.spec_parse")
    method(StudySpec, "content_hash", "api.content_hash")
    method(StudySpec, "engine_hash", "api.engine_hash")
    method(StudySpec, "build_scenarios", "api.scenario_build")
    function(api_study, "build_engine", "api.engine_compile")
    cosim_streaming.ChunkPlan.chunks = tracer.wrap_generator(
        cosim_streaming.ChunkPlan.chunks, "api.scenario_stream"
    )
    for attribute in (
        "from_steady_batch",
        "from_transient_batch",
        "from_surface_map",
        "from_optimize",
        "from_steady_stream",
        "from_transient_stream",
    ):
        classmethod_(StudyResult, attribute, "api.pack")
    method(StudyResult, "to_json", "api.encode")
    method(StudyResult, "envelope", "api.envelope")

    # core.cosim: staging, the fixed point, integration, reductions.
    Physics = cosim_scenarios.ScenarioPhysics
    method(Physics, "__init__", "cosim.stage")
    method(Physics, "steady_targets", "cosim.steady_targets")
    function(cosim_scenarios, "solve_fixed_point", "cosim.fixed_point")
    function(cosim_scenarios, "reduced_unit_matrix", "cosim.resistance_cache")
    function(cosim_transient, "integrate_relaxation", "cosim.integrate")
    method(cosim_scenarios.ScenarioEngine, "solve", "cosim.solve")
    method(cosim_transient.TransientScenarioEngine, "simulate", "cosim.solve")
    for cls in cosim_transient.ActivityGrid.__subclasses__():
        if "values" in cls.__dict__:
            method(cls, "values", "cosim.activity")
    method(cosim_streaming.OnlineSteadyReduction, "update", "cosim.reduce")
    method(cosim_streaming.OnlineTransientReduction, "update", "cosim.reduce")

    # core.leakage: the static-power kernel as the scenario engines reach it.
    method(Physics, "static_powers", "leakage.static_powers", _physics_rows)

    # core.thermal: image expansion, maps, the kernel, the block reduction.
    method(thermal_images.ImageExpansion, "expand_arrays", "thermal.expand")
    method(thermal_superposition.ChipThermalModel, "surface_map", "thermal.surface_map")
    function(
        thermal_superposition, "kernel_temperature_rise", "thermal.kernel", _kernel_pairs
    )
    function(thermal_operator, "pairwise_rise", "thermal.kernel", _kernel_pairs)
    method(thermal_operator.AnalyticalImageOperator, "reduce", "thermal.reduce")

    # optimize: the search loop (its engine solves nest inside).
    function(api_study, "run_search", "optimize.run_search", _candidates)

    # serve: only present when the service is imported in this process.
    try:
        from repro.serve import cache as serve_cache
        from repro.serve import server as serve_server
        from repro.serve import service as serve_service
    except ImportError:  # pragma: no cover - the service is part of the program
        return
    function(serve_service, "build_engine", "api.engine_compile")
    method(serve_service.StudyService, "submit", "serve.submit")
    for attribute in ("get", "put", "get_or_build"):
        method(serve_cache.LRUCache, attribute, "serve.cache")
    method(serve_server.StudyRequestHandler, "do_POST", "serve.request")
    serve_server.json = _TimedJson(
        tracer, json_module, "api.envelope_encode", "api.json_decode"
    )


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #
def layer_of(name: str) -> str:
    """The layer a span name belongs to (``bench`` for benchmark roots)."""
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time [ns] of every span id: duration minus its children's."""
    own = {span[0]: span[5] - span[4] for span in spans}
    for span in spans:
        parent = span[1]
        if parent in own:
            own[parent] -= span[5] - span[4]
    return own


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, summed counts."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "count": 0}
    )
    for span in spans:
        entry = table[span[2]]
        entry["calls"] += 1
        entry["inclusive_s"] += (span[5] - span[4]) * 1e-9
        entry["self_s"] += own[span[0]] * 1e-9
        entry["count"] += span[6]
    return dict(table)


def within(spans: Iterable[Span], start_ns: int, end_ns: int) -> List[Span]:
    """The spans that started inside ``[start_ns, end_ns)``."""
    return [span for span in spans if start_ns <= span[4] < end_ns]


def children_count(spans: Sequence[Span], parent_name: str, child_name: str) -> int:
    """Summed counts of ``child_name`` spans directly under ``parent_name``."""
    parents = {span[0] for span in spans if span[2] == parent_name}
    return sum(span[6] for span in spans if span[2] == child_name and span[1] in parents)


def fixed_point_rows(spans: Sequence[Span]) -> Tuple[int, int]:
    """``(row_iterations, rows)`` over every fixed point in ``spans``.

    Each iteration of a fixed point evaluates static power once for its
    still-active rows, and a last evaluation covers the whole batch; so
    the counts of all but the last static-power call under a fixed point
    sum to its row iterations, and the last one is its row count.
    """
    loops = {span[0] for span in spans if span[2] == "cosim.fixed_point"}
    calls: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[2] == "leakage.static_powers" and span[1] in loops:
            calls[span[1]].append(span)
    iterations = rows = 0
    for group in calls.values():
        group.sort(key=lambda span: span[4])
        iterations += sum(span[6] for span in group[:-1])
        rows += group[-1][6]
    return iterations, rows
