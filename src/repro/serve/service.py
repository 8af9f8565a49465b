"""The long-lived study service: caching, batching and sharded execution.

:class:`StudyService` is the transport-free core of ``repro serve`` (the
HTTP layer in :mod:`repro.serve.server` is a thin adapter over it).  One
request is one serialized :class:`~repro.api.specs.StudySpec`; one
response is one result envelope
(:meth:`~repro.api.results.StudyResult.envelope`).  Between the two sit
three layers, each amortizing work across requests that a one-shot
``repro run`` pays every time:

1. **Content-addressed caches** — results are keyed by the spec's
   :meth:`~repro.api.specs._Spec.content_hash` (an identical
   re-request is served bit-identically without touching an engine), and
   compiled engines — reduced operator matrix included — by
   :meth:`~repro.api.specs.StudySpec.engine_hash` (requests differing only
   in scenarios, workload or solver options share one compilation).  Both
   are LRU-bounded with counters on :meth:`stats`.
2. **Admission batching** — concurrent steady requests sharing an engine
   configuration and solver options coalesce into one concatenated
   :meth:`~repro.core.cosim.scenarios.ScenarioEngine.solve` inside a
   configurable window, and per-request rows scatter back out via
   :meth:`~repro.core.cosim.scenarios.ScenarioBatchResult.slice_rows` —
   bit-identical to solo solves because row trajectories are independent.
3. **Process-pool sharding** — with ``workers > 0``, execution moves into
   single-process pools; requests are routed by floorplan content hash, so
   a given floorplan always lands in the worker whose engine cache is
   already warm.  Graceful shutdown drains pending admissions and joins
   the pools; per-request timeouts bound the wait on pool results.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..api.kinds import DEFAULT_ENGINE_CACHE_SIZE, DEFAULT_RESULT_CACHE_SIZE
from ..api.results import StudyResult
from ..api.specs import StudySpec
from ..api.study import _solver_options, build_engine, run_study
from ..core.cosim.scenarios import ScenarioColumns
from .batching import AdmissionBatcher
from .cache import LRUCache

#: Study kinds whose concurrent requests may share one engine solve.
#: Steady batches are the coalescible case: one fixed point over the
#: concatenated scenario rows is bit-identical per row to solo solves.
#: Transient runs share a time grid per solve and sweeps bind results to
#: per-request parameter axes, so both execute per request (still through
#: the shared engine cache); streamed requests keep their own chunking.
COALESCIBLE_KINDS = ("steady",)


class ServiceClosedError(RuntimeError):
    """Raised for requests admitted after :meth:`StudyService.close`."""


class ServeTimeoutError(RuntimeError):
    """Raised when a request exceeds the service's per-request timeout."""


def solve_key(spec: StudySpec) -> str:
    """Admission-batching key: requests coalesce only when equal here.

    Engine-determining fields (via
    :meth:`~repro.api.specs.StudySpec.engine_canonical_json`) plus the
    study kind and the exact solver options — everything a concatenated
    solve shares across its members.
    """
    solver = json.dumps(
        {name: value for name, value in spec.solver.items()},
        sort_keys=True,
        separators=(",", ":"),
        default=list,
    )
    return f"{spec.kind}|{spec.engine_canonical_json()}|{solver}"


class ExecutionCore:
    """Engine cache plus solve bookkeeping, shared by every execution site.

    The in-process service holds one; each process-pool worker holds its
    own module-global instance (:func:`_worker_execute_group`), so engine
    compilations are cached wherever the solving actually happens.
    """

    def __init__(self, engine_cache_size: int = DEFAULT_ENGINE_CACHE_SIZE) -> None:
        self.engines = LRUCache(engine_cache_size, name="engine")
        self._lock = threading.Lock()
        self._solves = 0
        self._coalesced_solves = 0

    def _count_solve(self, coalesced: bool) -> None:
        with self._lock:
            self._solves += 1
            if coalesced:
                self._coalesced_solves += 1

    def execute_group(self, specs: Sequence[StudySpec]) -> List[Dict[str, Any]]:
        """Run one admission group; one result envelope per spec, same order.

        Thermal maps and optimize searches run directly (neither compiles
        a cacheable engine up front; optimize builds its engines inside
        the search).  Singleton groups and non-coalescible kinds run
        :func:`~repro.api.study.run_study` against the cached engine.
        Multi-spec steady groups run as **one** solve over the members'
        concatenated columns (no row becomes a ``Scenario`` object), whose
        rows are sliced back per request.  Envelopes are plain data, so a
        pool worker's reply crosses the process boundary as it is.
        """
        first = specs[0]
        if first.kind in ("thermal_map", "optimize"):
            results = []
            for spec in specs:
                self._count_solve(coalesced=False)
                results.append(run_study(spec).envelope())
            return results
        engine, _ = self.engines.get_or_build(
            first.engine_hash(), lambda: build_engine(first)
        )
        if len(specs) == 1 or first.kind not in COALESCIBLE_KINDS:
            results = []
            for spec in specs:
                self._count_solve(coalesced=False)
                results.append(run_study(spec, engine=engine).envelope())
            return results
        # Coalesced steady solve: concatenate every member's columns, fix
        # the whole batch in one engine call, scatter rows back.
        parts = [ScenarioColumns.from_scenarios(s.build_scenarios()) for s in specs]
        self._count_solve(coalesced=True)
        merged = ScenarioColumns.concatenate(parts)
        batch = engine.solve(merged, **_solver_options(first))
        results = []
        start = 0
        for spec, scenarios in zip(specs, parts):
            stop = start + len(scenarios)
            result = StudyResult.from_steady_batch(spec, batch.slice_rows(start, stop))
            results.append(result.envelope())
            start = stop
        return results

    def stats(self) -> Dict[str, Any]:
        """Engine-cache counters plus solve counts, as plain data."""
        with self._lock:
            counts = {
                "solves": self._solves,
                "coalesced_solves": self._coalesced_solves,
            }
        return {"engine_cache": self.engines.stats(), **counts}


#: Per-worker-process execution core (see :func:`_worker_execute_group`).
_WORKER_CORE: Optional[ExecutionCore] = None


def _worker_execute_group(payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Process-pool entry point: spec dicts in, result envelopes out.

    Each worker process lazily builds one module-global
    :class:`ExecutionCore` and keeps it for its lifetime — the parent
    routes a given floorplan to the same worker, so that worker's engine
    cache stays warm across requests exactly like the in-process cache.
    """
    global _WORKER_CORE
    if _WORKER_CORE is None:
        _WORKER_CORE = ExecutionCore()
    specs = [StudySpec.from_dict(payload) for payload in payloads]
    return _WORKER_CORE.execute_group(specs)


class StudyService:
    """The transport-free study service (see the module docstring).

    Parameters
    ----------
    engine_cache_size:
        Compiled engines kept across requests (in-process mode; each pool
        worker keeps its own cache of the same size).
    result_cache_size:
        Serialized results kept across requests, keyed by spec content
        hash.
    window:
        Admission-batching window [s]; ``0`` (default) disables
        coalescing.
    workers:
        Single-process pools to shard floorplans across; ``0`` (default)
        executes in the calling thread.
    timeout:
        Per-request timeout [s] enforced while waiting on pool results and
        batched-group futures; ``None`` waits indefinitely.  Inline
        execution on the caller's own thread cannot be interrupted, so the
        bound is best-effort by design.
    """

    def __init__(
        self,
        engine_cache_size: int = DEFAULT_ENGINE_CACHE_SIZE,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        window: float = 0.0,
        workers: int = 0,
        timeout: Optional[float] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if timeout is not None and timeout <= 0.0:
            raise ValueError("timeout must be positive seconds (or None)")
        self._core = ExecutionCore(engine_cache_size)
        self._results = LRUCache(result_cache_size, name="result")
        self._batcher = AdmissionBatcher(window, self._execute_group)
        self._timeout = timeout
        self._pools: List[ProcessPoolExecutor] = [
            ProcessPoolExecutor(max_workers=1) for _ in range(workers)
        ]
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._closed = False
        self._requests = 0
        self._errors = 0

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(self, request: Union[StudySpec, Mapping[str, Any]]) -> Dict[str, Any]:
        """Execute one study request; returns its response envelope.

        ``request`` is a :class:`~repro.api.specs.StudySpec` or its plain
        ``to_dict`` data (what ``POST /run`` carries).  Spec validation
        errors propagate as :class:`ValueError` (the HTTP layer's 400);
        :class:`ServeTimeoutError` and :class:`ServiceClosedError` map to
        504 and 503.  The envelope's ``served`` mapping records how this
        delivery was produced: result-cache hit or miss, engine-cache and
        batching counters deltas aside, and wall time.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            self._requests += 1
        begin = time.perf_counter()
        try:
            spec = (
                request
                if isinstance(request, StudySpec)
                else StudySpec.from_dict(request)
            )
            spec_hash = spec.content_hash()
            # get + put (not get_or_build): the solve must run outside the
            # cache lock or concurrent requests could never coalesce.
            body, cached = self._results.get(spec_hash)
            if not cached:
                body = self._run(spec)
                self._results.put(spec_hash, body)
        except Exception:
            with self._lock:
                self._errors += 1
            raise
        envelope = dict(body)
        envelope["served"] = {
            "result_cache": "hit" if cached else "miss",
            "elapsed_ms": (time.perf_counter() - begin) * 1e3,
        }
        return envelope

    def _run(self, spec: StudySpec) -> Dict[str, Any]:
        """Result-cache miss path: route one spec through batching + pools."""
        if self._batcher.window > 0.0 and spec.kind in COALESCIBLE_KINDS:
            if not spec.streaming:
                future = self._batcher.submit(solve_key(spec), spec)
                try:
                    return future.result(timeout=self._wait_budget())
                except FutureTimeoutError:
                    raise ServeTimeoutError(
                        f"request exceeded the {self._timeout:g}s timeout"
                    ) from None
        return self._execute_group([spec])[0]

    def _wait_budget(self) -> Optional[float]:
        """Follower wait bound: the timeout plus the full admission window."""
        if self._timeout is None:
            return None
        return self._timeout + self._batcher.window

    def _execute_group(self, specs: Sequence[StudySpec]) -> List[Dict[str, Any]]:
        """Envelopes of one admission group, run inline or on the owning
        floorplan shard."""
        if not self._pools:
            return self._core.execute_group(list(specs))
        pool = self._pools[self._shard(specs[0])]
        payloads = [spec.to_dict() for spec in specs]
        handle = pool.submit(_worker_execute_group, payloads)
        try:
            return handle.result(timeout=self._timeout)
        except FutureTimeoutError:
            raise ServeTimeoutError(
                f"request exceeded the {self._timeout:g}s timeout"
            ) from None

    def _shard(self, spec: StudySpec) -> int:
        """Stable floorplan -> pool routing (warm caches per worker)."""
        return int(spec.floorplan.content_hash()[:8], 16) % len(self._pools)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: caches, batching, execution, counters.

        In process-pool mode the engine cache (and its counters) lives
        inside each worker, so the parent-side ``engine_cache`` block
        reads zero — ``execution.mode`` says where to look.
        """
        with self._lock:
            requests = {"submitted": self._requests, "errors": self._errors}
            closed = self._closed
        return {
            "uptime_s": time.monotonic() - self._started,
            "closed": closed,
            "requests": requests,
            "result_cache": self._results.stats(),
            "batching": self._batcher.stats(),
            "execution": {
                "mode": "process-pool" if self._pools else "inline",
                "workers": len(self._pools),
                **self._core.stats(),
            },
        }

    def close(self) -> None:
        """Graceful shutdown: refuse new work, flush admissions, join pools.

        In-flight requests complete normally (the HTTP layer joins its
        handler threads *before* calling this); leaders sleeping out an
        admission window are released immediately.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._batcher.drain()
        for pool in self._pools:
            pool.shutdown(wait=True)

    def __enter__(self) -> "StudyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
