"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one figure of the paper's evaluation (or one of
the ablations listed in DESIGN.md), prints the series the figure reports and
asserts its qualitative shape, while timing the model evaluation with
pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.technology import cmos_012um, cmos_035um


def environment_record(
    namespace: str = "numpy", dtype: str = "float64"
) -> Dict[str, str]:
    """The execution-environment stamp every ``BENCH_*.json`` record carries.

    Records which array namespace and working dtype produced the numbers
    (see ``docs/precision.md``), plus the numpy/python versions, so floors
    compared across machines or backends are never apples-to-oranges.
    """
    return {
        "array_namespace": namespace,
        "dtype": dtype,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


#: Environment switch: ``REPRO_BENCH_WRITE=1`` writes records over the
#: committed ``benchmarks/BENCH_*.json`` (CI's benchmarks job sets it, so
#: its floor check and artifact upload read fresh records).  Otherwise they
#: go to a per-session temporary directory, so a test run leaves the
#: working tree clean.
WRITE_ENV = "REPRO_BENCH_WRITE"

_record_dir: Optional[Path] = None


@pytest.fixture(scope="session", autouse=True)
def _session_record_dir(tmp_path_factory):
    global _record_dir
    _record_dir = tmp_path_factory.mktemp("bench-records")
    yield
    _record_dir = None


def persist_record(
    path: Path,
    record: Dict[str, Any],
    namespace: str = "numpy",
    dtype: str = "float64",
) -> None:
    """Write a ``BENCH_*.json`` record stamped with its environment.

    It goes to ``path`` under ``REPRO_BENCH_WRITE=1``, else to a file of
    the same name in the session's temporary directory.
    """
    record = dict(record)
    record.setdefault("environment", environment_record(namespace, dtype))
    if os.environ.get(WRITE_ENV) != "1":
        if _record_dir is None:
            raise RuntimeError(f"set {WRITE_ENV}=1 to write {path.name} outside pytest")
        path = _record_dir / path.name
    path.write_text(json.dumps(record, indent=2) + "\n")


def peak_rss() -> int:
    """Process-lifetime peak resident set size [bytes].

    ``resource.getrusage`` reports ``ru_maxrss`` in kilobytes on Linux and
    bytes on macOS; normalize to bytes so every ``BENCH_*.json`` record
    carries one unit.  The counter is a high-water mark: measure memory-
    sensitive paths in a fresh subprocess (see ``streaming_smoke.py``), or
    earlier allocations in the same process dominate the reading.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def peak_rss_mb() -> float:
    """Process-lifetime peak resident set size [MiB] (see :func:`peak_rss`)."""
    return peak_rss() / (1024.0 * 1024.0)


def best_of(run: Callable[[], Any], repetitions: int) -> float:
    """Best wall time [s] of ``repetitions`` calls of ``run``
    (scheduler-stall robust)."""
    seconds = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        run()
        seconds = min(seconds, time.perf_counter() - start)
    return seconds


#: Interleaved trials behind a gated timing ratio: one reading of a ratio
#: on a shared 2-vCPU machine can land on either side of its floor, so
#: the gate reads the median of this many.
TRIALS = 5


def interleaved_trials(
    first: Callable[[], float], second: Callable[[], float], trials: int = TRIALS
) -> List[Tuple[float, float]]:
    """``trials`` paired readings ``(first(), second())`` of two timings
    (each callable returns its own seconds).  The side that runs first
    alternates, so a drift in machine load does not always favour one."""
    pairs = []
    for trial in range(trials):
        if trial % 2:
            later = second()
            pairs.append((first(), later))
        else:
            earlier = first()
            pairs.append((earlier, second()))
    return pairs


@pytest.fixture(scope="session")
def tech012():
    """The 0.12 um technology used by the paper's leakage validation."""
    return cmos_012um()


@pytest.fixture(scope="session")
def tech035():
    """The 0.35 um technology used by the paper's thermal measurements."""
    return cmos_035um()
