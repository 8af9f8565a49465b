"""Helpers shared by the benchmark's command (``run.py``) and its child processes."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Scratch output (span dumps, the last run's full record); git-ignored.
OUTPUT = ROOT / ".perfbench"

#: Thread counts pinned in every child process, so BLAS-backed numpy calls
#: cannot fan out over more than the one CPU a run uses (see :func:`pin`).
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: The CPUs this benchmark may use, as it was started.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

#: Absolute tolerance [K] of the scalar-reference output checks, as the
#: repository's own parity tests use.
TEMPERATURE_TOLERANCE = 1e-9

#: Timed operations of an in-process run that its p95 latency is taken
#: over: always the first this many, however many more fit in the run.
TAIL_SAMPLE = 8


def program_available() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SOURCE / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Import the program from the checkout, never from anywhere else."""
    if not program_available():
        raise SystemExit(f"perfbench: no program sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def child_env() -> Dict[str, str]:
    """Environment of every child process: the checkout's sources first."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"
    return env


def pin(pid: int) -> None:
    """Pin process ``pid`` (0: this thread) to the first CPU of this process's set.

    Everything a run times shares that one CPU: the in-process worker, or
    the server and the load generator of ``serve_mixed``.  On the 2-vCPU
    machine the benchmark was tuned on, a fixed loop ran about 1.7x slower
    on each vCPU while the other one was busy too.  With the load generator
    on the second vCPU, three runs of one seed gave 63 to 87 studies/s; on
    the server's vCPU they gave 89 to 95.  A no-op on platforms without CPU
    affinity.
    """
    if CPUS:
        os.sched_setaffinity(pid, {CPUS[0]})


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark [MB]."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """The largest resident-set high-water mark [MB] of any ended child."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(
    latencies_ms: Sequence[float], tail_sample: Sequence[float]
) -> Dict[str, float]:
    """Median of a latency sample, and p95 of its ``tail_sample``.

    ``tail_sample`` is either every timed request of a serve run (about
    1,500 in 25 s, so p95 has well over ten samples beyond it) or the first
    :data:`TAIL_SAMPLE` operations of an in-process run.  Either way the
    percentile does not depend on how many operations fit in the run, so a
    faster program is not measured further down its distribution.
    """
    p95 = percentile(tail_sample, 0.95)
    return {
        "samples": len(latencies_ms),
        "p50_ms": percentile(latencies_ms, 0.5),
        "p95_samples": len(tail_sample),
        "p95_ms": p95,
        "p95_beyond": sum(1 for value in tail_sample if value > p95),
    }


def array_digest(arrays: Mapping[str, object]) -> str:
    """SHA-256 over named arrays' names, dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = arrays[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(tuple(array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def environment() -> Dict[str, object]:
    """The interpreter, numpy and thread environment of a run."""
    record: Dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    record.update({name: os.environ.get(name, "unset") for name in THREAD_ENV})
    try:
        import numpy

        record["numpy"] = numpy.__version__
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        record["blas"] = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception as error:  # numpy's config layout varies by version
        record["blas"] = f"unknown ({type(error).__name__})"
    return record


def machine_reference_ms(repeats: int = 5) -> float:
    """Median time [ms] of a fixed pure-Python plus numpy work unit.

    Not a metric of the program: each run records it before and after
    its workload, on the CPU the workload uses, so that a spread across
    runs can be told apart from the machine's own changes of speed.
    """
    import numpy

    values = numpy.linspace(0.0, 1.0, 200_000)
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        total = 0
        for index in range(300_000):
            total += index * index
        for _ in range(20):
            numpy.arcsinh(values).sum()
        times.append(time.perf_counter() - begin)
    return 1e3 * median(times)


def sample_indices(seed_text: str, population: int, count: int) -> List[int]:
    """``count`` distinct seeded row indices out of ``population``."""
    import random

    rng = random.Random(seed_text)
    return sorted(rng.sample(range(population), min(count, population)))
