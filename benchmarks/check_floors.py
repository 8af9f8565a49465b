"""Fail CI when a tracked benchmark speedup regresses below its floor.

Every throughput benchmark persists its measurements to a
``BENCH_*.json`` record containing the measured ``speedup`` and the
committed floor ``required_speedup`` (the acceptance criterion of the PR
that introduced it).  The CI ``benchmarks`` job regenerates the records in
smoke mode (with ``REPRO_BENCH_WRITE=1``, so they land here rather than
in a temporary directory) and then runs this script, which exits non-zero
if any tracked ratio fell below its floor — so a perf regression fails the
pipeline even if the benchmark's own assertion was skipped or relaxed.  Records listed
in :data:`REQUIRED_RECORDS` must exist: a benchmark that silently stopped
writing its record is itself a failure.

Regressions are reported diff-style, one line per failed floor with the
absolute and relative shortfall.

Run locally with::

    python benchmarks/check_floors.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent

#: Records every healthy checkout must produce (one per tracked
#: throughput benchmark); extend this tuple when a new BENCH record lands.
REQUIRED_RECORDS = (
    "BENCH_api.json",
    "BENCH_backends.json",
    "BENCH_kernel.json",
    "BENCH_optimize.json",
    "BENCH_precision.json",
    "BENCH_scenarios.json",
    "BENCH_serve.json",
    "BENCH_streaming.json",
    "BENCH_transient.json",
)


def check_floors(directory: Path = BENCH_DIR) -> List[str]:
    """Validate every ``BENCH_*.json`` record; return diff-style failures."""
    records = sorted(directory.glob("BENCH_*.json"))
    failures: List[str] = []
    present = {path.name for path in records}
    for required in REQUIRED_RECORDS:
        if required not in present:
            failures.append(
                f"- {required}: record missing (benchmark did not run or "
                "stopped persisting its measurements)"
            )
    if not records:
        print(f"no BENCH_*.json records found under {directory}", file=sys.stderr)
        return failures
    for path in records:
        record = json.loads(path.read_text())
        name = record.get("benchmark", path.stem)
        environment = record.get("environment", {})
        namespace = environment.get("array_namespace")
        if namespace is not None:
            print(
                f"  {path.name}: measured under {namespace}/"
                f"{environment.get('dtype', 'float64')}"
            )
        speedup = record.get("speedup")
        floor = record.get("required_speedup")
        if speedup is not None and floor is not None:
            status = "ok" if speedup >= floor else "REGRESSION"
            print(
                f"  {path.name}: {name} speedup {speedup:.1f}x "
                f"(floor {floor:g}x) {status}"
            )
            if speedup < floor:
                shortfall = floor - speedup
                failures.append(
                    f"- {name}: {speedup:.1f}x < {floor:g}x floor "
                    f"(short by {shortfall:.1f}x, "
                    f"down {100.0 * shortfall / floor:.1f}%)"
                )
        # Records may track further floored ratios beside (or instead of)
        # the headline speedup (e.g. BENCH_backends.json's seam ratio).
        extras = record.get("auxiliary_ratios", ())
        for extra in extras:
            label = extra.get("name", "auxiliary ratio")
            value = extra.get("value")
            extra_floor = extra.get("floor")
            if value is None or extra_floor is None:
                continue
            extra_status = "ok" if value >= extra_floor else "REGRESSION"
            print(
                f"  {path.name}: {name} {label} {value:.2f} "
                f"(floor {extra_floor:g}) {extra_status}"
            )
            if value < extra_floor:
                failures.append(
                    f"- {name} {label}: {value:.2f} < {extra_floor:g} floor"
                )
        # ... and ceilinged quantities, where *exceeding* the committed
        # bound is the regression (e.g. BENCH_streaming.json's peak RSS).
        ceilings = record.get("auxiliary_ceilings", ())
        for bound in ceilings:
            label = bound.get("name", "auxiliary ceiling")
            value = bound.get("value")
            ceiling = bound.get("ceiling")
            if value is None or ceiling is None:
                continue
            bound_status = "ok" if value <= ceiling else "REGRESSION"
            print(
                f"  {path.name}: {name} {label} {value:.2f} "
                f"(ceiling {ceiling:g}) {bound_status}"
            )
            if value > ceiling:
                failures.append(
                    f"- {name} {label}: {value:.2f} > {ceiling:g} ceiling"
                )
        if (speedup is None or floor is None) and not extras and not ceilings:
            print(f"  {path.name}: no tracked ratios (skipped)")
    return failures


def main() -> int:
    print(f"checking benchmark floors under {BENCH_DIR}")
    failures = check_floors()
    if failures:
        print(f"{len(failures)} benchmark floor(s) violated:", file=sys.stderr)
        for line in failures:
            print(line, file=sys.stderr)
        return 1
    print("all tracked benchmark ratios at or above their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
