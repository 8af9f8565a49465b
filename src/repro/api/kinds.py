"""Study and workload kind names.

Kept free of heavy imports so the CLI's argument parsing (``repro --help``)
can name the kinds without loading numpy or the model stack.
"""

#: Study kinds :class:`repro.api.specs.StudySpec` understands.
STUDY_KINDS = ("steady", "transient", "thermal_map", "sweep", "optimize")

#: Workload kinds :class:`repro.api.specs.WorkloadSpec` understands.
WORKLOAD_KINDS = ("constant", "step", "pwm", "trace")

#: Design problems the ``optimize`` study kind exposes declaratively.
OPTIMIZE_PROBLEMS = ("placement", "supply")

#: Search strategies :class:`repro.api.specs.OptimizeSpec` understands — a
#: plain-literal mirror of :data:`repro.optimize.search.STRATEGIES`
#: (``tests/test_api.py`` pins the two equal).
OPTIMIZE_STRATEGIES = ("random", "grid", "coordinate", "nelder_mead")

#: Objective names :class:`repro.api.specs.OptimizeSpec` understands — a
#: plain-literal mirror of the :data:`repro.optimize.objectives.OBJECTIVES`
#: registry keys (``tests/test_api.py`` pins the two equal).
OPTIMIZE_OBJECTIVES = (
    "peak_rise",
    "peak_temperature",
    "total_power",
    "total_static_power",
    "runaway_margin",
)

#: Thermal backends :class:`repro.api.specs.StudySpec` understands — a
#: plain-literal mirror of
#: :data:`repro.core.thermal.operator.THERMAL_BACKENDS` (the operator
#: registry is numpy-backed; ``tests/test_api.py`` pins the two equal).
THERMAL_BACKENDS = ("analytical", "fdm", "foster")

#: Grid options the ``fdm`` backend accepts in ``StudySpec.backend_options``
#: (mirror of :data:`repro.core.thermal.operator.FDM_GRID_OPTIONS`).
FDM_GRID_OPTIONS = ("nx", "ny", "nz")

#: Array namespaces :class:`repro.api.specs.StudySpec` understands — a
#: plain-literal mirror of :data:`repro.core.backend.ARRAY_BACKENDS`
#: (``tests/test_backend.py`` pins the two equal).  ``numpy`` is always
#: available; ``array_api_strict`` resolves lazily at engine build time.
ARRAY_BACKENDS = ("numpy", "array_api_strict")

#: Precision policies :class:`repro.api.specs.StudySpec` understands — a
#: plain-literal mirror of :data:`repro.core.backend.PRECISIONS` keys
#: (``tests/test_backend.py`` pins the two equal).  ``float64`` is the
#: bit-exact default; ``float32`` trades the documented tolerances for
#: throughput (see ``docs/precision.md``).
PRECISIONS = ("float64", "float32")

#: Default scenario rows per streamed chunk — a plain-literal mirror of
#: :data:`repro.core.cosim.streaming.DEFAULT_CHUNK_SIZE` so the CLI can
#: document ``--chunk-size`` without importing numpy
#: (``tests/test_streaming.py`` pins the two equal).
DEFAULT_CHUNK_SIZE = 65536

#: Serve-layer defaults (`repro serve`), kept here so the CLI's argument
#: parsing can document them without importing numpy or the serve stack
#: (:mod:`repro.serve.service` imports these back as its own defaults).
#: Compiled engines (reduced operator matrices included) kept across
#: requests, LRU-evicted.
DEFAULT_ENGINE_CACHE_SIZE = 32
#: Serialized study results kept across requests, keyed by spec content
#: hash, LRU-evicted.
DEFAULT_RESULT_CACHE_SIZE = 256
#: Default `repro serve` TCP port.
DEFAULT_SERVE_PORT = 8765
