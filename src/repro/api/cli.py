"""Command-line front end: ``repro run``, ``repro serve`` and ``repro info``.

Installed as the ``repro`` console script (see ``pyproject.toml``) and as
``python -m repro``.  The CLI executes serialized
:class:`~repro.api.specs.StudySpec` JSON files through the same
:func:`~repro.api.study.run_study` interpreter the Python facade uses, so
a study authored programmatically, shipped to another machine and re-run
from its JSON reproduces the original arrays bit-for-bit.  ``repro
serve`` keeps that interpreter resident behind an HTTP endpoint speaking
the same JSON formats (see :mod:`repro.serve`)::

    repro run study.json --out results.json
    repro serve --port 8765 --window 0.02
    repro info
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

# Only the light kind-name module is imported eagerly: `repro --help`
# must not pay for numpy or the model stack (specs/study load on `run`).
from .kinds import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_ENGINE_CACHE_SIZE,
    DEFAULT_RESULT_CACHE_SIZE,
    DEFAULT_SERVE_PORT,
    OPTIMIZE_OBJECTIVES,
    OPTIMIZE_PROBLEMS,
    OPTIMIZE_STRATEGIES,
    STUDY_KINDS,
    WORKLOAD_KINDS,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Concurrent power-thermal studies of sub-100nm digital ICs "
            "(DATE 2005 reproduction)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run",
        help="execute a JSON study file",
        description=(
            "Load a StudySpec JSON file, run it through the batched "
            "engines and print the summary to stdout."
        ),
    )
    run_parser.add_argument("study", type=Path, help="path to the study JSON file")
    run_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=(
            "write the full StudyResult (spec + arrays) as JSON to this "
            "path (default: no file is written; only the stdout summary)"
        ),
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help=(
            "suppress the summary printout on stdout (default: print it; "
            "exit status still reports errors either way)"
        ),
    )
    run_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stream the study in fixed chunks of N scenarios (constant "
            f"work-buffer memory; e.g. {DEFAULT_CHUNK_SIZE}); results are "
            "bit-identical to the one-shot solve (default: solve the "
            "whole batch in one shot)"
        ),
    )
    run_parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "stream with online reduction: keep only the per-scenario "
            "metric series, never the full field tensor (implies chunked "
            f"execution at the default chunk size {DEFAULT_CHUNK_SIZE}; "
            "default: off)"
        ),
    )
    run_parser.add_argument(
        "--memmap",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "persist the full per-scenario fields as <name>.npy memmaps "
            "under DIR instead of RAM (implies chunked execution; "
            "default: fields stay in RAM)"
        ),
    )
    run_parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print chunk-level progress (rows done, rows/s, ETA) to stderr "
            "during streamed runs; stdout and --quiet are unaffected "
            "(default: off)"
        ),
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run the long-lived HTTP study service",
        description=(
            "Serve studies over HTTP: POST /run takes the same StudySpec "
            "JSON `repro run` reads and replies with a result envelope; "
            "GET /stats reports cache/batching counters; POST /shutdown "
            "drains in-flight requests and exits.  Compiled engines and "
            "results are cached across requests; concurrent compatible "
            "steady requests can coalesce into one batched solve.  The "
            "listening address is printed to stderr; request/response "
            "bodies travel over the socket only."
        ),
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1, loopback only)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVE_PORT,
        help=(
            f"TCP port to bind (default: {DEFAULT_SERVE_PORT}; 0 picks an "
            "ephemeral port, reported on stderr)"
        ),
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "shard execution across N single-process worker pools, routed "
            "by floorplan so each worker's engine cache stays warm "
            "(default: 0, execute in-process)"
        ),
    )
    serve_parser.add_argument(
        "--window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "admission-batching window: hold the first steady request of "
            "a compatible group this long so concurrent requests solve as "
            "one batch (default: 0, batching disabled)"
        ),
    )
    serve_parser.add_argument(
        "--engine-cache",
        type=int,
        default=DEFAULT_ENGINE_CACHE_SIZE,
        metavar="N",
        help=(
            "compiled engines kept across requests, LRU-evicted "
            f"(default: {DEFAULT_ENGINE_CACHE_SIZE})"
        ),
    )
    serve_parser.add_argument(
        "--result-cache",
        type=int,
        default=DEFAULT_RESULT_CACHE_SIZE,
        metavar="N",
        help=(
            "study results kept across requests, keyed by spec content "
            f"hash, LRU-evicted (default: {DEFAULT_RESULT_CACHE_SIZE})"
        ),
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-request execution timeout; timed-out requests get HTTP "
            "504 (default: no timeout)"
        ),
    )
    serve_parser.add_argument(
        "--verbose",
        action="store_true",
        help=(
            "log one line per HTTP request to stderr "
            "(default: off; only the listening/shutdown lines are printed)"
        ),
    )

    commands.add_parser(
        "info",
        help="show package, study-kind and technology information",
        description=(
            "Print the toolkit's capabilities to stdout as a quick reference."
        ),
    )
    return parser


def _command_run(args: argparse.Namespace) -> int:
    # Imported lazily so `repro --help` stays numpy-free.
    from .study import load_study

    try:
        study = load_study(args.study)
    except FileNotFoundError:
        print(f"error: study file not found: {args.study}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as error:
        print(f"error: invalid study file {args.study}: {error}", file=sys.stderr)
        return 2

    if args.chunk_size is not None or args.stream or args.memmap is not None:
        try:
            study = study.with_streaming(
                chunk_size=args.chunk_size,
                reduction=True if args.stream else None,
                memmap_path=args.memmap,
            )
        except ValueError as error:
            # Spec re-validation catches kind mismatches (e.g. streaming a
            # thermal map) with the field-level message.
            print(
                f"error: cannot stream study {args.study}: {error}",
                file=sys.stderr,
            )
            return 2

    progress = None
    if args.progress:
        from ..core.cosim.streaming import format_progress

        def progress(update) -> None:
            print(format_progress(update), file=sys.stderr)

    try:
        result = study.run(progress=progress)
    except (ValueError, KeyError) as error:
        # Spec validation passed but the engines rejected the combination
        # (e.g. a runaway ceiling below an ambient): report, don't crash.
        print(f"error: study {args.study} failed to run: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"ran {study.kind} study from {args.study}")
        for key, value in result.summary().items():
            print(f"  {key}: {value}")
    if args.out is not None:
        result.to_json(args.out)
        if not args.quiet:
            print(f"wrote results to {args.out}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serve stack pulls in the engines.
    from ..serve.server import make_server

    try:
        server = make_server(
            args.host,
            args.port,
            quiet=not args.verbose,
            engine_cache_size=args.engine_cache,
            result_cache_size=args.result_cache,
            window=args.window,
            workers=args.workers,
            timeout=args.timeout,
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot start service: {error}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port}", file=sys.stderr)
    try:
        server.run()  # drains in-flight requests on the way out
    except KeyboardInterrupt:
        pass
    print("repro serve stopped", file=sys.stderr)
    return 0


def _command_info() -> int:
    from .. import __version__

    print(f"repro {__version__} — fast concurrent power-thermal modeling")
    print(
        "reproduction of Rossello et al., 'A Fast Concurrent Power-Thermal "
        "Model for Sub-100nm Digital ICs' (DATE 2005)"
    )
    import numpy
    import orjson
    import scipy

    print(f"python: {sys.version.split()[0]}")
    for module in (numpy, scipy, orjson):
        print(f"{module.__name__}: {module.__version__}")
    print(f"study kinds: {', '.join(STUDY_KINDS)}")
    print(f"workload kinds: {', '.join(WORKLOAD_KINDS)}")
    print(f"optimize problems: {', '.join(OPTIMIZE_PROBLEMS)}")
    print(f"optimize strategies: {', '.join(OPTIMIZE_STRATEGIES)}")
    print(f"optimize objectives: {', '.join(OPTIMIZE_OBJECTIVES)}")
    from ..technology.nodes import node_names

    print(f"technology nodes: {', '.join(node_names())}")
    from ..core.thermal.operator import backend_capabilities

    print("thermal backends:")
    for name, capabilities in backend_capabilities().items():
        print(f"  {name}: {capabilities.description}")
        print(f"    [{capabilities.flags()}]")
    from ..core.backend import (
        array_backend_available,
        array_backend_names,
        PRECISIONS,
    )

    print("array backends:")
    for name in array_backend_names():
        status = "available" if array_backend_available(name) else "not installed"
        print(f"  {name}: {status}")
    print("precisions:")
    for precision in PRECISIONS.values():
        print(f"  {precision.name}: {precision.description}")
        print(f"    [rtol={precision.rtol:g} atol={precision.atol:g}]")
    print("usage: repro run study.json [--out results.json] | repro serve")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "info":
        return _command_info()
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
