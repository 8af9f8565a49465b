"""``repro serve`` with every layer entry point traced.

Launched by ``run.py`` for the traced half of ``serve_mixed``: it wraps
the layers (``tracing.instrument``), then hands over to the program's own
command line, exactly as ``python -m repro serve`` would run.  When the
server stops (``POST /shutdown``) the spans are written to ``--spans``.

Usage: ``python3 perfbench/serve_host.py --spans out.jsonl -- serve --port 0``
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402

common.use_program()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="repro CLI arguments")
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.api import cli

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
