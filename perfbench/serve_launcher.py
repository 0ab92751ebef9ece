"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py <trace out> serve <serve arguments...>

Installs the same span wrappers the batch workloads use around the served
session's layers, calls ``repro.cli.main`` in this process, and when the
server has shut down writes the span totals to ``<trace out>`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_source  # noqa: E402


def main(argv: list[str]) -> int:
    trace_out, cli_args = Path(argv[0]), argv[1:]
    use_checkout_source()
    from repro.cli import main as cli_main

    from tracer import Patcher, Tracer, install_serve_wrappers, serve_span_totals

    tracer, patcher = Tracer(), Patcher()
    install_serve_wrappers(tracer, patcher)
    try:
        code = cli_main(cli_args)
    finally:
        patcher.restore()
        trace_out.write_text(json.dumps(serve_span_totals(tracer)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
