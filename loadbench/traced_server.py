"""Run ``python -m repro.serve serve`` with layer spans recorded.

Usage: ``python loadbench/traced_server.py SPANS_PATH -- SERVE_ARGS...``

Installs the wrappers of :mod:`tracing` inside the server process,
runs the unmodified serve command, and writes the spans to
``SPANS_PATH`` when the server is terminated.
"""

from __future__ import annotations

import signal
import sys

import tracing


def main(argv) -> int:
    spans_path, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_server.py SPANS_PATH -- SERVE_ARGS")
    from repro.serve.__main__ import main as serve_main

    log = tracing.SpanLog()
    tracing.install(log)
    # The benchmark stops servers with SIGTERM; unwind so spans are kept.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return serve_main(serve_args)
    finally:
        log.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
