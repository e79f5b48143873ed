"""Run ``qscatter.cli.main`` with the benchmark's spans installed.

Usage: python bench/cli_launcher.py SPANS.json [qscatter arguments ...]

The whole call runs under a root span named ``cli``; the spans are
written to SPANS.json when it returns, and the exit code is main's.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import qscatter.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap(qscatter.cli.main, "cli", None)(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
