"""Run one ``arquiver`` CLI query with the layer tracer installed.

Usage: ``python cli_boot.py <subcommand> [args...]`` with the package on
``PYTHONPATH``.  Stdout is exactly what ``python -m arquiver.cli`` prints; the
tracer's aggregates go to stderr as one ``#trace <json>`` line at exit.
"""

import json
import sys

import arquiver.cli

from layertrace import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.record(True)
    try:
        code = arquiver.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects malformed queries this way
        code = exc.code
    finally:
        tracer.record(False)
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("#trace " + json.dumps(tracer.snapshot(), separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
