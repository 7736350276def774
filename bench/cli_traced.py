"""Run ``chainbounds.cli`` with spans recorded around the package's public
functions, for the traced cli_cold run.

    python3 bench/cli_traced.py SUBCOMMAND [OPTIONS...]

The report goes to standard output unchanged; the spans follow on
standard error as one line ``SPANS <json>``.  Expects ``src`` on
PYTHONPATH, as bench/run.py sets it.
"""

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main():
    modules = {name: importlib.import_module(name) for name, *_ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        status = modules["chainbounds.cli"].main(sys.argv[1:])
    finally:
        tracer.restore()
    sys.stdout.flush()
    sys.stderr.write("\nSPANS " + json.dumps(tracing.to_records(tracer.spans)) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
