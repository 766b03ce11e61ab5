"""Entry wrapper for traced `cli` requests.

    python cli_entry.py SPANS_PATH ARG...

Runs `fwburnside.cli.main(ARG...)` exactly as `python -m fwburnside.cli
ARG...` would, with the same stdout and exit code, and writes to
SPANS_PATH the import and main times, the per-layer metrics and the spans.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import fwburnside.cli  # noqa: E402  (timed import)

import_ms = (perf_counter() - t0) * 1000

from tracer import Tracer  # noqa: E402


def main(spans_path, argv):
    tracer = Tracer()
    tracer.install()
    t1 = perf_counter()
    try:
        return fwburnside.cli.main(argv)
    finally:
        main_ms = (perf_counter() - t1) * 1000
        tracer.uninstall()
        tracer.write(
            spans_path,
            import_ms=import_ms,
            main_ms=main_ms,
            layers=tracer.layer_metrics(),
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
