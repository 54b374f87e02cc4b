"""Run the novcube CLI under the benchmark tracer.

The traced cli_cubes run starts this file instead of ``python -m
novcube.cli``, from the checkout root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/cli_child.py SPANS_FILE CLI_ARGS...

It times the import of ``novcube.cli``, installs the tracer, runs
``novcube.cli.main`` inside a ``cli.main`` span, and writes the spans,
counters and import time to SPANS_FILE with ``marshal``.
"""

import marshal
import sys
from time import perf_counter


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import novcube.cli
    import_s = perf_counter() - start
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.begin_instance(0)
    try:
        return tracer.call_span("cli.main", novcube.cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(out, "wb") as fh:
            marshal.dump({"import_s": import_s, "spans": tracer.spans,
                          "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main())
