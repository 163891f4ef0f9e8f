"""``python -m mpshrink.cli`` with span tracing, for the traced cli run.

Usage: cli_traced.py SPANS_JSON <mpshrink arguments...>

Instruments the layer modules, runs the command line as ``-m mpshrink.cli``
would, and writes the spans and quadrature-cache counts to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer, instrument, quadrature_cache_counts


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    instrument(tracer)
    from mpshrink import cli
    try:
        return cli.main(argv)
    finally:
        quadrature_cache_counts(tracer)
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
