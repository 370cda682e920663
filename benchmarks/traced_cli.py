"""The rhamcheck command line with every layer traced.

    python3 benchmarks/traced_cli.py OUT.json [rhamcheck arguments...]

Runs `rhamcheck.cli.main` under the span tracer of spans.py and writes
the per-layer totals and the raw spans to OUT.json when it ends; the
exit code is the command line's own.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402


def main(argv):
    out, args = Path(argv[0]), argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from rhamcheck.cli import main as cli_main

    tracer.begin("process")
    try:
        code = cli_main(args)
    finally:
        tracer.end()
        out.write_text(json.dumps({"summary": tracer.summary(), "spans": tracer.spans()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
