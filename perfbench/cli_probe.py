"""Run one ``hbq`` CLI command with the layer hooks installed.

    python3 perfbench/cli_probe.py SPANS_OUT.json quantize W.rts X.rts --out L.hbq

Behaves like ``python -m hbq ...`` (same arguments, same exit code) and
writes the command's spans, call counts and absent layers to SPANS_OUT.json.
``hbq`` must be importable (run.py puts the checkout's ``src`` on PYTHONPATH).
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import hbq.cli

    tracer = Tracer()
    rc = 1
    try:
        with tracer.installed(), tracer.span("cli.run"):
            rc = hbq.cli.run(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(
                {"spans": tracer.spans, "counts": dict(tracer.counts),
                 "absent": tracer.absent()},
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
