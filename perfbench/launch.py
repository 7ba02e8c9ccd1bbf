"""Run ``repro.cli.main`` the way the ``coopckpt`` console script does, with stamps.

Usage: ``python launch.py STAMP_JSON TRACE_JSON|- [cli arguments...]``

Writes ``{"ready": <time.monotonic() once repro.cli is imported>}`` to
STAMP_JSON, so the parent can split the process's wall time into set-up
(interpreter start plus imports) and the command itself.  With no CLI
arguments it stops there (a set-up probe).  With a TRACE_JSON path the layer
tracer is installed around ``main`` and its aggregates are written there;
the originals are restored before exit.
"""

import json
import sys
import time


def main() -> int:
    stamp_path, trace_path, *argv = sys.argv[1:]
    import repro.cli

    ready = time.monotonic()
    if not argv:  # set-up probe: stop where main would start
        code = 0
    elif trace_path == "-":
        code = repro.cli.main(argv)
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        bindings = tracer.wrapped_bindings()
        try:
            code = repro.cli.main(argv)
        finally:
            tracer.uninstall()
        report = tracer.snapshot()
        report["restored"] = all(vars(owner)[name] is original for owner, name, original in bindings)
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    with open(stamp_path, "w", encoding="utf-8") as handle:
        json.dump({"ready": ready}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
