"""Run the qsys command line with span recording.

Usage: ``python cli_shim.py <qsys arguments>`` with ``PERFBENCH_SPANS``
naming the file that receives the spans and ``PERFBENCH_CASE`` the case
id stored on each span.  The exit code is that of the command.
"""

from __future__ import annotations

import json
import os
import sys

from spans import Tracer


def main() -> int:
    import qsystem.cli

    tracer = Tracer(os.environ.get("PERFBENCH_CASE"))
    code = 0
    with tracer.recording():
        try:
            qsystem.cli.main(args=sys.argv[1:], prog_name="qsys")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
        json.dump({"installed": sorted(tracer.installed), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
