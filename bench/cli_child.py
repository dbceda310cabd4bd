"""Run one bivlmp command in this fresh interpreter, as `python -m bivlmp.cli` would.

Usage: python3 bench/cli_child.py OUT.json TRACE COMMAND [ARGS...]

With TRACE 1 the command runs under span tracing.  OUT.json receives this
process's peak resident set and, when traced, the span aggregates.  The exit
code is the command's.
"""

import json
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MB.  Not getrusage: Linux
    carries the peak of the process that started this one over exec, so
    ru_maxrss of a subprocess is at least its parent's peak."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    out, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from bivlmp import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(span_cap=0)
        tracing.install(tracer)
    code = cli.run(argv)
    Path(out).write_text(json.dumps({"peak_rss_mb": peak_rss_mb(),
                                     "trace": tracer.snapshot() if tracer else None}))
    return code


if __name__ == "__main__":
    sys.exit(main())
