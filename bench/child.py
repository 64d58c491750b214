"""One workload iteration in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC holds the CLI calls, the config to parse during set-up, whether to
trace, and where to write the result.  The process imports ``toepspec.cli``
and parses the config (the set-up the parent times from spawn), then runs
each call through ``toepspec.cli.main`` with its standard output captured,
and writes timings, exit codes, captured output and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ``ru_maxrss`` is not used: on
    Linux it also counts the parent's pages the child held before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import toepspec.cli as cli

    cli.load_config(spec["config"])
    setup_end = time.monotonic()

    tracer = None
    clock = time.perf_counter
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
        clock = tracer.now
    calls = []
    for argv in spec["calls"]:
        out = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        calls.append({"argv": argv, "code": code, "wall_s": clock() - t0, "stdout": out.getvalue()})
    result = {"setup_end": setup_end, "module": cli.__file__, "calls": calls, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        result["trace"] = tracer.export()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
