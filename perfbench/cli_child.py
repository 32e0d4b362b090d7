"""Run one `covsel` CLI command in this process, the way the `covsel` console
script does, and record what the parent cannot see from outside.

Usage: python3 cli_child.py INFO_JSON TRACE COVSEL_ARGS...

INFO_JSON receives, at exit: the CLOCK_MONOTONIC time at which `covsel.cli`
was imported and the command could start ("ready"), the peak resident set
of this process (VmHWM, which exec resets, unlike ru_maxrss, which also
carries the launching parent's peak), the exit code, and, with TRACE=1,
the spans recorded around calls into covsel's public functions.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main():
    info_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from covsel import cli

    ready = time.monotonic()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        info = {"ready": ready, "peak_rss_kb": peak_rss_kb(), "exit": code}
        if tracer is not None:
            info["spans"] = tracer.spans
            info["absent"] = tracer.absent
        with open(info_path, "w", encoding="utf-8") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
