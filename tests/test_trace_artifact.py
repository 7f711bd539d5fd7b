#!/usr/bin/env python3
"""Traced smoke run, validated (CTest: trace_artifact.<name>).

Runs COMMAND with NEU10_SMOKE=1, NEU10_TRACE=on and NEU10_TRACE_OUT=
TRACE, then validates the Chrome trace and its metrics JSON
(TRACE.metrics.json) with tools/check_trace.py, requiring every
--require-event NAME. The trace stays behind as a browsable artifact
(drag it into https://ui.perfetto.dev); CI uploads the directory.

Usage: test_trace_artifact.py TRACE [--require-event NAME]... -- COMMAND...
"""

import argparse
import os
import pathlib
import subprocess
import sys

CHECK_TRACE = (pathlib.Path(__file__).resolve().parent.parent / "tools" /
               "check_trace.py")


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd))
    proc = subprocess.run(cmd, **kwargs)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(str(c) for c in cmd)} exited "
                 f"{proc.returncode}")


def main():
    split = sys.argv.index("--") if "--" in sys.argv else len(sys.argv)
    parser = argparse.ArgumentParser(
        usage="%(prog)s TRACE [--require-event NAME]... -- COMMAND...")
    parser.add_argument("trace", type=pathlib.Path)
    parser.add_argument("--require-event", action="append", default=[],
                        metavar="NAME")
    args = parser.parse_args(sys.argv[1:split])
    command = sys.argv[split + 1:]
    if not command:
        parser.error("missing '-- COMMAND...'")
    trace = args.trace
    metrics = pathlib.Path(f"{trace}.metrics.json")

    # A trace left by an earlier run must not pass for this one.
    trace.parent.mkdir(parents=True, exist_ok=True)
    for stale in (trace, metrics):
        stale.unlink(missing_ok=True)

    env = dict(os.environ,
               NEU10_SMOKE="1",
               NEU10_TRACE="on",
               NEU10_TRACE_OUT=str(trace))
    run(command, env=env, stdout=subprocess.DEVNULL)
    if not trace.exists():
        sys.exit(f"FAIL: {command[0]} did not write {trace}")
    require = [a for e in args.require_event for a in ("--require-event", e)]
    run([sys.executable, CHECK_TRACE, trace, "--metrics", metrics, *require])
    print(f"ok: {trace} is a valid trace with valid metrics")


if __name__ == "__main__":
    main()
