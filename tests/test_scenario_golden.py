#!/usr/bin/env python3
"""Golden-output regression check for the scenario runner.

Runs ``neu10_run <scenario> --smoke --json=<tmp>`` and byte-compares
the JSON record against the checked-in golden
(``scenarios/goldens/<name>.json``). The record is deterministic by
contract (stable key order, shortest round-trip doubles, no
wall-clock/host/path fields), so an exact byte diff is the right
comparison: any difference is either a real behavior change or a
broken determinism contract, and both must be looked at.

With ``--core-policy=NAME`` the runner is given the same option, so
one closed-loop cell can be pinned under each design
(``scenarios/goldens/<name>.<policy>.json``).

With ``--trace`` the scenario runs traced instead (``NEU10_TRACE=on``,
output in a temporary directory), once at ``--threads=1`` and once at
``--threads=4``, and the sha256 of the Chrome trace and of its
``.metrics.json`` must both equal the golden
(``scenarios/goldens/<name>.trace.sha256``, ``sha256sum`` format). The
trace is hundreds of kilobytes, so the golden pins its digest rather
than its bytes.

Usage:
    test_scenario_golden.py RUNNER SCENARIO GOLDEN [--core-policy=NAME]
                            [--trace] [--regen]

With ``--regen`` the golden is rewritten instead of compared — run
after an intentional behavior change, then commit the diff:

    for s in scenarios/*.scn; do
        python3 tests/test_scenario_golden.py build/tools/neu10_run \\
            "$s" "scenarios/goldens/$(basename "$s" .scn).json" --regen
    done
    for g in scenarios/goldens/*.*.json; do
        n=$(basename "$g" .json)
        python3 tests/test_scenario_golden.py build/tools/neu10_run \\
            "scenarios/${n%.*}.scn" "$g" --core-policy="${n##*.}" --regen
    done
    for g in scenarios/goldens/*.trace.sha256; do
        python3 tests/test_scenario_golden.py build/tools/neu10_run \\
            "scenarios/$(basename "$g" .trace.sha256).scn" "$g" \\
            --trace --regen
    done

Exit codes: 0 match (or regenerated), 1 mismatch, 2 usage/run error.
"""

import difflib
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

# Harness env knobs would change the record under the caller's feet
# (a stray NEU10_SEED would fail every golden); the comparison always
# runs the scenario exactly as committed.
HARNESS_VARS = ("NEU10_SEED", "NEU10_SMOKE", "NEU10_TRACE",
                "NEU10_TRACE_OUT")

# Host widths a traced golden is checked at: the trace bytes must not
# depend on them.
TRACE_THREADS = (1, 4)


def run_runner(cmd, env):
    """Run the scenario runner; exit 2 if it fails."""
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {' '.join(cmd)} exited "
              f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)


def result_record(runner, scenario, env, extra):
    """The scenario's --smoke JSON record, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "result.json"
        run_runner([str(runner), str(scenario), "--smoke",
                    f"--json={out}", *extra], env)
        return out.read_bytes()


def trace_digests(runner, scenario, env, threads):
    """``sha256sum``-format lines for the traced --smoke run's trace
    and metrics files, named by the scenario rather than the temp
    path."""
    name = f"{scenario.stem}.trace.json"
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / name
        run_runner([str(runner), str(scenario), "--smoke",
                    f"--threads={threads}"],
                   dict(env, NEU10_TRACE="on",
                        NEU10_TRACE_OUT=str(trace)))
        lines = []
        for path in (trace, pathlib.Path(f"{trace}.metrics.json")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.name}\n")
        return "".join(lines).encode()


def main(argv):
    flags = {"--regen", "--trace"}
    # Passed through to the runner.
    extra = [a for a in argv[1:] if a.startswith("--core-policy=")]
    args = [a for a in argv[1:] if a not in flags and a not in extra]
    regen = "--regen" in argv[1:]
    traced = "--trace" in argv[1:]
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    runner, scenario, golden = map(pathlib.Path, args)

    env = {k: v for k, v in os.environ.items()
           if k not in HARNESS_VARS}

    if traced and extra:
        print("error: --trace takes no --core-policy", file=sys.stderr)
        return 2
    if traced:
        runs = [(f"--threads={n}",
                 trace_digests(runner, scenario, env, n))
                for n in TRACE_THREADS]
    else:
        runs = [("neu10_run output",
                 result_record(runner, scenario, env, extra))]

    if regen:
        got = runs[0][1]
        for label, other in runs[1:]:
            if other != got:
                print(f"error: {scenario.name} {label} differs from "
                      f"{runs[0][0]}; not regenerating",
                      file=sys.stderr)
                return 1
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(got)
        print(f"regenerated {golden}")
        return 0

    if not golden.exists():
        print(f"error: golden {golden} does not exist; generate it "
              f"with --regen and commit it", file=sys.stderr)
        return 1
    want = golden.read_bytes()
    failed = False
    for label, got in runs:
        if got == want:
            print(f"ok: {scenario.name} ({label}) matches "
                  f"{golden.name} ({len(got)} bytes)")
            continue
        failed = True
        diff = difflib.unified_diff(
            want.decode(errors="replace").splitlines(keepends=True),
            got.decode(errors="replace").splitlines(keepends=True),
            fromfile=str(golden), tofile=label)
        sys.stderr.writelines(diff)
    if not failed:
        return 0

    mode = " --trace" if traced else ""
    print(f"\nerror: {scenario.name} diverged from its golden. If "
          f"the change is intentional, regenerate with:\n  python3 "
          f"tests/test_scenario_golden.py {runner} {scenario} "
          f"{golden}{''.join(' ' + a for a in extra)}{mode} --regen\nand commit the updated golden.",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
