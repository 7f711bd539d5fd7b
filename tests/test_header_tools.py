#!/usr/bin/env python3
"""CTest entry proving the header self-containment check fires.

Runs tools/check_headers.py against the fixture trees under
tests/analyzer_fixtures/ — the broken header in violations/ must fail
its standalone compile, the self-contained one in clean/ must pass —
and finally against the real tree, mirroring the CI gate.

Usage: python3 tests/test_header_tools.py [repo-root]
Exit status: 0 when every expectation holds.
"""

import pathlib
import subprocess
import sys

FAILURES = []


def run(tool, *argv):
    cmd = [sys.executable, str(tool), *map(str, argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(cond, what):
    print(("ok      " if cond else "FAILED  ") + what)
    if not cond:
        FAILURES.append(what)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    root = root.resolve()
    fixtures = root / "tests" / "analyzer_fixtures"
    headers = root / "tools" / "check_headers.py"

    rc, out = run(headers, "--root", fixtures / "violations")
    expect(rc == 1 and "bad_header.hh" in out,
           "broken header flagged as not self-contained")
    rc, _ = run(headers, "--root", fixtures / "clean")
    expect(rc == 0, "self-contained header passes")

    rc, out = run(headers, "--root", root)
    expect(rc == 0, "repo src/ headers self-contained: "
           + out.strip().splitlines()[-1])

    if FAILURES:
        print(f"\n{len(FAILURES)} expectation(s) failed")
        return 1
    print("\nall header-tool expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
