#!/usr/bin/env python3
"""CTest entry proving the determinism certifier fires.

Runs tools/neu10_analyze.py against the fixture trees under
tests/analyzer_fixtures/:

  violations/     every rule must flag its known file:line anchors —
                  impure-path with the full multi-hop call chain,
                  unordered-iter from declared types (locals, members
                  and parameters) in result/JSON-producing functions
                  and anywhere under obs/ and llm/, mutable-global on
                  each un-annotated global/static, pointer-key-iter on
                  both walk shapes, banned-random on every source even
                  where no entry point reaches it, float-eq in the
                  accounting scopes, naked-new, and stale-allow on
                  exactly the directives that excuse nothing;
  clean/          idiomatic look-alikes must pass silently: sanctioned
                  boundaries (common/random, common/env,
                  common/logging), `clk.now()` / `frame.time()` /
                  `gen.rand()` / `Clock clock(...)` name collisions,
                  sorted-after-iteration and sentinel equality behind
                  allow(), lookups into unordered maps, order-
                  insensitive erasure walks, int-keyed maps, deleted
                  special members, and exempt globals (const/atomic/
                  thread_local/mutex/NEU10_GUARDED_BY);
  unknown_allow/  a misspelt rule name in allow() is a setup error;

then checks the JSON report contract (schema-versioned, emitted even
on a clean run) and the IR cache, and finally certifies the real
tree: zero findings on src/, mirroring the CI gate.

The exact-anchor assertions pin the textual frontend (the one
guaranteed everywhere); the passes with --frontend auto assert only
the exit code, so runners with libclang exercise that path too.

Usage: python3 tests/test_analyzer_tools.py [repo-root]
Exit status: 0 when every expectation holds.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

FAILURES = []

# Every finding the violations tree must produce, as (file, line, rule).
VIOLATION_ANCHORS = [
    # impure-path: chrono clock + thread id, two hops deep; then
    # random_device, rand() and printf outside the sanctioned common/
    # boundaries
    ("src/sim/hot_path.cc", 22, "impure-path"),
    ("src/sim/hot_path.cc", 30, "impure-path"),
    ("src/models/seeded_badly.cc", 17, "impure-path"),
    ("src/models/seeded_badly.cc", 18, "impure-path"),
    ("src/models/seeded_badly.cc", 24, "impure-path"),
    # banned-random: the same sources by text, plus every source in a
    # file no entry point reaches
    ("src/sim/hot_path.cc", 22, "banned-random"),
    ("src/models/seeded_badly.cc", 17, "banned-random"),
    ("src/models/seeded_badly.cc", 18, "banned-random"),
    ("src/models/bad_rng.cc", 11, "banned-random"),
    ("src/models/bad_rng.cc", 12, "banned-random"),
    ("src/models/bad_rng.cc", 18, "banned-random"),
    ("src/models/bad_rng.cc", 25, "banned-random"),
    ("src/models/bad_rng.cc", 26, "banned-random"),
    # unordered-iter: member-typed, result-flow by type/name only
    ("src/cluster/unordered_result.cc", 34, "unordered-iter"),
    ("src/cluster/unordered_result.cc", 38, "unordered-iter"),
    ("src/cluster/unordered_result.cc", 47, "unordered-iter"),
    # ... over a parameter (19) and a local (24)
    ("src/cluster/bad_unordered.cc", 19, "unordered-iter"),
    ("src/cluster/bad_unordered.cc", 24, "unordered-iter"),
    # ... and on the obs/ and llm/ path scopes alone, no *Result
    # named (obs/ line 14 walks a parameter)
    ("src/obs/bad_trace_export.cc", 14, "unordered-iter"),
    ("src/obs/bad_trace_export.cc", 21, "unordered-iter"),
    ("src/llm/bad_kv_accounting.cc", 26, "unordered-iter"),
    ("src/llm/bad_kv_accounting.cc", 30, "unordered-iter"),
    # float-eq: literal and declared-float operands, in vnpu/ and in
    # llm/ (an accounting scope too)
    ("src/vnpu/bad_float_eq.cc", 13, "float-eq"),
    ("src/vnpu/bad_float_eq.cc", 15, "float-eq"),
    ("src/llm/bad_kv_accounting.cc", 16, "float-eq"),
    ("src/llm/bad_kv_accounting.cc", 18, "float-eq"),
    # naked-new: new, new[], delete[], delete
    ("src/runtime/bad_naked_new.cc", 11, "naked-new"),
    ("src/runtime/bad_naked_new.cc", 12, "naked-new"),
    ("src/runtime/bad_naked_new.cc", 19, "naked-new"),
    ("src/runtime/bad_naked_new.cc", 20, "naked-new"),
    # mutable-global: plain, static, anon-namespace, fn-local
    ("src/common/global_state.cc", 8, "mutable-global"),
    ("src/common/global_state.cc", 10, "mutable-global"),
    ("src/common/global_state.cc", 14, "mutable-global"),
    ("src/common/global_state.cc", 20, "mutable-global"),
    ("src/runtime/stale_allow.cc", 34, "mutable-global"),
    # pointer-key-iter: range-for and begin() walk
    ("src/sched/ptr_key.cc", 20, "pointer-key-iter"),
    ("src/sched/ptr_key.cc", 23, "pointer-key-iter"),
    # stale-allow: a per-file rule (22) and a whole-program rule (33)
    # that excuse nothing
    ("src/runtime/stale_allow.cc", 22, "stale-allow"),
    ("src/runtime/stale_allow.cc", 33, "stale-allow"),
]


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
    tool = root / "tools" / "neu10_analyze.py"
    fixtures = root / "tests" / "analyzer_fixtures"

    rc, out = run(tool, "--list-rules")
    expect(rc == 0 and len(out.splitlines()) == 8,
           "--list-rules prints the 8 rules")

    # ---- violations tree: every rule fires on its exact anchor ----
    rc, out = run(tool, "--root", fixtures / "violations",
                  "--frontend", "textual")
    expect(rc == 1, "violations tree exits 1")
    lines = out.splitlines()
    for path, line, rule in VIOLATION_ANCHORS:
        anchor = f"{path}:{line}: {rule}:"
        expect(any(l.startswith(anchor) for l in lines),
               f"{rule} fires at {path}:{line}")

    # impure-path findings must carry the full chain, one hop per
    # line, each with a file:line anchor.
    expect("runFleet -> neu10::(anon)::stampNow" in out,
           "impure-path reports the call chain")
    expect("    via src/sim/hot_path.cc:" in out,
           "every chain hop carries file:line")

    # stale-allow precision: only the two dead directives, each naming
    # its rotted rule — the live allow(banned-random) at line 29 is
    # consumed, not flagged.
    stale = [l for l in lines if " stale-allow: " in l]
    expect(len(stale) == 2 and
           stale[0].startswith("src/runtime/stale_allow.cc:22:") and
           "allow(naked-new)" in stale[0] and
           stale[1].startswith("src/runtime/stale_allow.cc:33:") and
           "allow(impure-path)" in stale[1],
           "stale-allow flags only the dead directives, naming the rule")

    # ---- clean tree: look-alikes stay silent ----------------------
    rc, out = run(tool, "--root", fixtures / "clean",
                  "--frontend", "textual")
    expect(rc == 0 and "0 finding(s), 3 allowed" in out,
           "clean tree passes with its 3 allow() escapes consumed: "
           + out.strip().splitlines()[-1])

    # ---- a misspelt rule in allow() is a setup error --------------
    rc, out = run(tool, "--root", fixtures / "unknown_allow",
                  "--frontend", "textual")
    expect(rc == 2 and "src/cluster/typo.cc:15: unknown rule(s) in "
           "allow(): unordered-itr" in out,
           "unknown allow() rule exits 2 naming file:line")

    # ---- JSON report: schema-versioned, present even when clean ---
    with tempfile.TemporaryDirectory() as td:
        report = pathlib.Path(td) / "findings.json"
        rc, _ = run(tool, "--root", fixtures / "clean",
                    "--frontend", "textual", "--json", report)
        expect(rc == 0 and report.exists(),
               "clean run still writes the JSON report")
        doc = json.loads(report.read_text())
        expect(doc.get("schema") == "neu10-analyze-v1",
               "report is schema-versioned")
        expect(doc.get("findings") == [],
               "clean report has an empty findings list")
        for key in ("frontend", "rules", "entry_points",
                    "files_analyzed", "call_edges"):
            expect(key in doc, f"report carries '{key}'")

        report2 = pathlib.Path(td) / "violations.json"
        rc, _ = run(tool, "--root", fixtures / "violations",
                    "--frontend", "textual", "--json", report2)
        doc2 = json.loads(report2.read_text())
        # 39 anchors; bad_rng.cc:11 (srand(time(nullptr))) counts twice
        expect(rc == 1 and len(doc2["findings"]) == 40,
               f"violations report lists all 40 findings "
               f"(got {len(doc2['findings'])})")
        chains = [f for f in doc2["findings"]
                  if f["rule"] == "impure-path"]
        expect(all(f.get("chain") for f in chains),
               "JSON impure-path findings embed the machine-readable "
               "chain")

    # ---- cache: second run must reuse every parse -----------------
    with tempfile.TemporaryDirectory() as td:
        cache = pathlib.Path(td) / "cache"
        run(tool, "--root", fixtures / "clean",
            "--frontend", "textual", "--cache-dir", cache)
        rc, out = run(tool, "--root", fixtures / "clean",
                      "--frontend", "textual", "--cache-dir", cache)
        expect(rc == 0 and "(8 from cache)" in out,
               "warm cache reuses all parsed IR")

    # ---- explicit unavailable frontend is a setup error (rc 2) ----
    if not _has_libclang():
        rc, out = run(tool, "--root", fixtures / "clean",
                      "--frontend", "libclang")
        expect(rc == 2 and "python3-clang" in out,
               "explicit libclang without bindings exits 2 with hint")

    # ---- auto frontend: verdicts agree on any runner --------------
    rc, _ = run(tool, "--root", fixtures / "violations",
                "--frontend", "auto")
    expect(rc == 1, "auto frontend still flags the violations tree")

    # ---- the real tree is certified clean (CI gate mirror) --------
    rc, out = run(tool, "--root", root, "--frontend", "auto")
    expect(rc == 0, "repo src/ is certified deterministic: "
           + out.strip().splitlines()[-1])

    if FAILURES:
        print(f"\n{len(FAILURES)} expectation(s) failed")
        return 1
    print("\nall analyzer expectations hold")
    return 0


def _has_libclang():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


if __name__ == "__main__":
    sys.exit(main())
