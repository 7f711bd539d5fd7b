#!/usr/bin/env python3
"""Project-invariant determinism lint for the neu10 source tree.

The fleet engine promises bit-identical results at any thread width;
runtime A/B tests enforce that dynamically, this lint enforces the
common ways of breaking it statically:

  banned-random   rand()/srand(), std::random_device, time()/clock(),
                  and std::chrono wall/steady clocks anywhere outside
                  common/random.* — every stochastic element must draw
                  from the explicitly seeded Rng.
  unordered-iter  range-for or .begin() iteration over a variable
                  declared as std::unordered_map/unordered_set in a
                  file that produces *Result data or lives under a
                  deterministic-export scope (obs/ — the trace/
                  metrics byte streams the identity tests compare —
                  and llm/, whose KV-page books feed the byte-exact
                  goldens) — hash-order walks feeding results make
                  the outcome depend on pointer layout. Sort first,
                  or iterate an ordered index.
  float-eq        == / != where either operand is a floating-point
                  literal or a variable declared double/float/Cycles,
                  in allocator/accounting code (vnpu/, stats/, sched/,
                  cluster/, llm/) — exact FP equality on computed
                  values is how cross-platform drift sneaks into the
                  books.
  naked-new       naked new / delete — owning raw pointers defeat the
                  leak- and lifetime-cleanliness the ASan gate checks;
                  use containers or smart pointers.
  stale-allow     an allow() directive that no longer suppresses any
                  finding — the code it excused was fixed or moved,
                  so the escape hatch must be removed, not rot.

Deliberate exceptions carry an inline escape hatch on the same or the
immediately preceding line, naming the rule they waive:

    // neu10-lint: allow(float-eq): comparing the untouched sentinel

Usage: python3 tools/lint_determinism.py [--root DIR] [FILES...]
       python3 tools/lint_determinism.py --list-rules
Exit status: 0 when clean, 1 when any finding survives the allows.
"""

import argparse
import pathlib
import re
import sys

# Rule name -> one-line summary (kept in sync with the module doc).
RULES = {
    "banned-random": "unseeded/wall-clock randomness outside common/random",
    "unordered-iter": "hash-order iteration in a *Result-producing "
                      "or deterministic-export (obs/) file",
    "float-eq": "floating-point ==/!= in allocator/accounting code",
    "naked-new": "naked new/delete",
    "stale-allow": "allow() directive that suppresses nothing",
}

# Rules owned solely by the whole-program analyzer
# (tools/neu10_analyze.py). It shares the allow() escape (and the
# unordered-iter name, which both tools check); its private rule
# names are legal in directives but not ours to judge, so they
# neither error as unknown nor count toward staleness here.
ANALYZER_ONLY_RULES = {"impure-path", "mutable-global",
                       "pointer-key-iter"}

# Files exempt from banned-random: the seeded generator itself.
RANDOM_EXEMPT = ("common/random.hh", "common/random.cc")

# float-eq only applies to allocator/accounting code. llm/ qualifies:
# KV-page occupancy/fragmentation accounting is FP and feeds goldens.
FLOAT_EQ_SCOPES = ("vnpu/", "stats/", "sched/", "cluster/", "llm/")

ALLOW_RE = re.compile(r"neu10-lint:\s*allow\(([a-z\-,\s]+)\)")

BANNED_RANDOM_RES = [
    (re.compile(r"(?<![\w.:>])(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.:>])(?:std::)?time\s*\("), "time()"),
    (re.compile(r"(?<![\w.:>])(?:std::)?clock\s*\("), "clock()"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "std::chrono clocks"),
]

# Keywords that can legitimately precede a function call; any other
# identifier right before `time(` / `clock(` means a declaration of a
# variable by that name (`Clock clock(freq)`), not a libc call.
CALL_PREFIX_KEYWORDS = {"return", "case", "if", "while", "for", "do",
                        "else", "switch", "co_return", "co_yield",
                        "and", "or", "not", "throw"}


def looks_like_call(line, start):
    """True when the match at line[start:] is a call site rather than
    a declaration of a same-named variable."""
    prefix = line[:start].rstrip()
    if not prefix:
        return True
    if prefix[-1].isalnum() or prefix[-1] == "_":
        word = re.search(r"([A-Za-z_]\w*)$", prefix)
        return bool(word) and word.group(1) in CALL_PREFIX_KEYWORDS
    return prefix[-1] not in "&*>"  # `Clock &clock(`, `Foo *time(`

FLOAT_LITERAL_RE = re.compile(r"(?<![\w.])(?:\d+\.\d*|\.\d+|\d+e[-+]?\d+)f?")
NEW_RE = re.compile(r"(?<![\w.:>])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![\w.:>])delete\b(?!d)")
RESULT_FILE_RE = re.compile(r"\b\w+Result\b")
# Path fragments whose files export deterministic byte streams (the
# trace/metrics JSON the byte-identity tests compare, and the LLM
# serving layer whose per-sequence KV books feed the byte-exact
# scenario goldens): hash-order iteration is a determinism bug there
# even when no *Result type is named in the file.
RESULT_SCOPES = ("obs/", "llm/")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*([A-Za-z_]\w*)")
# `.begin()` starts a walk; a lone `.end()` is the find()-lookup
# idiom (`it != names.end()`) and carries no order dependence.
BEGIN_ITER_RE = re.compile(r"\b([A-Za-z_]\w*)\s*[.]\s*c?begin\s*\(")
# A declaration introducing an unordered container variable — local,
# member, or function parameter (hence ',' and ')'): the variable
# name is the identifier right after the closing '>'.
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<.*>[&\s]*([A-Za-z_]\w*)\s*[;({=\[,)]")
FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float|Cycles)\b[^;=(]*?([A-Za-z_]\w*)\s*[;({=\[,]")
FLOAT_TMPL_DECL_RE = re.compile(
    r"<\s*(?:double|float|Cycles)\s*>[&\s]*([A-Za-z_]\w*)\s*[;({=\[]")
CMP_RE = re.compile(r"([A-Za-z_][\w.\[\]>-]*|[^=!<>]\S*)\s*[=!]=\s*"
                    r"([A-Za-z_][\w.\[\]>-]*|\S+)")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so the rules only see code."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


def collect_allows(raw_lines, code_lines):
    """Parse allow() directives. Returns (allows, directives):
    allows maps line number -> {rule: directive}, where a directive
    covers its own line and the next line holding code (comment-only
    lines in between — the rest of the justification — are skipped).
    directives is the list of records, each tracking which of its
    rules actually suppressed a finding, for the stale-allow audit."""
    allows = {}
    directives = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        unknown = rules - set(RULES) - ANALYZER_ONLY_RULES
        if unknown:
            raise SystemExit(
                f"line {idx}: unknown rule(s) in allow(): "
                f"{', '.join(sorted(unknown))}")
        directive = {"line": idx, "rules": rules & set(RULES),
                     "consumed": set()}
        directives.append(directive)
        covered = [idx]
        for j in range(idx + 1, len(code_lines) + 1):
            covered.append(j)
            if code_lines[j - 1].strip():
                break
        for j in covered:
            slot = allows.setdefault(j, {})
            for rule in directive["rules"]:
                slot[rule] = directive
    return allows, directives


def base_identifier(expr):
    """Leading identifier of an expression like open[i].second."""
    m = re.match(r"\s*[&*(]*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""


def lint_file(path, rel, findings):
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    try:
        allows, directives = collect_allows(raw_lines, code_lines)
    except SystemExit as err:
        raise SystemExit(f"{rel}: {err}")

    def report(lineno, rule, message):
        directive = allows.get(lineno, {}).get(rule)
        if directive is not None:
            directive["consumed"].add(rule)
            return
        findings.append((rel, lineno, rule, message))

    # ---- banned-random -------------------------------------------
    if not str(rel).replace("\\", "/").endswith(RANDOM_EXEMPT):
        for lineno, line in enumerate(code_lines, start=1):
            for pattern, what in BANNED_RANDOM_RES:
                m = pattern.search(line)
                if m and looks_like_call(line, m.start()):
                    report(lineno, "banned-random",
                           f"{what} — draw from the seeded common/"
                           "random Rng instead")

    # ---- unordered-iter ------------------------------------------
    rel_posix = str(rel).replace("\\", "/")
    if RESULT_FILE_RE.search(code) or \
            any(scope in rel_posix for scope in RESULT_SCOPES):
        unordered = set()
        for line in code_lines:
            for m in UNORDERED_DECL_RE.finditer(line):
                unordered.add(m.group(1))
        if unordered:
            for lineno, line in enumerate(code_lines, start=1):
                seqs = [m.group(1)
                        for m in RANGE_FOR_RE.finditer(line)]
                seqs += [m.group(1)
                         for m in BEGIN_ITER_RE.finditer(line)]
                for name in seqs:
                    if name in unordered:
                        report(lineno, "unordered-iter",
                               f"iteration over unordered '{name}' in "
                               "a deterministic-output file — order "
                               "is hash/pointer dependent; sort or "
                               "index")

    # ---- float-eq -------------------------------------------------
    if any(scope in rel_posix for scope in FLOAT_EQ_SCOPES):
        float_names = set()
        for line in code_lines:
            for m in FLOAT_DECL_RE.finditer(line):
                float_names.add(m.group(1))
            for m in FLOAT_TMPL_DECL_RE.finditer(line):
                float_names.add(m.group(1))
        for lineno, line in enumerate(code_lines, start=1):
            for m in CMP_RE.finditer(line):
                lhs, rhs = m.group(1), m.group(2)
                floaty = (FLOAT_LITERAL_RE.fullmatch(lhs.strip())
                          or FLOAT_LITERAL_RE.fullmatch(rhs.strip())
                          or base_identifier(lhs) in float_names
                          or base_identifier(rhs) in float_names)
                if floaty:
                    report(lineno, "float-eq",
                           f"exact FP comparison '{m.group(0).strip()}'"
                           " in accounting code — compare against an "
                           "epsilon or restructure")

    # ---- naked-new ------------------------------------------------
    for lineno, line in enumerate(code_lines, start=1):
        if NEW_RE.search(line):
            report(lineno, "naked-new",
                   "naked 'new' — use a container or smart pointer")
        if DELETE_RE.search(line) and "= delete" not in line:
            report(lineno, "naked-new",
                   "naked 'delete' — use a container or smart pointer")

    # ---- stale-allow ----------------------------------------------
    # Every rule a directive names must have excused at least one
    # finding above; directives naming only analyzer-owned rules were
    # filtered out of `rules` already and are the analyzer's to judge.
    for directive in directives:
        for rule in sorted(directive["rules"] - directive["consumed"]):
            findings.append(
                (rel, directive["line"], "stale-allow",
                 f"allow({rule}) no longer suppresses any finding — "
                 "remove the directive"))


def source_files(root):
    src = root / "src"
    for ext in ("*.hh", "*.cc", "*.hpp", "*.cpp", "*.h"):
        yield from sorted(src.rglob(ext))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repo root holding src/ (default: cwd)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("files", nargs="*",
                    help="lint only these files (default: src/**)")
    args = ap.parse_args()

    if args.list_rules:
        for name, summary in RULES.items():
            print(f"{name:15s} {summary}")
        return 0

    root = pathlib.Path(args.root).resolve()
    files = ([pathlib.Path(f).resolve() for f in args.files]
             if args.files else list(source_files(root)))

    findings = []
    for path in files:
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = path
        lint_file(path, rel, findings)

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: {rule}: {message}")
    print(f"lint_determinism: {len(files)} files, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
