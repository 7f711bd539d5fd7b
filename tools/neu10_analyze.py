#!/usr/bin/env python3
"""Determinism certifier for the neu10 source tree.

Every published artifact — scenario goldens, bench tables and the
bit-identical-across-thread-widths contract — assumes nothing in the
simulation can observe wall-clock time, unseeded randomness, the
environment, thread identity, hash order or allocator order. This
tool checks that assumption over src/ with eight rules. Three are
per-file text scans, run the same under every frontend:

  banned-random    a wall-clock read (std::chrono *_clock, time(),
                   clock(), gettimeofday/clock_gettime) anywhere, or
                   unseeded randomness (rand(), std::random_device)
                   outside common/random — the BANNED_SOURCES rows of
                   those two categories, reachable or not. Every
                   stochastic element draws from the seeded Rng.
  float-eq         == / != where either operand is a floating-point
                   literal or a variable declared double/float/Cycles,
                   in allocator/accounting code (vnpu/, stats/, sched/,
                   cluster/, llm/) — exact FP equality on computed
                   values is how cross-platform drift enters the books.
  naked-new        naked new / delete — owning raw pointers defeat the
                   lifetime cleanliness the ASan gate checks.

Four are whole-program rules over a cross-TU call graph of src/:

  impure-path      purity reachability: from the sim entry points
                   (runFleet, runServing, runLlmServing, runScenario,
                   the NpuCoreSim advance path) no call chain may
                   reach any BANNED_SOURCES row — the banned-random
                   sources plus getenv outside common/env,
                   std::this_thread::get_id, or stdout/stderr stream
                   writes outside common/logging. Each violation is
                   reported as the full chain entry -> ... -> banned,
                   with file:line for every hop.
  unordered-iter   iteration over a variable, parameter or member
                   whose declared type is std::unordered_map/
                   unordered_set, inside a function that produces
                   *Result data or exports JSON, or anywhere under
                   obs/ (the trace/metrics byte streams) and llm/ (the
                   KV-page books behind the byte-exact goldens).
  mutable-global   shared-state audit: every non-const namespace- or
                   static-storage variable in src/ must be const,
                   constexpr, std::atomic, thread_local, or
                   NEU10_GUARDED_BY-annotated.
  pointer-key-iter ordered iteration over a std::map/std::set keyed
                   by a raw pointer — the order is the allocator's,
                   not the program's.

The eighth audits the escape hatch. Deliberate exceptions carry an
inline directive on the finding line or directly above it (comment
lines between the directive and the code are skipped), naming the
rule they waive and why:

    // neu10-lint: allow(float-eq): kInf is an exact sentinel

  stale-allow      a directive naming a rule that suppressed no
                   finding — the code it excused was fixed or moved,
                   so the directive must be removed, not rot.

A rule name outside these eight is a setup error.

Frontends (--frontend, default "auto" = libclang when importable):

  libclang   clang.cindex over compile_commands.json — genuine AST
             and type queries. Needs the libclang Python bindings
             (apt: python3-clang).
  textual    pure-Python scanner/scope-tracker — no clang at all.
             Approximates types from declaration text; keeps the
             gate alive on toolchain-less runners.

Requesting libclang explicitly when unavailable exits 2 with a clear
message; "auto" degrades (with a warning) instead so CI always gets a
verdict. Findings are emitted as schema-versioned JSON (--json PATH,
schema "neu10-analyze-v1") even on clean runs. --cache-dir caches
per-file parse results keyed on content digest so repeated CI runs
only re-parse what changed.

Usage: python3 tools/neu10_analyze.py [--root DIR] [--build-dir DIR]
           [--frontend auto|libclang|textual] [--json PATH]
           [--cache-dir DIR] [--entry NAME]... [--list-rules]
Exit status: 0 clean, 1 findings, 2 setup error.
"""

import argparse
import hashlib
import json
import pathlib
import re
import sys

SCHEMA = "neu10-analyze-v1"
# Bump to invalidate --cache-dir entries when parsing/IR changes.
IR_VERSION = 9

RULES = {
    "banned-random": "wall-clock read, or unseeded randomness "
                     "outside common/random",
    "float-eq": "floating-point ==/!= in allocator/accounting code",
    "naked-new": "naked new/delete",
    "impure-path": "call chain from a sim entry point reaches a "
                   "nondeterminism source",
    "unordered-iter": "hash-order iteration feeding *Result/JSON data "
                      "or under obs/, llm/",
    "mutable-global": "non-const global/static neither atomic, "
                      "thread_local nor NEU10_GUARDED_BY-annotated",
    "pointer-key-iter": "ordered iteration over a raw-pointer-keyed "
                        "map/set",
    "stale-allow": "allow() directive that suppresses nothing",
}

# Default purity roots: the fleet driver, both serving loops, the
# scenario runner, and the core-simulator advance path
# (advanceTo/onEvent).
DEFAULT_ENTRIES = [
    "runFleet",
    "runServing",
    "runLlmServing",
    "runScenario",
    "NpuCoreSim::advanceTo",
    "NpuCoreSim::onEvent",
]

# Nondeterminism sources: (category, regex, human name, path
# fragments whose files may use the source legitimately). impure-path
# reports every row reachable from an entry point; banned-random
# reports the RANDOM_CATEGORIES rows anywhere in the tree.
BANNED_SOURCES = [
    ("wall-clock",
     re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "std::chrono clock", ()),
    ("wall-clock", re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("),
     "gettimeofday()/clock_gettime()", ()),
    ("wall-clock", re.compile(r"(?<![\w.:>])(?:std::)?time\s*\("),
     "time()", ()),
    ("wall-clock", re.compile(r"(?<![\w.:>])(?:std::)?clock\s*\("),
     "clock()", ()),
    ("unseeded-random", re.compile(r"(?<![\w.:>])(?:std::)?s?rand\s*\("),
     "rand()/srand()", ("common/random",)),
    ("unseeded-random", re.compile(r"\brandom_device\b"),
     "std::random_device", ("common/random",)),
    ("environment", re.compile(r"(?<![\w.:>])(?:std::)?(?:secure_)?getenv\s*\("),
     "getenv()", ("common/env",)),
    ("thread-identity", re.compile(r"\bthis_thread\s*::\s*get_id\b"),
     "std::this_thread::get_id()", ()),
    ("thread-identity", re.compile(r"\bpthread_self\s*\("),
     "pthread_self()", ()),
    ("stream-io", re.compile(r"\bstd\s*::\s*c(?:out|err|log)\b"),
     "std::cout/cerr/clog", ("common/logging",)),
    ("stream-io", re.compile(r"(?<![\w.:>])(?:printf|puts|putchar)\s*\("),
     "stdout stream write", ("common/logging",)),
    ("stream-io", re.compile(r"\bfprintf\s*\(\s*std(?:out|err)\b"),
     "fprintf(stdout/stderr)", ("common/logging",)),
]

RANDOM_CATEGORIES = ("wall-clock", "unseeded-random")

# Sources that must also read as a call site (see looks_like_call),
# so `Clock clock(freq)` declarations do not fire.
CALL_HEURISTIC = {"time()", "clock()", "rand()/srand()"}

CALL_PREFIX_KEYWORDS = {"return", "case", "if", "while", "for", "do",
                        "else", "switch", "co_return", "co_yield",
                        "and", "or", "not", "throw", "comma"}

KEYWORD_NONCALLS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "decltype", "noexcept", "new", "delete", "throw",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "static_assert", "assert", "defined", "alignas", "case",
    "template", "typename", "operator", "requires", "co_await",
    "co_yield", "co_return", "explicit", "typeid", "using",
}

# float-eq only applies to allocator/accounting code. llm/ qualifies:
# KV-page occupancy/fragmentation accounting is FP and feeds goldens.
FLOAT_EQ_SCOPES = ("vnpu/", "stats/", "sched/", "cluster/", "llm/")
# unordered-iter covers every function under these deterministic-
# export scopes, result-typed or not: obs/ writes the trace/metrics
# byte streams the identity tests compare, and llm/'s per-sequence KV
# books feed the byte-exact scenario goldens.
EXPORT_SCOPES = ("obs/", "llm/")

ALLOW_RE = re.compile(r"neu10-lint:\s*allow\(([a-z\-,\s]+)\)")
RESULT_TYPE_RE = re.compile(r"\b[A-Z]\w*Result\b")
JSON_NAME_RE = re.compile(r"[Jj]son|JSON")
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<.*>[&\s]*([A-Za-z_]\w*)\s*[;({=\[,)]")
UNORDERED_OPEN_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*([A-Za-z_]\w*)")
# `.begin()` starts a walk; a lone `.end()` is the find()-lookup
# idiom and carries no order dependence.
BEGIN_ITER_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")
CALL_RE = re.compile(r"(?<![\w.:>])((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\(")
MEMBER_CALL_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
# A declaration whose initializer runs a constructor: `Rng rng(seed)`,
# `ScopedLogContext ctx{b, c}`. Capitalized head = project type.
CTOR_DECL_RE = re.compile(
    r"(?<![\w.:>])([A-Z]\w*)(?:\s*<[^<>;]*>)?\s+[A-Za-z_]\w*\s*[({]")
ORDERED_PTR_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<")
FLOAT_LITERAL_RE = re.compile(r"(?<![\w.])(?:\d+\.\d*|\.\d+|\d+e[-+]?\d+)f?")
FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float|Cycles)\b[^;=(]*?([A-Za-z_]\w*)\s*[;({=\[,]")
FLOAT_TMPL_DECL_RE = re.compile(
    r"<\s*(?:double|float|Cycles)\s*>[&\s]*([A-Za-z_]\w*)\s*[;({=\[]")
CMP_RE = re.compile(r"([A-Za-z_][\w.\[\]>-]*|[^=!<>]\S*)\s*[=!]=\s*"
                    r"([A-Za-z_][\w.\[\]>-]*|\S+)")
NEW_RE = re.compile(r"(?<![\w.:>])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![\w.:>])delete\b(?!d)")
TEXT_EXTS = (".cc", ".cpp", ".cxx", ".hh", ".hpp", ".h")


# ---------------------------------------------------------------------------
# Text helpers and the per-file rules
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so the analysis only sees code."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state, i = "line", i + 2
                out.append("  ")
                continue
            if c == "/" and nxt == "*":
                state, i = "block", i + 2
                out.append("  ")
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
                state, i = "code", i + 2
                out.append("  ")
                continue
            out.append(c if c == "\n" else " ")
        else:
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


def banned_uses(line):
    """(category, what, exempt) for each BANNED_SOURCES row the code
    line uses."""
    for category, rx, what, exempt in BANNED_SOURCES:
        m = rx.search(line)
        if m and (what not in CALL_HEURISTIC or
                  looks_like_call(line, m.start())):
            yield category, what, exempt


def under(rel_posix, fragments):
    return any(frag in rel_posix for frag in fragments)


def collect_allows(rel, raw_lines, code_lines):
    """Parse one file's allow() directives. Returns (allows,
    directives): allows maps line -> {rule: directive}, where a
    directive covers its own line and the next line holding code
    (comment-only lines in between — the rest of the justification —
    are skipped); each directive records which of its rules actually
    suppressed a finding, for the stale-allow audit. A rule name
    outside RULES is a setup error."""
    allows, directives = {}, []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        unknown = rules - set(RULES)
        if unknown:
            print(f"{rel}:{idx}: unknown rule(s) in allow(): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            raise SystemExit(2)
        directive = {"file": rel, "line": idx, "rules": rules,
                     "consumed": set()}
        directives.append(directive)
        covered = [idx]
        for j in range(idx + 1, len(code_lines) + 1):
            covered.append(j)
            if code_lines[j - 1].strip():
                break
        for j in covered:
            allows.setdefault(j, {}).update(
                dict.fromkeys(rules, directive))
    return allows, directives


def base_identifier(expr):
    """Leading identifier of an expression like open[i].second."""
    m = re.match(r"\s*[&*(]*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""


def text_rules(rel, code_lines):
    """The per-file rules (banned-random, float-eq, naked-new) over
    one file's comment- and string-blanked lines."""
    findings = []

    def report(lineno, rule, message):
        findings.append({"rule": rule, "file": rel, "line": lineno,
                         "message": message})

    for lineno, line in enumerate(code_lines, start=1):
        for category, what, exempt in banned_uses(line):
            if category in RANDOM_CATEGORIES and not under(rel, exempt):
                report(lineno, "banned-random",
                       f"{what} — draw from the seeded common/random "
                       "Rng instead")
        if NEW_RE.search(line):
            report(lineno, "naked-new",
                   "naked 'new' — use a container or smart pointer")
        if DELETE_RE.search(line) and "= delete" not in line:
            report(lineno, "naked-new",
                   "naked 'delete' — use a container or smart pointer")

    if under(rel, FLOAT_EQ_SCOPES):
        float_names = {m.group(1) for line in code_lines
                       for rx in (FLOAT_DECL_RE, FLOAT_TMPL_DECL_RE)
                       for m in rx.finditer(line)}
        for lineno, line in enumerate(code_lines, start=1):
            for m in CMP_RE.finditer(line):
                if any(FLOAT_LITERAL_RE.fullmatch(side.strip()) or
                       base_identifier(side) in float_names
                       for side in m.groups()):
                    report(lineno, "float-eq",
                           f"exact FP comparison '{m.group(0).strip()}'"
                           " in accounting code — compare against an "
                           "epsilon or restructure")
    return findings


# ---------------------------------------------------------------------------
# Intermediate representation (one dict per file, JSON-serializable)
#
# file IR:
#   functions: [{qname, name, file, line, end_line, calls:[[name,line]],
#                banned:[[category, what, line]],
#                iters:[[name, line]], locals_unordered:[names],
#                locals_ptrkey:[names], result_flow: bool}]
#   members_unordered: {ClassName: [member names]}
#   members_ptrkey:    {ClassName: [member names]}
#   file_unordered: [names]      file-scope unordered variables
#   file_ptrkey:    [names]
#   globals: [{name, line, text, exempt_via}]   mutable-global facts
# ---------------------------------------------------------------------------


GLOBAL_EXEMPT_RES = [
    ("constexpr", re.compile(r"\bconstexpr\b")),
    ("consteval", re.compile(r"\bconsteval\b")),
    ("const", re.compile(r"\bconst\b")),
    ("std::atomic", re.compile(r"\batomic\s*<")),
    ("thread_local", re.compile(r"\bthread_local\b")),
    ("NEU10_GUARDED_BY", re.compile(r"\bNEU10_(?:PT_)?GUARDED_BY\s*\(")),
    # Synchronization primitives are internally synchronized — a
    # global mutex is the thing other globals get guarded *by*.
    ("sync-primitive",
     re.compile(r"\b(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
                r"once_flag|condition_variable(?:_any)?)\b")),
]

DECL_SKIP_RE = re.compile(
    r"^\s*(?:typedef|using|template|friend|struct|class|union|enum|"
    r"namespace|extern|static_assert|public|private|protected|"
    r"#)\b")


def template_region(stmt):
    """Span of a leading template<...> prefix, if any."""
    m = re.match(r"\s*template\s*<", stmt)
    if not m:
        return 0
    depth, i = 1, m.end()
    while i < len(stmt) and depth:
        if stmt[i] == "<":
            depth += 1
        elif stmt[i] == ">":
            depth -= 1
        i += 1
    return i


def extract_fn_name(stmt):
    """Function name (possibly Class::qualified) from a signature
    statement: the identifier chain before the first top-level '('."""
    stmt = stmt[template_region(stmt):]
    depth_angle = 0
    for i, c in enumerate(stmt):
        if c == "<":
            depth_angle += 1
        elif c == ">":
            depth_angle = max(0, depth_angle - 1)
        elif c == "(" and depth_angle == 0:
            head = stmt[:i].rstrip()
            m = re.search(r"((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*"
                          r"|operator\s*[^\s\w]{1,3})$", head)
            if not m:
                return None
            return re.sub(r"\s+", "", m.group(1))
    return None


def looks_like_signature(stmt):
    """Does a brace-introducing statement read as a function
    definition header (vs an initializer)?"""
    s = stmt.rstrip()
    if not s or "(" not in s:
        return False
    # Strip trailing specifiers and annotation macros after the
    # parameter list: const noexcept override final -> T try
    # NEU10_REQUIRES(m) NEU10_EXCLUDES(m) ...
    for _ in range(8):
        s2 = re.sub(r"(?:\bconst|\bnoexcept(?:\s*\([^()]*\))?|"
                    r"\boverride|\bfinal|\btry|\bNEU10_\w+\s*\([^()]*\)|"
                    r"->\s*[\w:<>&*\s]+)\s*$", "", s).rstrip()
        if s2 == s:
            break
        s = s2
    if s.endswith(")"):
        return True
    # Constructor with member-init list: "Foo::Foo(...) : a_(1), b_{}"
    return bool(re.search(r"\)\s*:", s))


def close_angle(text, start):
    """Index just past the '>' matching the '<' at text[start]."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def ptrkey_decl_names(stmt):
    """Variable names declared with an ordered map/set keyed by a raw
    pointer inside `stmt`."""
    names = []
    for m in ORDERED_PTR_RE.finditer(stmt):
        if "unordered_" in stmt[max(0, m.start() - 10):m.start() + 1]:
            continue
        open_i = m.end() - 1
        close_i = close_angle(stmt, open_i)
        inner = stmt[open_i + 1:close_i - 1]
        # Key type: up to the first top-level comma (set has none).
        depth, key_end = 0, len(inner)
        for i, c in enumerate(inner):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 0:
                key_end = i
                break
        if "*" not in inner[:key_end]:
            continue
        m2 = re.match(r"[&\s]*([A-Za-z_]\w*)\s*[;({=\[]",
                      stmt[close_i:])
        if m2:
            names.append(m2.group(1))
    return names


def unordered_params(sig):
    """Names of the std::unordered_map/set parameters in a flattened
    function signature: the declarator right after each closing '>'."""
    names = []
    for m in UNORDERED_OPEN_RE.finditer(sig):
        m2 = re.match(r"[&\s]*([A-Za-z_]\w*)\s*[,)=]",
                      sig[close_angle(sig, m.end() - 1):])
        if m2:
            names.append(m2.group(1))
    return names


class _Scope:
    __slots__ = ("kind", "name", "stmt", "fn")

    def __init__(self, kind, name="", fn=None):
        self.kind = kind      # ns | class | fn | blk | init
        self.name = name
        self.stmt = ""        # statement accumulator (ns/class)
        self.fn = fn          # function record for kind == fn


def parse_tu_textual(path, rel_posix):
    """Parse one file into the shared IR with the pure-Python
    frontend: a comment/string-stripping scanner plus a brace scope
    tracker that classifies every '{' as namespace, class, function
    body, or initializer."""
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()

    ir = {
        "file": rel_posix,
        "functions": [],
        "members_unordered": {},
        "members_ptrkey": {},
        "file_unordered": [],
        "file_ptrkey": [],
        "globals": [],
    }

    stack = [_Scope("ns", "")]  # file scope behaves like a namespace

    def enclosing_class():
        for sc in reversed(stack):
            if sc.kind == "class":
                return sc.name
        return ""

    def qualify(name):
        parts = [sc.name for sc in stack
                 if sc.kind in ("ns", "class") and sc.name]
        if "::" in name:
            return "::".join(parts + [name]) if parts else name
        return "::".join(parts + [name]) if parts else name

    def process_decl(stmt, lineno, scope):
        """A ';'-terminated statement at namespace or class scope:
        record unordered/pointer-keyed members and mutable globals."""
        s = stmt.strip()
        # Access-specifier labels end with ':' not ';' and so glue
        # onto the declaration that follows them — peel them off.
        s = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "",
                   s)
        if not s or DECL_SKIP_RE.match(s):
            return
        target_u = (ir["members_unordered"].setdefault(scope.name, [])
                    if scope.kind == "class" else ir["file_unordered"])
        target_p = (ir["members_ptrkey"].setdefault(scope.name, [])
                    if scope.kind == "class" else ir["file_ptrkey"])
        m = UNORDERED_DECL_RE.search(s + ";")
        if m:
            target_u.append(m.group(1))
        for nm in ptrkey_decl_names(s + ";"):
            target_p.append(nm)
        # ---- mutable-global audit ---------------------------------
        # Namespace-scope variables (any), class-scope only `static`
        # data members. A top-level '(' before any '=' reads as a
        # function declaration/prototype, not a variable.
        if scope.kind == "class" and not re.match(r"static\b", s):
            return
        body = s
        eq = None
        depth = 0
        for i, c in enumerate(body):
            if c in "<([":
                depth += 1
            elif c in ">)]":
                depth = max(0, depth - 1)
            elif c == "=" and depth == 0 and \
                    (i + 1 == len(body) or body[i + 1] != "=") and \
                    (i == 0 or body[i - 1] not in "=!<>+-*/|&^"):
                eq = i
                break
        head = body if eq is None else body[:eq]
        if "(" in re.sub(r"NEU10_\w+\s*\([^()]*\)", "", head) \
                or "operator" in head:
            return  # function declaration / prototype
        m = re.search(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*"
                      r"(?:NEU10_\w+\s*\([^()]*\)\s*)?(?:{}\s*)?$",
                      head)
        if not m:
            return
        name = m.group(1)
        if name in ("void", "return", "break", "continue", "goto",
                    "default", "else", "true", "false", "nullptr"):
            return
        exempt_via = next((tag for tag, rx in GLOBAL_EXEMPT_RES
                           if rx.search(s)), None)
        ir["globals"].append({
            "name": name, "line": lineno, "text": " ".join(s.split()),
            "exempt_via": exempt_via,
        })

    def new_fn(name, lineno):
        return {
            "qname": qualify(name), "name": name.split("::")[-1],
            "cls": (name.split("::")[-2] if "::" in name
                    else enclosing_class()),
            "file": rel_posix, "line": lineno, "end_line": lineno,
            "calls": [], "banned": [], "iters": [],
            "locals_unordered": [], "locals_ptrkey": [],
            "result_flow": False, "sig": "",
        }

    # ---- scan: classify every brace --------------------------------
    line_no = 1
    fn_body_ranges = []  # (start_line, end_line, fn record)
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "\n":
            line_no += 1
            stack[-1].stmt += "\n"
            i += 1
            continue
        if c == "{":
            cur = stack[-1]
            if cur.kind in ("fn", "blk", "init"):
                stack.append(_Scope("blk" if cur.kind != "init"
                                    else "init"))
                i += 1
                continue
            stmt = cur.stmt
            flat = " ".join(stmt.split())
            mns = re.search(r"\bnamespace\b\s*([A-Za-z_]\w*)?\s*$",
                            flat)
            if mns:
                stack.append(_Scope("ns", mns.group(1) or "(anon)"))
                cur.stmt = ""
            elif re.search(r"\b(?:class|struct|union|enum)\b", flat) \
                    and not flat.rstrip().endswith(")") \
                    and not looks_like_signature(flat):
                mcls = re.search(r"\b(?:class|struct|union)\s+"
                                 r"(?:alignas\s*\([^)]*\)\s*)?"
                                 r"(?:NEU10_\w+(?:\s*\([^()]*\))?\s+)*"
                                 r"([A-Za-z_]\w*)", flat)
                stack.append(_Scope("class",
                                    mcls.group(1) if mcls else "(anon)"))
                cur.stmt = ""
            elif looks_like_signature(flat):
                name = extract_fn_name(flat) or "(unknown)"
                fn = new_fn(name, line_no)
                fn["sig"] = flat
                stack.append(_Scope("fn", name, fn))
                cur.stmt = ""
            else:
                stack.append(_Scope("init"))
            i += 1
            continue
        if c == "}":
            if len(stack) > 1:
                closed = stack.pop()
                if closed.kind == "fn":
                    closed.fn["end_line"] = line_no
                    fn_body_ranges.append(
                        (closed.fn["line"], line_no, closed.fn))
                    ir["functions"].append(closed.fn)
                    stack[-1].stmt = ""
                elif closed.kind == "init" and \
                        stack[-1].kind in ("ns", "class"):
                    stack[-1].stmt += "{}"
                elif closed.kind in ("ns", "class"):
                    stack[-1].stmt = ""
            i += 1
            continue
        if c == ";":
            cur = stack[-1]
            if cur.kind in ("ns", "class"):
                process_decl(" ".join(cur.stmt.split()),
                             line_no, cur)
                cur.stmt = ""
            i += 1
            continue
        stack[-1].stmt += c
        i += 1

    # ---- per-function body passes ----------------------------------
    for start, end, fn in fn_body_ranges:
        body_lines = [(ln, code_lines[ln - 1])
                      for ln in range(start, min(end, len(code_lines)) + 1)]
        # Exclude lines owned by nested function definitions? Nested
        # ranges only occur for lambdas, which belong to the
        # enclosing function by design.
        text = fn["sig"] + "\n" + \
            "\n".join(line for _, line in body_lines)
        fn["result_flow"] = bool(RESULT_TYPE_RE.search(text)) or \
            bool(JSON_NAME_RE.search(fn["name"])) or \
            "ostream" in fn["sig"]
        fn["locals_unordered"].extend(unordered_params(fn["sig"]))
        for ln, line in body_lines:
            for m in CALL_RE.finditer(line):
                nm = re.sub(r"\s+", "", m.group(1))
                base = nm.split("::")[-1]
                if base in KEYWORD_NONCALLS or nm in KEYWORD_NONCALLS:
                    continue
                fn["calls"].append([nm, ln])
            for m in MEMBER_CALL_RE.finditer(line):
                if m.group(1) not in KEYWORD_NONCALLS:
                    fn["calls"].append([m.group(1), ln])
            # `Type var(args);` / `Type var{...};` declarations run
            # Type's constructor — an edge CALL_RE cannot see (it
            # captures `var`, not `Type`).
            for m in CTOR_DECL_RE.finditer(line):
                if m.group(1) not in KEYWORD_NONCALLS:
                    fn["calls"].append([m.group(1), ln])
            for category, what, exempt in banned_uses(line):
                fn["banned"].append([category, what, ln, exempt])
            m = UNORDERED_DECL_RE.search(line)
            if m:
                fn["locals_unordered"].append(m.group(1))
            for nm in ptrkey_decl_names(line):
                fn["locals_ptrkey"].append(nm)
            for m in RANGE_FOR_RE.finditer(line):
                fn["iters"].append([m.group(1), ln])
            for m in BEGIN_ITER_RE.finditer(line):
                fn["iters"].append([m.group(1), ln])
        # Function-local statics join the shared-state audit.
        for ln, line in body_lines:
            ms = re.match(r"\s*static\s+(?!assert\b|cast\b)(.*)$", line)
            if ms and not re.match(r"\s*static_", line):
                decl = ms.group(1)
                if "(" in decl.split("=")[0] and \
                        "atomic" not in decl:
                    continue
                mname = re.search(r"([A-Za-z_]\w*)\s*(?:=|{|;|\[)",
                                  decl)
                if not mname:
                    continue
                exempt_via = next(
                    (tag for tag, rx in GLOBAL_EXEMPT_RES
                     if rx.search(line)), None)
                ir["globals"].append({
                    "name": mname.group(1), "line": ln,
                    "text": " ".join(line.split()),
                    "exempt_via": exempt_via,
                })
    return ir


# ---------------------------------------------------------------------------
# libclang frontend
# ---------------------------------------------------------------------------

def libclang_available():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def parse_with_libclang(root, files, compile_args):
    """Parse every file with clang.cindex into the shared IR.
    Genuine type queries: unordered/pointer-keyed detection uses the
    canonical type spelling, const-ness uses Type.is_const_qualified.
    Raises on any setup/parse failure (caller falls back)."""
    import clang.cindex as ci
    try:
        index = ci.Index.create()
    except ci.LibclangError as err:
        raise RuntimeError(f"libclang unusable: {err}")

    CK = ci.CursorKind
    irs = []
    for path in files:
        rel_posix = path.relative_to(root).as_posix()
        args = compile_args.get(str(path),
                                ["-std=c++20", f"-I{root / 'src'}"])
        tu = index.parse(str(path), args=args)
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            raise RuntimeError(
                f"{rel_posix}: {fatal[0].spelling}")
        ir = {
            "file": rel_posix, "functions": [],
            "members_unordered": {}, "members_ptrkey": {},
            "file_unordered": [], "file_ptrkey": [], "globals": [],
        }

        def in_this_file(cur):
            return cur.location.file and \
                pathlib.Path(str(cur.location.file)).resolve() == path

        def qname(cur):
            parts = []
            p = cur
            while p is not None and p.kind != CK.TRANSLATION_UNIT:
                if p.spelling:
                    parts.append(p.spelling)
                elif p.kind == CK.NAMESPACE:
                    parts.append("(anon)")
                p = p.semantic_parent
            return "::".join(reversed(parts))

        def type_is_unordered(t):
            return "unordered_map" in t.spelling or \
                "unordered_set" in t.spelling

        def type_is_ptr_keyed(t):
            s = t.get_canonical().spelling
            m = re.search(r"\b(?:multi)?(?:map|set)<", s)
            if not m or "unordered" in s[:m.start()]:
                return False
            inner = s[m.end():]
            depth, key = 0, inner
            for i, ch in enumerate(inner):
                if ch == "<":
                    depth += 1
                elif ch == ">" and depth > 0:
                    depth -= 1
                elif (ch == "," or (ch == ">" and depth == 0)):
                    key = inner[:i]
                    break
            return "*" in key

        def record_banned(fn, cur, text, line):
            for category, rx, what, exempt in BANNED_SOURCES:
                if rx.search(text):
                    fn["banned"].append([category, what, line, exempt])
                    return

        def walk_body(fn, cur):
            for ch in cur.get_children():
                line = ch.location.line or fn["line"]
                if ch.kind == CK.CALL_EXPR:
                    ref = ch.referenced
                    nm = ref.spelling if ref else ch.spelling
                    if nm:
                        fn["calls"].append([nm, line])
                    txt = " ".join(t.spelling for t in ch.get_tokens())
                    record_banned(fn, ch, txt, line)
                elif ch.kind == CK.DECL_REF_EXPR:
                    txt = ch.spelling or ""
                    if "random_device" in txt:
                        fn["banned"].append(
                            ["unseeded-random", "std::random_device",
                             line, ("common/random",)])
                elif ch.kind == CK.VAR_DECL:
                    if type_is_unordered(ch.type):
                        fn["locals_unordered"].append(ch.spelling)
                    if type_is_ptr_keyed(ch.type):
                        fn["locals_ptrkey"].append(ch.spelling)
                    if RESULT_TYPE_RE.search(ch.type.spelling):
                        fn["result_flow"] = True
                elif ch.kind == CK.CXX_FOR_RANGE_STMT:
                    kids = list(ch.get_children())
                    if len(kids) >= 2:
                        rng = kids[-2]
                        nm = rng.spelling or \
                            "".join(t.spelling
                                    for t in rng.get_tokens())[:40]
                        if type_is_unordered(rng.type):
                            fn["iters"].append([nm, line])
                            fn["locals_unordered"].append(nm)
                        if type_is_ptr_keyed(rng.type):
                            fn["iters"].append([nm, line])
                            fn["locals_ptrkey"].append(nm)
                walk_body(fn, ch)

        def walk(cur):
            for ch in cur.get_children():
                if ch.kind in (CK.NAMESPACE, CK.CLASS_DECL,
                               CK.STRUCT_DECL, CK.CLASS_TEMPLATE):
                    walk(ch)
                    continue
                if not in_this_file(ch):
                    continue
                if ch.kind == CK.FIELD_DECL:
                    cls = ch.semantic_parent.spelling or "(anon)"
                    if type_is_unordered(ch.type):
                        ir["members_unordered"].setdefault(
                            cls, []).append(ch.spelling)
                    if type_is_ptr_keyed(ch.type):
                        ir["members_ptrkey"].setdefault(
                            cls, []).append(ch.spelling)
                elif ch.kind == CK.VAR_DECL:
                    t = ch.type
                    spelled = t.spelling
                    exempt_via = None
                    if t.is_const_qualified() or \
                            "const " in spelled or \
                            spelled.endswith("const"):
                        exempt_via = "const"
                    elif "atomic" in spelled:
                        exempt_via = "std::atomic"
                    elif ch.storage_class == \
                            ci.StorageClass.STATIC and \
                            "thread_local" in " ".join(
                                tk.spelling
                                for tk in ch.get_tokens()[:4]):
                        exempt_via = "thread_local"
                    toks = " ".join(tk.spelling
                                    for tk in ch.get_tokens())
                    if "constexpr" in toks:
                        exempt_via = exempt_via or "constexpr"
                    if "thread_local" in toks:
                        exempt_via = exempt_via or "thread_local"
                    if "NEU10_GUARDED_BY" in toks or \
                            "guarded_by" in toks:
                        exempt_via = exempt_via or "NEU10_GUARDED_BY"
                    if type_is_unordered(t):
                        ir["file_unordered"].append(ch.spelling)
                    if type_is_ptr_keyed(t):
                        ir["file_ptrkey"].append(ch.spelling)
                    ir["globals"].append({
                        "name": ch.spelling,
                        "line": ch.location.line,
                        "text": " ".join(toks.split())[:120],
                        "exempt_via": exempt_via,
                    })
                elif ch.kind in (CK.FUNCTION_DECL, CK.CXX_METHOD,
                                 CK.CONSTRUCTOR, CK.DESTRUCTOR,
                                 CK.FUNCTION_TEMPLATE) and \
                        ch.is_definition():
                    fn = {
                        "qname": qname(ch), "name": ch.spelling,
                        "cls": (ch.semantic_parent.spelling
                                if ch.semantic_parent.kind in
                                (CK.CLASS_DECL, CK.STRUCT_DECL)
                                else ""),
                        "file": rel_posix,
                        "line": ch.location.line,
                        "end_line": ch.extent.end.line,
                        "calls": [], "banned": [], "iters": [],
                        "locals_unordered": [], "locals_ptrkey": [],
                        "result_flow": False, "sig": ch.displayname,
                    }
                    sig_types = [a.type.spelling
                                 for a in ch.get_arguments()]
                    sig_types.append(ch.result_type.spelling)
                    if any(RESULT_TYPE_RE.search(s)
                           for s in sig_types) or \
                            JSON_NAME_RE.search(ch.spelling or "") or \
                            any("ostream" in s for s in sig_types):
                        fn["result_flow"] = True
                    walk_body(fn, ch)
                    ir["functions"].append(fn)
                else:
                    walk(ch)

        walk(tu.cursor)
        irs.append(ir)
    return irs


# ---------------------------------------------------------------------------
# Program assembly + rules
# ---------------------------------------------------------------------------

class Program:
    def __init__(self, irs):
        self.irs = irs
        self.functions = []
        self.members_unordered = {}
        self.members_ptrkey = {}
        self.file_unordered = {}
        self.file_ptrkey = {}
        self.globals = []
        for ir in irs:
            self.functions.extend(ir["functions"])
            for cls, names in ir["members_unordered"].items():
                self.members_unordered.setdefault(
                    cls, set()).update(names)
            for cls, names in ir["members_ptrkey"].items():
                self.members_ptrkey.setdefault(
                    cls, set()).update(names)
            self.file_unordered[ir["file"]] = set(ir["file_unordered"])
            self.file_ptrkey[ir["file"]] = set(ir["file_ptrkey"])
            for g in ir["globals"]:
                self.globals.append(dict(g, file=ir["file"]))
        # Name index: simple name -> function records. Over-
        # approximate resolution (any same-named function) keeps the
        # purity rule conservative across TUs.
        self.by_name = {}
        for fn in self.functions:
            self.by_name.setdefault(fn["name"], []).append(fn)

    def resolve(self, name):
        base = name.split("::")[-1]
        cands = self.by_name.get(base, [])
        if "::" in name:
            want = name.replace(" ", "")
            exact = [f for f in cands
                     if f["qname"].endswith(want) or
                     f["qname"].replace("(anon)::", "").endswith(want)]
            if exact:
                return exact
        return cands

    def entry_functions(self, entries):
        out = []
        for e in entries:
            out.extend(self.resolve(e))
        return out


def rule_impure_path(program, entries, findings):
    """BFS over the call graph from the entry set; report every
    banned-source use reachable through the graph, with the chain."""
    from collections import deque

    parents = {}
    q = deque()
    for fn in sorted(program.entry_functions(entries),
                     key=lambda f: (f["file"], f["line"])):
        key = id(fn)
        if key not in parents:
            parents[key] = None
            q.append(fn)
    seen_sites = set()
    fn_by_id = {id(f): f for f in program.functions}
    while q:
        fn = q.popleft()
        for category, what, line, exempt in fn["banned"]:
            if under(fn["file"], exempt):
                continue
            site = (fn["file"], line, what)
            if site in seen_sites:
                continue
            seen_sites.add(site)
            chain = []
            cur = id(fn)
            while cur is not None:
                f = fn_by_id[cur]
                chain.append({"function": f["qname"] or f["name"],
                              "file": f["file"], "line": f["line"]})
                cur = parents[cur]
            chain.reverse()
            hops = " -> ".join(h["function"] for h in chain)
            findings.append({
                "rule": "impure-path",
                "file": fn["file"], "line": line,
                "message": f"{what} reachable from sim entry point: "
                           f"{hops} [{category}]",
                "chain": chain + [{"function": what,
                                   "file": fn["file"], "line": line}],
            })
        for callee_name, call_line in fn["calls"]:
            for callee in program.resolve(callee_name):
                key = id(callee)
                if key not in parents:
                    parents[key] = id(fn)
                    q.append(callee)


def rule_unordered_iter(program, findings):
    for fn in program.functions:
        if not (fn["result_flow"] or under(fn["file"], EXPORT_SCOPES)):
            continue
        declared = set(fn["locals_unordered"])
        declared |= program.members_unordered.get(fn["cls"], set())
        declared |= program.file_unordered.get(fn["file"], set())
        for name, line in fn["iters"]:
            if name in declared:
                findings.append({
                    "rule": "unordered-iter",
                    "file": fn["file"], "line": line,
                    "message": f"iteration over unordered '{name}' in "
                               f"{fn['qname'] or fn['name']}, which "
                               "feeds deterministic output — order is "
                               "hash/pointer dependent; sort or "
                               "iterate an ordered index",
                })


def rule_pointer_key_iter(program, findings):
    for fn in program.functions:
        declared = set(fn["locals_ptrkey"])
        declared |= program.members_ptrkey.get(fn["cls"], set())
        declared |= program.file_ptrkey.get(fn["file"], set())
        if not declared:
            continue
        for name, line in fn["iters"]:
            if name in declared:
                findings.append({
                    "rule": "pointer-key-iter",
                    "file": fn["file"], "line": line,
                    "message": f"ordered iteration over '{name}', a "
                               "map/set keyed by raw pointer — "
                               "iteration order is the allocator's; "
                               "key by a stable id instead",
                })


def rule_mutable_global(program, findings):
    for g in program.globals:
        if g["exempt_via"]:
            continue
        findings.append({
            "rule": "mutable-global",
            "file": g["file"], "line": g["line"],
            "message": f"mutable global/static '{g['name']}' "
                       f"({g['text'][:60]}) — make it const, "
                       "constexpr, std::atomic, thread_local, or "
                       "NEU10_GUARDED_BY-annotated",
        })


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def source_files(root):
    src = root / "src"
    files = []
    for ext in TEXT_EXTS:
        files.extend(src.rglob(f"*{ext}"))
    return sorted(set(files))


def load_compile_args(build_dir, root):
    """Map resolved file path -> clang frontend args from
    compile_commands.json (flags the TU was really built with),
    minus the flags that only matter for codegen."""
    args_by_file = {}
    if not build_dir:
        return args_by_file
    db = pathlib.Path(build_dir) / "compile_commands.json"
    if not db.exists():
        return args_by_file
    for entry in json.loads(db.read_text(encoding="utf-8")):
        path = (pathlib.Path(entry["directory"]) /
                entry["file"]).resolve()
        argv = entry.get("arguments")
        if argv is None:
            argv = entry.get("command", "").split()
        keep, skip_next = [], True  # skip argv[0] (the compiler)
        for a in argv:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", "-o"):
                skip_next = a == "-o"
                continue
            if a.endswith((".cc", ".cpp", ".o")):
                continue
            keep.append(a)
        args_by_file[str(path)] = keep
    return args_by_file


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_all(frontend, root, files, compile_args, cache_dir):
    """Parse `files` with the chosen frontend, consulting the
    per-file digest cache (the key covers the frontend)."""
    cache = pathlib.Path(cache_dir) if cache_dir else None
    if cache:
        cache.mkdir(parents=True, exist_ok=True)

    def cache_key(path):
        return f"{digest(path)}-{frontend}-v{IR_VERSION}.json"

    irs, missing = [], []
    for path in files:
        if cache:
            entry = cache / cache_key(path)
            if entry.exists():
                irs.append(json.loads(
                    entry.read_text(encoding="utf-8")))
                continue
        missing.append(path)

    if missing:
        if frontend == "textual":
            fresh = [parse_tu_textual(p, p.relative_to(root).as_posix())
                     for p in missing]
        else:
            fresh = parse_with_libclang(root, missing, compile_args)
        if cache:
            for path, ir in zip(missing, fresh):
                (cache / cache_key(path)).write_text(
                    json.dumps(ir), encoding="utf-8")
        irs.extend(fresh)
    return irs, len(files) - len(missing)


def pick_frontend(requested, warnings):
    if requested == "textual":
        return requested
    if libclang_available():
        return "libclang"
    if requested == "libclang":
        print("neu10_analyze: libclang Python bindings not "
              "importable (install python3-clang) — requested "
              "frontend unavailable", file=sys.stderr)
        raise SystemExit(2)
    warnings.append(
        "libclang bindings absent — using the pure-Python textual "
        "frontend (types approximated from declaration text)")
    return "textual"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repo root holding src/ (default: cwd)")
    ap.add_argument("--build-dir", default=None,
                    help="build dir holding compile_commands.json "
                         "(libclang frontend; optional)")
    ap.add_argument("--frontend", default="auto",
                    choices=["auto", "libclang", "textual"])
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write the findings record here "
                         f"(schema {SCHEMA})")
    ap.add_argument("--cache-dir", default=None,
                    help="cache parsed per-file IR keyed on content "
                         "digest")
    ap.add_argument("--entry", action="append", default=[],
                    help="additional purity entry point (repeatable); "
                         "defaults always apply")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for name, summary in RULES.items():
            print(f"{name:17s} {summary}")
        return 0

    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"neu10_analyze: no src/ under {root}", file=sys.stderr)
        return 2

    warnings = []
    frontend = pick_frontend(args.frontend, warnings)
    files = source_files(root)
    compile_args = load_compile_args(args.build_dir, root)
    entries = DEFAULT_ENTRIES + args.entry

    # Per-file pass, frontend-independent: allow() directives (an
    # unknown rule exits here, before any parsing) and the text rules.
    findings, allows, directives = [], {}, []
    for path in files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_text(encoding="utf-8", errors="replace")
        code_lines = strip_comments_and_strings(raw).splitlines()
        allows[rel], file_directives = collect_allows(
            rel, raw.splitlines(), code_lines)
        directives.extend(file_directives)
        findings.extend(text_rules(rel, code_lines))

    try:
        irs, cached = parse_all(frontend, root, files, compile_args,
                                args.cache_dir)
    except Exception as err:  # noqa: BLE001 — any frontend failure
        if args.frontend != "auto":
            print(f"neu10_analyze: {frontend} frontend failed: {err}",
                  file=sys.stderr)
            return 2
        warnings.append(f"{frontend} frontend failed ({err}); "
                        "falling back to textual")
        frontend = "textual"
        irs, cached = parse_all(frontend, root, files, compile_args,
                                args.cache_dir)

    program = Program(irs)
    rule_impure_path(program, entries, findings)
    rule_unordered_iter(program, findings)
    rule_pointer_key_iter(program, findings)
    rule_mutable_global(program, findings)

    kept, allowed = [], []
    for f in findings:
        directive = allows[f["file"]].get(f["line"], {}).get(f["rule"])
        if directive is None:
            kept.append(f)
        else:
            directive["consumed"].add(f["rule"])
            allowed.append(f)
    for d in directives:
        for rule in sorted(d["rules"] - d["consumed"]):
            kept.append({
                "rule": "stale-allow", "file": d["file"],
                "line": d["line"],
                "message": f"allow({rule}) no longer suppresses any "
                           "finding — remove the directive",
            })
    kept.sort(key=lambda f: (f["file"], f["line"], f["rule"]))

    for w in warnings:
        print(f"neu10_analyze: warning: {w}", file=sys.stderr)
    for f in kept:
        print(f"{f['file']}:{f['line']}: {f['rule']}: {f['message']}")
        for hop in f.get("chain", []):
            print(f"    via {hop['file']}:{hop['line']}: "
                  f"{hop['function']}")

    n_edges = sum(len(fn["calls"]) for fn in program.functions)
    record = {
        "schema": SCHEMA,
        "frontend": frontend,
        "root": str(root),
        "entry_points": entries,
        "files_analyzed": len(files),
        "files_from_cache": cached,
        "functions": len(program.functions),
        "call_edges": n_edges,
        "rules": RULES,
        "warnings": warnings,
        "findings": kept,
        "allowed": [{k: v for k, v in f.items() if k != "chain"}
                    for f in allowed],
    }
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")

    cache_note = (f" ({cached} from cache)" if args.cache_dir
                  else "")
    print(f"neu10_analyze: {frontend} frontend, {len(files)} files"
          f"{cache_note}, {len(program.functions)} functions, "
          f"{n_edges} call edges, {len(kept)} finding(s), "
          f"{len(allowed)} allowed")
    return 1 if kept else 0


if __name__ == "__main__":
    sys.exit(main())
