#include "scenario/scenario.hh"

#include <algorithm>
#include <bitset>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace neu10
{

std::string
scenarioModeName(ScenarioMode mode)
{
    switch (mode) {
      case ScenarioMode::OpenLoop: return "open-loop";
      case ScenarioMode::ClosedLoop: return "closed-loop";
    }
    panic("unknown scenario mode %d", static_cast<int>(mode));
}

unsigned
Scenario::totalTenants() const
{
    unsigned n = 0;
    for (const ScenarioTenantGroup &g : groups)
        n += g.count;
    return n;
}

namespace
{

[[noreturn]] void
failAt(const std::string &file, unsigned line, const std::string &msg)
{
    fatal("%s:%u: %s", file.c_str(), line, msg.c_str());
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

/** Strict finite-double parse (rejects junk, signs by caller range
 * checks, inf/nan). The env.cc uint64 parser's hardening, for reals. */
double
parseDouble(const std::string &text, const char *what)
{
    if (text.empty())
        fatal("%s is empty; want a number", what);
    const unsigned char first = static_cast<unsigned char>(text[0]);
    if (std::isspace(first) || text[0] == '+')
        fatal("%s='%s' must be a bare number; no sign prefix or "
              "whitespace", what, text.c_str());
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("%s='%s' is not a number", what, text.c_str());
    if (!std::isfinite(parsed))
        fatal("%s='%s' must be a finite number", what, text.c_str());
    return parsed;
}

/** One `key = value` line, the scenario it is stored into, and the
 * typed readers a key's store function picks from. Every diagnostic
 * carries file:line. */
struct Field
{
    const std::string &file;
    unsigned line;
    const char *key;
    const std::string &value;
    Scenario &out;

    /** The [tenant.*] group being read. */
    ScenarioTenantGroup &
    tenant() const
    {
        return out.groups.back();
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        failAt(file, line, msg);
    }

    /** Run a vocabulary parser (policyFromName, ...) on the value and
     * re-raise its diagnostic with the file:line prefix. */
    template <typename Fn>
    auto
    parse(Fn &&fn) const -> decltype(fn(value))
    {
        try {
            return fn(value);
        } catch (const FatalError &e) {
            fail(e.what());
        }
    }

    std::uint64_t
    u64() const
    {
        return parse([this](const std::string &v) {
            return parseUint64(v, key);
        });
    }

    unsigned
    u32() const
    {
        const std::uint64_t v = u64();
        if (v > std::numeric_limits<std::uint32_t>::max())
            fail(csprintf("%s=%s overflows a 32-bit count", key,
                          value.c_str()));
        return static_cast<unsigned>(v);
    }

    unsigned
    positive() const
    {
        const unsigned v = u32();
        if (v == 0)
            fail(csprintf("%s must be >= 1", key));
        return v;
    }

    bool
    flag() const
    {
        return parse([this](const std::string &v) {
            return parseFlag(v, key);
        });
    }

    double
    real() const
    {
        return parse([this](const std::string &v) {
            return parseDouble(v, key);
        });
    }

    double
    positiveReal() const
    {
        const double v = real();
        if (v <= 0.0)
            fail(csprintf("%s=%s must be > 0", key, value.c_str()));
        return v;
    }

    /** Non-negative cycle count; "inf" = kCyclesInf. */
    Cycles
    cycles() const
    {
        if (toLower(value) == "inf")
            return kCyclesInf;
        const double v = real();
        if (v < 0.0)
            fail(csprintf("%s=%s must be >= 0 cycles (or 'inf')", key,
                          value.c_str()));
        return v;
    }

    /** A traffic window: cycles(), but it must end. */
    Cycles
    finiteCycles() const
    {
        const Cycles v = cycles();
        if (std::isinf(v))
            fail(csprintf("%s must be finite (got '%s')", key,
                          value.c_str()));
        return v;
    }
};

/** `fault = <kind> at=<cycles>|at-frac=<0..1> [board=N] [core=N]
 *  [duration=<cycles>|inf]` */
ScenarioFault
parseFaultLine(const Field &f)
{
    std::istringstream toks(f.value);
    std::string kind_name;
    toks >> kind_name;
    ScenarioFault fault;
    fault.line = f.line;
    fault.kind = Field{f.file, f.line, f.key, kind_name, f.out}.parse(
        faultKindFromName);

    bool has_at = false;
    bool has_at_frac = false;
    bool has_core = false;
    bool has_duration = false;
    std::string tok;
    while (toks >> tok) {
        const size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= tok.size())
            f.fail(csprintf("malformed fault attribute '%s'; want "
                            "'at=', 'at-frac=', 'board=', 'core=' or "
                            "'duration='", tok.c_str()));
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        const std::string what = "fault " + key;
        const Field attr{f.file, f.line, what.c_str(), value, f.out};
        if (key == "at") {
            fault.at = attr.cycles();
            has_at = true;
        } else if (key == "at-frac") {
            fault.atFrac = attr.real();
            if (fault.atFrac < 0.0 || fault.atFrac > 1.0)
                f.fail(csprintf("fault at-frac=%s must be within "
                                "[0, 1] of the horizon",
                                value.c_str()));
            has_at_frac = true;
        } else if (key == "board") {
            fault.board = attr.u32();
            fault.hasBoard = true;
        } else if (key == "core") {
            fault.core = attr.u32();
            has_core = true;
        } else if (key == "duration") {
            fault.durationCycles = attr.cycles();
            has_duration = true;
        } else {
            f.fail(csprintf("unknown fault attribute '%s='; valid "
                            "attributes: at, at-frac, board, core, "
                            "duration", key.c_str()));
        }
    }

    if (has_at == has_at_frac)
        f.fail("fault needs exactly one of 'at=<cycles>' and "
               "'at-frac=<0..1>'");
    const bool board_scoped = fault.kind == FaultKind::BoardLoss ||
                              fault.kind == FaultKind::Repair;
    if (board_scoped) {
        if (!fault.hasBoard || has_core)
            f.fail(csprintf("%s faults are board-scoped; give "
                            "'board=' and no 'core='",
                            faultKindName(fault.kind).c_str()));
    } else {
        if (!has_core || fault.hasBoard)
            f.fail(csprintf("%s faults are core-scoped; give 'core=' "
                            "and no 'board='",
                            faultKindName(fault.kind).c_str()));
    }
    if (fault.kind == FaultKind::Repair && has_duration)
        f.fail("repair faults take no 'duration='");
    return fault;
}

/** The run modes a key or section serves. */
enum class Loop : unsigned char
{
    Both,
    Open,
    Closed,
};

/** One scenario key. */
struct KeyRow
{
    /** "tenant.<name>" stands for every [tenant.*] section. */
    std::string_view section;
    /** A string literal, so key.data() is NUL-terminated. */
    std::string_view key;
    Loop loop;
    /** Reads, range-checks and stores the value. */
    void (*store)(const Field &f);
    bool repeatable = false;
};

constexpr std::string_view kAnyName = "<name>";

/**
 * Every scenario key, the one list of them. Sections appear in the
 * order the "valid sections" diagnostic lists them, and keys in the
 * order of their section's "valid keys" list. Defaults are the
 * Scenario initializers.
 */
constexpr KeyRow kKeys[] = {
    {"scenario", "name", Loop::Both,
     [](const Field &f) { f.out.name = f.value; }},
    {"scenario", "description", Loop::Both,
     [](const Field &f) { f.out.description = f.value; }},

    {"fleet", "mode", Loop::Both,
     [](const Field &f) {
         const std::string low = toLower(f.value);
         if (low == "open-loop")
             f.out.mode = ScenarioMode::OpenLoop;
         else if (low == "closed-loop")
             f.out.mode = ScenarioMode::ClosedLoop;
         else
             f.fail(csprintf("unknown mode '%s'; valid modes are "
                             "'open-loop' and 'closed-loop'",
                             f.value.c_str()));
     }},
    {"fleet", "boards", Loop::Open,
     [](const Field &f) { f.out.boards = f.positive(); }},
    {"fleet", "chips-per-board", Loop::Open,
     [](const Field &f) { f.out.board.numChips = f.positive(); }},
    {"fleet", "cores-per-chip", Loop::Open,
     [](const Field &f) { f.out.board.coresPerChip = f.positive(); }},
    {"fleet", "mes", Loop::Both,
     [](const Field &f) { f.out.board.core.numMes = f.positive(); }},
    {"fleet", "ves", Loop::Both,
     [](const Field &f) { f.out.board.core.numVes = f.positive(); }},
    {"fleet", "freq-hz", Loop::Both,
     [](const Field &f) { f.out.board.core.freqHz = f.positiveReal(); }},
    {"fleet", "sram-bytes", Loop::Both,
     [](const Field &f) { f.out.board.core.sramBytes = f.u64(); }},
    {"fleet", "hbm-bytes", Loop::Both,
     [](const Field &f) { f.out.board.core.hbmBytes = f.u64(); }},
    {"fleet", "hbm-bytes-per-sec", Loop::Both,
     [](const Field &f) {
         f.out.board.core.hbmBytesPerSec = f.positiveReal();
     }},
    {"fleet", "placement", Loop::Open,
     [](const Field &f) { f.out.placement = f.parse(placementFromName); }},
    {"fleet", "core-policy", Loop::Both,
     [](const Field &f) { f.out.corePolicy = f.parse(policyFromName); }},
    {"fleet", "threads", Loop::Open,
     [](const Field &f) { f.out.threads = f.u32(); }},
    {"fleet", "horizon", Loop::Open,
     [](const Field &f) { f.out.horizon = f.finiteCycles(); }},
    {"fleet", "smoke-horizon", Loop::Open,
     [](const Field &f) { f.out.smokeHorizon = f.finiteCycles(); }},
    {"fleet", "max-cycles", Loop::Both,
     [](const Field &f) { f.out.maxCycles = f.cycles(); }},
    {"fleet", "max-cycles-factor", Loop::Open,
     [](const Field &f) { f.out.maxCyclesFactor = f.positiveReal(); }},
    {"fleet", "seed", Loop::Both,
     [](const Field &f) { f.out.seed = f.u64(); }},
    {"fleet", "tenant-order", Loop::Both,
     [](const Field &f) {
         const std::string low = toLower(f.value);
         if (low == "round-robin")
             f.out.roundRobin = true;
         else if (low == "grouped")
             f.out.roundRobin = false;
         else
             f.fail(csprintf("unknown tenant-order '%s'; valid orders "
                             "are 'round-robin' and 'grouped'",
                             f.value.c_str()));
     }},
    {"fleet", "min-requests", Loop::Closed,
     [](const Field &f) { f.out.minRequests = f.positive(); }},
    {"fleet", "smoke-min-requests", Loop::Closed,
     [](const Field &f) { f.out.smokeMinRequests = f.positive(); }},

    {"elastic", "epochs", Loop::Open,
     [](const Field &f) { f.out.elastic.epochs = f.positive(); }},
    {"elastic", "imbalance-threshold", Loop::Open,
     [](const Field &f) {
         const double v = f.real();
         if (v < 0.0)
             f.fail("imbalance-threshold must be >= 0");
         f.out.elastic.imbalanceThreshold = v;
     }},
    {"elastic", "max-migrations-per-epoch", Loop::Open,
     [](const Field &f) { f.out.elastic.maxMigrationsPerEpoch = f.u32(); }},
    {"elastic", "migration-cost", Loop::Open,
     [](const Field &f) { f.out.elastic.migrationCostCycles = f.cycles(); }},

    {"resilience", "failover", Loop::Open,
     [](const Field &f) { f.out.failover = f.flag(); }},
    {"resilience", "recovery-stall", Loop::Open,
     [](const Field &f) { f.out.recoveryStallCycles = f.cycles(); }},

    {"faults", "fault", Loop::Open,
     [](const Field &f) { f.out.faults.push_back(parseFaultLine(f)); },
     true},

    {"llm", "scheduler", Loop::Open,
     [](const Field &f) {
         const std::string low = toLower(f.value);
         if (low == "continuous")
             f.out.llm.scheduler = LlmScheduler::Continuous;
         else if (low == "static-batch")
             f.out.llm.scheduler = LlmScheduler::StaticBatch;
         else
             f.fail(csprintf("unknown scheduler '%s'; valid schedulers "
                             "are 'continuous' and 'static-batch'",
                             f.value.c_str()));
     }},
    {"llm", "page-tokens", Loop::Open,
     [](const Field &f) { f.out.llm.pageTokens = f.positive(); }},
    {"llm", "max-batch", Loop::Open,
     [](const Field &f) { f.out.llm.maxBatch = f.positive(); }},
    {"llm", "prompt-tokens", Loop::Open,
     [](const Field &f) { f.out.llm.promptTokens = f.positive(); }},
    {"llm", "prompt-tokens-max", Loop::Open,
     [](const Field &f) { f.out.llm.promptTokensMax = f.positive(); }},
    {"llm", "output-tokens", Loop::Open,
     [](const Field &f) { f.out.llm.outputTokens = f.positive(); }},
    {"llm", "output-tokens-max", Loop::Open,
     [](const Field &f) { f.out.llm.outputTokensMax = f.positive(); }},

    {"trace", "enabled", Loop::Open,
     [](const Field &f) { f.out.trace.enabled = f.flag(); }},
    {"trace", "engine-events", Loop::Open,
     [](const Field &f) { f.out.trace.engineEvents = f.flag(); }},
    {"trace", "metrics", Loop::Open,
     [](const Field &f) { f.out.trace.metrics = f.flag(); }},
    {"trace", "out", Loop::Open,
     [](const Field &f) { f.out.traceOut = f.value; }},

    {"tenant.<name>", "model", Loop::Both,
     [](const Field &f) { f.tenant().model = f.parse(modelFromAbbrev); }},
    {"tenant.<name>", "batch", Loop::Both,
     [](const Field &f) { f.tenant().batch = f.positive(); }},
    {"tenant.<name>", "count", Loop::Both,
     [](const Field &f) { f.tenant().count = f.positive(); }},
    {"tenant.<name>", "eus", Loop::Open,
     [](const Field &f) { f.tenant().eus = f.positive(); }},
    {"tenant.<name>", "mes", Loop::Closed,
     [](const Field &f) { f.tenant().nMes = f.positive(); }},
    {"tenant.<name>", "ves", Loop::Closed,
     [](const Field &f) { f.tenant().nVes = f.positive(); }},
    {"tenant.<name>", "outstanding", Loop::Closed,
     [](const Field &f) { f.tenant().outstanding = f.positive(); }},
    {"tenant.<name>", "rho", Loop::Open,
     [](const Field &f) { f.tenant().rho = f.positiveReal(); }},
    {"tenant.<name>", "rate-per-sec", Loop::Open,
     [](const Field &f) { f.tenant().ratePerSec = f.positiveReal(); }},
    {"tenant.<name>", "shape", Loop::Open,
     [](const Field &f) {
         f.tenant().traffic.shape = f.parse(trafficShapeFromName);
         if (f.tenant().traffic.shape == TrafficShape::Trace)
             f.fail("shape=trace needs an explicit arrival vector, "
                    "which a scenario file cannot carry; use poisson, "
                    "bursty or diurnal");
     }},
    {"tenant.<name>", "burst-multiplier", Loop::Open,
     [](const Field &f) {
         const double v = f.real();
         if (v <= 1.0)
             f.fail("burst-multiplier must be > 1");
         f.tenant().traffic.burstMultiplier = v;
     }},
    {"tenant.<name>", "burst-fraction", Loop::Open,
     [](const Field &f) {
         const double v = f.real();
         if (v <= 0.0 || v >= 1.0)
             f.fail(csprintf("burst-fraction=%s must be within (0, 1)",
                             f.value.c_str()));
         f.tenant().traffic.burstFraction = v;
     }},
    {"tenant.<name>", "burst-dwell-sec", Loop::Open,
     [](const Field &f) {
         f.tenant().traffic.burstDwellSec = f.positiveReal();
     }},
    {"tenant.<name>", "diurnal-depth", Loop::Open,
     [](const Field &f) {
         const double v = f.real();
         if (v < 0.0 || v > 1.0)
             f.fail(csprintf("diurnal-depth=%s must be within [0, 1]",
                             f.value.c_str()));
         f.tenant().traffic.diurnalDepth = v;
     }},
    {"tenant.<name>", "diurnal-period-sec", Loop::Open,
     [](const Field &f) {
         f.tenant().traffic.diurnalPeriodSec = f.positiveReal();
     }},
    {"tenant.<name>", "diurnal-phase", Loop::Open,
     [](const Field &f) {
         const double v = f.real();
         if (v < 0.0 || v >= 1.0)
             f.fail(csprintf("diurnal-phase=%s must be within [0, 1)",
                             f.value.c_str()));
         f.tenant().traffic.diurnalPhase = v;
     }},
    {"tenant.<name>", "slo-factor", Loop::Open,
     [](const Field &f) { f.tenant().sloFactor = f.positiveReal(); }},
    {"tenant.<name>", "slo-cycles", Loop::Open,
     [](const Field &f) {
         const Cycles v = f.cycles();
         if (v <= 0.0)
             f.fail("slo-cycles must be > 0 (or 'inf')");
         f.tenant().sloCycles = v;
         f.tenant().hasSloCycles = true;
     }},
    {"tenant.<name>", "max-queue-depth", Loop::Open,
     [](const Field &f) { f.tenant().maxQueueDepth = f.positive(); }},
    {"tenant.<name>", "priority", Loop::Both,
     [](const Field &f) { f.tenant().priority = f.positiveReal(); }},
    {"tenant.<name>", "seed", Loop::Open,
     [](const Field &f) {
         f.tenant().seed = f.u64();
         f.tenant().hasSeed = true;
     }},
};

size_t
rowIndex(const KeyRow &row)
{
    return static_cast<size_t>(&row - kKeys);
}

/** The rows of the section headed [@p name]; empty if none. */
std::span<const KeyRow>
sectionRows(std::string_view name)
{
    const auto covers = [name](const KeyRow &row) {
        std::string_view pattern = row.section;
        if (!pattern.ends_with(kAnyName))
            return pattern == name;
        pattern.remove_suffix(kAnyName.size());
        return name.starts_with(pattern);
    };
    const KeyRow *begin =
        std::find_if(std::begin(kKeys), std::end(kKeys), covers);
    const KeyRow *end =
        std::find_if(begin, std::end(kKeys), [begin](const KeyRow &row) {
            return row.section != begin->section;
        });
    return {begin, end};
}

/** The loop every row of @p rows serves, or Both if they differ. */
Loop
sectionLoop(std::span<const KeyRow> rows)
{
    for (const KeyRow &row : rows)
        if (row.loop != rows.front().loop)
            return Loop::Both;
    return rows.front().loop;
}

/** "[scenario], [fleet], ...": the "valid sections" list. */
std::string
validSections()
{
    std::string out;
    for (const KeyRow &row : kKeys) {
        if (&row != kKeys && row.section == (&row - 1)->section)
            continue;
        if (!out.empty())
            out += ", ";
        out += '[';
        out += row.section;
        out += ']';
    }
    return out;
}

/** "mode, boards, ...": one section's "valid keys" list. */
std::string
validKeys(std::span<const KeyRow> rows)
{
    std::string out;
    for (const KeyRow &row : rows) {
        if (!out.empty())
            out += ", ";
        out += row.key;
        if (row.repeatable)
            out += " (repeatable)";
    }
    return out;
}

/** The first key or section a file uses that only one loop serves. */
struct Misplaced
{
    unsigned line = 0; ///< 0 = none
    std::string what;  ///< "key 'rho'" or "section [elastic]"
};

/** The rules relating the keys of one [tenant.*] section, once it
 * has been read. */
void
checkTenant(const std::string &file, const ScenarioTenantGroup &g,
            bool has_model)
{
    const char *name = g.name.c_str();
    if (!has_model)
        failAt(file, g.line,
               csprintf("[tenant.%s] is missing the required 'model' "
                        "key", name));
    if (g.batch > maxBatch(g.model))
        failAt(file, g.line,
               csprintf("[tenant.%s]: batch %u exceeds %s's maximum "
                        "supported batch %u", name, g.batch,
                        modelName(g.model).c_str(), maxBatch(g.model)));
    if (g.sloFactor > 0.0 && g.hasSloCycles)
        failAt(file, g.line,
               csprintf("[tenant.%s] sets both slo-factor and "
                        "slo-cycles; give at most one", name));
    if (g.rho > 0.0 && g.ratePerSec > 0.0)
        failAt(file, g.line,
               csprintf("[tenant.%s] sets both rho and rate-per-sec; "
                        "give exactly one", name));
}

/** The whole-file rules, once [fleet] mode is known: required
 * sections, the loop each key and section serves, and the references
 * between sections. */
void
validate(const Scenario &s, const Misplaced &open_only,
         const Misplaced &closed_only)
{
    const std::string &file = s.file;
    if (s.hasLlm) {
        if (s.llm.promptTokensMax != 0 &&
            s.llm.promptTokensMax < s.llm.promptTokens)
            failAt(file, s.llmLine,
                   csprintf("prompt-tokens-max=%u is below "
                            "prompt-tokens=%u", s.llm.promptTokensMax,
                            s.llm.promptTokens));
        if (s.llm.outputTokensMax != 0 &&
            s.llm.outputTokensMax < s.llm.outputTokens)
            failAt(file, s.llmLine,
                   csprintf("output-tokens-max=%u is below "
                            "output-tokens=%u", s.llm.outputTokensMax,
                            s.llm.outputTokens));
    }
    if (s.name.empty())
        failAt(file, 1, "missing [scenario] section with a 'name' key");
    if (s.groups.empty())
        failAt(file, 1, "scenario declares no [tenant.<name>] sections");
    // Token-level LLM serving rides the fleet engine and the LLaMA
    // phase model; anything else has no token semantics.
    if (s.hasLlm && s.mode != ScenarioMode::OpenLoop)
        failAt(file, s.llmLine,
               "[llm] is open-loop only; token-level serving runs on "
               "the fleet engine");

    if (s.mode == ScenarioMode::ClosedLoop) {
        // The paper's single-core §V-A methodology: no fleet, no
        // open-loop traffic, no epochs, faults or trace export.
        if (open_only.line != 0)
            failAt(file, open_only.line,
                   open_only.what +
                       " is open-loop only; closed-loop scenarios run "
                       "one core to min-requests, with no fleet, "
                       "traffic, epochs, faults or trace export");
        for (const ScenarioTenantGroup &g : s.groups)
            if (g.nMes == 0 || g.nVes == 0)
                failAt(file, g.line,
                       csprintf("[tenant.%s] needs explicit 'mes' and "
                                "'ves' (closed-loop tenants pin their "
                                "engine split)", g.name.c_str()));
        return;
    }

    if (closed_only.line != 0)
        failAt(file, closed_only.line,
               closed_only.what +
                   " is closed-loop only; open-loop scenarios size "
                   "each vNPU from its EU budget and stop at the "
                   "horizon");
    if (s.horizon <= 0.0)
        failAt(file, 1, "open-loop scenarios require a positive "
                        "[fleet] horizon");
    for (const ScenarioTenantGroup &g : s.groups) {
        if (g.eus == 0)
            failAt(file, g.line,
                   csprintf("[tenant.%s] is missing the required 'eus' "
                            "key (open-loop tenants buy an EU budget)",
                            g.name.c_str()));
        if (g.rho <= 0.0 && g.ratePerSec <= 0.0)
            failAt(file, g.line,
                   csprintf("[tenant.%s] needs exactly one of 'rho' and "
                            "'rate-per-sec'", g.name.c_str()));
    }

    const unsigned total_cores = s.totalCores();
    for (const ScenarioFault &f : s.faults) {
        const bool board_scoped = f.kind == FaultKind::BoardLoss ||
                                  f.kind == FaultKind::Repair;
        if (board_scoped && f.board >= s.boards)
            failAt(file, f.line,
                   csprintf("fault board %u is out of range; the fleet "
                            "has boards 0..%u", f.board, s.boards - 1));
        if (!board_scoped && f.core >= total_cores)
            failAt(file, f.line,
                   csprintf("fault core %u is out of range; the fleet "
                            "has cores 0..%u", f.core, total_cores - 1));
        if (f.at >= 0.0 && s.horizon > 0.0 && f.at >= s.horizon &&
            !std::isinf(f.at))
            failAt(file, f.line,
                   csprintf("fault onset at=%g is past the horizon %g",
                            f.at, s.horizon));
    }

    if (s.hasLlm) {
        if (s.elastic.epochs != 1)
            failAt(file, s.llmLine,
                   csprintf("[llm] requires [elastic] epochs = 1 (got "
                            "%u): half-decoded sequences cannot carry "
                            "across epoch boundaries",
                            s.elastic.epochs));
        for (const ScenarioTenantGroup &g : s.groups)
            if (g.model != ModelId::Llama)
                failAt(file, g.line,
                       csprintf("[tenant.%s]: LLM serving requires "
                                "model = LLaMA (got %s)", g.name.c_str(),
                                modelAbbrev(g.model).c_str()));
    }
}

} // namespace

Scenario
parseScenario(const std::string &text, const std::string &filename)
{
    Scenario out;
    out.file = filename;

    // The section being read: its header, its rows of kKeys and
    // which of them it has set.
    std::string_view section;
    std::span<const KeyRow> rows;
    Loop section_loop = Loop::Both;
    std::bitset<std::size(kKeys)> seen;
    std::vector<std::string_view> headers;
    // Judged once the whole file has given [fleet] mode.
    Misplaced open_only;
    Misplaced closed_only;
    const auto note = [&](Loop loop, unsigned line, std::string what) {
        Misplaced &m = loop == Loop::Open ? open_only : closed_only;
        if (m.line == 0)
            m = {line, std::move(what)};
    };
    const auto finish_section = [&] {
        if (rows.empty() || !rows.front().section.ends_with(kAnyName))
            return;
        const auto model = std::ranges::find(rows, "model", &KeyRow::key);
        checkTenant(filename, out.groups.back(), seen[rowIndex(*model)]);
    };

    std::string value;
    unsigned line = 0;
    for (std::string_view rest = text; !rest.empty();) {
        const size_t eol = std::min(rest.find('\n'), rest.size());
        const std::string_view raw = rest.substr(0, eol);
        rest.remove_prefix(std::min(eol + 1, rest.size()));
        ++line;
        const std::string_view stripped =
            trim(raw.substr(0, raw.find('#')));
        if (stripped.empty())
            continue;

        if (stripped.front() == '[') {
            finish_section();
            if (stripped.back() != ']')
                failAt(filename, line,
                       csprintf("malformed section header '%s'; want "
                                "'[name]'", std::string(stripped).c_str()));
            section = trim(stripped.substr(1, stripped.size() - 2));
            const std::string name(section);
            if (section.empty())
                failAt(filename, line, "empty section name '[]'");
            rows = sectionRows(section);
            if (rows.empty())
                failAt(filename, line,
                       csprintf("unknown section [%s]; valid sections: %s",
                                name.c_str(), validSections().c_str()));
            if (std::find(headers.begin(), headers.end(), section) !=
                headers.end())
                failAt(filename, line,
                       csprintf("duplicate section [%s]", name.c_str()));
            headers.push_back(section);
            seen.reset();
            section_loop = sectionLoop(rows);
            if (section_loop != Loop::Both)
                note(section_loop, line, "section [" + name + "]");
            if (rows.front().section.ends_with(kAnyName)) {
                ScenarioTenantGroup g;
                g.name = name.substr(rows.front().section.size() -
                                     kAnyName.size());
                g.line = line;
                if (g.name.empty())
                    failAt(filename, line,
                           "empty tenant name; want [tenant.<name>]");
                out.groups.push_back(std::move(g));
            } else if (section == "llm") {
                out.hasLlm = true;
                out.llmLine = line;
            }
            continue;
        }

        const size_t eq = stripped.find('=');
        if (eq == std::string_view::npos)
            failAt(filename, line,
                   csprintf("expected 'key = value' or '[section]', got "
                            "'%s'", std::string(stripped).c_str()));
        const std::string_view key = trim(stripped.substr(0, eq));
        const std::string_view val = trim(stripped.substr(eq + 1));
        if (key.empty())
            failAt(filename, line, "missing key before '='");
        if (val.empty())
            failAt(filename, line,
                   csprintf("key '%s' has an empty value",
                            std::string(key).c_str()));
        if (rows.empty())
            failAt(filename, line,
                   csprintf("key '%s' appears before any [section] "
                            "header", std::string(key).c_str()));
        const auto found = std::ranges::find(rows, key, &KeyRow::key);
        if (found == rows.end())
            failAt(filename, line,
                   csprintf("unknown key '%s' in section [%s]; valid "
                            "keys: %s", std::string(key).c_str(),
                            std::string(section).c_str(),
                            validKeys(rows).c_str()));
        const KeyRow &row = *found;
        // `fault` is the one repeatable key: a fault trace is a list.
        // Any other key set twice is a silent-override bug.
        if (seen[rowIndex(row)] && !row.repeatable)
            failAt(filename, line,
                   csprintf("duplicate key '%s' in section [%s]",
                            std::string(key).c_str(),
                            std::string(section).c_str()));
        seen.set(rowIndex(row));
        if (row.loop != section_loop)
            note(row.loop, line, "key '" + std::string(key) + "'");
        value.assign(val);
        row.store(Field{filename, line, row.key.data(), value, out});
    }
    finish_section();

    validate(out, open_only, closed_only);
    return out;
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot open scenario file '%s'", path.c_str());
    std::ostringstream text;
    text << file.rdbuf();
    if (!file.good() && !file.eof())
        fatal("error reading scenario file '%s'", path.c_str());
    return parseScenario(text.str(), path);
}

void
applyEnvOverrides(Scenario &scenario)
{
    scenario.seed = envUint64("NEU10_SEED", scenario.seed);
    scenario.smoke = envFlag("NEU10_SMOKE", scenario.smoke);
    if (envFlag("NEU10_TRACE", false) &&
        scenario.mode == ScenarioMode::OpenLoop) {
        scenario.trace.enabled = true;
        scenario.trace.metrics = true;
    }
    scenario.traceOut = envString("NEU10_TRACE_OUT",
                                  scenario.traceOut);
}

} // namespace neu10
