#include "scenario/scenario.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
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

/** One `key = value` line, with its source line for diagnostics. */
struct Entry
{
    std::string key;
    std::string value;
    unsigned line = 0;
};

/** One `[name]` block in file order. */
struct Section
{
    std::string name;
    unsigned line = 0;
    std::vector<Entry> entries;
};

[[noreturn]] void
failAt(const std::string &file, unsigned line, const std::string &msg)
{
    fatal("%s:%u: %s", file.c_str(), line, msg.c_str());
}

/** Run a vocabulary parser (policyFromName, ...) and re-raise its
 * diagnostic with the file:line prefix every scenario error carries. */
template <typename Fn>
auto
withContext(const std::string &file, unsigned line, Fn &&fn)
    -> decltype(fn())
{
    try {
        return fn();
    } catch (const FatalError &e) {
        failAt(file, line, e.what());
    }
}

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Strict finite-double parse (rejects junk, signs by caller range
 * checks, inf/nan). The env.cc uint64 parser's hardening, for reals. */
double
parseDouble(const std::string &text, const std::string &what)
{
    if (text.empty())
        fatal("%s is empty; want a number", what.c_str());
    const unsigned char first = static_cast<unsigned char>(text[0]);
    if (std::isspace(first) || text[0] == '+')
        fatal("%s='%s' must be a bare number; no sign prefix or "
              "whitespace", what.c_str(), text.c_str());
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("%s='%s' is not a number", what.c_str(), text.c_str());
    if (!std::isfinite(parsed))
        fatal("%s='%s' must be a finite number", what.c_str(),
              text.c_str());
    return parsed;
}

/** Lex the file into sections; all purely syntactic errors (missing
 * '=', keys outside a section, duplicate sections/keys) fire here. */
std::vector<Section>
lexScenario(const std::string &text, const std::string &file)
{
    std::vector<Section> sections;
    std::set<std::string> seen_sections;
    std::set<std::string> seen_keys; // "section\nkey"

    std::istringstream in(text);
    std::string raw;
    unsigned line = 0;
    while (std::getline(in, raw)) {
        ++line;
        const size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        const std::string stripped = trim(raw);
        if (stripped.empty())
            continue;

        if (stripped.front() == '[') {
            if (stripped.back() != ']')
                failAt(file, line,
                       csprintf("malformed section header '%s'; want "
                                "'[name]'", stripped.c_str()));
            const std::string name =
                trim(stripped.substr(1, stripped.size() - 2));
            if (name.empty())
                failAt(file, line, "empty section name '[]'");
            if (!seen_sections.insert(name).second)
                failAt(file, line,
                       csprintf("duplicate section [%s]",
                                name.c_str()));
            sections.push_back(Section{name, line, {}});
            continue;
        }

        const size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            failAt(file, line,
                   csprintf("expected 'key = value' or '[section]', "
                            "got '%s'", stripped.c_str()));
        const std::string key = trim(stripped.substr(0, eq));
        const std::string value = trim(stripped.substr(eq + 1));
        if (key.empty())
            failAt(file, line, "missing key before '='");
        if (value.empty())
            failAt(file, line,
                   csprintf("key '%s' has an empty value",
                            key.c_str()));
        if (sections.empty())
            failAt(file, line,
                   csprintf("key '%s' appears before any [section] "
                            "header", key.c_str()));
        // `fault` lines are the one repeatable key: a fault trace is
        // a list. Everything else set twice is a silent-override bug.
        if (key != "fault") {
            const std::string id = sections.back().name + '\n' + key;
            if (!seen_keys.insert(id).second)
                failAt(file, line,
                       csprintf("duplicate key '%s' in section [%s]",
                                key.c_str(),
                                sections.back().name.c_str()));
        }
        sections.back().entries.push_back(Entry{key, value, line});
    }
    return sections;
}

/** Shared per-scenario interpretation state: the file name every
 * diagnostic carries plus typed value-parsing helpers. */
class Interp
{
  public:
    explicit Interp(std::string file) : file_(std::move(file)) {}

    const std::string &file() const { return file_; }

    [[noreturn]] void
    fail(unsigned line, const std::string &msg) const
    {
        failAt(file_, line, msg);
    }

    std::uint64_t
    u64(const Entry &e) const
    {
        return withContext(file_, e.line, [&] {
            return parseUint64(e.value, e.key.c_str());
        });
    }

    unsigned
    u32(const Entry &e) const
    {
        const std::uint64_t v = u64(e);
        if (v > std::numeric_limits<std::uint32_t>::max())
            fail(e.line, csprintf("%s=%s overflows a 32-bit count",
                                  e.key.c_str(), e.value.c_str()));
        return static_cast<unsigned>(v);
    }

    unsigned
    positive(const Entry &e) const
    {
        const unsigned v = u32(e);
        if (v == 0)
            fail(e.line, csprintf("%s must be >= 1", e.key.c_str()));
        return v;
    }

    bool
    flag(const Entry &e) const
    {
        return withContext(file_, e.line, [&] {
            return parseFlag(e.value, e.key.c_str());
        });
    }

    double
    real(const Entry &e) const
    {
        return withContext(file_, e.line, [&] {
            return parseDouble(e.value, e.key);
        });
    }

    double
    positiveReal(const Entry &e) const
    {
        const double v = real(e);
        if (v <= 0.0)
            fail(e.line, csprintf("%s=%s must be > 0", e.key.c_str(),
                                  e.value.c_str()));
        return v;
    }

    /** Non-negative cycle count; "inf" = kCyclesInf. */
    Cycles
    cycles(const Entry &e) const
    {
        if (toLower(e.value) == "inf")
            return kCyclesInf;
        const double v = real(e);
        if (v < 0.0)
            fail(e.line, csprintf("%s=%s must be >= 0 cycles (or "
                                  "'inf')", e.key.c_str(),
                                  e.value.c_str()));
        return v;
    }

    [[noreturn]] void
    unknownKey(const Entry &e, const std::string &section,
               const char *vocabulary) const
    {
        fail(e.line, csprintf("unknown key '%s' in section [%s]; "
                              "valid keys: %s", e.key.c_str(),
                              section.c_str(), vocabulary));
    }

  private:
    std::string file_;
};

void
interpScenarioSection(const Interp &in, const Section &sec,
                      Scenario &out)
{
    for (const Entry &e : sec.entries) {
        if (e.key == "name")
            out.name = e.value;
        else if (e.key == "description")
            out.description = e.value;
        else
            in.unknownKey(e, sec.name, "name, description");
    }
}

const char *const kFleetVocabulary =
    "mode, boards, chips-per-board, cores-per-chip, mes, ves, "
    "freq-hz, sram-bytes, hbm-bytes, hbm-bytes-per-sec, placement, "
    "core-policy, threads, horizon, smoke-horizon, max-cycles, "
    "max-cycles-factor, seed, tenant-order, min-requests, "
    "smoke-min-requests";

void
interpFleetSection(const Interp &in, const Section &sec, Scenario &out)
{
    for (const Entry &e : sec.entries) {
        if (e.key == "mode") {
            const std::string low = toLower(e.value);
            if (low == "open-loop")
                out.mode = ScenarioMode::OpenLoop;
            else if (low == "closed-loop")
                out.mode = ScenarioMode::ClosedLoop;
            else
                in.fail(e.line,
                        csprintf("unknown mode '%s'; valid modes are "
                                 "'open-loop' and 'closed-loop'",
                                 e.value.c_str()));
        } else if (e.key == "boards") {
            out.boards = in.positive(e);
        } else if (e.key == "chips-per-board") {
            out.board.numChips = in.positive(e);
        } else if (e.key == "cores-per-chip") {
            out.board.coresPerChip = in.positive(e);
        } else if (e.key == "mes") {
            out.board.core.numMes = in.positive(e);
        } else if (e.key == "ves") {
            out.board.core.numVes = in.positive(e);
        } else if (e.key == "freq-hz") {
            out.board.core.freqHz = in.positiveReal(e);
        } else if (e.key == "sram-bytes") {
            out.board.core.sramBytes = in.u64(e);
        } else if (e.key == "hbm-bytes") {
            out.board.core.hbmBytes = in.u64(e);
        } else if (e.key == "hbm-bytes-per-sec") {
            out.board.core.hbmBytesPerSec = in.positiveReal(e);
        } else if (e.key == "placement") {
            out.placement = withContext(in.file(), e.line, [&] {
                return placementFromName(e.value);
            });
        } else if (e.key == "core-policy") {
            out.corePolicy = withContext(in.file(), e.line, [&] {
                return policyFromName(e.value);
            });
        } else if (e.key == "threads") {
            out.threads = in.u32(e);
        } else if (e.key == "horizon") {
            out.horizon = in.cycles(e);
        } else if (e.key == "smoke-horizon") {
            out.smokeHorizon = in.cycles(e);
        } else if (e.key == "max-cycles") {
            out.maxCycles = in.cycles(e);
        } else if (e.key == "max-cycles-factor") {
            out.maxCyclesFactor = in.positiveReal(e);
        } else if (e.key == "seed") {
            out.seed = in.u64(e);
        } else if (e.key == "tenant-order") {
            const std::string low = toLower(e.value);
            if (low == "round-robin")
                out.roundRobin = true;
            else if (low == "grouped")
                out.roundRobin = false;
            else
                in.fail(e.line,
                        csprintf("unknown tenant-order '%s'; valid "
                                 "orders are 'round-robin' and "
                                 "'grouped'", e.value.c_str()));
        } else if (e.key == "min-requests") {
            out.minRequests = in.positive(e);
        } else if (e.key == "smoke-min-requests") {
            out.smokeMinRequests = in.positive(e);
        } else {
            in.unknownKey(e, sec.name, kFleetVocabulary);
        }
    }
    if (out.horizon != 0.0 && std::isinf(out.horizon))
        in.fail(sec.line, "horizon must be finite");
    if (std::isinf(out.smokeHorizon))
        in.fail(sec.line, "smoke-horizon must be finite");
}

void
interpElasticSection(const Interp &in, const Section &sec,
                     Scenario &out)
{
    for (const Entry &e : sec.entries) {
        if (e.key == "epochs") {
            out.elastic.epochs = in.positive(e);
        } else if (e.key == "imbalance-threshold") {
            const double v = in.real(e);
            if (v < 0.0)
                in.fail(e.line, "imbalance-threshold must be >= 0");
            out.elastic.imbalanceThreshold = v;
        } else if (e.key == "max-migrations-per-epoch") {
            out.elastic.maxMigrationsPerEpoch = in.u32(e);
        } else if (e.key == "migration-cost") {
            out.elastic.migrationCostCycles = in.cycles(e);
        } else if (e.key == "resize-on-migrate") {
            out.elastic.resizeOnMigrate = in.flag(e);
        } else if (e.key == "grow-factor") {
            const double v = in.real(e);
            if (v < 1.0)
                in.fail(e.line, csprintf("grow-factor=%s must be >= "
                                         "1.0 (1.0 = never grow)",
                                         e.value.c_str()));
            out.elastic.growFactor = v;
        } else {
            in.unknownKey(e, sec.name,
                          "epochs, imbalance-threshold, "
                          "max-migrations-per-epoch, migration-cost, "
                          "resize-on-migrate, grow-factor");
        }
    }
}

void
interpResilienceSection(const Interp &in, const Section &sec,
                        Scenario &out)
{
    for (const Entry &e : sec.entries) {
        if (e.key == "failover")
            out.failover = in.flag(e);
        else if (e.key == "recovery-stall")
            out.recoveryStallCycles = in.cycles(e);
        else
            in.unknownKey(e, sec.name, "failover, recovery-stall");
    }
}

/** `fault = <kind> at=<cycles>|at-frac=<0..1> [board=N] [core=N]
 *  [duration=<cycles>|inf]` */
ScenarioFault
parseFaultLine(const Interp &in, const Entry &e)
{
    std::istringstream toks(e.value);
    std::string kind_name;
    toks >> kind_name;
    ScenarioFault f;
    f.line = e.line;
    f.kind = withContext(in.file(), e.line, [&] {
        return faultKindFromName(kind_name);
    });

    bool has_at = false;
    bool has_at_frac = false;
    bool has_core = false;
    bool has_duration = false;
    std::string tok;
    while (toks >> tok) {
        const size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= tok.size())
            in.fail(e.line,
                    csprintf("malformed fault attribute '%s'; want "
                             "'at=', 'at-frac=', 'board=', 'core=' "
                             "or 'duration='", tok.c_str()));
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        const Entry attr{ "fault " + key, value, e.line };
        if (key == "at") {
            f.at = in.cycles(attr);
            has_at = true;
        } else if (key == "at-frac") {
            f.atFrac = in.real(attr);
            if (f.atFrac < 0.0 || f.atFrac > 1.0)
                in.fail(e.line,
                        csprintf("fault at-frac=%s must be within "
                                 "[0, 1] of the horizon",
                                 value.c_str()));
            has_at_frac = true;
        } else if (key == "board") {
            f.board = in.u32(attr);
            f.hasBoard = true;
        } else if (key == "core") {
            f.core = in.u32(attr);
            has_core = true;
        } else if (key == "duration") {
            f.durationCycles = in.cycles(attr);
            has_duration = true;
        } else {
            in.fail(e.line,
                    csprintf("unknown fault attribute '%s='; valid "
                             "attributes: at, at-frac, board, core, "
                             "duration", key.c_str()));
        }
    }

    if (has_at == has_at_frac)
        in.fail(e.line, "fault needs exactly one of 'at=<cycles>' "
                        "and 'at-frac=<0..1>'");
    const bool board_scoped = f.kind == FaultKind::BoardLoss ||
                              f.kind == FaultKind::Repair;
    if (board_scoped) {
        if (!f.hasBoard || has_core)
            in.fail(e.line,
                    csprintf("%s faults are board-scoped; give "
                             "'board=' and no 'core='",
                             faultKindName(f.kind).c_str()));
    } else {
        if (!has_core || f.hasBoard)
            in.fail(e.line,
                    csprintf("%s faults are core-scoped; give "
                             "'core=' and no 'board='",
                             faultKindName(f.kind).c_str()));
    }
    if (f.kind == FaultKind::Repair && has_duration)
        in.fail(e.line, "repair faults take no 'duration='");
    return f;
}

void
interpFaultsSection(const Interp &in, const Section &sec,
                    Scenario &out)
{
    for (const Entry &e : sec.entries) {
        if (e.key != "fault")
            in.unknownKey(e, sec.name, "fault (repeatable)");
        out.faults.push_back(parseFaultLine(in, e));
    }
}

void
interpTraceSection(const Interp &in, const Section &sec, Scenario &out)
{
    for (const Entry &e : sec.entries) {
        if (e.key == "enabled")
            out.trace.enabled = in.flag(e);
        else if (e.key == "engine-events")
            out.trace.engineEvents = in.flag(e);
        else if (e.key == "metrics")
            out.trace.metrics = in.flag(e);
        else if (e.key == "out")
            out.traceOut = e.value;
        else
            in.unknownKey(e, sec.name,
                          "enabled, engine-events, metrics, out");
    }
}

const char *const kLlmVocabulary =
    "scheduler, page-tokens, max-batch, prompt-tokens, "
    "prompt-tokens-max, output-tokens, output-tokens-max";

void
interpLlmSection(const Interp &in, const Section &sec, Scenario &out)
{
    out.hasLlm = true;
    out.llmLine = sec.line;
    for (const Entry &e : sec.entries) {
        if (e.key == "scheduler") {
            const std::string low = toLower(e.value);
            if (low == "continuous")
                out.llm.scheduler = LlmScheduler::Continuous;
            else if (low == "static-batch")
                out.llm.scheduler = LlmScheduler::StaticBatch;
            else
                in.fail(e.line,
                        csprintf("unknown scheduler '%s'; valid "
                                 "schedulers are 'continuous' and "
                                 "'static-batch'", e.value.c_str()));
        } else if (e.key == "page-tokens") {
            out.llm.pageTokens = in.positive(e);
        } else if (e.key == "max-batch") {
            out.llm.maxBatch = in.positive(e);
        } else if (e.key == "prompt-tokens") {
            out.llm.promptTokens = in.positive(e);
        } else if (e.key == "prompt-tokens-max") {
            out.llm.promptTokensMax = in.positive(e);
        } else if (e.key == "output-tokens") {
            out.llm.outputTokens = in.positive(e);
        } else if (e.key == "output-tokens-max") {
            out.llm.outputTokensMax = in.positive(e);
        } else {
            in.unknownKey(e, sec.name, kLlmVocabulary);
        }
    }
    if (out.llm.promptTokensMax != 0 &&
        out.llm.promptTokensMax < out.llm.promptTokens)
        in.fail(sec.line,
                csprintf("prompt-tokens-max=%u is below "
                         "prompt-tokens=%u", out.llm.promptTokensMax,
                         out.llm.promptTokens));
    if (out.llm.outputTokensMax != 0 &&
        out.llm.outputTokensMax < out.llm.outputTokens)
        in.fail(sec.line,
                csprintf("output-tokens-max=%u is below "
                         "output-tokens=%u", out.llm.outputTokensMax,
                         out.llm.outputTokens));
}

const char *const kTenantVocabulary =
    "model, batch, count, eus, mes, ves, outstanding, rho, "
    "rate-per-sec, shape, burst-multiplier, burst-fraction, "
    "burst-dwell-sec, diurnal-depth, diurnal-period-sec, "
    "diurnal-phase, slo-factor, slo-cycles, max-queue-depth, "
    "priority, seed";

ScenarioTenantGroup
interpTenantSection(const Interp &in, const Section &sec)
{
    ScenarioTenantGroup g;
    g.name = sec.name.substr(std::string("tenant.").size());
    g.line = sec.line;
    if (g.name.empty())
        in.fail(sec.line, "empty tenant name; want [tenant.<name>]");

    bool has_model = false;
    for (const Entry &e : sec.entries) {
        if (e.key == "model") {
            g.model = withContext(in.file(), e.line, [&] {
                return modelFromAbbrev(e.value);
            });
            has_model = true;
        } else if (e.key == "batch") {
            g.batch = in.positive(e);
        } else if (e.key == "count") {
            g.count = in.positive(e);
        } else if (e.key == "eus") {
            g.eus = in.positive(e);
        } else if (e.key == "mes") {
            g.nMes = in.positive(e);
        } else if (e.key == "ves") {
            g.nVes = in.positive(e);
        } else if (e.key == "outstanding") {
            g.outstanding = in.positive(e);
        } else if (e.key == "rho") {
            g.rho = in.positiveReal(e);
        } else if (e.key == "rate-per-sec") {
            g.ratePerSec = in.positiveReal(e);
        } else if (e.key == "shape") {
            g.traffic.shape = withContext(in.file(), e.line, [&] {
                return trafficShapeFromName(e.value);
            });
            if (g.traffic.shape == TrafficShape::Trace)
                in.fail(e.line,
                        "shape=trace needs an explicit arrival "
                        "vector, which a scenario file cannot carry; "
                        "use poisson, bursty or diurnal");
        } else if (e.key == "burst-multiplier") {
            const double v = in.real(e);
            if (v <= 1.0)
                in.fail(e.line, "burst-multiplier must be > 1");
            g.traffic.burstMultiplier = v;
        } else if (e.key == "burst-fraction") {
            const double v = in.real(e);
            if (v <= 0.0 || v >= 1.0)
                in.fail(e.line,
                        csprintf("burst-fraction=%s must be within "
                                 "(0, 1)", e.value.c_str()));
            g.traffic.burstFraction = v;
        } else if (e.key == "burst-dwell-sec") {
            g.traffic.burstDwellSec = in.positiveReal(e);
        } else if (e.key == "diurnal-depth") {
            const double v = in.real(e);
            if (v < 0.0 || v > 1.0)
                in.fail(e.line,
                        csprintf("diurnal-depth=%s must be within "
                                 "[0, 1]", e.value.c_str()));
            g.traffic.diurnalDepth = v;
        } else if (e.key == "diurnal-period-sec") {
            g.traffic.diurnalPeriodSec = in.positiveReal(e);
        } else if (e.key == "diurnal-phase") {
            const double v = in.real(e);
            if (v < 0.0 || v >= 1.0)
                in.fail(e.line,
                        csprintf("diurnal-phase=%s must be within "
                                 "[0, 1)", e.value.c_str()));
            g.traffic.diurnalPhase = v;
        } else if (e.key == "slo-factor") {
            g.sloFactor = in.positiveReal(e);
        } else if (e.key == "slo-cycles") {
            const Cycles v = in.cycles(e);
            if (v <= 0.0)
                in.fail(e.line, "slo-cycles must be > 0 (or 'inf')");
            g.sloCycles = v;
            g.hasSloCycles = true;
        } else if (e.key == "max-queue-depth") {
            g.maxQueueDepth = in.positive(e);
        } else if (e.key == "priority") {
            g.priority = in.positiveReal(e);
        } else if (e.key == "seed") {
            g.seed = in.u64(e);
            g.hasSeed = true;
        } else {
            in.unknownKey(e, sec.name, kTenantVocabulary);
        }
    }

    if (!has_model)
        in.fail(sec.line,
                csprintf("[%s] is missing the required 'model' key",
                         sec.name.c_str()));
    if (g.batch > maxBatch(g.model))
        in.fail(sec.line,
                csprintf("[%s]: batch %u exceeds %s's maximum "
                         "supported batch %u", sec.name.c_str(),
                         g.batch, modelName(g.model).c_str(),
                         maxBatch(g.model)));
    if (g.sloFactor > 0.0 && g.hasSloCycles)
        in.fail(sec.line,
                csprintf("[%s] sets both slo-factor and slo-cycles; "
                         "give at most one", sec.name.c_str()));
    if (g.rho > 0.0 && g.ratePerSec > 0.0)
        in.fail(sec.line,
                csprintf("[%s] sets both rho and rate-per-sec; give "
                         "exactly one", sec.name.c_str()));
    return g;
}

/** True when the group uses any open-loop-only key. Reported key
 * name for the closed-loop rejection diagnostic, or nullptr. */
const char *
openLoopOnlyKey(const Section &sec)
{
    static const std::set<std::string> open_only = {
        "eus", "rho", "rate-per-sec", "shape", "burst-multiplier",
        "burst-fraction", "burst-dwell-sec", "diurnal-depth",
        "diurnal-period-sec", "diurnal-phase", "slo-factor",
        "slo-cycles", "max-queue-depth", "seed",
    };
    for (const Entry &e : sec.entries)
        if (open_only.count(e.key) > 0)
            return e.key.c_str();
    return nullptr;
}

void
validateOpenLoop(const Interp &in, const Scenario &s,
                 const std::vector<const Section *> &tenant_sections)
{
    if (s.horizon <= 0.0)
        in.fail(1, "open-loop scenarios require a positive [fleet] "
                   "horizon");
    for (size_t i = 0; i < s.groups.size(); ++i) {
        const ScenarioTenantGroup &g = s.groups[i];
        const Section &sec = *tenant_sections[i];
        if (g.eus == 0)
            in.fail(sec.line,
                    csprintf("[%s] is missing the required 'eus' key "
                             "(open-loop tenants buy an EU budget)",
                             sec.name.c_str()));
        if (g.rho <= 0.0 && g.ratePerSec <= 0.0)
            in.fail(sec.line,
                    csprintf("[%s] needs exactly one of 'rho' and "
                             "'rate-per-sec'", sec.name.c_str()));
        for (const Entry &e : sec.entries)
            if (e.key == "mes" || e.key == "ves" ||
                e.key == "outstanding")
                in.fail(e.line,
                        csprintf("key '%s' is closed-loop only; "
                                 "open-loop tenants size their vNPU "
                                 "from 'eus'", e.key.c_str()));
    }

    const unsigned total_cores = s.totalCores();
    for (const ScenarioFault &f : s.faults) {
        const bool board_scoped = f.kind == FaultKind::BoardLoss ||
                                  f.kind == FaultKind::Repair;
        if (board_scoped && f.board >= s.boards)
            in.fail(f.line,
                    csprintf("fault board %u is out of range; the "
                             "fleet has boards 0..%u", f.board,
                             s.boards - 1));
        if (!board_scoped && f.core >= total_cores)
            in.fail(f.line,
                    csprintf("fault core %u is out of range; the "
                             "fleet has cores 0..%u", f.core,
                             total_cores - 1));
        if (f.at >= 0.0 && s.horizon > 0.0 && f.at >= s.horizon &&
            !std::isinf(f.at))
            in.fail(f.line,
                    csprintf("fault onset at=%g is past the horizon "
                             "%g", f.at, s.horizon));
    }
}

void
validateClosedLoop(const Interp &in, const Scenario &s,
                   const std::vector<const Section *> &tenant_sections,
                   const std::vector<Section> &sections)
{
    // Closed loop is the paper's single-core §V-A methodology: no
    // fleet placement, no epochs, no faults, no open-loop traffic.
    for (const Section &sec : sections) {
        if (sec.name == "elastic" || sec.name == "resilience" ||
            sec.name == "faults")
            in.fail(sec.line,
                    csprintf("section [%s] is open-loop only; "
                             "closed-loop scenarios drive one core "
                             "with no epochs or faults",
                             sec.name.c_str()));
        if (sec.name == "fleet") {
            for (const Entry &e : sec.entries)
                if (e.key == "boards" || e.key == "placement" ||
                    e.key == "horizon" || e.key == "smoke-horizon")
                    in.fail(e.line,
                            csprintf("key '%s' is open-loop only; "
                                     "closed-loop runs stop at "
                                     "min-requests, not a horizon",
                                     e.key.c_str()));
        }
    }
    for (size_t i = 0; i < s.groups.size(); ++i) {
        const ScenarioTenantGroup &g = s.groups[i];
        const Section &sec = *tenant_sections[i];
        if (const char *key = openLoopOnlyKey(sec))
            in.fail(sec.line,
                    csprintf("[%s]: key '%s' is open-loop only",
                             sec.name.c_str(), key));
        if (g.nMes == 0 || g.nVes == 0)
            in.fail(sec.line,
                    csprintf("[%s] needs explicit 'mes' and 'ves' "
                             "(closed-loop tenants pin their engine "
                             "split)", sec.name.c_str()));
    }
}

} // namespace

Scenario
parseScenario(const std::string &text, const std::string &filename)
{
    const Interp in(filename);
    const std::vector<Section> sections = lexScenario(text, filename);

    Scenario out;
    out.file = filename;

    std::vector<const Section *> tenant_sections;
    bool saw_scenario = false;
    for (const Section &sec : sections) {
        if (sec.name == "scenario") {
            interpScenarioSection(in, sec, out);
            saw_scenario = true;
        } else if (sec.name == "fleet") {
            interpFleetSection(in, sec, out);
        } else if (sec.name == "elastic") {
            interpElasticSection(in, sec, out);
        } else if (sec.name == "resilience") {
            interpResilienceSection(in, sec, out);
        } else if (sec.name == "faults") {
            interpFaultsSection(in, sec, out);
        } else if (sec.name == "llm") {
            interpLlmSection(in, sec, out);
        } else if (sec.name == "trace") {
            interpTraceSection(in, sec, out);
        } else if (sec.name.rfind("tenant.", 0) == 0) {
            out.groups.push_back(interpTenantSection(in, sec));
            tenant_sections.push_back(&sec);
        } else {
            in.fail(sec.line,
                    csprintf("unknown section [%s]; valid sections: "
                             "[scenario], [fleet], [elastic], "
                             "[resilience], [faults], [llm], [trace], "
                             "[tenant.<name>]", sec.name.c_str()));
        }
    }

    if (!saw_scenario || out.name.empty())
        in.fail(1, "missing [scenario] section with a 'name' key");
    if (out.groups.empty())
        in.fail(1, "scenario declares no [tenant.<name>] sections");

    if (out.mode == ScenarioMode::OpenLoop)
        validateOpenLoop(in, out, tenant_sections);
    else
        validateClosedLoop(in, out, tenant_sections, sections);

    if (out.hasLlm) {
        // Token-level LLM serving rides the fleet engine and the
        // LLaMA phase model; anything else has no token semantics.
        if (out.mode != ScenarioMode::OpenLoop)
            in.fail(out.llmLine,
                    "[llm] is open-loop only; token-level serving "
                    "runs on the fleet engine");
        if (out.elastic.epochs != 1)
            in.fail(out.llmLine,
                    csprintf("[llm] requires [elastic] epochs = 1 "
                             "(got %u): half-decoded sequences cannot "
                             "carry across epoch boundaries",
                             out.elastic.epochs));
        for (size_t i = 0; i < out.groups.size(); ++i) {
            if (out.groups[i].model != ModelId::Llama)
                in.fail(tenant_sections[i]->line,
                        csprintf("[%s]: LLM serving requires model = "
                                 "LLaMA (got %s)",
                                 tenant_sections[i]->name.c_str(),
                                 modelAbbrev(out.groups[i].model)
                                     .c_str()));
        }
    }
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
