/**
 * @file
 * Scenario-file parser suite (CTest label `scenario`): the
 * declarative scenario format (src/scenario, docs/SCENARIOS.md) must
 * accept every documented construct, reject every malformed one with
 * a file:line diagnostic whose wording names the offending text and
 * the accepted vocabulary, and expand into engine configs key by key
 * (the ScenarioExpand cases), defaults included.
 *
 * The negative-path cases pin the diagnostic wording on purpose: a
 * scenario author's only debugging tool is the error message, so a
 * regression from "test.scn:5: unknown key 'bogus' in section
 * [fleet]; valid keys: ..." to a bare "parse error" is a real bug.
 *
 * Env-override precedence (NEU10_SEED / NEU10_SMOKE / NEU10_TRACE /
 * NEU10_TRACE_OUT beat file values) is covered here too — this is
 * the regression net for the bench_util dedupe onto
 * applyEnvOverrides.
 *
 * The cases that walk every key (EveryKeyRejectsMalformedValue and
 * ScenarioDocs.KeyReferenceMatchesParser, which checks the key
 * reference in docs/SCENARIOS.md) read the key list back from the
 * parser's own "valid keys" diagnostics, so they name no key by hand.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "vnpu/allocator.hh"

namespace neu10
{
namespace
{

Scenario
parse(const std::string &text)
{
    return parseScenario(text, "test.scn");
}

/** Parse must fail, and the diagnostic must contain @p needle (which
 * includes the "test.scn:<line>:" prefix where the test pins it). */
void
expectError(const std::string &text, const std::string &needle)
{
    try {
        parseScenario(text, "test.scn");
        ADD_FAILURE() << "expected FatalError, parsed OK:\n" << text;
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "diagnostic \"" << err.what()
            << "\" does not mention \"" << needle << "\"";
    }
}

/** The diagnostic a parse of @p text fails with ("" if it parses). */
std::string
diagnostic(const std::string &text)
{
    try {
        parseScenario(text, "test.scn");
    } catch (const FatalError &err) {
        return err.what();
    }
    ADD_FAILURE() << "expected FatalError, parsed OK:\n" << text;
    return "";
}

/** The comma-separated list that ends @p msg after @p label. */
std::vector<std::string>
listAfter(const std::string &msg, const std::string &label)
{
    std::vector<std::string> items;
    const size_t at = msg.find(label);
    if (at == std::string::npos) {
        ADD_FAILURE() << "\"" << msg << "\" has no \"" << label << "\"";
        return items;
    }
    std::istringstream list(msg.substr(at + label.size()));
    std::string item;
    while (std::getline(list, item, ','))
        items.push_back(item.substr(item.find_first_not_of(' ')));
    return items;
}

/** One section of the parser's vocabulary. */
struct SectionKeys
{
    std::string listed;             ///< as listed: "[tenant.<name>]"
    std::string header;             ///< a usable header: "[tenant.a]"
    std::vector<std::string> keys;  ///< "valid keys:" order
};

/** The parser's sections and keys, read back from its own "valid
 * sections:" and "valid keys:" diagnostics, so the tests that walk
 * every key name none by hand. */
std::vector<SectionKeys>
parserVocabulary()
{
    std::vector<SectionKeys> out;
    for (const std::string &listed :
         listAfter(diagnostic("[no-such-section]\n"),
                   "valid sections: ")) {
        SectionKeys sec;
        sec.listed = listed;
        sec.header = listed;
        const size_t name = sec.header.find("<name>");
        if (name != std::string::npos)
            sec.header.replace(name, 6, "a");
        // "fault (repeatable)": the key is the first word.
        for (const std::string &item :
             listAfter(diagnostic(sec.header + "\nno-such-key = 1\n"),
                       "valid keys: "))
            sec.keys.push_back(item.substr(0, item.find(' ')));
        out.push_back(std::move(sec));
    }
    return out;
}

/** A minimal valid open-loop scenario to splice test lines into. */
const char *const kMinimal =
    "[scenario]\n"
    "name = t\n"
    "[fleet]\n"
    "horizon = 1e6\n"
    "[tenant.a]\n"
    "model = MNIST\n"
    "eus = 2\n"
    "rho = 0.5\n";

/** Set (or with nullptr: unset) an environment variable for one
 * test, restoring the previous state on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

// ------------------------------------------------------- positives

TEST(ScenarioParse, MinimalOpenLoopDefaults)
{
    const Scenario s = parse(kMinimal);
    EXPECT_EQ(s.name, "t");
    EXPECT_EQ(s.file, "test.scn");
    EXPECT_EQ(s.mode, ScenarioMode::OpenLoop);
    EXPECT_EQ(s.boards, 4u);
    EXPECT_EQ(s.placement, PlacementPolicy::FirstFit);
    EXPECT_EQ(s.corePolicy, PolicyKind::Neu10);
    EXPECT_EQ(s.threads, 1u);
    EXPECT_EQ(s.horizon, 1e6);
    EXPECT_EQ(s.smokeHorizon, 0.0);
    EXPECT_EQ(s.maxCycles, 0.0);
    EXPECT_EQ(s.maxCyclesFactor, 50.0);
    EXPECT_EQ(s.seed, 1u);
    EXPECT_TRUE(s.roundRobin);
    EXPECT_TRUE(s.failover);
    EXPECT_TRUE(s.faults.empty());
    EXPECT_FALSE(s.trace.enabled);
    EXPECT_FALSE(s.smoke);
    ASSERT_EQ(s.groups.size(), 1u);
    const ScenarioTenantGroup &g = s.groups[0];
    EXPECT_EQ(g.name, "a");
    EXPECT_EQ(g.model, ModelId::Mnist);
    EXPECT_EQ(g.batch, 32u);
    EXPECT_EQ(g.count, 1u);
    EXPECT_EQ(g.eus, 2u);
    EXPECT_EQ(g.rho, 0.5);
    EXPECT_LT(g.ratePerSec, 0.0);
    EXPECT_EQ(g.traffic.shape, TrafficShape::Poisson);
    EXPECT_EQ(g.maxQueueDepth, 64u);
    EXPECT_EQ(g.priority, 1.0);
    EXPECT_FALSE(g.hasSeed);
    EXPECT_EQ(s.totalTenants(), 1u);
}

TEST(ScenarioParse, FullFleetKnobs)
{
    const Scenario s = parse(
        "[scenario]\n"
        "name = full\n"
        "description = every fleet knob\n"
        "[fleet]\n"
        "mode = open-loop\n"
        "boards = 2\n"
        "chips-per-board = 3\n"
        "cores-per-chip = 4\n"
        "placement = load-balanced\n"
        "core-policy = pmt\n"
        "threads = 0\n"
        "horizon = 2e6\n"
        "smoke-horizon = 1e5\n"
        "max-cycles = 8e7\n"
        "max-cycles-factor = 10\n"
        "seed = 99\n"
        "tenant-order = grouped\n"
        "[elastic]\n"
        "epochs = 6\n"
        "imbalance-threshold = 0.25\n"
        "max-migrations-per-epoch = 2\n"
        "migration-cost = 1e5\n"
        "[resilience]\n"
        "failover = off\n"
        "recovery-stall = 3e5\n"
        "[trace]\n"
        "enabled = on\n"
        "engine-events = on\n"
        "metrics = on\n"
        "out = my.trace.json\n"
        "[tenant.a]\n"
        "model = NCF\n"
        "eus = 4\n"
        "rate-per-sec = 1000\n");
    EXPECT_EQ(s.description, "every fleet knob");
    EXPECT_EQ(s.boards, 2u);
    EXPECT_EQ(s.board.numChips, 3u);
    EXPECT_EQ(s.board.coresPerChip, 4u);
    EXPECT_EQ(s.totalCores(), 2u * 3u * 4u);
    EXPECT_EQ(s.placement, PlacementPolicy::LoadBalanced);
    EXPECT_EQ(s.corePolicy, PolicyKind::Pmt);
    EXPECT_EQ(s.threads, 0u);
    EXPECT_EQ(s.horizon, 2e6);
    EXPECT_EQ(s.smokeHorizon, 1e5);
    EXPECT_EQ(s.maxCycles, 8e7);
    EXPECT_EQ(s.maxCyclesFactor, 10.0);
    EXPECT_EQ(s.seed, 99u);
    EXPECT_FALSE(s.roundRobin);
    EXPECT_EQ(s.elastic.epochs, 6u);
    EXPECT_EQ(s.elastic.imbalanceThreshold, 0.25);
    EXPECT_EQ(s.elastic.maxMigrationsPerEpoch, 2u);
    EXPECT_EQ(s.elastic.migrationCostCycles, 1e5);
    EXPECT_FALSE(s.failover);
    EXPECT_EQ(s.recoveryStallCycles, 3e5);
    EXPECT_TRUE(s.trace.enabled);
    EXPECT_TRUE(s.trace.engineEvents);
    EXPECT_TRUE(s.trace.metrics);
    EXPECT_EQ(s.traceOut, "my.trace.json");
    ASSERT_EQ(s.groups.size(), 1u);
    EXPECT_EQ(s.groups[0].ratePerSec, 1000.0);
    EXPECT_LT(s.groups[0].rho, 0.0);
}

TEST(ScenarioParse, CommentsAndWhitespace)
{
    const Scenario s = parse(
        "# full-line comment\n"
        "\n"
        "  [scenario]   # trailing comment\n"
        "  name   =   spaced out   \n"
        "[fleet]\n"
        "horizon = 1e6  # cycles\n"
        "[tenant.a]\n"
        "model = mnist\n"   // abbrev matching is case-insensitive
        "eus = 2\n"
        "rho = 0.5\n");
    EXPECT_EQ(s.name, "spaced out");
    EXPECT_EQ(s.groups[0].model, ModelId::Mnist);
}

TEST(ScenarioParse, TenantTrafficAndSloKnobs)
{
    const Scenario s = parse(
        "[scenario]\n"
        "name = knobs\n"
        "[fleet]\n"
        "horizon = 1e6\n"
        "[tenant.burst]\n"
        "model = DLRM\n"
        "batch = 16\n"
        "count = 3\n"
        "eus = 4\n"
        "rho = 0.7\n"
        "shape = bursty\n"
        "burst-multiplier = 6\n"
        "burst-fraction = 0.2\n"
        "burst-dwell-sec = 0.005\n"
        "slo-cycles = 123456\n"
        "max-queue-depth = 16\n"
        "priority = 2.5\n"
        "seed = 1000\n"
        "[tenant.day]\n"
        "model = RsNt\n"
        "batch = 8\n"
        "eus = 6\n"
        "rate-per-sec = 50\n"
        "shape = diurnal\n"
        "diurnal-depth = 0.9\n"
        "diurnal-period-sec = 0.5\n"
        "diurnal-phase = 0.25\n"
        "slo-factor = 7\n");
    ASSERT_EQ(s.groups.size(), 2u);
    const ScenarioTenantGroup &b = s.groups[0];
    EXPECT_EQ(b.model, ModelId::Dlrm);
    EXPECT_EQ(b.batch, 16u);
    EXPECT_EQ(b.count, 3u);
    EXPECT_EQ(b.traffic.shape, TrafficShape::Bursty);
    EXPECT_EQ(b.traffic.burstMultiplier, 6.0);
    EXPECT_EQ(b.traffic.burstFraction, 0.2);
    EXPECT_EQ(b.traffic.burstDwellSec, 0.005);
    EXPECT_TRUE(b.hasSloCycles);
    EXPECT_EQ(b.sloCycles, 123456.0);
    EXPECT_EQ(b.maxQueueDepth, 16u);
    EXPECT_EQ(b.priority, 2.5);
    EXPECT_TRUE(b.hasSeed);
    EXPECT_EQ(b.seed, 1000u);
    const ScenarioTenantGroup &d = s.groups[1];
    EXPECT_EQ(d.model, ModelId::ResNet);
    EXPECT_EQ(d.traffic.shape, TrafficShape::Diurnal);
    EXPECT_EQ(d.traffic.diurnalDepth, 0.9);
    EXPECT_EQ(d.traffic.diurnalPeriodSec, 0.5);
    EXPECT_EQ(d.traffic.diurnalPhase, 0.25);
    EXPECT_EQ(d.sloFactor, 7.0);
    EXPECT_EQ(s.totalTenants(), 4u);
}

TEST(ScenarioParse, FaultLines)
{
    const Scenario s = parse(
        "[scenario]\n"
        "name = faults\n"
        "[fleet]\n"
        "horizon = 1e6\n"
        "[faults]\n"
        "fault = board-loss at-frac=0.3 board=1 duration=inf\n"
        "fault = core-stall at=5e5 core=7 duration=1e4\n"
        "fault = transient-mmio at=1e5 core=0\n"
        "fault = repair at=9e5 board=1\n"
        "[tenant.a]\n"
        "model = MNIST\n"
        "eus = 2\n"
        "rho = 0.5\n");
    ASSERT_EQ(s.faults.size(), 4u);
    EXPECT_EQ(s.faults[0].kind, FaultKind::BoardLoss);
    EXPECT_EQ(s.faults[0].atFrac, 0.3);
    EXPECT_LT(s.faults[0].at, 0.0);
    EXPECT_TRUE(s.faults[0].hasBoard);
    EXPECT_EQ(s.faults[0].board, 1u);
    EXPECT_TRUE(std::isinf(s.faults[0].durationCycles));
    EXPECT_EQ(s.faults[1].kind, FaultKind::CoreStall);
    EXPECT_EQ(s.faults[1].at, 5e5);
    EXPECT_EQ(s.faults[1].core, 7u);
    EXPECT_EQ(s.faults[1].durationCycles, 1e4);
    EXPECT_EQ(s.faults[2].kind, FaultKind::TransientMmio);
    EXPECT_EQ(s.faults[3].kind, FaultKind::Repair);
}

TEST(ScenarioParse, ClosedLoop)
{
    const Scenario s = parse(
        "[scenario]\n"
        "name = pair\n"
        "[fleet]\n"
        "mode = closed-loop\n"
        "core-policy = v10\n"
        "min-requests = 10\n"
        "smoke-min-requests = 3\n"
        "max-cycles = 3e9\n"
        "[tenant.bert]\n"
        "model = BERT\n"
        "batch = 32\n"
        "mes = 2\n"
        "ves = 2\n"
        "outstanding = 2\n"
        "priority = 2\n"
        "[tenant.enet]\n"
        "model = ENet\n"
        "mes = 2\n"
        "ves = 2\n");
    EXPECT_EQ(s.mode, ScenarioMode::ClosedLoop);
    EXPECT_EQ(s.corePolicy, PolicyKind::V10);
    EXPECT_EQ(s.minRequests, 10u);
    EXPECT_EQ(s.smokeMinRequests, 3u);
    EXPECT_EQ(s.maxCycles, 3e9);
    ASSERT_EQ(s.groups.size(), 2u);
    EXPECT_EQ(s.groups[0].model, ModelId::Bert);
    EXPECT_EQ(s.groups[0].nMes, 2u);
    EXPECT_EQ(s.groups[0].nVes, 2u);
    EXPECT_EQ(s.groups[0].outstanding, 2u);
    EXPECT_EQ(s.groups[0].priority, 2.0);
    EXPECT_EQ(s.groups[1].model, ModelId::EfficientNet);
}

TEST(ScenarioParse, SmokeSwap)
{
    Scenario s = parse(
        "[scenario]\n"
        "name = t\n"
        "[fleet]\n"
        "horizon = 1e8\n"
        "smoke-horizon = 1e6\n"
        "[tenant.a]\n"
        "model = MNIST\n"
        "eus = 2\n"
        "rho = 0.5\n");
    EXPECT_EQ(s.effectiveHorizon(), 1e8);
    s.smoke = true;
    EXPECT_EQ(s.effectiveHorizon(), 1e6);

    // Without a smoke-horizon the full horizon stands even in smoke
    // mode — a scenario opts into shrinking explicitly.
    Scenario noswap = parse(kMinimal);
    noswap.smoke = true;
    EXPECT_EQ(noswap.effectiveHorizon(), 1e6);

    Scenario closed = parse(
        "[scenario]\n"
        "name = t\n"
        "[fleet]\n"
        "mode = closed-loop\n"
        "min-requests = 20\n"
        "[tenant.a]\n"
        "model = MNIST\n"
        "mes = 2\n"
        "ves = 2\n");
    EXPECT_EQ(closed.effectiveMinRequests(), 20u);
    closed.smoke = true;
    EXPECT_EQ(closed.effectiveMinRequests(), 20u); // no smoke knob
    closed.smokeMinRequests = 5;
    EXPECT_EQ(closed.effectiveMinRequests(), 5u);
}

TEST(ScenarioParse, ModeNames)
{
    EXPECT_EQ(scenarioModeName(ScenarioMode::OpenLoop), "open-loop");
    EXPECT_EQ(scenarioModeName(ScenarioMode::ClosedLoop),
              "closed-loop");
}

// ------------------------------------------- syntax negative paths

TEST(ScenarioErrors, MalformedSectionHeader)
{
    expectError("[fleet\nhorizon = 1\n",
                "test.scn:1: malformed section header '[fleet'");
}

TEST(ScenarioErrors, EmptySectionName)
{
    expectError("[]\n", "test.scn:1: empty section name '[]'");
}

TEST(ScenarioErrors, DuplicateSection)
{
    expectError("[fleet]\nhorizon = 1e6\n[fleet]\n",
                "test.scn:3: duplicate section [fleet]");
}

TEST(ScenarioErrors, MissingEquals)
{
    expectError("[fleet]\nhorizon 1e6\n",
                "test.scn:2: expected 'key = value' or '[section]', "
                "got 'horizon 1e6'");
}

TEST(ScenarioErrors, MissingKey)
{
    expectError("[fleet]\n= 5\n",
                "test.scn:2: missing key before '='");
}

TEST(ScenarioErrors, EmptyValue)
{
    expectError("[fleet]\nhorizon =\n",
                "test.scn:2: key 'horizon' has an empty value");
}

TEST(ScenarioErrors, KeyBeforeSection)
{
    expectError("horizon = 1e6\n",
                "test.scn:1: key 'horizon' appears before any "
                "[section] header");
}

TEST(ScenarioErrors, DuplicateKey)
{
    expectError("[fleet]\nhorizon = 1e6\nhorizon = 2e6\n",
                "test.scn:3: duplicate key 'horizon' in section "
                "[fleet]");
}

TEST(ScenarioErrors, UnknownSection)
{
    expectError("[scenario]\nname = t\n[turbo]\n",
                "test.scn:3: unknown section [turbo]; valid "
                "sections: [scenario], [fleet], [elastic], "
                "[resilience], [faults], [llm], [trace], "
                "[tenant.<name>]");
}

// --------------------------------------- vocabulary negative paths

TEST(ScenarioErrors, UnknownFleetKey)
{
    expectError("[scenario]\nname = t\n[fleet]\nbogus = 1\n",
                "test.scn:4: unknown key 'bogus' in section [fleet]; "
                "valid keys: mode, boards,");

    // There is no engine selection: an `engine` key is rejected like
    // any unknown key, and the listed vocabulary does not offer it.
    std::string msg;
    try {
        parseScenario("[scenario]\nname = t\n[fleet]\n"
                      "engine = per-cycle\n",
                      "test.scn");
    } catch (const FatalError &err) {
        msg = err.what();
    }
    EXPECT_NE(msg.find("test.scn:4: unknown key 'engine' in section "
                       "[fleet]; valid keys: mode, boards,"),
              std::string::npos)
        << msg;
    const size_t vocabulary = msg.find("valid keys:");
    ASSERT_NE(vocabulary, std::string::npos) << msg;
    EXPECT_EQ(msg.find("engine", vocabulary), std::string::npos) << msg;
}

TEST(ScenarioErrors, UnknownMode)
{
    expectError("[fleet]\nmode = sideways\n",
                "test.scn:2: unknown mode 'sideways'; valid modes "
                "are 'open-loop' and 'closed-loop'");
}

TEST(ScenarioErrors, UnknownTenantOrder)
{
    expectError("[fleet]\ntenant-order = shuffled\n",
                "test.scn:2: unknown tenant-order 'shuffled'");
}

TEST(ScenarioErrors, UnknownPlacementCarriesFileLine)
{
    // Vocabulary parsers (placementFromName & co.) are re-raised
    // with the file:line prefix so the author lands on the line.
    expectError("[fleet]\nplacement = pile-up\n", "test.scn:2: ");
    expectError("[fleet]\nplacement = pile-up\n", "pile-up");
}

TEST(ScenarioErrors, OneFatalLinePerError)
{
    // A vocabulary error and a number error print one "fatal:" line
    // each, the one carrying file:line: the inner parser's fatal()
    // must not print its bare message first.
    setLogLevel(LogLevel::Warn);
    for (const char *text : {"[fleet]\nplacement = pile-up\n",
                             "[fleet]\nseed = 12abc\n"}) {
        SCOPED_TRACE(text);
        testing::internal::CaptureStderr();
        try {
            parseScenario(text, "test.scn");
            ADD_FAILURE() << "expected FatalError, parsed OK";
        } catch (const FatalError &) {
        }
        std::istringstream err(testing::internal::GetCapturedStderr());
        std::vector<std::string> fatals;
        for (std::string line; std::getline(err, line);)
            if (line.rfind("fatal: ", 0) == 0)
                fatals.push_back(line);
        ASSERT_EQ(fatals.size(), 1u);
        EXPECT_EQ(fatals[0].rfind("fatal: test.scn:2: ", 0), 0u)
            << fatals[0];
    }
}

TEST(ScenarioErrors, UnknownModel)
{
    expectError("[scenario]\nname = t\n[tenant.a]\nmodel = GPT9\n",
                "test.scn:4: ");
}

TEST(ScenarioErrors, UnknownTenantKey)
{
    expectError("[scenario]\nname = t\n[tenant.a]\nwarp = 9\n",
                "test.scn:4: unknown key 'warp' in section "
                "[tenant.a]; valid keys: model, batch,");
}

TEST(ScenarioErrors, UnknownFaultKind)
{
    expectError("[faults]\nfault = gamma-ray at=1 core=0\n",
                "test.scn:2: ");
}

// ------------------------------------------- [llm] section paths

/** A minimal valid LLM-serving scenario to splice test lines into. */
const char *const kMinimalLlm =
    "[scenario]\n"
    "name = t\n"
    "[fleet]\n"
    "horizon = 1e6\n"
    "[llm]\n"
    "scheduler = continuous\n"
    "[tenant.a]\n"
    "model = LLaMA\n"
    "eus = 8\n"
    "rate-per-sec = 5\n";

TEST(ScenarioParse, LlmSectionParses)
{
    const Scenario s = parse(
        "[scenario]\n"
        "name = t\n"
        "[fleet]\n"
        "horizon = 1e6\n"
        "[llm]\n"
        "scheduler = static-batch\n"
        "page-tokens = 32\n"
        "max-batch = 24\n"
        "prompt-tokens = 256\n"
        "prompt-tokens-max = 512\n"
        "output-tokens = 16\n"
        "output-tokens-max = 64\n"
        "[tenant.a]\n"
        "model = LLaMA\n"
        "eus = 8\n"
        "rate-per-sec = 5\n");
    EXPECT_TRUE(s.hasLlm);
    EXPECT_EQ(s.llm.scheduler, LlmScheduler::StaticBatch);
    EXPECT_EQ(s.llm.pageTokens, 32u);
    EXPECT_EQ(s.llm.maxBatch, 24u);
    EXPECT_EQ(s.llm.promptTokens, 256u);
    EXPECT_EQ(s.llm.promptTokensMax, 512u);
    EXPECT_EQ(s.llm.outputTokens, 16u);
    EXPECT_EQ(s.llm.outputTokensMax, 64u);

    const Scenario min = parse(kMinimalLlm);
    EXPECT_TRUE(min.hasLlm);
    EXPECT_EQ(min.llm.scheduler, LlmScheduler::Continuous);
    EXPECT_EQ(min.llm.pageTokens, 16u);
    EXPECT_EQ(min.llm.maxBatch, 0u); // 0 = the tenant's batch
}

TEST(ScenarioErrors, UnknownLlmKey)
{
    expectError("[scenario]\nname = t\n[llm]\nbogus = 1\n",
                "test.scn:4: unknown key 'bogus' in section [llm]; "
                "valid keys: scheduler, page-tokens, max-batch, "
                "prompt-tokens, prompt-tokens-max, output-tokens, "
                "output-tokens-max");
}

TEST(ScenarioErrors, UnknownLlmScheduler)
{
    expectError("[scenario]\nname = t\n[llm]\nscheduler = greedy\n",
                "test.scn:4: unknown scheduler 'greedy'; valid "
                "schedulers are 'continuous' and 'static-batch'");
}

TEST(ScenarioErrors, LlmPromptMaxBelowMin)
{
    expectError("[scenario]\nname = t\n[llm]\n"
                "prompt-tokens = 384\nprompt-tokens-max = 128\n",
                "test.scn:3: prompt-tokens-max=128 is below "
                "prompt-tokens=384");
}

TEST(ScenarioErrors, LlmOutputMaxBelowMin)
{
    expectError("[scenario]\nname = t\n[llm]\n"
                "output-tokens = 32\noutput-tokens-max = 8\n",
                "test.scn:3: output-tokens-max=8 is below "
                "output-tokens=32");
}

TEST(ScenarioErrors, LlmIsOpenLoopOnly)
{
    expectError("[scenario]\nname = t\n[fleet]\n"
                "mode = closed-loop\n[llm]\n[tenant.a]\n"
                "model = LLaMA\nmes = 2\nves = 2\n",
                "test.scn:5: [llm] is open-loop only; token-level "
                "serving runs on the fleet engine");
}

TEST(ScenarioErrors, LlmRequiresSingleEpoch)
{
    expectError(std::string(kMinimalLlm) + "[elastic]\nepochs = 4\n",
                "test.scn:5: [llm] requires [elastic] epochs = 1 "
                "(got 4): half-decoded sequences cannot carry "
                "across epoch boundaries");
}

TEST(ScenarioErrors, LlmRequiresLlamaModel)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "[llm]\n[tenant.a]\n"
                "model = MNIST\neus = 2\nrate-per-sec = 5\n",
                "test.scn:6: [tenant.a]: LLM serving requires "
                "model = LLaMA (got MNIST)");
}

// -------------------------------------- range/overflow negatives

TEST(ScenarioErrors, JunkInteger)
{
    expectError("[fleet]\nseed = 12abc\n", "test.scn:2: ");
}

TEST(ScenarioErrors, NegativeInteger)
{
    expectError("[fleet]\nboards = -3\n", "test.scn:2: ");
}

TEST(ScenarioErrors, Overflow32BitCount)
{
    expectError("[fleet]\nboards = 4294967296\n",
                "test.scn:2: boards=4294967296 overflows a 32-bit "
                "count");
}

TEST(ScenarioErrors, ZeroWherePositiveRequired)
{
    expectError("[fleet]\nboards = 0\n",
                "test.scn:2: boards must be >= 1");
}

TEST(ScenarioErrors, JunkReal)
{
    expectError("[fleet]\nmax-cycles-factor = fast\n",
                "test.scn:2: max-cycles-factor='fast' is not a "
                "number");
}

TEST(ScenarioErrors, SignedRealRejected)
{
    expectError("[fleet]\nmax-cycles-factor = +5\n",
                "must be a bare number; no sign prefix");
}

TEST(ScenarioErrors, InfiniteHorizon)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = inf\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n",
                "horizon must be finite");
}

TEST(ScenarioErrors, NegativeCycles)
{
    expectError("[fleet]\nmax-cycles = -5\n",
                "test.scn:2: max-cycles=-5 must be >= 0 cycles (or "
                "'inf')");
}

TEST(ScenarioErrors, BurstMultiplierTooSmall)
{
    expectError("[scenario]\nname = t\n[tenant.a]\nmodel = MNIST\n"
                "burst-multiplier = 1\n",
                "test.scn:5: burst-multiplier must be > 1");
}

TEST(ScenarioErrors, BurstFractionOutOfRange)
{
    expectError("[tenant.a]\nmodel = MNIST\nburst-fraction = 1.5\n",
                "test.scn:3: burst-fraction=1.5 must be within "
                "(0, 1)");
}

TEST(ScenarioErrors, DiurnalDepthOutOfRange)
{
    expectError("[tenant.a]\nmodel = MNIST\ndiurnal-depth = 2\n",
                "test.scn:3: diurnal-depth=2 must be within [0, 1]");
}

TEST(ScenarioErrors, DiurnalPhaseExcludesOne)
{
    expectError("[tenant.a]\nmodel = MNIST\ndiurnal-phase = 1\n",
                "test.scn:3: diurnal-phase=1 must be within [0, 1)");
}

TEST(ScenarioErrors, BatchBeyondModelMax)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "[tenant.a]\nmodel = MNIST\nbatch = 100000\n"
                "eus = 2\nrho = 0.5\n",
                "test.scn:5: [tenant.a]: batch 100000 exceeds");
}

/** A one-board fleet_static.scn whose [fleet] line 4 is @p key. */
std::string
memoryRepro(const std::string &key)
{
    return "[scenario]\nname = t\n[fleet]\n" + key +
           "\nboards = 1\nhorizon = 6e6\n[tenant.mnist]\n"
           "model = MNIST\ncount = 2\neus = 8\nrho = 1.2\n";
}

TEST(ScenarioErrors, MemoryKeysAreWholeSegments)
{
    // The placer counts free bytes and the hypervisor whole segments.
    // 129 MiB of SRAM is 64.5 segments: the placer would admit a vNPU
    // sized to the whole core that the hypervisor's 64 segments
    // cannot map (a fatal pinned create).
    expectError(memoryRepro("sram-bytes = 135266304"),
                "test.scn:4: sram-bytes=135266304 must be a positive "
                "multiple of the core's 2097152-byte isolation "
                "segment");
}

TEST(ScenarioErrors, MemoryKeysHoldAtLeastOneSegment)
{
    // Less than one segment would build a hypervisor with no segment
    // to map (a PanicError out of runFleet).
    expectError(memoryRepro("sram-bytes = 1048576"),
                "test.scn:4: sram-bytes=1048576 must be a positive "
                "multiple of the core's 2097152-byte isolation "
                "segment");
    expectError(memoryRepro("hbm-bytes = 0"),
                "test.scn:4: hbm-bytes=0 must be a positive multiple "
                "of the core's 1073741824-byte isolation segment");
}

// ----------------------------------- structural/semantic negatives

TEST(ScenarioErrors, MissingScenarioName)
{
    expectError("[fleet]\nhorizon = 1e6\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n",
                "missing [scenario] section with a 'name' key");
}

TEST(ScenarioErrors, NoTenants)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n",
                "scenario declares no [tenant.<name>] sections");
}

TEST(ScenarioErrors, EmptyTenantName)
{
    expectError("[scenario]\nname = t\n[tenant.]\nmodel = MNIST\n",
                "test.scn:3: empty tenant name; want "
                "[tenant.<name>]");
}

TEST(ScenarioErrors, MissingModel)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "[tenant.a]\neus = 2\nrho = 0.5\n",
                "test.scn:5: [tenant.a] is missing the required "
                "'model' key");
}

TEST(ScenarioErrors, BothSloFactorAndSloCycles)
{
    expectError("[scenario]\nname = t\n[tenant.a]\nmodel = MNIST\n"
                "slo-factor = 5\nslo-cycles = 100\n",
                "test.scn:3: [tenant.a] sets both slo-factor and "
                "slo-cycles; give at most one");
}

TEST(ScenarioErrors, BothRhoAndRate)
{
    expectError("[scenario]\nname = t\n[tenant.a]\nmodel = MNIST\n"
                "rho = 0.5\nrate-per-sec = 100\n",
                "test.scn:3: [tenant.a] sets both rho and "
                "rate-per-sec; give exactly one");
}

TEST(ScenarioErrors, TraceShapeRejected)
{
    expectError("[tenant.a]\nmodel = MNIST\nshape = trace\n",
                "test.scn:3: shape=trace needs an explicit arrival "
                "vector");
}

TEST(ScenarioErrors, OpenLoopNeedsHorizon)
{
    expectError("[scenario]\nname = t\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n",
                "open-loop scenarios require a positive [fleet] "
                "horizon");
}

TEST(ScenarioErrors, OpenLoopNeedsEus)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "[tenant.a]\nmodel = MNIST\nrho = 0.5\n",
                "test.scn:5: [tenant.a] is missing the required "
                "'eus' key");
}

TEST(ScenarioErrors, OpenLoopNeedsLoad)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\n",
                "test.scn:5: [tenant.a] needs exactly one of 'rho' "
                "and 'rate-per-sec'");
}

TEST(ScenarioErrors, OpenLoopRejectsClosedLoopKeys)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n"
                "mes = 2\n",
                "test.scn:9: key 'mes' is closed-loop only");
    for (const std::string key : {"min-requests", "smoke-min-requests"})
        expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n" +
                        key + " = 5\n"
                        "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n",
                    "test.scn:5: key '" + key + "' is closed-loop only");
}

TEST(ScenarioErrors, ClosedLoopRejectsOpenLoopSections)
{
    expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
                "[elastic]\nepochs = 4\n"
                "[tenant.a]\nmodel = MNIST\nmes = 2\nves = 2\n",
                "test.scn:5: section [elastic] is open-loop only");
    // neu10_run writes traces in open loop only, so a closed-loop
    // [trace] section would record and then silently drop its trace.
    expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
                "[trace]\nenabled = on\nengine-events = on\n"
                "[tenant.a]\nmodel = MNIST\nmes = 2\nves = 2\n",
                "test.scn:5: section [trace] is open-loop only");
}

TEST(ScenarioErrors, ClosedLoopRejectsOpenLoopFleetKeys)
{
    expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
                "horizon = 1e6\n"
                "[tenant.a]\nmodel = MNIST\nmes = 2\nves = 2\n",
                "test.scn:5: key 'horizon' is open-loop only");
    for (const std::string key : {"threads", "max-cycles-factor",
                                  "chips-per-board", "cores-per-chip"})
        expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n" +
                        key + " = 2\n"
                        "[tenant.a]\nmodel = MNIST\nmes = 2\nves = 2\n",
                    "test.scn:5: key '" + key + "' is open-loop only");
}

TEST(ScenarioErrors, ClosedLoopRejectsOpenLoopTenantKeys)
{
    expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
                "[tenant.a]\nmodel = MNIST\nmes = 2\nves = 2\n"
                "rho = 0.5\n",
                "test.scn:9: key 'rho' is open-loop only");
}

TEST(ScenarioErrors, ClosedLoopNeedsEngineSplit)
{
    expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
                "[tenant.a]\nmodel = MNIST\nmes = 2\n",
                "test.scn:5: [tenant.a] needs explicit 'mes' and "
                "'ves'");
}

TEST(ScenarioErrors, ClosedLoopSplitsMustFitTheCore)
{
    // BERT + ENet at 4 + 4 MEs on the default 4-ME core: spatial
    // Neu10 would hand each vNPU all four. The file's design does not
    // matter, since neu10_run --core-policy can replace it.
    expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
                "core-policy = pmt\n"
                "[tenant.bert]\nmodel = BERT\nmes = 4\nves = 2\n"
                "[tenant.enet]\nmodel = ENet\nmes = 4\nves = 2\n",
                "test.scn:10: [tenant.enet] brings the closed-loop "
                "engine splits to 8 MEs and 4 VEs; the core has 4 and "
                "4 ([fleet] mes, ves)");
    // A group counts `count` times, and VEs are checked alike.
    expectError("[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
                "ves = 5\n"
                "[tenant.a]\nmodel = MNIST\ncount = 3\nmes = 1\n"
                "ves = 2\n",
                "test.scn:6: [tenant.a] brings the closed-loop engine "
                "splits to 3 MEs and 6 VEs; the core has 4 and 5");
}

TEST(ScenarioErrors, EveryKeyRejectsMalformedValue)
{
    // Each key, set to junk as the last line of a minimal valid
    // file, must fail at that line and quote the junk; the free-text
    // keys take it.
    const std::set<std::string> free_text = {"name", "description",
                                             "out"};
    const std::vector<std::pair<std::string, std::string>> minimal = {
        {"[scenario]", "name = t\n"},
        {"[fleet]", "horizon = 1e6\n"},
        {"[tenant.a]", "model = MNIST\neus = 2\nrho = 0.5\n"}};
    unsigned rejected = 0;
    for (const SectionKeys &sec : parserVocabulary()) {
        for (const std::string &key : sec.keys) {
            SCOPED_TRACE(sec.header + " " + key);
            std::string text;
            std::string own;
            for (const auto &[header, body] : minimal) {
                if (header == sec.header)
                    own = body;
                else
                    text += header + "\n" + body;
            }
            text += sec.header + "\n";
            std::istringstream lines(own);
            for (std::string line; std::getline(lines, line);)
                if (line.rfind(key + " =", 0) != 0)
                    text += line + "\n";
            text += key + " = @@@\n";
            if (free_text.count(key) > 0) {
                EXPECT_NO_THROW(parse(text)) << text;
                continue;
            }
            const auto line = std::count(text.begin(), text.end(), '\n');
            const std::string msg = diagnostic(text);
            EXPECT_EQ(msg.rfind("test.scn:" + std::to_string(line) + ": ",
                                0),
                      0u)
                << msg;
            EXPECT_NE(msg.find("@@@"), std::string::npos) << msg;
            ++rejected;
        }
    }
    EXPECT_GE(rejected, 50u);
}

// --------------------------------------------- fault-line negatives

TEST(ScenarioErrors, FaultMalformedAttribute)
{
    expectError("[faults]\nfault = board-loss at-frac=0.5 board\n",
                "test.scn:2: malformed fault attribute 'board'; "
                "want 'at=', 'at-frac=', 'board=', 'core=' or "
                "'duration='");
}

TEST(ScenarioErrors, FaultUnknownAttribute)
{
    expectError("[faults]\nfault = board-loss at=1 board=0 blast=9\n",
                "test.scn:2: unknown fault attribute 'blast='; "
                "valid attributes: at, at-frac, board, core, "
                "duration");
}

TEST(ScenarioErrors, FaultNeedsExactlyOneOnset)
{
    const char *needle = "fault needs exactly one of 'at=<cycles>' "
                         "and 'at-frac=<0..1>'";
    expectError("[faults]\nfault = board-loss board=0\n", needle);
    expectError("[faults]\nfault = board-loss at=1 at-frac=0.5 "
                "board=0\n", needle);
}

TEST(ScenarioErrors, FaultAtFracOutOfRange)
{
    expectError("[faults]\nfault = board-loss at-frac=1.5 board=0\n",
                "test.scn:2: fault at-frac=1.5 must be within "
                "[0, 1] of the horizon");
}

TEST(ScenarioErrors, BoardScopedFaultNeedsBoard)
{
    expectError("[faults]\nfault = board-loss at=1 core=0\n",
                "board-loss faults are board-scoped; give 'board=' "
                "and no 'core='");
}

TEST(ScenarioErrors, CoreScopedFaultNeedsCore)
{
    expectError("[faults]\nfault = core-stall at=1 board=0\n",
                "core-stall faults are core-scoped; give 'core=' "
                "and no 'board='");
}

TEST(ScenarioErrors, RepairTakesNoDuration)
{
    expectError("[faults]\nfault = repair at=1 board=0 "
                "duration=5\n",
                "test.scn:2: repair faults take no 'duration='");
}

// ------------------------------------- dangling-reference negatives

TEST(ScenarioErrors, FaultBoardOutOfRange)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "boards = 2\n"
                "[faults]\nfault = board-loss at=1 board=2\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n",
                "test.scn:7: fault board 2 is out of range; the "
                "fleet has boards 0..1");
}

TEST(ScenarioErrors, FaultCoreOutOfRange)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "boards = 2\n"
                "[faults]\nfault = core-stall at=1 core=8 "
                "duration=10\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n",
                "test.scn:7: fault core 8 is out of range; the "
                "fleet has cores 0..7");
}

TEST(ScenarioErrors, FaultOnsetPastHorizon)
{
    expectError("[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
                "[faults]\nfault = core-stall at=2e6 core=0 "
                "duration=10\n"
                "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n",
                "test.scn:6: fault onset at=2e+06 is past the "
                "horizon 1e+06");
}

// ------------------------------------------ file loading negatives

TEST(ScenarioErrors, MissingFile)
{
    try {
        loadScenarioFile("/nonexistent/nowhere.scn");
        ADD_FAILURE() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "cannot open scenario file "
                      "'/nonexistent/nowhere.scn'"),
                  std::string::npos) << err.what();
    }
}

// ------------------------------------------- env-override plumbing

TEST(ScenarioEnv, SeedOverrideBeatsFileValue)
{
    // The regression net for the bench_util dedupe: the file says
    // seed = 42, the environment must win.
    const ScopedEnv seed("NEU10_SEED", "777");
    Scenario s = parse(
        "[scenario]\nname = t\n[fleet]\nhorizon = 1e6\nseed = 42\n"
        "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n");
    EXPECT_EQ(s.seed, 42u);
    applyEnvOverrides(s);
    EXPECT_EQ(s.seed, 777u);
}

TEST(ScenarioEnv, SmokeOverrideSetsSmoke)
{
    const ScopedEnv smoke("NEU10_SMOKE", "1");
    Scenario s = parse(
        "[scenario]\nname = t\n[fleet]\nhorizon = 1e8\n"
        "smoke-horizon = 1e6\n"
        "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n");
    applyEnvOverrides(s);
    EXPECT_TRUE(s.smoke);
    EXPECT_EQ(s.effectiveHorizon(), 1e6);
}

TEST(ScenarioEnv, TraceOverrideEnablesOpenLoopTracing)
{
    const ScopedEnv trace("NEU10_TRACE", "on");
    const ScopedEnv out("NEU10_TRACE_OUT", "env.trace.json");
    Scenario s = parse(kMinimal);
    applyEnvOverrides(s);
    EXPECT_TRUE(s.trace.enabled);
    EXPECT_TRUE(s.trace.metrics);
    EXPECT_EQ(s.traceOut, "env.trace.json");

    // Closed loop has no fleet trace pipeline: NEU10_TRACE must not
    // flip the knob there.
    Scenario closed = parse(
        "[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
        "[tenant.a]\nmodel = MNIST\nmes = 2\nves = 2\n");
    applyEnvOverrides(closed);
    EXPECT_FALSE(closed.trace.enabled);
}

TEST(ScenarioEnv, UnsetEnvironmentKeepsFileValues)
{
    const ScopedEnv a("NEU10_SEED", nullptr);
    const ScopedEnv b("NEU10_SMOKE", nullptr);
    const ScopedEnv c("NEU10_TRACE", nullptr);
    const ScopedEnv d("NEU10_TRACE_OUT", nullptr);
    Scenario s = parse(
        "[scenario]\nname = t\n[fleet]\nhorizon = 1e6\nseed = 42\n"
        "[trace]\nenabled = on\nout = file.trace.json\n"
        "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n");
    applyEnvOverrides(s);
    EXPECT_EQ(s.seed, 42u);
    EXPECT_FALSE(s.smoke);
    EXPECT_TRUE(s.trace.enabled);
    EXPECT_EQ(s.traceOut, "file.trace.json");
}

TEST(ScenarioEnv, MalformedSeedFailsLoudly)
{
    const ScopedEnv seed("NEU10_SEED", "not-a-seed");
    Scenario s = parse(kMinimal);
    EXPECT_THROW(applyEnvOverrides(s), FatalError);
}

// ------------------------------------------------------- expansion

TEST(ScenarioExpand, RoundRobinInterleavesGroups)
{
    const char *text =
        "[scenario]\nname = t\n[fleet]\nhorizon = 1e6\nboards = 2\n"
        "[tenant.a]\nmodel = MNIST\ncount = 2\neus = 2\nrho = 0.5\n"
        "[tenant.b]\nmodel = NCF\ncount = 2\neus = 4\nrho = 0.5\n";
    const Scenario s = parse(text);
    const FleetConfig rr = toFleetConfig(s);
    ASSERT_EQ(rr.tenants.size(), 4u);
    EXPECT_EQ(rr.tenants[0].model, ModelId::Mnist);
    EXPECT_EQ(rr.tenants[1].model, ModelId::Ncf);
    EXPECT_EQ(rr.tenants[2].model, ModelId::Mnist);
    EXPECT_EQ(rr.tenants[3].model, ModelId::Ncf);

    Scenario grouped = s;
    grouped.roundRobin = false;
    const FleetConfig gr = toFleetConfig(grouped);
    EXPECT_EQ(gr.tenants[0].model, ModelId::Mnist);
    EXPECT_EQ(gr.tenants[1].model, ModelId::Mnist);
    EXPECT_EQ(gr.tenants[2].model, ModelId::Ncf);
    EXPECT_EQ(gr.tenants[3].model, ModelId::Ncf);
}

TEST(ScenarioExpand, SeedsAddGlobalIndex)
{
    const Scenario s = parse(
        "[scenario]\nname = t\n[fleet]\nhorizon = 1e6\nseed = 100\n"
        "[tenant.a]\nmodel = MNIST\ncount = 2\neus = 2\nrho = 0.5\n"
        "[tenant.b]\nmodel = NCF\ncount = 2\neus = 4\nrho = 0.5\n"
        "seed = 500\n");
    const FleetConfig cfg = toFleetConfig(s);
    ASSERT_EQ(cfg.tenants.size(), 4u);
    // Expansion order (round-robin): a0 b0 a1 b1 with global indices
    // 0..3; group b overrides the seed base, group a inherits.
    EXPECT_EQ(cfg.tenants[0].traffic.seed, 100u + 0u);
    EXPECT_EQ(cfg.tenants[1].traffic.seed, 500u + 1u);
    EXPECT_EQ(cfg.tenants[2].traffic.seed, 100u + 2u);
    EXPECT_EQ(cfg.tenants[3].traffic.seed, 500u + 3u);
}

TEST(ScenarioExpand, RhoAndSloFactorUseAllocatorServiceEstimate)
{
    const Scenario s = parse(
        "[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
        "[tenant.a]\nmodel = MNIST\nbatch = 8\neus = 2\n"
        "rho = 0.35\nslo-factor = 5\n");
    const FleetConfig cfg = toFleetConfig(s);
    const Cycles service =
        sizeVnpuForModel(ModelId::Mnist, 8, 2, cfg.board.core)
            .serviceEstimate();
    ASSERT_EQ(cfg.tenants.size(), 1u);
    EXPECT_EQ(cfg.tenants[0].traffic.ratePerSec,
              0.35 * cfg.board.core.freqHz / service);
    EXPECT_EQ(cfg.tenants[0].sloCycles, 5.0 * service);
}

TEST(ScenarioExpand, MaxCyclesFactorAndAbsolute)
{
    Scenario s = parse(kMinimal);
    EXPECT_EQ(toFleetConfig(s).maxCycles, 50.0 * 1e6);
    s.maxCycles = 7e7;
    EXPECT_EQ(toFleetConfig(s).maxCycles, 7e7);
}

TEST(ScenarioExpand, FaultAtFracResolvesAgainstEffectiveHorizon)
{
    Scenario s = parse(
        "[scenario]\nname = t\n[fleet]\nhorizon = 1e6\n"
        "smoke-horizon = 1e5\n"
        "[faults]\nfault = board-loss at-frac=0.3 board=1 "
        "duration=inf\n"
        "[tenant.a]\nmodel = MNIST\neus = 2\nrho = 0.5\n");
    ASSERT_EQ(toFleetConfig(s).resilience.faults.size(), 1u);
    EXPECT_EQ(toFleetConfig(s).resilience.faults[0].at, 0.3 * 1e6);
    s.smoke = true;
    EXPECT_EQ(toFleetConfig(s).resilience.faults[0].at, 0.3 * 1e5);
}

TEST(ScenarioExpand, ServingConfigFields)
{
    Scenario s = parse(
        "[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
        "core-policy = pmt\nmin-requests = 10\n"
        "smoke-min-requests = 3\nmax-cycles = 3e9\nmes = 5\n"
        "[tenant.bert]\nmodel = BERT\nmes = 2\nves = 2\n"
        "outstanding = 2\npriority = 2\n"
        "[tenant.enet]\nmodel = ENet\nmes = 3\nves = 1\n");
    const ServingConfig cfg = toServingConfig(s);
    EXPECT_EQ(cfg.policy, PolicyKind::Pmt);
    EXPECT_EQ(cfg.core.numMes, 5u);
    EXPECT_EQ(cfg.minRequests, 10u);
    EXPECT_EQ(cfg.maxCycles, 3e9);
    ASSERT_EQ(cfg.tenants.size(), 2u);
    EXPECT_EQ(cfg.tenants[0].model, ModelId::Bert);
    EXPECT_EQ(cfg.tenants[0].nMes, 2u);
    EXPECT_EQ(cfg.tenants[0].nVes, 2u);
    EXPECT_EQ(cfg.tenants[0].outstanding, 2u);
    EXPECT_EQ(cfg.tenants[0].priority, 2.0);
    EXPECT_EQ(cfg.tenants[1].nMes, 3u);
    EXPECT_EQ(cfg.tenants[1].nVes, 1u);
    // Unset closed-loop knobs keep the §V-A defaults.
    EXPECT_EQ(cfg.tenants[1].outstanding, 1u);
    EXPECT_EQ(cfg.tenants[1].priority, 1.0);

    s.smoke = true;
    EXPECT_EQ(toServingConfig(s).minRequests, 3u);
}

TEST(ScenarioExpand, WrongModeIsAnInternalError)
{
    const Scenario open = parse(kMinimal);
    EXPECT_THROW(toServingConfig(open), PanicError);
    const Scenario closed = parse(
        "[scenario]\nname = t\n[fleet]\nmode = closed-loop\n"
        "[tenant.a]\nmodel = MNIST\nmes = 2\nves = 2\n");
    EXPECT_THROW(toFleetConfig(closed), PanicError);
}

// ------------------------------------------- committed library

TEST(ScenarioDocs, KeyReferenceMatchesParser)
{
    // Each section's Key column in docs/SCENARIOS.md names exactly
    // the keys the parser accepts there.
    std::ifstream file(NEU10_SCENARIO_DIR "/../docs/SCENARIOS.md");
    ASSERT_TRUE(file) << "cannot open docs/SCENARIOS.md";
    std::vector<std::string> doc;
    for (std::string line; std::getline(file, line);)
        doc.push_back(line);

    for (const SectionKeys &sec : parserVocabulary()) {
        SCOPED_TRACE(sec.listed);
        const std::string heading = "### `" + sec.listed + "`";
        auto it = std::find_if(doc.begin(), doc.end(),
                               [&](const std::string &line) {
                                   return line.rfind(heading, 0) == 0;
                               });
        ASSERT_NE(it, doc.end()) << "no heading " << heading;
        std::vector<std::string> documented;
        for (++it; it != doc.end() && it->rfind("## ", 0) != 0 &&
                   it->rfind("### ", 0) != 0;
             ++it) {
            if (it->rfind("| `", 0) != 0)
                continue;
            const std::string cell = it->substr(1, it->find('|', 1) - 1);
            for (size_t open = cell.find('`'); open != std::string::npos;) {
                const size_t close = cell.find('`', open + 1);
                ASSERT_NE(close, std::string::npos) << *it;
                documented.push_back(
                    cell.substr(open + 1, close - open - 1));
                open = cell.find('`', close + 1);
            }
        }
        std::vector<std::string> parsed = sec.keys;
        std::sort(documented.begin(), documented.end());
        std::sort(parsed.begin(), parsed.end());
        EXPECT_EQ(documented, parsed);
    }
}

TEST(ScenarioLibrary, EveryCommittedScenarioParses)
{
    namespace fs = std::filesystem;
    unsigned n = 0;
    for (const auto &entry : fs::directory_iterator(
             NEU10_SCENARIO_DIR)) {
        if (entry.path().extension() != ".scn")
            continue;
        SCOPED_TRACE(entry.path().string());
        const Scenario s = loadScenarioFile(entry.path().string());
        EXPECT_FALSE(s.name.empty());
        EXPECT_FALSE(s.description.empty());
        EXPECT_GT(s.totalTenants(), 0u);
        // Committed scenarios must carry their own name so the
        // derived artifact paths (goldens, traces) stay stable.
        EXPECT_EQ(s.name, entry.path().stem().string());
        ++n;
    }
    EXPECT_GE(n, 8u) << "the committed scenario library shrank";
}

} // anonymous namespace
} // namespace neu10
