/**
 * @file
 * Declarative scenario files: one plain-text file describes a whole
 * fleet experiment.
 *
 * Every workload the repo studies used to be a hand-wired C++ bench
 * binary; that made each new scenario a compile-edit-link loop and
 * was the scaling bottleneck for scenario diversity (SLA mixes x
 * hardware mixes x traffic mixes x faults). A scenario file captures
 * everything a `FleetConfig` / `ServingConfig` needs — fleet shape,
 * traffic, placement, scheduling, elasticity epochs, fault traces,
 * SLOs and tracing — in an INI-style text format
 * (sections + `key = value` lines), so adding a workload is a file
 * drop, not a binary. The committed library lives under `scenarios/`
 * and `tools/neu10_run` executes any of them; the fleet and paper
 * benches load their experiment from the same files, and the
 * byte-exact goldens (scenarios/goldens/) pin what each file runs.
 *
 * Parsing follows the hardened common/env contract: anything but a
 * clean parse fails loudly with a diagnostic naming the file, the
 * line, the offending text and the accepted vocabulary — a silently
 * defaulted knob records an irreproducible experiment. All
 * diagnostics throw FatalError (user-level problem).
 *
 * The key table in scenario.cc is the one list of keys: each row
 * names a key's section, the loop it serves (open, closed or both)
 * and the function that reads, range-checks and stores its value.
 * The parser reads a file in one pass through it, and the "valid
 * keys" lists, the duplicate-key check and the wrong-loop rejections
 * all come from its rows. Defaults are the initializers below.
 *
 * Format reference and examples: docs/SCENARIOS.md (its key
 * reference is checked against the table by a test).
 */

#ifndef NEU10_SCENARIO_SCENARIO_HH
#define NEU10_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "cluster/placement.hh"
#include "cluster/traffic.hh"
#include "models/zoo.hh"
#include "npu/config.hh"
#include "obs/trace.hh"
#include "resilience/faults.hh"
#include "sched/policy.hh"

namespace neu10
{

/** How the scenario's requests are generated. OpenLoop drives the
 * multi-board fleet engine (runFleet); ClosedLoop drives the paper's
 * §V-A single-core methodology (runServing). */
enum class ScenarioMode
{
    OpenLoop = 0,
    ClosedLoop,
};

/** Human-readable mode name ("open-loop" / "closed-loop"). */
std::string scenarioModeName(ScenarioMode mode);

/** One `fault = ...` line of a `[faults]` section, before resolution
 * against the fleet topology and horizon. */
struct ScenarioFault
{
    FaultKind kind = FaultKind::TransientMmio;

    /** Board for board-scoped kinds (BoardLoss / Repair). */
    unsigned board = 0;
    bool hasBoard = false;

    /** Fleet-wide core for core-scoped kinds. */
    CoreId core = kInvalidCore;

    /** Onset: absolute cycles (`at=`) or a fraction of the horizon
     * (`at-frac=`); exactly one must be given. Negative = unset. */
    Cycles at = -1.0;
    double atFrac = -1.0;

    /** Outage length in cycles; `duration=inf` = until an explicit
     * repair (or forever). */
    Cycles durationCycles = 0.0;

    /** Scenario-file line of this fault (diagnostics). */
    unsigned line = 0;
};

/** One `[tenant.<name>]` section: a group of `count` identical
 * tenants. Groups expand into the config's tenant list in the order
 * controlled by `tenant-order` (see Scenario::roundRobin). */
struct ScenarioTenantGroup
{
    std::string name;    ///< the `<name>` suffix of the section
    unsigned line = 0;   ///< section-header line (diagnostics)

    ModelId model = ModelId::Mnist;
    unsigned batch = 32;
    unsigned count = 1;

    /** Open loop: EU budget handed to the §III-B allocator. */
    unsigned eus = 0;

    /** Closed loop: explicit engine split (the §V-A benches pin
     * these rather than letting the allocator choose). */
    unsigned nMes = 0;
    unsigned nVes = 0;
    unsigned outstanding = 1;

    /** Open-loop offered load: either `rho` (target utilization of
     * the tenant's own allocator-sized vNPU; the rate becomes
     * rho x freq / serviceEstimate) or an absolute `rate-per-sec`.
     * Exactly one must be set. Negative = unset. */
    double rho = -1.0;
    double ratePerSec = -1.0;

    /** Arrival-shape knobs (shape, burst-*, diurnal-*); the rate and
     * seed fields are filled at expansion time. */
    TrafficSpec traffic;

    /** SLO: `slo-factor` (x the allocator's service estimate) or an
     * absolute `slo-cycles`; at most one (default: no SLO). */
    double sloFactor = -1.0;
    Cycles sloCycles = kCyclesInf;
    bool hasSloCycles = false;

    unsigned maxQueueDepth = 64;
    double priority = 1.0;

    /** Explicit stream-seed base for this group; when absent the
     * fleet seed is used. Either way each expanded tenant adds its
     * global index, matching the `seed + i` bench idiom. */
    std::uint64_t seed = 0;
    bool hasSeed = false;
};

/** A parsed scenario file (see docs/SCENARIOS.md for the format). */
struct Scenario
{
    std::string file;        ///< path it was parsed from (diagnostics)
    std::string name;        ///< [scenario] name
    std::string description; ///< [scenario] description

    ScenarioMode mode = ScenarioMode::OpenLoop;

    // --- [fleet] ---------------------------------------------------
    unsigned boards = 4;
    NpuBoardConfig board;    ///< chips x cores x core shape
    PlacementPolicy placement = PlacementPolicy::FirstFit;
    PolicyKind corePolicy = PolicyKind::Neu10;

    /** Host threads for per-core simulations (0 = host width). */
    unsigned threads = 1;

    /** Traffic window in cycles (required in open loop) and its
     * smoke-mode replacement (0 = no shrink). */
    Cycles horizon = 0.0;
    Cycles smokeHorizon = 0.0;

    /** Drain cap: absolute `max-cycles` wins when > 0, otherwise
     * `max-cycles-factor` x the effective horizon (open loop). */
    Cycles maxCycles = 0.0;
    double maxCyclesFactor = 50.0;

    /** Base stream seed; tenant i's stream gets seed + i. */
    std::uint64_t seed = 1;

    /** Tenant expansion order: round-robin across groups (the bench
     * `i % 4` idiom, default) or group-by-group. */
    bool roundRobin = true;

    /** Closed loop: stop once the slowest tenant served this many
     * requests, and the smoke-mode replacement (0 = no shrink). */
    unsigned minRequests = 20;
    unsigned smokeMinRequests = 0;

    // --- [elastic] / [resilience] / [faults] -----------------------
    ElasticConfig elastic;
    bool failover = true;
    Cycles recoveryStallCycles = 5e5;
    std::vector<ScenarioFault> faults;

    // --- [llm] -----------------------------------------------------
    /** Present iff the file has an [llm] section: the fleet serves
     * token-level LLM sequences (ServingMode::LlmContinuous) instead
     * of open-loop requests. Open-loop mode only; every tenant must
     * run the LLaMA model and [elastic] epochs must stay 1. */
    bool hasLlm = false;
    unsigned llmLine = 0;    ///< [llm] header line (diagnostics)
    LlmParams llm;

    // --- [trace] ---------------------------------------------------
    TraceConfig trace;
    std::string traceOut;    ///< Chrome-JSON path ("" = derived)

    std::vector<ScenarioTenantGroup> groups;

    /** Smoke mode (NEU10_SMOKE / --smoke): swaps in smokeHorizon /
     * smokeMinRequests when they are set. Never set by the file
     * itself — a scenario describes the full experiment and the
     * harness shrinks it. */
    bool smoke = false;

    /** Horizon after the smoke swap. */
    Cycles
    effectiveHorizon() const
    {
        return smoke && smokeHorizon > 0.0 ? smokeHorizon : horizon;
    }

    /** minRequests after the smoke swap. */
    unsigned
    effectiveMinRequests() const
    {
        return smoke && smokeMinRequests > 0 ? smokeMinRequests
                                             : minRequests;
    }

    /** Fleet-wide core count. */
    unsigned
    totalCores() const
    {
        return boards * board.totalCores();
    }

    /** Expanded tenant count (sum of group counts). */
    unsigned totalTenants() const;
};

/**
 * Parse scenario @p text. @p filename is used verbatim in
 * diagnostics ("file:line: ..."); it does not need to exist.
 * @throws FatalError naming file, line and offending text on any
 *         syntax, vocabulary, range or reference error.
 */
Scenario parseScenario(const std::string &text,
                       const std::string &filename);

/** Read and parse a scenario file.
 * @throws FatalError when unreadable or malformed. */
Scenario loadScenarioFile(const std::string &path);

/**
 * Apply the harness environment knobs to a loaded scenario — the one
 * place the NEU10_* plumbing lives for every scenario consumer
 * (tools/neu10_run and the scenario-backed benches):
 *
 *  - NEU10_SEED   overrides Scenario::seed (beats the file value);
 *  - NEU10_SMOKE  sets Scenario::smoke (swaps in the smoke knobs);
 *  - NEU10_TRACE  enables tracing + metrics (open loop only);
 *  - NEU10_TRACE_OUT overrides Scenario::traceOut.
 *
 * Environment values win over scenario-file values by construction:
 * they are applied after the parse. Parsing follows the hardened
 * common/env grammar. @throws FatalError on malformed values.
 */
void applyEnvOverrides(Scenario &scenario);

} // namespace neu10

#endif // NEU10_SCENARIO_SCENARIO_HH
