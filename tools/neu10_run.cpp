/**
 * @file
 * neu10_run — execute a declarative scenario file.
 *
 * One binary replaces the grow-a-bench-per-experiment workflow: it
 * loads a scenario (a .scn file under scenarios/, format reference
 * in docs/SCENARIOS.md),
 * applies the harness environment knobs (NEU10_SEED / NEU10_SMOKE /
 * NEU10_TRACE / NEU10_TRACE_OUT) and any CLI overrides, runs the
 * fleet or serving engine, prints a human summary, and optionally
 * writes the deterministic machine-readable JSON record that the
 * golden-output regression tests diff.
 *
 * Usage: neu10_run SCENARIO.scn [options]
 *   --json=FILE       write the neu10-scenario-result-v2 record
 *   --smoke           shrink to the scenario's smoke knobs
 *   --seed=N          override the seed (beats file and env)
 *   --threads=N       host threads for per-core simulations
 *   --placement=NAME  first-fit | best-fit | load-balanced
 *   --core-policy=N   neu10 | neu10-nh | v10 | pmt
 *
 * Precedence: CLI > environment > scenario file. Exit 0 on success,
 * 2 on any usage/parse error (FatalError) or when an output file
 * (JSON record, trace, metrics) cannot be written.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/clock.hh"

using namespace neu10;

namespace
{

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: neu10_run SCENARIO.scn [--json=FILE] [--smoke] "
        "[--seed=N]\n"
        "                [--threads=N] [--placement=NAME] "
        "[--core-policy=NAME]\n");
}

double
toMs(Cycles cycles)
{
    return Clock().toSeconds(cycles) * 1e3;
}

void
printOpenLoop(const Scenario &s, const ScenarioOutcome &o)
{
    const FleetResult &r = o.fleet;
    std::printf("mode        open-loop fleet (%u boards x %u cores, "
                "%u tenants)\n",
                s.boards, s.board.totalCores(), o.tenants);
    std::printf("policy      %s on-core, %s placement\n",
                r.policy.c_str(), r.placement.c_str());
    std::printf("horizon     %.3g cycles  (seed %llu%s)\n", o.horizon,
                static_cast<unsigned long long>(s.seed),
                s.smoke ? ", smoke" : "");
    std::printf("requests    %llu arrived  %llu served  %llu "
                "rejected (%.1f%%)  %llu SLO-met\n",
                static_cast<unsigned long long>(r.submitted),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.rejected),
                100.0 * r.rejectionRate(),
                static_cast<unsigned long long>(r.sloMet));
    const auto [p50, p95, p99] =
        r.latencyCycles.percentiles({0.50, 0.95, 0.99});
    std::printf("latency     p50 %.3f  p95 %.3f  p99 %.3f ms   "
                "goodput %.0f req/s\n",
                toMs(p50), toMs(p95), toMs(p99), r.goodput);
    std::printf("fleet       EU util %.1f%% (stddev %.3f)  %u "
                "migrations  makespan %.3f ms\n",
                100.0 * r.coreEuUtil.mean(), r.coreEuUtil.stddev(),
                r.migrations, toMs(r.makespan));
    if (s.hasLlm) {
        const LlmEndpointStats l =
            fleetLlmTotals(r, s.board.core.freqHz);
        const auto [ttft_p50, ttft_p99] =
            l.ttftCycles.percentiles({0.50, 0.99});
        std::printf("llm         %s scheduler  %llu tokens  %.0f "
                    "tok/s  TTFT p50 %.3f  p99 %.3f ms\n",
                    s.llm.scheduler == LlmScheduler::Continuous
                        ? "continuous"
                        : "static-batch",
                    static_cast<unsigned long long>(l.tokensGenerated),
                    l.tokensPerSecond,
                    toMs(ttft_p50), toMs(ttft_p99));
        std::printf("kv pool     %u pages fleet-wide  high water %u  "
                    "%llu preemptions\n",
                    l.kvPages, l.kvPageHighWater,
                    static_cast<unsigned long long>(l.preemptions));
    }
    if (r.faultsInjected > 0)
        std::printf("faults      %u injected  %u core failures  %u "
                    "failovers  %llu lost  %llu recovered  "
                    "availability %.2f%%\n",
                    r.faultsInjected, r.coreFailures, r.failovers,
                    static_cast<unsigned long long>(r.lostRequests),
                    static_cast<unsigned long long>(
                        r.recoveredRequests),
                    100.0 * r.availability);
}

void
printClosedLoop(const Scenario &s, const ScenarioOutcome &o)
{
    const ServingResult &r = o.serving;
    std::printf("mode        closed-loop core (%u tenants, >= %u "
                "requests each)\n",
                o.tenants, s.effectiveMinRequests());
    std::printf("policy      %s\n", r.policy.c_str());
    std::printf("core        ME useful %.1f%%  VE %.1f%%  makespan "
                "%.3f ms  %.0f req/s total\n",
                100.0 * r.meUsefulUtil, 100.0 * r.veUtil,
                toMs(r.makespan), r.totalThroughput());
    for (const TenantResult &t : r.tenants) {
        const auto [p50, p95, p99] =
            t.latencyCycles.percentiles({0.50, 0.95, 0.99});
        std::printf("tenant      %-14s %4llu done  p50 %8.3f  p95 "
                    "%8.3f  p99 %8.3f ms  %.0f req/s\n",
                    t.model.c_str(),
                    static_cast<unsigned long long>(t.completed),
                    toMs(p50), toMs(p95), toMs(p99), t.throughput);
    }
}

int
run(int argc, char **argv)
{
    std::string scenario_path;
    std::string json_path;
    bool force_smoke = false;
    bool has_seed = false;
    std::uint64_t seed = 0;
    bool has_threads = false;
    unsigned threads = 0;
    std::string placement_name;
    std::string policy_name;

    for (int a = 1; a < argc; ++a) {
        const char *arg = argv[a];
        if (std::strncmp(arg, "--json=", 7) == 0) {
            json_path = arg + 7;
        } else if (std::strcmp(arg, "--smoke") == 0) {
            force_smoke = true;
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            seed = parseUint64(arg + 7, "--seed");
            has_seed = true;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            threads = static_cast<unsigned>(
                parseUint64(arg + 10, "--threads"));
            has_threads = true;
        } else if (std::strncmp(arg, "--placement=", 12) == 0) {
            placement_name = arg + 12;
        } else if (std::strncmp(arg, "--core-policy=", 14) == 0) {
            policy_name = arg + 14;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option '%s'\n", arg);
            usage(stderr);
            return 2;
        } else if (scenario_path.empty()) {
            scenario_path = arg;
        } else {
            std::fprintf(stderr,
                         "error: more than one scenario file "
                         "('%s' and '%s')\n",
                         scenario_path.c_str(), arg);
            usage(stderr);
            return 2;
        }
    }
    if (scenario_path.empty()) {
        usage(stderr);
        return 2;
    }

    Scenario s = loadScenarioFile(scenario_path);
    applyEnvOverrides(s);
    // CLI overrides beat both the file and the environment.
    if (force_smoke)
        s.smoke = true;
    if (has_seed)
        s.seed = seed;
    if (has_threads)
        s.threads = threads;
    if (!placement_name.empty())
        s.placement = placementFromName(placement_name);
    if (!policy_name.empty())
        s.corePolicy = policyFromName(policy_name);

    std::printf("scenario    %s  (%s)\n", s.name.c_str(),
                scenario_path.c_str());
    if (!s.description.empty())
        std::printf("            %s\n", s.description.c_str());

    const ScenarioOutcome o = runScenario(s);
    if (s.mode == ScenarioMode::OpenLoop)
        printOpenLoop(s, o);
    else
        printClosedLoop(s, o);

    // Only open loop traces: the parser rejects a closed-loop
    // [trace] section and applyEnvOverrides ignores NEU10_TRACE there.
    if (s.trace.enabled) {
        const std::string path =
            s.traceOut.empty() ? s.name + ".trace.json" : s.traceOut;
        if (!o.fleet.trace.writeChromeJson(path)) {
            std::fprintf(stderr, "error: cannot write trace to %s\n",
                         path.c_str());
            return 2;
        }
        const std::string metrics_path = path + ".metrics.json";
        if (s.trace.metrics &&
            !o.fleet.metrics.writeJson(metrics_path,
                                       s.board.core.freqHz)) {
            std::fprintf(stderr, "error: cannot write metrics to %s\n",
                         metrics_path.c_str());
            return 2;
        }
        std::printf("trace       %llu events -> %s\n",
                    static_cast<unsigned long long>(
                        o.fleet.trace.totalEvents()),
                    path.c_str());
    }

    if (!json_path.empty()) {
        writeOutcomeJson(json_path, s, o);
        std::printf("json        wrote %s\n", json_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &err) {
        // fatal() already printed the diagnostic at the default log
        // level; repeat it only when logging was silenced.
        if (logLevel() < LogLevel::Warn)
            std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    }
}
