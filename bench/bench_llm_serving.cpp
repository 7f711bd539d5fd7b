/**
 * @file
 * Token-level LLM serving: continuous batching vs the naive
 * static-batch baseline at equal HBM.
 *
 * Loads the committed scenario pair (scenarios/llm_continuous.scn
 * and scenarios/llm_static_batch.scn — identical fleet, traffic,
 * seed and KV budget; only the scheduler differs) and reports the
 * headline pair the exit code gates: the tokens/s speedup and the
 * p99 time-to-first-token ratio continuous batching buys.
 *
 * NEU10_SEED / NEU10_SMOKE apply via scenario applyEnvOverrides.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cluster/fleet.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "stats/distribution.hh"

using namespace neu10;

namespace
{

/** Fleet-level LLM summary of one run. */
struct LlmSummary
{
    std::string name;
    std::string scheduler;
    std::uint64_t tokens = 0;
    std::uint64_t preemptions = 0;
    std::uint32_t kvHighWater = 0;
    Cycles makespan = 0.0;
    double tokensPerSec = 0.0;
    Cycles ttftP50 = 0.0;
    Cycles ttftP99 = 0.0;
};

LlmSummary
summarize(const Scenario &s, const FleetResult &r)
{
    LlmSummary out;
    out.name = s.name;
    out.scheduler = s.llm.scheduler == LlmScheduler::Continuous
                        ? "continuous"
                        : "static-batch";
    Distribution ttft;
    for (const TenantResult &t : r.tenants) {
        out.tokens += t.llm.tokensGenerated;
        out.preemptions += t.llm.preemptions;
        out.kvHighWater += t.llm.kvPageHighWater;
        ttft.merge(t.llm.ttftCycles);
    }
    out.makespan = r.makespan;
    const double secs =
        Clock(s.board.core.freqHz).toSeconds(
            std::max(1.0, r.makespan));
    out.tokensPerSec = static_cast<double>(out.tokens) / secs;
    out.ttftP50 = ttft.percentile(0.50);
    out.ttftP99 = ttft.percentile(0.99);
    return out;
}

LlmSummary
runScenarioFile(const char *path)
{
    Scenario s = loadScenarioFile(path);
    applyEnvOverrides(s);
    return summarize(s, runFleet(toFleetConfig(s)));
}

void
printRow(const LlmSummary &s)
{
    std::printf("%-16s %-13s %8llu %8.0f %9.3f %9.3f %6llu %6u "
                "%10.3f\n",
                s.name.c_str(), s.scheduler.c_str(),
                static_cast<unsigned long long>(s.tokens),
                s.tokensPerSec, bench::toMs(s.ttftP50),
                bench::toMs(s.ttftP99),
                static_cast<unsigned long long>(s.preemptions),
                s.kvHighWater, bench::toMs(s.makespan));
}

} // anonymous namespace

int
main()
{
    const bool smoke = bench::smokeMode();
    const std::uint64_t seed = bench::benchSeed();

    bench::header(
        "LLM continuous batching",
        csprintf("paged KV pool, 4 LLaMA2-13B endpoints, continuous "
                 "vs static-batch at equal HBM (seed %llu%s)",
                 static_cast<unsigned long long>(seed),
                 smoke ? ", smoke" : ""));

    std::vector<LlmSummary> rows;
    try {
        rows.push_back(
            runScenarioFile(NEU10_SCENARIO_DIR "/llm_continuous.scn"));
        rows.push_back(
            runScenarioFile(NEU10_SCENARIO_DIR "/llm_static_batch.scn"));
    } catch (const FatalError &err) {
        bench::usageError(err);
    }

    std::printf("%-16s %-13s %8s %8s %9s %9s %6s %6s %10s\n",
                "scenario", "scheduler", "tokens", "tok/s",
                "ttft-p50", "ttft-p99", "evict", "hiwat",
                "makespan");
    bench::rule();
    for (const LlmSummary &s : rows)
        printRow(s);
    bench::rule();

    const LlmSummary &cont = rows[0];
    const LlmSummary &stat = rows[1];
    const double tokens_speedup =
        stat.tokensPerSec > 0.0 ? cont.tokensPerSec / stat.tokensPerSec
                                : 0.0;
    const double ttft_ratio =
        stat.ttftP99 > 0.0 ? cont.ttftP99 / stat.ttftP99 : 0.0;
    // The acceptance gate: continuous batching must both raise
    // tokens/s and cut the p99 TTFT at equal HBM. 1.05x leaves smoke
    // runs headroom; the full run clears it by much more.
    const double min_speedup = 1.05;

    std::printf("continuous vs static-batch: %.2fx tokens/s, "
                "%.2fx p99 TTFT\n",
                tokens_speedup, ttft_ratio);

    return tokens_speedup >= min_speedup && ttft_ratio <= 1.0 ? 0 : 1;
}
