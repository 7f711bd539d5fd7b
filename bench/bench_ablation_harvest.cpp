/**
 * @file
 * Ablation: which half of harvesting matters where, and how
 * sensitive reclaim is to the ME context-switch cost.
 *
 *  (a) ME-only vs VE-only vs full harvesting, per pair class.
 *  (b) Reclaim-penalty sweep: 0 / 256 (paper) / 1024 / 4096 cycles.
 *
 * Every cell is scenarios/paper_closed_loop_bert_enet.scn with the
 * pair and the reclaim penalty replaced, run under a Neu10Policy with
 * the harvest directions under study switched on.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sched/neu10_policy.hh"

using namespace neu10;

namespace
{

double
totalThroughput(Scenario s, bool harvest_me, bool harvest_ve)
{
    s.corePolicy = PolicyKind::Neu10;
    auto policy = std::make_unique<Neu10Policy>(/*harvest=*/true);
    policy->setHarvestMes(harvest_me);
    policy->setHarvestVes(harvest_ve);
    return runServing(toServingConfig(s), std::move(policy))
        .totalThroughput();
}

} // anonymous namespace

int
main()
{
    const Scenario cell = bench::loadPairCell(
        NEU10_SCENARIO_DIR "/paper_closed_loop_bert_enet.scn");
    auto cellFor = [&](const WorkloadPair &p) {
        return bench::withPair(cell, p.w1, p.batch1, p.w2, p.batch2);
    };

    auto pairs = evaluationPairs();
    if (cell.smoke && pairs.size() > 2)
        pairs.resize(2);
    bench::header("Ablation A", "ME-only vs VE-only vs full "
                                "harvesting (total throughput "
                                "normalized to no-harvest)");
    std::printf("%-12s %10s %10s %10s\n", "Pair", "ME-only",
                "VE-only", "full");
    bench::rule();
    for (const auto &pair : pairs) {
        const Scenario s = cellFor(pair);
        const double none = totalThroughput(s, false, false);
        const double me = totalThroughput(s, true, false);
        const double ve = totalThroughput(s, false, true);
        const double full = totalThroughput(s, true, true);
        std::printf("%-12s %10.2f %10.2f %10.2f\n", pair.label,
                    me / none, ve / none, full / none);
    }

    std::printf("\n");
    bench::header("Ablation B", "reclaim context-switch cost sweep "
                                "(total throughput normalized to the "
                                "paper's 256 cycles)");
    std::printf("%-12s %10s %10s %10s %10s\n", "Pair", "0cy",
                "256cy", "1024cy", "4096cy");
    bench::rule();
    std::vector<WorkloadPair> sweep_pairs = {
        evaluationPairs()[0], evaluationPairs()[4],
        evaluationPairs()[8]};
    if (cell.smoke)
        sweep_pairs.resize(1);
    for (const auto &pair : sweep_pairs) {
        Scenario s = cellFor(pair);
        const double base = totalThroughput(s, true, true);
        std::printf("%-12s", pair.label);
        for (double pen : {0.0, 256.0, 1024.0, 4096.0}) {
            s.board.core.mePreemptCycles = pen;
            std::printf(" %10.3f",
                        totalThroughput(s, true, true) / base);
        }
        std::printf("\n");
    }
    std::printf("\nShape check: ME harvesting dominates for ME-"
                "contended pairs, VE harvesting for recommender "
                "pairs; throughput is nearly insensitive to the "
                "reclaim cost at the paper's 256 cycles (SIII-G's "
                "'negligible overhead' claim).\n");
    return 0;
}
