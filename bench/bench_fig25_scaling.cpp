/**
 * @file
 * Fig. 25: throughput improvement of Neu10 as the core's engine
 * counts scale (2ME-2VE up to 8ME-8VE, evenly split between the two
 * vNPUs), normalized to V10 on the 2ME-2VE core. More engines mean
 * more slack for uTOp-level scheduling, so the gap widens.
 *
 * Every cell is scenarios/paper_closed_loop_bert_enet.scn with the
 * pair, the core policy, the core's engine counts and the per-tenant
 * split replaced.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

using namespace neu10;

namespace
{

struct CoreShape
{
    const char *label;
    unsigned mes;
    unsigned ves;
};

const CoreShape kShapes[] = {
    {"2ME-2VE", 2, 2}, {"4ME-2VE", 4, 2}, {"4ME-4VE", 4, 4},
    {"8ME-4VE", 8, 4}, {"8ME-8VE", 8, 8},
};

double
pairThroughput(Scenario s, PolicyKind policy, unsigned mes,
               unsigned ves)
{
    s.corePolicy = policy;
    s.board.core.numMes = mes;
    s.board.core.numVes = ves;
    for (ScenarioTenantGroup &g : s.groups) {
        g.nMes = std::max(1u, mes / 2);
        g.nVes = std::max(1u, ves / 2);
    }
    return runServing(toServingConfig(s)).totalThroughput();
}

} // anonymous namespace

int
main()
{
    const Scenario cell = bench::loadPairCell(
        NEU10_SCENARIO_DIR "/paper_closed_loop_bert_enet.scn");
    auto pairs = evaluationPairs();
    if (cell.smoke && pairs.size() > 2)
        pairs.resize(2);

    bench::header("Figure 25", "Neu10 throughput with varying engine "
                               "counts, normalized to V10@2ME-2VE");
    std::printf("%-12s", "Pair");
    for (const auto &s : kShapes)
        std::printf(" %9s", s.label);
    std::printf(" %9s\n", "V10@2-2");
    bench::rule();

    for (const auto &pair : pairs) {
        const Scenario pair_cell = bench::withPair(
            cell, pair.w1, pair.batch1, pair.w2, pair.batch2);
        const double base =
            pairThroughput(pair_cell, PolicyKind::V10, 2, 2);
        std::printf("%-12s", pair.label);
        for (const auto &s : kShapes) {
            const double thr = pairThroughput(
                pair_cell, PolicyKind::Neu10, s.mes, s.ves);
            std::printf(" %9.2f", thr / base);
        }
        std::printf(" %9.2f\n", 1.0);
    }

    std::printf("\nShape check: normalized throughput grows "
                "monotonically with engine count, and the growth is "
                "super-proportional for contended pairs — more "
                "engines give the uTOp scheduler more slack to "
                "harvest (SV-E).\n");
    return 0;
}
