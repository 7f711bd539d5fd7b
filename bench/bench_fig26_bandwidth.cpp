/**
 * @file
 * Fig. 26: Neu10 throughput improvement over V10 while sweeping HBM
 * bandwidth (900 GB/s, 1.2 TB/s, 2 TB/s, 3 TB/s). Includes the two
 * memory-intensive pairs (DLRM+NCF, NCF+TFMR) and the LLaMA
 * collocations alongside the standard nine.
 *
 * The request pairs are cells of scenarios/paper_closed_loop_bert_enet
 * .scn and the LLaMA rows cells of paper_closed_loop_llama_bert.scn
 * (one full LLaMA inference each), with the pair, the core policy
 * and the HBM bandwidth replaced.
 */

#include <cstdio>
#include <utility>

#include "bench_util.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

using namespace neu10;

namespace
{

double
totalThroughput(Scenario s, PolicyKind policy, double bw)
{
    s.corePolicy = policy;
    s.board.core.hbmBytesPerSec = bw;
    return runServing(toServingConfig(s)).totalThroughput();
}

} // anonymous namespace

int
main()
{
    const Scenario cell = bench::loadPairCell(
        NEU10_SCENARIO_DIR "/paper_closed_loop_bert_enet.scn");
    const Scenario llm_cell = bench::loadPairCell(
        NEU10_SCENARIO_DIR "/paper_closed_loop_llama_bert.scn");

    std::vector<std::pair<const char *, Scenario>> rows = {
        {"DLRM+NCF", bench::withPair(cell, ModelId::Dlrm, 32,
                                     ModelId::Ncf, 32)},
        {"NCF+TFMR", bench::withPair(cell, ModelId::Ncf, 32,
                                     ModelId::Transformer, 32)},
    };
    for (const WorkloadPair &p : evaluationPairs())
        rows.emplace_back(p.label, bench::withPair(cell, p.w1, p.batch1,
                                                   p.w2, p.batch2));
    for (const auto &[partner, label] :
         {std::pair{ModelId::Bert, "LLaMA+BERT"},
          std::pair{ModelId::ResNet, "LLaMA+RsNt"},
          std::pair{ModelId::RetinaNet, "LLaMA+RtNt"}}) {
        Scenario s = llm_cell;
        s.groups[1].model = partner;
        rows.emplace_back(label, std::move(s));
    }
    if (cell.smoke && rows.size() > 2)
        rows.resize(2);

    const double bws[] = {0.9e12, 1.2e12, 2e12, 3e12};
    bench::header("Figure 26", "Neu10 total throughput normalized to "
                               "V10, across HBM bandwidths");
    std::printf("%-12s %10s %10s %10s %10s\n", "Pair", "900 GB/s",
                "1.2 TB/s", "2 TB/s", "3 TB/s");
    bench::rule();
    for (const auto &[label, s] : rows) {
        std::printf("%-12s", label);
        for (double bw : bws) {
            const double v10 = totalThroughput(s, PolicyKind::V10, bw);
            const double neu =
                totalThroughput(s, PolicyKind::Neu10, bw);
            std::printf(" %10.2f", neu / v10);
        }
        std::printf("\n");
    }
    std::printf("\nShape check: Neu10 >= V10 across bandwidths; for "
                "memory-intensive pairs (DLRM+NCF, NCF+TFMR, LLaMA "
                "collocations) the benefit grows with bandwidth as "
                "memory contention eases (SV-F).\n");
    return 0;
}
