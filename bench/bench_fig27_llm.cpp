/**
 * @file
 * Fig. 27: collocating a memory-bandwidth-bound LLM (LLaMA2-13B,
 * batch 8, 512-token prompts) with compute-intensive workloads. Under
 * V10 the LLM's bandwidth-stalled operators occupy every ME, so the
 * partner starves; Neu10's spatial sharing lets the partner keep its
 * engines and harvest the LLM's idle ones.
 *
 * Every cell is scenarios/paper_closed_loop_llama_bert.scn (one full
 * LLaMA inference per design) with the partner model and the core
 * policy replaced.
 */

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench_util.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

using namespace neu10;

int
main()
{
    const Scenario cell = bench::loadPairCell(
        NEU10_SCENARIO_DIR "/paper_closed_loop_llama_bert.scn");

    bench::header("Figure 27", "LLM + compute-intensive collocation "
                               "(throughput normalized to V10; core "
                               "utilizations)");
    std::printf("%-12s %10s %10s %9s %9s %9s %9s\n", "Pair",
                "W1 Neu/V10", "W2 Neu/V10", "V10 ME", "Neu10 ME",
                "V10 VE", "Neu10 VE");
    bench::rule();

    const std::pair<ModelId, const char *> partners[] = {
        {ModelId::Bert, "LLaMA+BERT"},
        {ModelId::ResNet, "LLaMA+RsNt"},
        {ModelId::RetinaNet, "LLaMA+RtNt"},
    };
    for (const auto &[partner, label] : partners) {
        Scenario s = cell;
        s.groups[1].model = partner;
        s.corePolicy = PolicyKind::V10;
        const auto v10 = runServing(toServingConfig(s));
        s.corePolicy = PolicyKind::Neu10;
        const auto neu = runServing(toServingConfig(s));
        std::printf("%-12s %10.2f %10.2f %8.1f%% %8.1f%% %8.1f%% "
                    "%8.1f%%\n",
                    label,
                    neu.tenants[0].throughput /
                        std::max(1e-9, v10.tenants[0].throughput),
                    neu.tenants[1].throughput /
                        std::max(1e-9, v10.tenants[1].throughput),
                    100.0 * v10.meUsefulUtil,
                    100.0 * neu.meUsefulUtil, 100.0 * v10.veUtil,
                    100.0 * neu.veUtil);
    }
    std::printf("\nShape check (SV-F): the compute partner gains "
                "substantially under Neu10 (paper: up to 1.6x) while "
                "LLaMA pays a negligible penalty — its decode GEMVs "
                "are bandwidth-bound, so fewer MEs cost it almost "
                "nothing; useful ME utilization rises because the "
                "partner's real compute replaces the LLM's stalled "
                "occupancy.\n");
    return 0;
}
