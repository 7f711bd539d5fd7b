/**
 * @file
 * Fig. 5: ME and VE utilization over the course of one inference
 * request for representative models, measured by running each model
 * solo on the 4ME/4VE Table II core in the event-driven simulator.
 */

#include <cstdio>

#include "bench_util.hh"
#include "models/zoo.hh"
#include "npu/core_sim.hh"
#include "runtime/serving.hh"
#include "sched/policy.hh"

using namespace neu10;

namespace
{

constexpr size_t kBins = 48;

void
soloUtilization(ModelId id, unsigned batch)
{
    const NpuCoreConfig cfg;
    const CompiledModel prog =
        lowerToNeuIsa(buildModel(id, batch), cfg.numMes, cfg.numVes,
                      cfg.machine());

    EventQueue queue;
    std::vector<VnpuSlot> slots(1);
    slots[0].nMes = cfg.numMes;
    slots[0].nVes = cfg.numVes;
    NpuCoreSim core(queue, cfg, makePolicy(PolicyKind::Neu10), slots);
    core.setCaptureSeries(true);

    Cycles finish = 0.0;
    core.submit(0, &prog,
                [&](const RequestResult &r) { finish = r.finishTime; });
    queue.runUntil();

    const auto me =
        core.meUseful().series().rebin(0.0, finish, kBins);
    const auto ve = core.veBusy().series().rebin(0.0, finish, kBins);

    std::printf("%-13s b=%-3u request=%9.3f ms  avg ME %.0f%%  avg VE "
                "%.0f%%\n",
                modelAbbrev(id).c_str(), batch, bench::toMs(finish),
                100.0 * core.meUseful().utilization(finish),
                100.0 * core.veBusy().utilization(finish));
    std::printf("  ME%% |%s|\n",
                bench::sparkline(me, cfg.numMes).c_str());
    std::printf("  VE%% |%s|\n",
                bench::sparkline(ve, cfg.numVes).c_str());
}

} // anonymous namespace

int
main()
{
    bench::header("Figure 5", "ME/VE utilization of one inference "
                              "request (solo, 4ME/4VE core)");
    for (ModelId id : {ModelId::Bert, ModelId::Transformer,
                       ModelId::Dlrm, ModelId::Ncf, ModelId::ResNet,
                       ModelId::MaskRcnn}) {
        soloUtilization(id, 8);
    }
    std::printf("\nShape check: neither engine type stays busy for a "
                "whole request — the idle troughs are the sharing "
                "opportunity Neu10 harvests (SII-B).\n");
    return 0;
}
