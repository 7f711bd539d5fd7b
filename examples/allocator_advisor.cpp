/**
 * @file
 * Pay-as-you-go sizing advisor (§III-B): given a model and an EU
 * budget, profile it, apply the Eq. (4) allocator, and print the
 * recommended vNPU configuration with the modeled speedup ladder —
 * what a cloud console's "right-size my accelerator" button would
 * show.
 *
 * Run: ./build/examples/allocator_advisor [model-abbrev] [batch]
 *      e.g. ./build/examples/allocator_advisor DLRM 32
 * Exit 0 on success, 2 on a bad model or batch (FatalError).
 */

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "compiler/profile.hh"
#include "models/zoo.hh"
#include "npu/config.hh"
#include "vnpu/allocator.hh"

using namespace neu10;

namespace
{

int
run(int argc, char **argv)
{
    const ModelId id =
        argc > 1 ? modelFromAbbrev(argv[1]) : ModelId::Bert;
    // Saturate rather than wrap: buildModel rejects any batch above
    // the model's HBM limit.
    const unsigned batch =
        argc > 2 ? static_cast<unsigned>(std::min<std::uint64_t>(
                       parseUint64(argv[2], "batch"), UINT_MAX))
                 : 32;

    const NpuCoreConfig core;
    const DnnGraph graph = buildModel(id, batch);
    const auto prof = profileWorkload(graph, core.numMes, core.numVes,
                                      core.hbmBytesPerCycle(),
                                      core.machine());

    std::printf("Workload: %s, batch %u\n", modelName(id).c_str(),
                batch);
    std::printf("  profiled ME active ratio m = %.3f\n", prof.m);
    std::printf("  profiled VE active ratio v = %.3f\n", prof.v);
    std::printf("  optimal ME:VE ratio k* = %.2f  (Eq. 4)\n\n",
                allocOptimalRatio(prof.m, prof.v));

    std::printf("%4s %10s %14s %12s %14s\n", "EUs", "split",
                "utilization", "speedup", "$/perf (rel)");
    for (unsigned total = 2; total <= 16; ++total) {
        const auto [nm, nv] = allocSplitEus(prof.m, prof.v, total);
        const double util =
            allocUtilization(prof.m, prof.v, nm, nv);
        const double speedup =
            allocNormalizedTime(prof.m, prof.v, 1, 1) /
            allocNormalizedTime(prof.m, prof.v, nm, nv);
        std::printf("%4u %6uME+%uVE %13.1f%% %12.2fx %14.2f\n",
                    total, nm, nv, 100.0 * util, speedup,
                    total / speedup / 2.0);
    }

    const VnpuConfig cfg =
        allocateVnpu(prof, 8, graph.hbmFootprint, core);
    std::printf("\nRecommended 8-EU instance: %s\n",
                cfg.toString().c_str());
    std::printf("(memory rounded to %s HBM segments; SRAM scaled "
                "with the ME share, SIII-B)\n",
                formatBytes(core.hbmSegment).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 2; // fatal() already printed the diagnostic
    }
}
