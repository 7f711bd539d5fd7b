/**
 * @file
 * The paper's central ISA claim (§III-D, §IV, Fig. 9) as tests:
 *
 *  - a NeuISA binary compiled ONCE runs on any engine allocation and
 *    speeds up as engines are added — no recompilation;
 *  - the same binary runs unchanged on a bigger next-generation core
 *    (inter-generational compatibility);
 *  - a classic VLIW binary is pinned to its compiled width: extra
 *    engines buy nothing (Fig. 9 right), which is exactly what NeuISA
 *    removes.
 */

#include <gtest/gtest.h>

#include "models/zoo.hh"
#include "npu/core_sim.hh"
#include "sched/policy.hh"

namespace neu10
{
namespace
{

Cycles
soloRun(const CompiledModel &prog, const NpuCoreConfig &cfg,
        unsigned slot_mes, unsigned slot_ves, PolicyKind kind)
{
    EventQueue queue;
    std::vector<VnpuSlot> slots(1);
    slots[0].nMes = slot_mes;
    slots[0].nVes = slot_ves;
    NpuCoreSim core(queue, cfg, makePolicy(kind), slots);
    Cycles latency = -1.0;
    core.submit(0, &prog,
                [&](const RequestResult &r) { latency = r.latency(); });
    queue.runUntil();
    EXPECT_GE(latency, 0.0);
    return latency;
}

TEST(Compat, NeuIsaBinaryScalesWithoutRecompilation)
{
    // Compile once against the 4ME/4VE core; run on 1, 2, then 4
    // allocated MEs. Fig. 9's VLIW problem ("cannot scale") is gone.
    const NpuCoreConfig cfg;
    const CompiledModel prog = lowerToNeuIsa(
        buildModel(ModelId::ResNet, 8), cfg.numMes, cfg.numVes,
        cfg.machine());

    const Cycles l1 = soloRun(prog, cfg, 1, 4, PolicyKind::Neu10NH);
    const Cycles l2 = soloRun(prog, cfg, 2, 4, PolicyKind::Neu10NH);
    const Cycles l4 = soloRun(prog, cfg, 4, 4, PolicyKind::Neu10NH);
    EXPECT_GT(l1, 1.5 * l2);
    EXPECT_GT(l2, 1.2 * l4);
}

TEST(Compat, SameBinaryRunsOnNextGenerationCore)
{
    // §IV: "a DNN program runs on different numbers of MEs/VEs
    // without recompilation... compatibility across generations".
    const NpuCoreConfig gen1;
    const CompiledModel prog = lowerToNeuIsa(
        buildModel(ModelId::EfficientNet, 8), gen1.numMes, gen1.numVes,
        gen1.machine());

    NpuCoreConfig gen2 = gen1;    // next gen: twice the engines
    gen2.numMes = 8;
    gen2.numVes = 8;
    gen2.hbmBytesPerSec = 2.4e12;

    const Cycles old_core =
        soloRun(prog, gen1, 4, 4, PolicyKind::Neu10);
    const Cycles new_core =
        soloRun(prog, gen2, 8, 8, PolicyKind::Neu10);
    EXPECT_LT(new_core, old_core);
}

TEST(Compat, VliwBinaryCannotUseExtraEngines)
{
    // Fig. 9 (right): the classic binary is compiled for 4 MEs; on an
    // 8-ME core its gang still occupies exactly 4 and latency does
    // not improve.
    const NpuCoreConfig gen1;
    const CompiledModel prog = lowerToVliw(
        buildModel(ModelId::ResNet, 8), gen1.numMes, gen1.numVes,
        gen1.machine());

    NpuCoreConfig gen2 = gen1;
    gen2.numMes = 8;
    gen2.numVes = 8;

    const Cycles on4 = soloRun(prog, gen1, 4, 4, PolicyKind::V10);
    const Cycles on8 = soloRun(prog, gen2, 8, 8, PolicyKind::V10);
    EXPECT_NEAR(on8, on4, on4 * 0.02);

    // The NeuISA build of the same model *does* exploit the bigger
    // core (compiled against it, as a new deployment would).
    const CompiledModel neu8 = lowerToNeuIsa(
        buildModel(ModelId::ResNet, 8), 8, 8, gen2.machine());
    const Cycles neu_on8 =
        soloRun(neu8, gen2, 8, 8, PolicyKind::Neu10);
    EXPECT_LT(neu_on8, 0.7 * on8);
}

} // anonymous namespace
} // namespace neu10
