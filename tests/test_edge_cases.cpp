/**
 * @file
 * Cross-module edge cases and failure injection: degenerate cores,
 * single-engine vNPUs, zero-work operators, oversubscribed temporal
 * scheduling, preemption storms, memory exhaustion mid-lifecycle, and
 * codec robustness against corrupted images.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "compiler/lower.hh"
#include "isa/encoding.hh"
#include "models/zoo.hh"
#include "npu/core_sim.hh"
#include "runtime/serving.hh"
#include "sched/neu10_policy.hh"
#include "sched/policy.hh"
#include "virt/manager.hh"

namespace neu10
{
namespace
{

CompiledModel
tinyMe(unsigned tiles, Cycles me, unsigned nx = 4)
{
    CompiledModel m;
    m.model = "edge";
    m.batch = 1;
    m.nx = nx;
    m.ny = 4;
    m.neuIsa = true;
    CompiledOp op;
    op.name = "op";
    op.kind = OpKind::MatMul;
    WorkGroup g;
    for (unsigned t = 0; t < tiles; ++t) {
        WorkUnit u;
        u.kind = UTopKind::Me;
        u.meTime = me;
        g.units.push_back(u);
    }
    op.groups.push_back(g);
    m.ops.push_back(op);
    m.validate();
    return m;
}

TEST(EdgeCase, SingleEngineCoreStillServesTwoTenants)
{
    NpuCoreConfig cfg;
    cfg.numMes = 1;
    cfg.numVes = 1;
    EventQueue queue;
    std::vector<VnpuSlot> slots(2);
    for (auto &s : slots) {
        s.nMes = 1; // oversubscribed on a 1-ME core
        s.nVes = 1;
    }
    // Spatial budgets sum to 2 > 1 physical: Neu10's temporal mode.
    auto policy = std::make_unique<Neu10Policy>(true, true, /*temporal=*/true);
    NpuCoreSim core(queue, cfg, std::move(policy), slots);

    const CompiledModel m = tinyMe(1, 10000.0, 1);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        core.submit(i % 2, &m,
                    [&](const RequestResult &) { ++done; });
    }
    queue.runUntil();
    EXPECT_EQ(done, 4);
}

TEST(EdgeCase, SpatialNeu10RejectsOversubscribedCore)
{
    // 2 x 4 MEs on a 4-ME core: spatial Neu10 (and Neu10-NH) would
    // hand each vNPU all four engines; only temporal mode time-shares.
    const NpuCoreConfig cfg;
    const CompiledModel m = tinyMe(4, 20000.0);
    for (PolicyKind kind : {PolicyKind::Neu10, PolicyKind::Neu10NH}) {
        SCOPED_TRACE(policyName(kind));
        EventQueue queue;
        std::vector<VnpuSlot> slots(2);
        for (auto &s : slots) {
            s.nMes = 4;
            s.nVes = 2;
        }
        NpuCoreSim core(queue, cfg, makePolicy(kind), slots);
        core.submit(0, &m);
        EXPECT_THROW(queue.runUntil(), PanicError);
    }
}

TEST(EdgeCase, TemporalModeBalancesOversubscribedTenants)
{
    NpuCoreConfig cfg;
    EventQueue queue;
    std::vector<VnpuSlot> slots(3);
    for (auto &s : slots) {
        s.nMes = 4; // 3 x 4 committed on 4 physical
        s.nVes = 2;
    }
    auto policy = std::make_unique<Neu10Policy>(true, true, /*temporal=*/true);
    NpuCoreSim core(queue, cfg, std::move(policy), slots);

    const CompiledModel m = tinyMe(4, 20000.0);
    std::vector<int> done(3, 0);
    std::function<void(std::uint32_t)> pump = [&](std::uint32_t s) {
        core.submit(s, &m, [&, s](const RequestResult &) {
            ++done[s];
            pump(s);
        });
    };
    for (std::uint32_t s = 0; s < 3; ++s)
        pump(s);
    queue.runUntil(5e7);
    for (int i = 0; i < 3; ++i) {
        core.drainSlot(i);
        EXPECT_GT(done[i], 0) << i;
    }
    // Equal priorities: within 40% of each other.
    const double max_d = std::max({done[0], done[1], done[2]});
    const double min_d = std::min({done[0], done[1], done[2]});
    EXPECT_LT(max_d / min_d, 1.4);
}

TEST(EdgeCase, TemporalModeNeverHoldsMoreMesThanTheCore)
{
    // 2 x 4 MEs on the 4-ME core, BERT + EfficientNet resubmitting on
    // completion, at equal priorities and with slot 0 at 3: a budget
    // re-split must take back the MEs a slot bound under its earlier,
    // larger budget, or both slots hold all four at once (bindMe
    // panics on such a bind).
    const NpuCoreConfig cfg;
    const CompiledModel bert = compileFor(TenantSpec(ModelId::Bert, 32, 4, 2),
                                          PolicyKind::Neu10, cfg);
    const CompiledModel enet =
        compileFor(TenantSpec(ModelId::EfficientNet, 32, 4, 2),
                   PolicyKind::Neu10, cfg);
    const CompiledModel *programs[2] = {&bert, &enet};
    for (double priority : {1.0, 3.0}) {
        SCOPED_TRACE(priority);
        EventQueue queue;
        std::vector<VnpuSlot> slots(2);
        for (auto &s : slots) {
            s.nMes = 4;
            s.nVes = 2;
        }
        slots[0].priority = priority;
        NpuCoreSim core(queue, cfg,
                        std::make_unique<Neu10Policy>(true, true,
                                                      /*temporal=*/true),
                        slots);
        std::function<void(std::uint32_t)> pump = [&](std::uint32_t s) {
            core.submit(s, programs[s],
                        [&, s](const RequestResult &) { pump(s); });
        };
        pump(0);
        pump(1);
        ASSERT_NO_THROW({
            for (int i = 0; i < 40000; ++i)
                ASSERT_TRUE(queue.step());
        });
        EXPECT_LE(core.meHeld().utilization(queue.now()), 1.0);
    }
}

TEST(EdgeCase, PreemptionStormStillConvergesAndConserves)
{
    // Two tenants with many tiny uTOps force constant reclaim; both
    // finish and the utilization integrals stay within capacity.
    NpuCoreConfig cfg;
    EventQueue queue;
    std::vector<VnpuSlot> slots(2);
    for (auto &s : slots) {
        s.nMes = 2;
        s.nVes = 2;
    }
    NpuCoreSim core(queue, cfg, makePolicy(PolicyKind::Neu10), slots);

    CompiledModel m;
    m.model = "storm";
    m.batch = 1;
    m.nx = 4;
    m.ny = 4;
    m.neuIsa = true;
    CompiledOp op;
    op.name = "bursts";
    op.kind = OpKind::MatMul;
    for (int g = 0; g < 50; ++g) {
        WorkGroup grp;
        for (int t = 0; t < 4; ++t) {
            WorkUnit u;
            u.kind = UTopKind::Me;
            u.meTime = 500.0;
            grp.units.push_back(u);
        }
        op.groups.push_back(grp);
    }
    m.ops.push_back(op);
    m.validate();

    int done = 0;
    core.submit(0, &m, [&](const RequestResult &) { ++done; });
    core.submit(1, &m, [&](const RequestResult &) { ++done; });
    queue.runUntil();
    EXPECT_EQ(done, 2);
    const Cycles end = queue.now();
    EXPECT_LE(core.meHeld().utilization(end), 1.0 + 1e-9);
    EXPECT_LE(core.meUseful().utilization(end), 1.0 + 1e-9);
}

TEST(EdgeCase, ZeroVeWorkModelRuns)
{
    const CompiledModel m = tinyMe(4, 1000.0);
    EventQueue queue;
    std::vector<VnpuSlot> slots(1);
    slots[0].nMes = 4;
    slots[0].nVes = 4;
    NpuCoreSim core(queue, NpuCoreConfig{},
                    makePolicy(PolicyKind::Neu10), slots);
    Cycles latency = -1;
    core.submit(0, &m,
                [&](const RequestResult &r) { latency = r.latency(); });
    queue.runUntil();
    EXPECT_NEAR(latency, 1000.0, 1.0);
}

TEST(EdgeCase, ManagerSurvivesChurn)
{
    // Randomized create/destroy churn never corrupts accounting.
    NpuBoardConfig board;
    VnpuManager mgr(board);
    Rng rng(2024);
    std::vector<VnpuId> live;
    setLogLevel(LogLevel::Silent);
    for (int step = 0; step < 400; ++step) {
        if (live.empty() || rng.uniform() < 0.6) {
            VnpuConfig cfg;
            cfg.numMesPerCore = 1 + rng.below(2);
            cfg.numVesPerCore = 1 + rng.below(2);
            cfg.sramSizePerCore = (1 + rng.below(8)) * 2_MiB;
            cfg.memSizePerCore = (1 + rng.below(8)) * 1_GiB;
            try {
                live.push_back(mgr.create(1, cfg));
            } catch (const FatalError &) {
                // Full board: acceptable, try destroying instead.
            }
        } else {
            const size_t pick = rng.below(live.size());
            mgr.destroy(live[pick]);
            live.erase(live.begin() + static_cast<long>(pick));
        }
    }
    setLogLevel(LogLevel::Warn);
    for (auto id : live)
        mgr.destroy(id);
    EXPECT_EQ(mgr.liveCount(), 0u);
    for (const auto &core : mgr.cores()) {
        EXPECT_EQ(core.dedicatedMes, 0u);
        EXPECT_EQ(core.dedicatedVes, 0u);
        EXPECT_EQ(core.hbm->freeSegments(), core.hbm->totalSegments());
        EXPECT_EQ(core.sram->freeSegments(),
                  core.sram->totalSegments());
    }
}

TEST(EdgeCase, CodecSurvivesRandomCorruption)
{
    // Any single-byte corruption either decodes to a valid program or
    // throws FatalError — never crashes or loops.
    setLogLevel(LogLevel::Silent);
    const DnnGraph g = buildModel(ModelId::Mnist, 1);
    const auto image = encode(emitNeuIsaProgram(g, 2, 2));
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        auto copy = image;
        copy[rng.below(copy.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
        try {
            const NeuIsaProgram p = decode(copy);
            p.validate();
        } catch (const FatalError &) {
            // expected for most corruptions
        }
    }
    setLogLevel(LogLevel::Warn);
    SUCCEED();
}

TEST(EdgeCase, SoloTenantUsesWholeCoreUnderEveryPolicy)
{
    // A single tenant should achieve identical solo latency under
    // Neu10 and NH (nothing to harvest from), and PMT adds no
    // switches when alone.
    const CompiledModel m = tinyMe(4, 50000.0);
    auto run = [&](PolicyKind kind) {
        EventQueue queue;
        std::vector<VnpuSlot> slots(1);
        slots[0].nMes = 4;
        slots[0].nVes = 4;
        NpuCoreSim core(queue, NpuCoreConfig{}, makePolicy(kind),
                        slots);
        Cycles latency = -1;
        core.submit(0, &m, [&](const RequestResult &r) {
            latency = r.latency();
        });
        queue.runUntil();
        return latency;
    };
    const Cycles neu = run(PolicyKind::Neu10);
    const Cycles nh = run(PolicyKind::Neu10NH);
    EXPECT_NEAR(neu, nh, 1.0);
    EXPECT_NEAR(neu, 50000.0, 1.0);
}

TEST(EdgeCase, ThreeTenantCollocation)
{
    // The paper evaluates pairs; the framework itself supports more.
    ServingConfig cfg;
    cfg.policy = PolicyKind::Neu10;
    cfg.core.numMes = 6;
    cfg.core.numVes = 6;
    cfg.tenants = {
        {ModelId::Dlrm, 32, 2, 2, 1.0, 1},
        {ModelId::ResNet, 32, 2, 2, 1.0, 1},
        {ModelId::EfficientNet, 32, 2, 2, 1.0, 1},
    };
    cfg.minRequests = 4;
    cfg.maxCycles = 2e9;
    const auto r = runServing(cfg);
    for (const auto &t : r.tenants)
        EXPECT_GE(t.completed, 4u) << t.model;
}

TEST(EdgeCase, HighPriorityTenantGetsMoreUnderTemporalNeu10)
{
    NpuCoreConfig cfg;
    EventQueue queue;
    std::vector<VnpuSlot> slots(2);
    for (auto &s : slots) {
        s.nMes = 4;
        s.nVes = 4;
    }
    slots[0].priority = 3.0;
    auto policy = std::make_unique<Neu10Policy>(true, true, /*temporal=*/true);
    NpuCoreSim core(queue, cfg, std::move(policy), slots);

    const CompiledModel m = tinyMe(4, 20000.0);
    std::vector<int> done(2, 0);
    std::function<void(std::uint32_t)> pump = [&](std::uint32_t s) {
        core.submit(s, &m, [&, s](const RequestResult &) {
            ++done[s];
            pump(s);
        });
    };
    pump(0);
    pump(1);
    queue.runUntil(3e7);
    core.drainSlot(0);
    core.drainSlot(1);
    EXPECT_GT(done[0], done[1]);
}

} // anonymous namespace
} // namespace neu10
