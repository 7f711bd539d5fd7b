/**
 * @file
 * Core-simulator and scheduler tests: fluid execution timing, tiling
 * speedup, VE/HBM rate caps, bandwidth fairness, ME/VE harvesting and
 * reclaim (Neu10), static partitioning (Neu10-NH), operator-level false
 * contention (V10), whole-core exclusivity (PMT), and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/logging.hh"
#include "common/random.hh"
#include "npu/bandwidth.hh"
#include "npu/core_sim.hh"
#include "sched/policy.hh"
#include "sim/event_queue.hh"

namespace neu10
{
namespace
{

/** Build a single-op model: one group of @p tiles ME uTOps. */
CompiledModel
meModel(unsigned tiles, Cycles me_per_tile, Cycles ve_per_tile = 0.0,
        Bytes bytes_per_tile = 0, unsigned groups = 1)
{
    CompiledModel m;
    m.model = "synthetic-me";
    m.batch = 1;
    m.nx = 4;
    m.ny = 4;
    m.neuIsa = true;
    CompiledOp op;
    op.name = "mm";
    op.kind = OpKind::MatMul;
    for (unsigned g = 0; g < groups; ++g) {
        WorkGroup grp;
        for (unsigned t = 0; t < tiles; ++t) {
            WorkUnit u;
            u.kind = UTopKind::Me;
            u.gang = 1;
            u.meTime = me_per_tile;
            u.veTime = ve_per_tile;
            u.bytes = bytes_per_tile;
            grp.units.push_back(u);
        }
        op.groups.push_back(grp);
    }
    m.ops.push_back(op);
    m.validate();
    return m;
}

/** Single VE-only op model. */
CompiledModel
veModel(Cycles ve_cycles, Bytes bytes = 0)
{
    CompiledModel m;
    m.model = "synthetic-ve";
    m.batch = 1;
    m.nx = 4;
    m.ny = 4;
    m.neuIsa = true;
    CompiledOp op;
    op.name = "vec";
    op.kind = OpKind::Vector;
    WorkGroup grp;
    WorkUnit u;
    u.kind = UTopKind::Ve;
    u.gang = 0;
    u.veTime = ve_cycles;
    u.bytes = bytes;
    grp.units.push_back(u);
    op.groups.push_back(grp);
    m.ops.push_back(op);
    m.validate();
    return m;
}

/** VLIW-style model: one gang operator occupying all MEs. */
CompiledModel
gangModel(unsigned gang, Cycles occupancy, double eff,
          Cycles ve_cycles = 0.0)
{
    CompiledModel m;
    m.model = "synthetic-vliw";
    m.batch = 1;
    m.nx = gang;
    m.ny = 4;
    m.neuIsa = false;
    CompiledOp op;
    op.name = "vliw-op";
    op.kind = OpKind::MatMul;
    WorkGroup grp;
    WorkUnit u;
    u.kind = UTopKind::Me;
    u.gang = gang;
    u.meTime = occupancy;
    u.meEff = eff;
    u.veTime = ve_cycles;
    grp.units.push_back(u);
    op.groups.push_back(grp);
    m.ops.push_back(op);
    m.validate();
    return m;
}

/** maxMinAllocate into a fresh vector. */
std::vector<double>
grantsFor(const std::vector<double> &demands, double capacity,
          const std::vector<double> &weights = {})
{
    std::vector<double> g(demands.size());
    maxMinAllocate(demands, capacity, g, weights);
    return g;
}

std::vector<VnpuSlot>
twoSlots(unsigned mes = 2, unsigned ves = 2)
{
    VnpuSlot a;
    a.nMes = mes;
    a.nVes = ves;
    VnpuSlot b = a;
    return {a, b};
}

struct Harness
{
    EventQueue queue;
    NpuCoreConfig cfg;
    std::unique_ptr<NpuCoreSim> core;

    explicit Harness(PolicyKind kind,
                     std::vector<VnpuSlot> slots = twoSlots(),
                     NpuCoreConfig c = {})
        : cfg(c)
    {
        core = std::make_unique<NpuCoreSim>(queue, cfg,
                                            makePolicy(kind),
                                            std::move(slots));
    }

    /** Run one request to completion; return its latency. */
    Cycles
    runOne(std::uint32_t slot, const CompiledModel &m)
    {
        Cycles latency = -1.0;
        core->submit(slot, &m, [&](const RequestResult &r) {
            latency = r.latency();
        });
        queue.runUntil();
        EXPECT_GE(latency, 0.0) << "request did not complete";
        return latency;
    }
};

// ----------------------------------------------------- basic timing

TEST(CoreSim, SingleUTopTakesItsMeTime)
{
    Harness h(PolicyKind::Neu10);
    const Cycles lat = h.runOne(0, meModel(1, 10000.0));
    EXPECT_NEAR(lat, 10000.0, 1.0);
}

TEST(CoreSim, FourTilesOnOwnTwoMesTakeTwoRounds)
{
    // Slot 0 owns 2 MEs; 4 tiles with nobody to harvest from... the
    // other slot is idle, so harvesting grabs its 2 MEs: one round.
    Harness h(PolicyKind::Neu10);
    const Cycles lat = h.runOne(0, meModel(4, 10000.0));
    EXPECT_NEAR(lat, 10000.0, 1.0);
}

TEST(CoreSim, NoHarvestLimitsToOwnBudget)
{
    Harness h(PolicyKind::Neu10NH);
    const Cycles lat = h.runOne(0, meModel(4, 10000.0));
    // 4 tiles on 2 owned MEs: two sequential waves.
    EXPECT_NEAR(lat, 20000.0, 1.0);
}

TEST(CoreSim, GroupsExecuteSequentially)
{
    Harness h(PolicyKind::Neu10);
    const Cycles lat = h.runOne(0, meModel(2, 5000.0, 0.0, 0, 3));
    EXPECT_NEAR(lat, 15000.0, 1.0);
}

TEST(CoreSim, VeUTopRunsOnAllocatedVes)
{
    Harness h(PolicyKind::Neu10);
    // 8000 VE-cycles on a slot with 2 VEs, spare 2 VEs harvested from
    // the idle neighbour: 8000/4.
    const Cycles lat = h.runOne(0, veModel(8000.0));
    EXPECT_NEAR(lat, 2000.0, 1.0);
}

TEST(CoreSim, VeUTopWithoutHarvestUsesOwnVes)
{
    Harness h(PolicyKind::Neu10NH);
    const Cycles lat = h.runOne(0, veModel(8000.0));
    EXPECT_NEAR(lat, 4000.0, 1.0);
}

TEST(CoreSim, MeUTopStallsOnVeStarvation)
{
    // veTime == 2 x meTime: the uTOp cannot retire faster than its VE
    // post-processing. With 4 VEs harvested: rate = 4/20000.
    Harness h(PolicyKind::Neu10);
    const Cycles lat = h.runOne(0, meModel(1, 10000.0, 80000.0));
    EXPECT_NEAR(lat, 20000.0, 2.0);
}

TEST(CoreSim, HbmBoundUTop)
{
    Harness h(PolicyKind::Neu10);
    const double bpc = h.cfg.hbmBytesPerCycle(); // ~1143 B/cy
    const Bytes bytes = static_cast<Bytes>(bpc * 50000.0);
    const Cycles lat = h.runOne(0, meModel(1, 10000.0, 0.0, bytes));
    EXPECT_NEAR(lat, 50000.0, 50.0);
}

TEST(CoreSim, RequestLatencyAccountsQueueing)
{
    Harness h(PolicyKind::Neu10);
    const CompiledModel m = meModel(2, 10000.0);
    std::vector<Cycles> latencies;
    for (int i = 0; i < 3; ++i) {
        h.core->submit(0, &m, [&](const RequestResult &r) {
            latencies.push_back(r.latency());
        });
    }
    h.queue.runUntil();
    ASSERT_EQ(latencies.size(), 3u);
    // 3 requests x 2 uTOps on 4 MEs (2 own + 2 harvested): the first
    // two requests run together, the third queues behind them.
    EXPECT_GT(latencies[2], latencies[0]);
}

TEST(CoreSim, OpTimingsCaptured)
{
    Harness h(PolicyKind::Neu10);
    h.core->setCaptureOpTimings(true);
    const CompiledModel m = meModel(2, 5000.0, 0.0, 0, 2);
    RequestResult res;
    h.core->submit(0, &m, [&](const RequestResult &r) { res = r; });
    h.queue.runUntil();
    ASSERT_EQ(res.opTimings.size(), 1u);
    EXPECT_NEAR(res.opTimings[0].start, 0.0, 1e-9);
    EXPECT_NEAR(res.opTimings[0].end, 10000.0, 1.0);
}

// ------------------------------------------------------- harvesting

TEST(Harvest, SpeedupOverStaticPartitioning)
{
    // ME-heavy tenant + idle neighbour: Neu10 harvests, NH cannot.
    const CompiledModel m = meModel(4, 20000.0, 0.0, 0, 4);
    Harness h1(PolicyKind::Neu10);
    Harness h2(PolicyKind::Neu10NH);
    const Cycles with = h1.runOne(0, m);
    const Cycles without = h2.runOne(0, m);
    EXPECT_NEAR(without / with, 2.0, 0.05);
}

TEST(Harvest, ReclaimPreemptsHarvesters)
{
    // Tenant 0 saturates all 4 MEs by harvesting; tenant 1 arrives
    // late and must get its 2 MEs back via preemption.
    Harness h(PolicyKind::Neu10);
    const CompiledModel big = meModel(4, 100000.0, 0.0, 0, 4);
    const CompiledModel small = meModel(2, 10000.0);

    Cycles small_lat = -1.0;
    h.core->submit(0, &big, nullptr);
    h.queue.runUntil(50000.0);
    h.core->submit(1, &small, [&](const RequestResult &r) {
        small_lat = r.latency();
    });
    h.queue.runUntil();

    ASSERT_GE(small_lat, 0.0);
    // Reclaim cost is one 256-cycle context switch, not a wait for
    // the harvester's 100k-cycle uTOp to finish.
    EXPECT_LT(small_lat, 10000.0 + 4 * h.cfg.mePreemptCycles + 100.0);
    EXPECT_GT(h.core->slots()[1].reclaimPreemptions, 0u);
}

TEST(Harvest, PreemptedUTopKeepsProgress)
{
    Harness h(PolicyKind::Neu10);
    const CompiledModel big = meModel(4, 100000.0);
    const CompiledModel small = meModel(2, 10000.0);

    Cycles big_lat = -1.0;
    h.core->submit(0, &big, [&](const RequestResult &r) {
        big_lat = r.latency();
    });
    h.queue.runUntil(50000.0);
    h.core->submit(1, &small, nullptr);
    h.queue.runUntil();

    ASSERT_GE(big_lat, 0.0);
    // The two preempted tiles resume on the own budget after ~50k of
    // progress; without keeping progress the latency would exceed
    // 150k. With progress kept: preempted at 50k with x=0.5, the two
    // own-budget tiles finish at 100k, the preempted pair resumes and
    // finishes by ~150k + small change.
    EXPECT_LT(big_lat, 155000.0);
    EXPECT_GT(big_lat, 99000.0);
}

TEST(Harvest, BlockedTimeTrackedForTableIII)
{
    Harness h(PolicyKind::Neu10);
    const CompiledModel big = meModel(4, 50000.0, 0.0, 0, 4);
    h.core->submit(0, &big, nullptr);
    h.core->submit(1, &big, nullptr);
    h.queue.runUntil();
    // With both tenants saturating, some blocked-on-harvest time is
    // plausible but reclaim keeps it bounded; the counter must at
    // least be consistent (non-negative, <= total runtime).
    for (const auto &s : h.core->slots()) {
        EXPECT_GE(s.blockedByHarvest, 0.0);
        EXPECT_LE(s.blockedByHarvest, h.queue.now());
    }
}

TEST(Harvest, VeSurplusSharedAcrossTenants)
{
    // Tenant 0 runs a VE-heavy op; tenant 1 idle: with harvesting the
    // op gets all 4 VEs instead of its 2.
    Harness hv(PolicyKind::Neu10);
    Harness hn(PolicyKind::Neu10NH);
    const CompiledModel m = veModel(40000.0);
    const Cycles with = hv.runOne(0, m);
    const Cycles without = hn.runOne(0, m);
    EXPECT_NEAR(without / with, 2.0, 0.05);
}

// ------------------------------------------------------------- V10

TEST(V10, FalseContentionBlocksSecondTenant)
{
    // Two gang operators cannot overlap even though each only fills
    // half the array (meEff 0.5): serialization doubles makespan.
    Harness h(PolicyKind::V10);
    const CompiledModel m = gangModel(4, 50000.0, 0.5);
    Cycles done0 = -1, done1 = -1;
    h.core->submit(0, &m, [&](const RequestResult &r) {
        done0 = r.finishTime;
    });
    h.core->submit(1, &m, [&](const RequestResult &r) {
        done1 = r.finishTime;
    });
    h.queue.runUntil();
    const Cycles makespan = std::max(done0, done1);
    EXPECT_GT(makespan, 95000.0); // serialized, not parallel
}

TEST(V10, VeOnlyOperatorOverlapsWithMeOperator)
{
    Harness h(PolicyKind::V10);
    const CompiledModel me_op = gangModel(4, 50000.0, 1.0);
    const CompiledModel ve_op = veModel(20000.0);
    Cycles ve_done = -1;
    h.core->submit(0, &me_op, nullptr);
    h.core->submit(1, &ve_op, [&](const RequestResult &r) {
        ve_done = r.finishTime;
    });
    h.queue.runUntil();
    ASSERT_GE(ve_done, 0.0);
    // The VE op need not wait for the 50k-cycle ME operator.
    EXPECT_LT(ve_done, 30000.0);
}

TEST(V10, FairnessPreemptsLongOperator)
{
    Harness h(PolicyKind::V10);
    const CompiledModel longop = gangModel(4, 1000000.0, 1.0);
    const CompiledModel shortop = gangModel(4, 20000.0, 1.0);
    Cycles short_done = -1;
    h.core->submit(0, &longop, nullptr);
    h.queue.runUntil(1000.0);
    h.core->submit(1, &shortop, [&](const RequestResult &r) {
        short_done = r.finishTime;
    });
    h.queue.runUntil();
    ASSERT_GE(short_done, 0.0);
    // Preemption bounds the wait to roughly the fairness window, far
    // below the 1M-cycle operator length.
    EXPECT_LT(short_done, 300000.0);
}

// ------------------------------------------------------------- PMT

TEST(Pmt, NoOverlapEvenForVeOnlyWork)
{
    Harness h(PolicyKind::Pmt);
    const CompiledModel me_op = gangModel(4, 50000.0, 1.0);
    const CompiledModel ve_op = veModel(20000.0);
    Cycles ve_done = -1;
    h.core->submit(0, &me_op, nullptr);
    h.queue.runUntil(1.0);
    h.core->submit(1, &ve_op, [&](const RequestResult &r) {
        ve_done = r.finishTime;
    });
    h.queue.runUntil();
    ASSERT_GE(ve_done, 0.0);
    // PMT serializes whole tenants: the VE op waits for a quantum
    // switch at least (vs ~5k under V10 overlap).
    EXPECT_GT(ve_done, 30000.0);
}

TEST(Pmt, FairSharingOverLongRun)
{
    Harness h(PolicyKind::Pmt);
    const CompiledModel m = gangModel(4, 20000.0, 1.0);

    // Closed loop: each tenant resubmits on completion.
    std::function<void(std::uint32_t)> pump = [&](std::uint32_t slot) {
        h.core->submit(slot, &m, [&, slot](const RequestResult &) {
            pump(slot);
        });
    };
    pump(0);
    pump(1);
    h.queue.runUntil(2000000.0);
    const auto &slots = h.core->slots();
    const double a = slots[0].requestsCompleted;
    const double b = slots[1].requestsCompleted;
    EXPECT_GT(a, 0.0);
    EXPECT_GT(b, 0.0);
    EXPECT_NEAR(a / b, 1.0, 0.25);
    h.core->drainSlot(0);
    h.core->drainSlot(1);
}

TEST(Pmt, SwitchCostReducesThroughputVsV10)
{
    // Same closed-loop load under PMT vs V10; V10 overlaps VE-only
    // ops and switches cheaper, so it completes at least as many.
    const CompiledModel me_op = gangModel(4, 30000.0, 1.0, 10000.0);
    auto run = [&](PolicyKind kind) {
        Harness h(kind);
        std::function<void(std::uint32_t)> pump =
            [&](std::uint32_t slot) {
                h.core->submit(slot, &me_op,
                               [&, slot](const RequestResult &) {
                                   pump(slot);
                               });
            };
        pump(0);
        pump(1);
        h.queue.runUntil(3000000.0);
        const double done = h.core->slots()[0].requestsCompleted +
                            h.core->slots()[1].requestsCompleted;
        h.core->drainSlot(0);
        h.core->drainSlot(1);
        return done;
    };
    EXPECT_GE(run(PolicyKind::V10), run(PolicyKind::Pmt));
}

// ------------------------------------------------- stats & fairness

TEST(Stats, UtilizationTrackersConsistent)
{
    Harness h(PolicyKind::Neu10);
    h.runOne(0, meModel(4, 10000.0, 20000.0));
    const Cycles end = h.queue.now();
    const double me_u = h.core->meUseful().utilization(0.0, end);
    const double me_h = h.core->meHeld().utilization(0.0, end);
    const double ve_u = h.core->veBusy().utilization(0.0, end);
    EXPECT_GT(me_u, 0.0);
    EXPECT_LE(me_u, me_h + 1e-9);
    EXPECT_LE(me_h, 1.0 + 1e-9);
    EXPECT_GT(ve_u, 0.0);
    EXPECT_LE(ve_u, 1.0 + 1e-9);
}

TEST(Stats, HbmBytesAccumulated)
{
    Harness h(PolicyKind::Neu10);
    const Bytes bytes = 1000000;
    h.runOne(0, meModel(2, 10000.0, 0.0, bytes));
    EXPECT_NEAR(h.core->hbmBytesTransferred(), 2.0 * bytes,
                2.0 * bytes * 1e-6);
}

TEST(Stats, AssignmentSeriesCaptured)
{
    Harness h(PolicyKind::Neu10);
    h.core->setCaptureAssignment(true);
    h.runOne(0, meModel(4, 10000.0));
    const auto &series = h.core->slots()[0].assignedMes;
    EXPECT_FALSE(series.empty());
    EXPECT_NEAR(series.peak(), 4.0, 1e-9);
}

TEST(Hbm, FairSharingBetweenTenants)
{
    // Two bandwidth-bound uTOps from different tenants: each gets
    // half the bandwidth, so both take twice their solo time.
    Harness h(PolicyKind::Neu10);
    const double bpc = h.cfg.hbmBytesPerCycle();
    const Bytes bytes = static_cast<Bytes>(bpc * 20000.0);
    const CompiledModel m = meModel(1, 1000.0, 0.0, bytes);
    Cycles l0 = -1, l1 = -1;
    h.core->submit(0, &m, [&](const RequestResult &r) {
        l0 = r.latency();
    });
    h.core->submit(1, &m, [&](const RequestResult &r) {
        l1 = r.latency();
    });
    h.queue.runUntil();
    EXPECT_NEAR(l0, 40000.0, 100.0);
    EXPECT_NEAR(l1, 40000.0, 100.0);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults)
{
    auto run = [] {
        Harness h(PolicyKind::Neu10);
        const CompiledModel a = meModel(4, 12345.0, 6789.0, 1000);
        const CompiledModel b = veModel(23456.0, 2000);
        std::vector<double> latencies;
        for (int i = 0; i < 5; ++i) {
            h.core->submit(0, &a, [&](const RequestResult &r) {
                latencies.push_back(r.latency());
            });
            h.core->submit(1, &b, [&](const RequestResult &r) {
                latencies.push_back(r.latency());
            });
        }
        h.queue.runUntil();
        return latencies;
    };
    EXPECT_EQ(run(), run());
}

TEST(Bandwidth, MaxMinBasics)
{
    const auto g = grantsFor({10.0, 10.0}, 10.0);
    EXPECT_DOUBLE_EQ(g[0], 5.0);
    EXPECT_DOUBLE_EQ(g[1], 5.0);

    const auto g2 = grantsFor({2.0, 100.0}, 10.0);
    EXPECT_DOUBLE_EQ(g2[0], 2.0);
    EXPECT_DOUBLE_EQ(g2[1], 8.0);

    const auto g3 = grantsFor({1.0, 1.0, 1.0}, 30.0);
    EXPECT_DOUBLE_EQ(g3[0] + g3[1] + g3[2], 3.0);
}

TEST(Bandwidth, WeightedAllocation)
{
    const auto g = grantsFor({100.0, 100.0}, 30.0, {2.0, 1.0});
    EXPECT_DOUBLE_EQ(g[0], 20.0);
    EXPECT_DOUBLE_EQ(g[1], 10.0);
}

TEST(Bandwidth, ZeroCapacityAndEmpty)
{
    EXPECT_TRUE(grantsFor({}, 10.0).empty());
    const auto g = grantsFor({5.0}, 0.0);
    EXPECT_DOUBLE_EQ(g[0], 0.0);
}

TEST(Bandwidth, NeverExceedsDemandOrCapacity)
{
    const std::vector<double> demands = {3.0, 7.0, 0.0, 11.0, 2.0};
    for (double cap : {1.0, 5.0, 20.0, 100.0}) {
        const auto g = grantsFor(demands, cap);
        double total = 0.0;
        for (size_t i = 0; i < g.size(); ++i) {
            EXPECT_LE(g[i], demands[i] + 1e-12);
            total += g[i];
        }
        EXPECT_LE(total, cap + 1e-9);
    }
}

/**
 * The stable_sort water-filling that the span-based maxMinAllocate
 * replaced, kept verbatim as the bit-exactness oracle.
 */
std::vector<double>
stableSortMaxMin(const std::vector<double> &demands, double capacity,
                 const std::vector<double> &weights)
{
    const size_t n = demands.size();
    std::vector<double> grant(n, 0.0);
    if (n == 0 || capacity <= 0.0)
        return grant;

    std::vector<double> w(n, 1.0);
    if (!weights.empty())
        w = weights;

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const double da = w[a] > 0 ? demands[a] / w[a] : 0.0;
        const double db = w[b] > 0 ? demands[b] / w[b] : 0.0;
        return da < db;
    });

    double cap = capacity;
    double wsum = 0.0;
    for (size_t i : order)
        wsum += demands[i] > 0 ? w[i] : 0.0;

    for (size_t idx = 0; idx < n; ++idx) {
        const size_t i = order[idx];
        if (demands[i] <= 0.0 || w[i] <= 0.0)
            continue;
        const double fair = cap * w[i] / wsum;
        const double got = std::min(demands[i], fair);
        grant[i] = got;
        cap -= got;
        wsum -= w[i];
        if (cap <= 0.0 || wsum <= 0.0)
            break;
    }
    return grant;
}

TEST(Bandwidth, MatchesStableSortOracleBitwise)
{
    // n spans 0..40: ranks in the stack array (n <= 16) and in the
    // heap buffer above it. Demands mix ties, zeros and the 1e18 sentinel
    // VE units demand; weights are absent, random with zeros, or the
    // V10 form (equal demands, priority weights).
    Rng rng(20241);
    const double ties[] = {0.5, 1.0, 2.0, 3.0};
    const double priorities[] = {0.0, 0.5, 1.0, 1.5, 2.0, 0.7};
    size_t cases = 0, large = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const size_t n = rng.below(41);
        const int weighting = static_cast<int>(rng.below(3));
        std::vector<double> demands(n), weights;
        double total = 0.0;
        for (size_t i = 0; i < n; ++i) {
            switch (rng.below(5)) {
              case 0: demands[i] = 0.0; break;
              case 1: demands[i] = ties[rng.below(4)]; break;
              case 2: demands[i] = rng.exponential(10.0); break;
              case 3: demands[i] = rng.uniform(0.0, 100.0); break;
              default: demands[i] = rng.below(50) == 0 ? 1e18 : 4.0;
            }
            total += std::min(demands[i], 1e3);
        }
        if (weighting == 1) {
            for (size_t i = 0; i < n; ++i)
                weights.push_back(rng.below(4) == 0
                                      ? 0.0
                                      : rng.uniform(0.1, 4.0));
        } else if (weighting == 2) {
            std::fill(demands.begin(), demands.end(), 4.0);
            total = 4.0 * static_cast<double>(n);
            for (size_t i = 0; i < n; ++i)
                weights.push_back(priorities[rng.below(6)]);
        }
        const double capacity =
            rng.below(10) == 0 ? 0.0 : rng.uniform(0.0, 1.5 * total);

        const std::vector<double> want =
            stableSortMaxMin(demands, capacity, weights);
        const std::vector<double> got =
            grantsFor(demands, capacity, weights);
        ASSERT_EQ(got.size(), n);
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                      std::bit_cast<std::uint64_t>(want[i]))
                << "iter " << iter << " n " << n << " consumer " << i
                << ": " << got[i] << " vs " << want[i];
        }
        ++cases;
        large += n > 16 ? 1 : 0;
    }
    EXPECT_EQ(cases, 20000u);
    EXPECT_GT(large, 5000u);
}

} // anonymous namespace
} // namespace neu10
