/**
 * @file
 * Resilience-subsystem tests: fault-trace generation (determinism,
 * rates, sorting), the FaultTimeline fold (board loss, repair,
 * interval merging, transient filtering), vNPU checkpoint capture,
 * the placer's restore landing path (re-split against the
 * destination residency, capacity bookkeeping), placer quarantine,
 * and end-to-end failover-aware fleet serving: a board loss under
 * failover must conserve requests, recover the checkpointed work,
 * and beat the no-failover baseline, all bit-deterministically.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "resilience/checkpoint.hh"
#include "resilience/faults.hh"
#include "result_eq.hh"
#include "sim/clock.hh"
#include "vnpu/allocator.hh"

namespace neu10
{
namespace
{

FaultEvent
boardLoss(unsigned board, Cycles at, Cycles dur = kCyclesInf)
{
    FaultEvent ev;
    ev.at = at;
    ev.kind = FaultKind::BoardLoss;
    ev.board = board;
    ev.durationCycles = dur;
    return ev;
}

FaultEvent
coreStall(CoreId core, Cycles at, Cycles dur)
{
    FaultEvent ev;
    ev.at = at;
    ev.kind = FaultKind::CoreStall;
    ev.core = core;
    ev.durationCycles = dur;
    return ev;
}

FaultEvent
transientFault(CoreId core, Cycles at, Cycles cost,
               FaultKind kind = FaultKind::TransientMmio)
{
    FaultEvent ev;
    ev.at = at;
    ev.kind = kind;
    ev.core = core;
    ev.durationCycles = cost;
    return ev;
}

FaultEvent
boardRepair(unsigned board, Cycles at)
{
    FaultEvent ev;
    ev.at = at;
    ev.kind = FaultKind::Repair;
    ev.board = board;
    return ev;
}

// ------------------------------------------------- fault injector

TEST(FaultTrace, DeterministicForSeed)
{
    FaultSpec spec;
    spec.seed = 9;
    spec.transientMmioMtbfSec = 1e-3;
    spec.transientDmaMtbfSec = 2e-3;
    spec.coreStallMtbfSec = 5e-3;
    spec.boardLossMtbfSec = 8e-3;
    spec.boardRepairMeanSec = 2e-3;
    const FleetTopology topo{2, 4};
    const auto a = generateFaultTrace(spec, topo, 2e7, 1.05e9);
    const auto b = generateFaultTrace(spec, topo, 2e7, 1.05e9);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].core, b[i].core);
        EXPECT_EQ(a[i].board, b[i].board);
        EXPECT_DOUBLE_EQ(a[i].durationCycles, b[i].durationCycles);
    }
}

TEST(FaultTrace, SeedChangesTrace)
{
    FaultSpec spec;
    spec.transientMmioMtbfSec = 1e-3;
    spec.seed = 1;
    const FleetTopology topo{1, 4};
    const auto a = generateFaultTrace(spec, topo, 2e7, 1.05e9);
    spec.seed = 2;
    const auto b = generateFaultTrace(spec, topo, 2e7, 1.05e9);
    ASSERT_FALSE(a.empty());
    bool differs = a.size() != b.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].at != b[i].at;
    EXPECT_TRUE(differs);
}

TEST(FaultTrace, SortedAndInHorizonAndInTopology)
{
    FaultSpec spec;
    spec.transientMmioMtbfSec = 1e-3;
    spec.coreStallMtbfSec = 2e-3;
    spec.boardLossMtbfSec = 4e-3;
    spec.boardRepairMeanSec = 1e-3;
    const FleetTopology topo{2, 2};
    const Cycles horizon = 3e7;
    const auto trace = generateFaultTrace(spec, topo, horizon, 1.05e9);
    ASSERT_FALSE(trace.empty());
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_LE(trace[i - 1].at, trace[i].at);
    for (const FaultEvent &ev : trace) {
        EXPECT_GE(ev.at, 0.0);
        EXPECT_LT(ev.at, horizon);
        if (ev.kind == FaultKind::BoardLoss)
            EXPECT_LT(ev.board, topo.numBoards);
        else
            EXPECT_LT(ev.core, topo.totalCores());
    }
}

TEST(FaultTrace, MtbfScalesEventCount)
{
    FaultSpec often;
    often.transientMmioMtbfSec = 5e-4;
    FaultSpec rare = often;
    rare.transientMmioMtbfSec = 5e-3;
    const FleetTopology topo{1, 8};
    const auto a = generateFaultTrace(often, topo, 4e7, 1.05e9);
    const auto b = generateFaultTrace(rare, topo, 4e7, 1.05e9);
    // 10x the MTBF, ~1/10th the events; allow generous slack.
    EXPECT_GT(a.size(), 3 * b.size());
}

TEST(FaultTrace, KindNamesAndFatality)
{
    EXPECT_EQ(faultKindName(FaultKind::TransientMmio),
              "transient-mmio");
    EXPECT_EQ(faultKindName(FaultKind::BoardLoss), "board-loss");
    EXPECT_EQ(faultKindName(FaultKind::Repair), "repair");
    EXPECT_FALSE(faultIsFatal(FaultKind::TransientMmio));
    EXPECT_FALSE(faultIsFatal(FaultKind::TransientDma));
    EXPECT_TRUE(faultIsFatal(FaultKind::CoreStall));
    EXPECT_TRUE(faultIsFatal(FaultKind::BoardLoss));
}

// ------------------------------------------------- fault timeline

TEST(Timeline, BoardLossTakesWholeBoardDown)
{
    const FleetTopology topo{2, 2};
    const FaultTimeline tl({boardLoss(0, 100.0, 50.0)}, topo);
    for (CoreId c : {0u, 1u}) {
        EXPECT_FALSE(tl.downAt(c, 99.0));
        EXPECT_TRUE(tl.downAt(c, 100.0));
        EXPECT_TRUE(tl.downAt(c, 149.0));
        EXPECT_FALSE(tl.downAt(c, 150.0));
    }
    for (CoreId c : {2u, 3u}) {
        EXPECT_FALSE(tl.downAt(c, 120.0));
        EXPECT_DOUBLE_EQ(tl.downCycles(c, 0.0, 200.0), 0.0);
    }
    EXPECT_DOUBLE_EQ(tl.downCycles(0, 0.0, 200.0), 50.0);
    EXPECT_DOUBLE_EQ(tl.downCycles(0, 120.0, 200.0), 30.0);
}

TEST(Timeline, RepairEndsOpenEndedLoss)
{
    const FleetTopology topo{2, 2};
    const FaultTimeline tl({boardLoss(1, 100.0), boardRepair(1, 180.0)},
                           topo);
    EXPECT_TRUE(tl.downAt(2, 179.0));
    EXPECT_FALSE(tl.downAt(2, 180.0));
    EXPECT_DOUBLE_EQ(tl.upAgainAt(2, 120.0), 180.0);
    EXPECT_DOUBLE_EQ(tl.downCycles(3, 0.0, 1000.0), 80.0);
    // Without the repair, the outage never ends.
    const FaultTimeline forever({boardLoss(1, 100.0)}, topo);
    EXPECT_TRUE(forever.downAt(2, 1e18));
    EXPECT_EQ(forever.upAgainAt(2, 120.0), kCyclesInf);
}

TEST(Timeline, CoreStallMergesWithBoardLoss)
{
    const FleetTopology topo{1, 2};
    // Core 0 stalls [50, 120); its board is lost [100, 200): one
    // merged outage [50, 200) with a single onset at 50.
    const FaultTimeline tl(
        {coreStall(0, 50.0, 70.0), boardLoss(0, 100.0, 100.0)}, topo);
    EXPECT_DOUBLE_EQ(tl.downCycles(0, 0.0, 300.0), 150.0);
    EXPECT_DOUBLE_EQ(tl.fatalOnset(0, 0.0, 300.0), 50.0);
    EXPECT_EQ(tl.fatalOnset(0, 60.0, 300.0), kCyclesInf);
    // Core 1 only sees the board loss.
    EXPECT_DOUBLE_EQ(tl.fatalOnset(1, 0.0, 300.0), 100.0);
    EXPECT_DOUBLE_EQ(tl.downCycles(1, 0.0, 300.0), 100.0);
}

TEST(Timeline, TransientsDroppedWhileDown)
{
    const FleetTopology topo{1, 1};
    const FaultTimeline tl(
        {transientFault(0, 10.0, 5.0), coreStall(0, 50.0, 50.0),
         transientFault(0, 60.0, 5.0, FaultKind::TransientDma),
         transientFault(0, 120.0, 7.0)},
        topo);
    // The t=60 transient hits a stalled core: discarded.
    EXPECT_EQ(tl.transientCount(0, 0.0, 200.0), 2u);
    EXPECT_DOUBLE_EQ(tl.transientStall(0, 0.0, 200.0), 12.0);
    EXPECT_DOUBLE_EQ(tl.transientStall(0, 0.0, 100.0), 5.0);
}

TEST(Timeline, FatalOnsetOnlyCountsOnsets)
{
    const FleetTopology topo{1, 1};
    const FaultTimeline tl({coreStall(0, 100.0, 1000.0)}, topo);
    EXPECT_DOUBLE_EQ(tl.fatalOnset(0, 0.0, 200.0), 100.0);
    // The core is already down over [200, 300): no new onset.
    EXPECT_EQ(tl.fatalOnset(0, 200.0, 300.0), kCyclesInf);
    EXPECT_DOUBLE_EQ(tl.upAgainAt(0, 200.0), 1100.0);
}

TEST(Timeline, RejectsOutOfTopologyEvents)
{
    setLogLevel(LogLevel::Silent);
    const FleetTopology topo{1, 2};
    EXPECT_THROW(FaultTimeline({boardLoss(3, 10.0)}, topo),
                 FatalError);
    EXPECT_THROW(FaultTimeline({coreStall(7, 10.0, 5.0)}, topo),
                 FatalError);
    setLogLevel(LogLevel::Warn);
}

// --------------------------------------------- checkpoint/restore

TEST(Checkpoint, CaptureRestampsAndSorts)
{
    const std::vector<Cycles> rel = {1e5, -2e4, 3e5};
    const VnpuCheckpoint ckpt = captureCheckpoint(
        /*tenant=*/3, /*fault_at=*/4e6, rel, /*epoch_start=*/2e6);
    EXPECT_EQ(ckpt.tenant, 3u);
    EXPECT_DOUBLE_EQ(ckpt.faultAt, 4e6);
    ASSERT_EQ(ckpt.backlog.size(), 3u);
    // Absolute stamps, sorted: 2e6 + {-2e4, 1e5, 3e5}.
    EXPECT_DOUBLE_EQ(ckpt.backlog[0], 1.98e6);
    EXPECT_DOUBLE_EQ(ckpt.backlog[1], 2.1e6);
    EXPECT_DOUBLE_EQ(ckpt.backlog[2], 2.3e6);
}

TEST(Checkpoint, RestorePlacesOnSurvivingCore)
{
    const NpuCoreConfig core_cfg;
    FleetPlacer placer(2, core_cfg);
    placer.setQuarantined(0, true);

    VnpuSizing sizing =
        sizeVnpuForModel(ModelId::Mnist, 8, 4, core_cfg);
    const CoreId dst = placer.placeResplit(
        sizing, 4, 0.3, PlacementPolicy::FirstFit);
    EXPECT_EQ(dst, 1u); // core 0 is quarantined
    EXPECT_EQ(sizing.config.numMesPerCore +
                  sizing.config.numVesPerCore,
              4u);
    EXPECT_EQ(placer.cores()[1].residents, 1u);
    EXPECT_EQ(placer.cores()[1].freeEus(), 4u);
    EXPECT_DOUBLE_EQ(placer.cores()[1].load, 0.3);
}

TEST(Checkpoint, RestoreResplitsForDestinationResidency)
{
    const NpuCoreConfig core_cfg; // 4 ME + 4 VE
    FleetPlacer placer(1, core_cfg);
    // Pre-load the only core with a 3ME+1VE resident: whatever the
    // lost core's split was, the restore must fit (<=1 ME, <=3 VE)
    // while keeping the paid 4 EUs.
    PlacementRequest res;
    res.nMes = 3;
    res.nVes = 1;
    res.hbmBytes = 1_GiB;
    ASSERT_TRUE(placer.commit(0, res));

    VnpuSizing sizing =
        sizeVnpuForModel(ModelId::Mnist, 8, 4, core_cfg);
    const CoreId dst = placer.placeResplit(
        sizing, 4, 0.3, PlacementPolicy::FirstFit);
    EXPECT_EQ(dst, 0u);
    EXPECT_EQ(sizing.config.numMesPerCore, 1u);
    EXPECT_EQ(sizing.config.numVesPerCore, 3u);
    EXPECT_EQ(placer.cores()[0].freeEus(), 0u);
    EXPECT_EQ(placer.cores()[0].residents, 2u);
}

TEST(Checkpoint, RestoreFailsCleanlyWithoutCapacity)
{
    const NpuCoreConfig core_cfg;
    FleetPlacer placer(2, core_cfg);
    placer.setQuarantined(0, true);
    placer.setQuarantined(1, true);

    VnpuSizing sizing =
        sizeVnpuForModel(ModelId::Mnist, 8, 4, core_cfg);
    const VnpuSizing before = sizing;
    EXPECT_EQ(placer.placeResplit(sizing, 4, 0.3,
                                  PlacementPolicy::LoadBalanced),
              kInvalidCore);
    // Nothing committed, sizing intact.
    EXPECT_EQ(placer.cores()[0].residents, 0u);
    EXPECT_EQ(placer.cores()[1].residents, 0u);
    EXPECT_EQ(sizing.config.numMesPerCore,
              before.config.numMesPerCore);
    EXPECT_EQ(sizing.config.numVesPerCore,
              before.config.numVesPerCore);
    EXPECT_EQ(sizing.config.sramSizePerCore,
              before.config.sramSizePerCore);
}

// ------------------------------------------------ end-to-end fleet

/** 8 equal tenants load-balanced one-per-core onto 2 boards x 4
 * cores; rebalancing disabled so failover effects are isolated. */
FleetConfig
resilientFleet(bool failover, unsigned epochs = 6)
{
    FleetConfig cfg;
    cfg.numBoards = 2;
    cfg.placement = PlacementPolicy::LoadBalanced;
    cfg.horizon = 1.2e7;
    cfg.maxCycles = 2e9;
    cfg.elastic.epochs = epochs;
    cfg.elastic.imbalanceThreshold = 1e18;
    cfg.resilience.failover = failover;
    cfg.resilience.recoveryStallCycles = 1e5;

    const Cycles service =
        sizeVnpuForModel(ModelId::Mnist, 8, 4, cfg.board.core)
            .serviceEstimate();
    for (unsigned i = 0; i < 8; ++i) {
        ClusterTenantSpec t;
        t.model = ModelId::Mnist;
        t.batch = 8;
        t.eus = 4;
        t.traffic.ratePerSec =
            0.35 * cfg.board.core.freqHz / service;
        t.traffic.seed = 100 + i;
        t.sloCycles = 10.0 * service;
        t.maxQueueDepth = 64;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

TEST(Failover, BoardLossRecoversEveryTenant)
{
    auto cfg = resilientFleet(/*failover=*/true);
    cfg.resilience.faults = {boardLoss(0, 4.8e6)};
    const auto r = runFleet(cfg);

    // Four tenants lived on board 0; all four fail over.
    EXPECT_EQ(r.coreFailures, 4u);
    EXPECT_EQ(r.failovers, 4u);
    EXPECT_EQ(r.lostRequests, 0u);
    EXPECT_GT(r.recoveredRequests, 0u);
    // Conservation survives the failure.
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.latencyCycles.count(), r.completed);
    // Every tenant keeps serving: the restored four on board 1.
    for (const auto &tr : r.tenants)
        EXPECT_GT(tr.completed, 0u);
    unsigned displaced = 0;
    for (const auto &pl : r.placements) {
        ASSERT_TRUE(pl.placed());
        if (pl.core >= 4)
            ++displaced;
    }
    EXPECT_EQ(displaced, 8u); // all final placements on board 1
    // The epoch log shows the failure and the restores.
    ASSERT_EQ(r.epochReports.size(), 6u);
    EXPECT_EQ(r.epochReports[2].failures, 4u);
    EXPECT_EQ(r.epochReports[2].restores, 4u);
}

TEST(Failover, AvailabilityDowntimeAndMttrAccounting)
{
    auto cfg = resilientFleet(/*failover=*/true);
    cfg.resilience.faults = {boardLoss(0, 4.8e6)};
    const auto r = runFleet(cfg);

    // Board 0's four cores are down from 4.8e6 to the 1.2e7 horizon.
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_DOUBLE_EQ(r.cores[c].downCycles, 7.2e6);
    for (CoreId c = 4; c < 8; ++c)
        EXPECT_DOUBLE_EQ(r.cores[c].downCycles, 0.0);
    EXPECT_NEAR(r.availability, 0.7, 1e-12);
    // Fault at 4.8e6, detected at the 6e6 boundary, plus the 1e5
    // recovery stall: MTTR is exactly 1.3e6 for each of the four.
    EXPECT_NEAR(r.mttrCycles, 1.3e6, 1e-3);
    EXPECT_NEAR(r.downtimeCycles, 4 * 1.3e6, 1e-3);
    EXPECT_EQ(r.faultsInjected, 1u);
}

TEST(Failover, RecoversRequestsTheBaselineLoses)
{
    auto with = resilientFleet(/*failover=*/true);
    auto without = resilientFleet(/*failover=*/false);
    with.resilience.faults = {boardLoss(0, 4.8e6)};
    without.resilience.faults = {boardLoss(0, 4.8e6)};
    const auto fo = runFleet(with);
    const auto base = runFleet(without);

    // The baseline abandons board 0's tenants: it loses work, the
    // failover run loses none — >= 90% recovery by a wide margin
    // (the bench_resilience acceptance shape).
    EXPECT_GT(base.lostRequests, 0u);
    EXPECT_EQ(base.failovers, 0u);
    EXPECT_EQ(fo.lostRequests, 0u);
    const double recovered =
        1.0 - static_cast<double>(fo.lostRequests) /
                  static_cast<double>(base.lostRequests);
    EXPECT_GE(recovered, 0.9);
    EXPECT_GT(fo.completed, base.completed);
    EXPECT_GT(fo.goodput, base.goodput);
    // Baseline conservation: lost requests are also rejected.
    EXPECT_EQ(base.completed + base.rejected, base.submitted);
    EXPECT_GE(base.rejected, base.lostRequests);
    // Hardware availability is trace-derived: identical either way.
    EXPECT_DOUBLE_EQ(fo.availability, base.availability);
}

TEST(Failover, DeterministicAndThreadInvariant)
{
    auto cfg = resilientFleet(/*failover=*/true);
    cfg.resilience.faults = {boardLoss(0, 4.8e6),
                             coreStall(6, 7.1e6, 1e6)};
    const auto a = runFleet(cfg);
    const auto b = runFleet(cfg);
    cfg.threads = 4;
    const auto c = runFleet(cfg);
    expectFleetEq(a, b);
    expectFleetEq(a, c);
}

TEST(Failover, NoFaultsMatchesFailureFreeEngineExactly)
{
    // An empty fault trace must leave the engine bit-identical to
    // the failure-free path, with the failover switch in either
    // position.
    auto on = resilientFleet(/*failover=*/true);
    auto off = resilientFleet(/*failover=*/false);
    const auto a = runFleet(on);
    const auto b = runFleet(off);
    expectFleetEq(a, b);
    EXPECT_EQ(a.faultsInjected, 0u);
    EXPECT_EQ(a.coreFailures, 0u);
    EXPECT_EQ(a.failovers, 0u);
    EXPECT_EQ(a.lostRequests, 0u);
    EXPECT_DOUBLE_EQ(a.availability, 1.0);
    EXPECT_DOUBLE_EQ(a.mttrCycles, 0.0);
    EXPECT_DOUBLE_EQ(a.downtimeCycles, 0.0);
}

TEST(Failover, TransientFaultsStallButLoseNothing)
{
    auto cfg = resilientFleet(/*failover=*/true);
    cfg.resilience.faults = {
        transientFault(0, 1e6, 2e4),
        transientFault(0, 3e6, 2e4, FaultKind::TransientDma),
        transientFault(5, 5e6, 2e4),
    };
    const auto r = runFleet(cfg);
    EXPECT_EQ(r.transientFaults, 3u);
    EXPECT_EQ(r.coreFailures, 0u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.lostRequests, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_DOUBLE_EQ(r.availability, 1.0);

    // The retry stalls show up as latency, never as loss: compare
    // with the fault-free run.
    const auto clean = runFleet(resilientFleet(true));
    EXPECT_EQ(r.submitted, clean.submitted);
    EXPECT_GE(r.p99(), clean.p99());
}

TEST(Failover, RepairedBoardRegainsCapacity)
{
    auto cfg = resilientFleet(/*failover=*/true);
    // Board 0 down [3e6, 6e6): detected at the 4e6 boundary,
    // repaired before the 6e6 one.
    cfg.resilience.faults = {boardLoss(0, 3e6, 3e6)};
    const auto r = runFleet(cfg);
    EXPECT_EQ(r.failovers, 4u);
    EXPECT_EQ(r.lostRequests, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_NEAR(r.availability, 1.0 - (4 * 3e6) / (8 * 1.2e7),
                1e-12);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_DOUBLE_EQ(r.cores[c].downCycles, 3e6);
}

TEST(Failover, FinalEpochFaultLosesWorkAccountably)
{
    setLogLevel(LogLevel::Silent);
    auto cfg = resilientFleet(/*failover=*/true);
    // Onset inside the last epoch ([1e7, 1.2e7)): no boundary left
    // to restore at — the work is lost, but never mis-counted.
    cfg.resilience.faults = {boardLoss(0, 1.05e7)};
    const auto r = runFleet(cfg);
    EXPECT_EQ(r.coreFailures, 4u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_GT(r.lostRequests, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.latencyCycles.count(), r.completed);
    setLogLevel(LogLevel::Warn);
}

TEST(Failover, SingleEpochFaultStillConserves)
{
    setLogLevel(LogLevel::Silent);
    auto cfg = resilientFleet(/*failover=*/true, /*epochs=*/1);
    cfg.resilience.faults = {coreStall(2, 5e6, kCyclesInf)};
    const auto r = runFleet(cfg);
    EXPECT_EQ(r.coreFailures, 1u);
    EXPECT_EQ(r.failovers, 0u); // no boundary: nothing restorable
    EXPECT_GT(r.lostRequests, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    setLogLevel(LogLevel::Warn);
}

TEST(Failover, SurvivesFaultStormWithRebalancingArmed)
{
    // Regression: with rebalancing and failover active together, a
    // restored vNPU can be migrated again at the same boundary as
    // other movers. The migration loop once destroyed/re-created
    // movers one at a time while the placer held the post-rebalance
    // books, so a grant grown into EUs a later mover was about to
    // vacate exceeded the destination's *current* occupancy and the
    // pinned create threw. This is the exact storm that exposed it
    // (bench_resilience part 2, intensity 1.0, seed 1).
    setLogLevel(LogLevel::Silent);
    FleetConfig cfg;
    cfg.numBoards = 4;
    cfg.placement = PlacementPolicy::LoadBalanced;
    cfg.horizon = 4e7;
    cfg.maxCycles = 50.0 * cfg.horizon;
    cfg.elastic.epochs = 10;
    cfg.resilience.recoveryStallCycles = 2e5;
    const ModelId models[4] = {ModelId::Mnist, ModelId::Ncf,
                               ModelId::Dlrm, ModelId::ResNet};
    const unsigned batches[4] = {32, 32, 32, 8};
    const unsigned eus[4] = {2, 4, 4, 6};
    for (unsigned i = 0; i < 16; ++i) {
        const unsigned k = i % 4;
        const Cycles service =
            sizeVnpuForModel(models[k], batches[k], eus[k],
                             cfg.board.core)
                .serviceEstimate();
        ClusterTenantSpec t;
        t.model = models[k];
        t.batch = batches[k];
        t.eus = eus[k];
        t.traffic.ratePerSec =
            0.4 * cfg.board.core.freqHz / service;
        t.traffic.seed = 1 + i;
        t.sloCycles = 8.0 * service;
        t.maxQueueDepth = 64;
        cfg.tenants.push_back(t);
    }
    const FleetTopology topo{cfg.numBoards, cfg.board.totalCores()};
    const double hsec = cfg.horizon / cfg.board.core.freqHz;
    FaultSpec spec;
    spec.seed = 38;
    spec.transientMmioMtbfSec = hsec / 2.0;
    spec.transientDmaMtbfSec = hsec / 2.0;
    spec.transientCostSec = 2e-5;
    spec.coreStallMtbfSec = hsec;
    spec.coreStallMeanSec = 0.05 * hsec;
    spec.boardLossMtbfSec = hsec * topo.totalCores() / topo.numBoards;
    spec.boardRepairMeanSec = 0.2 * hsec;
    cfg.resilience.faults = generateFaultTrace(
        spec, topo, cfg.horizon, cfg.board.core.freqHz);

    const auto r = runFleet(cfg);
    // The storm must actually churn both subsystems...
    EXPECT_GT(r.coreFailures, 0u);
    EXPECT_GT(r.failovers, 0u);
    EXPECT_GT(r.migrations, 0u);
    // ...and accounting survives it.
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.latencyCycles.count(), r.completed);
    setLogLevel(LogLevel::Warn);
}

TEST(Failover, BoundaryCoincidentFaultOnsetConserves)
{
    // Regression: an onset landing exactly on an epoch boundary
    // (fault time == k * window) once produced a zero-length serving
    // run whose t=0 backlog events never fired, silently dropping
    // the carried work from every counter. Such a core must skip the
    // epoch entirely and checkpoint its carry-in directly. Onset 0 is
    // the first boundary, and a one-epoch run's only one: there the
    // stranded tenants never run at all, yet still report their
    // model.
    struct Arm
    {
        unsigned epochs;
        Cycles onset;
    };
    // Exactly the epoch-2 boundary (window = 1.2e7 / 6 = 2e6), then
    // cycle 0 of a six-epoch and of a one-epoch run.
    for (const Arm arm : {Arm{6, 4e6}, Arm{6, 0.0}, Arm{1, 0.0}}) {
        for (bool failover : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << "epochs=" << arm.epochs
                         << " onset=" << arm.onset
                         << " failover=" << failover);
            auto cfg = resilientFleet(failover, arm.epochs);
            // Overload slightly so boards carry backlog at boundaries.
            for (auto &t : cfg.tenants)
                t.traffic.ratePerSec *= 3.0;
            cfg.resilience.faults = {boardLoss(0, arm.onset)};
            setLogLevel(LogLevel::Silent);
            const auto r = runFleet(cfg);
            setLogLevel(LogLevel::Warn);
            EXPECT_EQ(r.coreFailures, 4u);
            EXPECT_EQ(r.completed + r.rejected, r.submitted);
            EXPECT_EQ(r.latencyCycles.count(), r.completed);
            for (const auto &tr : r.tenants)
                EXPECT_EQ(tr.model, "MNIST");
            // A one-epoch run has no boundary to restore at.
            if (failover && arm.epochs > 1) {
                EXPECT_EQ(r.failovers, 4u);
                EXPECT_EQ(r.lostRequests, 0u);
            } else {
                EXPECT_GT(r.lostRequests, 0u);
            }
        }
    }
}

TEST(Failover, CoreStallEvictsOnlyThatCore)
{
    auto cfg = resilientFleet(/*failover=*/true);
    cfg.resilience.faults = {coreStall(3, 4.5e6, kCyclesInf)};
    const auto r = runFleet(cfg);
    EXPECT_EQ(r.coreFailures, 1u);
    EXPECT_EQ(r.failovers, 1u);
    EXPECT_EQ(r.lostRequests, 0u);
    unsigned on_core3 = 0;
    for (const auto &pl : r.placements) {
        ASSERT_TRUE(pl.placed());
        on_core3 += pl.core == 3;
    }
    EXPECT_EQ(on_core3, 0u);
    unsigned failovers = 0;
    for (const auto &tr : r.tenants)
        failovers += tr.failovers;
    EXPECT_EQ(failovers, 1u);
}

} // anonymous namespace
} // namespace neu10
