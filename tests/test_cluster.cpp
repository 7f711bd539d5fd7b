/**
 * @file
 * Cluster-layer tests: traffic generation (determinism, rate, shape),
 * fleet placement (capacity respected, policies differ), open-loop
 * serving (admission control, SLO accounting) and whole-fleet runs.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "cluster/fleet.hh"
#include "cluster/placement.hh"
#include "cluster/traffic.hh"
#include "common/logging.hh"
#include "runtime/serving.hh"
#include "sim/clock.hh"
#include "vnpu/allocator.hh"

namespace neu10
{
namespace
{

// ------------------------------------------------------- traffic

TEST(Traffic, FixedSeedYieldsIdenticalSchedule)
{
    for (auto shape : {TrafficShape::Poisson, TrafficShape::Bursty,
                       TrafficShape::Diurnal}) {
        TrafficSpec spec;
        spec.shape = shape;
        spec.ratePerSec = 20000.0;
        spec.seed = 7;
        const auto a = generateArrivals(spec, 5e6, 1.05e9);
        const auto b = generateArrivals(spec, 5e6, 1.05e9);
        ASSERT_EQ(a.size(), b.size())
            << trafficShapeName(shape);
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_DOUBLE_EQ(a[i], b[i]) << trafficShapeName(shape);
        ASSERT_FALSE(a.empty()) << trafficShapeName(shape);
    }
}

TEST(Traffic, SeedChangesSchedule)
{
    TrafficSpec spec;
    spec.ratePerSec = 20000.0;
    spec.seed = 7;
    const auto a = generateArrivals(spec, 5e6, 1.05e9);
    spec.seed = 8;
    const auto b = generateArrivals(spec, 5e6, 1.05e9);
    EXPECT_TRUE(a != b);
}

TEST(Traffic, ArrivalsSortedAndInHorizon)
{
    for (auto shape : {TrafficShape::Poisson, TrafficShape::Bursty,
                       TrafficShape::Diurnal}) {
        TrafficSpec spec;
        spec.shape = shape;
        spec.ratePerSec = 50000.0;
        const Cycles horizon = 2e6;
        const auto arr = generateArrivals(spec, horizon, 1.05e9);
        EXPECT_TRUE(std::is_sorted(arr.begin(), arr.end()));
        for (Cycles t : arr) {
            EXPECT_GE(t, 0.0);
            EXPECT_LT(t, horizon);
        }
    }
}

TEST(Traffic, MeanRateIsPreserved)
{
    // Every shape advertises ratePerSec as its long-run mean; check
    // within +/- 20% over a long window.
    const double freq = 1.05e9;
    const double rate = 100000.0;
    const Cycles horizon = 0.02 * freq; // 20 ms -> ~2000 arrivals
    for (auto shape : {TrafficShape::Poisson, TrafficShape::Bursty,
                       TrafficShape::Diurnal}) {
        TrafficSpec spec;
        spec.shape = shape;
        spec.ratePerSec = rate;
        spec.seed = 11;
        // Many burst cycles / whole diurnal periods must fit in the
        // window or the long-run mean cannot show.
        spec.burstDwellSec = 2e-4;
        spec.diurnalPeriodSec = 5e-3;
        const auto arr = generateArrivals(spec, horizon, freq);
        const double expected = rate * horizon / freq;
        EXPECT_GT(arr.size(), 0.8 * expected)
            << trafficShapeName(shape);
        EXPECT_LT(arr.size(), 1.2 * expected)
            << trafficShapeName(shape);
    }
}

TEST(Traffic, BurstyIsOverdispersed)
{
    // The MMPP's index of dispersion (variance/mean of per-window
    // counts) must sit clearly above the Poisson baseline of 1.
    const double freq = 1.05e9;
    auto dispersion = [&](TrafficShape shape) {
        TrafficSpec spec;
        spec.shape = shape;
        spec.ratePerSec = 200000.0;
        spec.seed = 3;
        const Cycles horizon = 0.02 * freq;
        const auto arr = generateArrivals(spec, horizon, freq);
        const int bins = 200;
        std::vector<double> counts(bins, 0.0);
        for (Cycles t : arr)
            counts[std::min<int>(bins - 1,
                                 static_cast<int>(t / horizon *
                                                  bins))] += 1.0;
        double mean = 0.0;
        for (double c : counts)
            mean += c;
        mean /= bins;
        double var = 0.0;
        for (double c : counts)
            var += (c - mean) * (c - mean);
        var /= bins;
        return var / mean;
    };
    EXPECT_LT(dispersion(TrafficShape::Poisson), 2.0);
    EXPECT_GT(dispersion(TrafficShape::Bursty), 2.5);
}

TEST(Traffic, DiurnalPeakBeatsTrough)
{
    // Phase 0: the sinusoid is above the mean over the first half of
    // each period and below it over the second half.
    const double freq = 1.05e9;
    TrafficSpec spec;
    spec.shape = TrafficShape::Diurnal;
    spec.ratePerSec = 200000.0;
    spec.diurnalDepth = 0.9;
    spec.diurnalPeriodSec = 0.02;
    const Cycles period = spec.diurnalPeriodSec * freq;
    const auto arr = generateArrivals(spec, period, freq);
    std::uint64_t first_half = 0, second_half = 0;
    for (Cycles t : arr)
        (t < period / 2 ? first_half : second_half) += 1;
    EXPECT_GT(first_half, 1.5 * second_half);
}

TEST(Traffic, TraceReplaysVerbatim)
{
    TrafficSpec spec;
    spec.shape = TrafficShape::Trace;
    spec.trace = {5.0, 1.0, 3.0, 1e12, -2.0};
    const auto arr = generateArrivals(spec, 10.0, 1.05e9);
    ASSERT_EQ(arr.size(), 3u); // out-of-horizon and negative dropped
    EXPECT_DOUBLE_EQ(arr[0], 1.0);
    EXPECT_DOUBLE_EQ(arr[1], 3.0);
    EXPECT_DOUBLE_EQ(arr[2], 5.0);
}

TEST(Traffic, NamesRoundTrip)
{
    for (auto shape : {TrafficShape::Poisson, TrafficShape::Bursty,
                       TrafficShape::Diurnal, TrafficShape::Trace})
        EXPECT_EQ(trafficShapeFromName(trafficShapeName(shape)),
                  shape);
    EXPECT_THROW(trafficShapeFromName("square-wave"), FatalError);
}

// ----------------------------------------------------- placement

PlacementRequest
req(unsigned mes, unsigned ves, Bytes hbm = 1_GiB, double load = 0.1)
{
    PlacementRequest r;
    r.nMes = mes;
    r.nVes = ves;
    r.hbmBytes = hbm;
    r.load = load;
    return r;
}

TEST(Placement, FirstFitPacksInIndexOrder)
{
    FleetPlacer placer(4, NpuCoreConfig{});
    EXPECT_EQ(placer.place(req(2, 2), PlacementPolicy::FirstFit), 0u);
    EXPECT_EQ(placer.place(req(2, 2), PlacementPolicy::FirstFit), 0u);
    EXPECT_EQ(placer.place(req(2, 2), PlacementPolicy::FirstFit), 1u);
}

TEST(Placement, LoadBalancedSpreads)
{
    FleetPlacer placer(4, NpuCoreConfig{});
    EXPECT_EQ(placer.place(req(1, 1), PlacementPolicy::LoadBalanced),
              0u);
    EXPECT_EQ(placer.place(req(1, 1), PlacementPolicy::LoadBalanced),
              1u);
    EXPECT_EQ(placer.place(req(1, 1), PlacementPolicy::LoadBalanced),
              2u);
    EXPECT_EQ(placer.place(req(1, 1), PlacementPolicy::LoadBalanced),
              3u);
    // All equally loaded again: wraps back to the emptiest.
    EXPECT_EQ(placer.place(req(1, 1), PlacementPolicy::LoadBalanced),
              0u);
}

TEST(Placement, BestFitPrefersTightestCore)
{
    FleetPlacer placer(3, NpuCoreConfig{});
    // Pre-load core 1 so it has the least EU headroom.
    ASSERT_EQ(placer.place(req(2, 2), PlacementPolicy::FirstFit), 0u);
    ASSERT_EQ(placer.place(req(3, 3), PlacementPolicy::LoadBalanced),
              1u);
    // Best fit tucks a 1+1 vNPU into core 1's 2-EU hole, not the
    // half-empty core 0 or the empty core 2.
    EXPECT_EQ(placer.place(req(1, 1), PlacementPolicy::BestFit), 1u);
}

TEST(Placement, EngineCapacityRespected)
{
    setLogLevel(LogLevel::Silent);
    FleetPlacer placer(2, NpuCoreConfig{});
    for (auto policy :
         {PlacementPolicy::FirstFit, PlacementPolicy::BestFit,
          PlacementPolicy::LoadBalanced}) {
        // 4ME/4VE per core: two 2+2 vNPUs fill one core.
        FleetPlacer p(2, NpuCoreConfig{});
        EXPECT_NE(p.place(req(2, 2), policy), kInvalidCore);
        EXPECT_NE(p.place(req(2, 2), policy), kInvalidCore);
        EXPECT_NE(p.place(req(2, 2), policy), kInvalidCore);
        EXPECT_NE(p.place(req(2, 2), policy), kInvalidCore);
        // Fleet is full now.
        EXPECT_EQ(p.place(req(1, 1), policy), kInvalidCore);
    }
    // A request larger than any single core never fits.
    EXPECT_EQ(placer.place(req(5, 1), PlacementPolicy::FirstFit),
              kInvalidCore);
    setLogLevel(LogLevel::Warn);
}

TEST(Placement, HbmCapacityRespected)
{
    NpuCoreConfig core; // 64 GiB HBM
    FleetPlacer placer(2, core);
    EXPECT_EQ(placer.place(req(1, 1, 40_GiB),
                           PlacementPolicy::FirstFit), 0u);
    // 40 GiB more does not fit core 0's remaining 24 GiB.
    EXPECT_EQ(placer.place(req(1, 1, 40_GiB),
                           PlacementPolicy::FirstFit), 1u);
    EXPECT_EQ(placer.place(req(1, 1, 40_GiB),
                           PlacementPolicy::FirstFit), kInvalidCore);
}

TEST(Placement, NamesRoundTrip)
{
    for (auto p : {PlacementPolicy::FirstFit, PlacementPolicy::BestFit,
                   PlacementPolicy::LoadBalanced})
        EXPECT_EQ(placementFromName(placementName(p)), p);
    EXPECT_THROW(placementFromName("worst-fit"), FatalError);
}

TEST(PolicyNames, RoundTripAliasesAndDescriptiveError)
{
    for (auto k : {PolicyKind::Neu10, PolicyKind::Neu10NH,
                   PolicyKind::V10, PolicyKind::Pmt})
        EXPECT_EQ(policyFromName(policyName(k)), k);
    EXPECT_EQ(policyFromName("NEU10"), PolicyKind::Neu10);
    EXPECT_EQ(policyFromName("neu10nh"), PolicyKind::Neu10NH);
    EXPECT_EQ(policyFromName("nh"), PolicyKind::Neu10NH);
    // An unknown policy string must fail loudly with the accepted
    // vocabulary, never silently fall back to a default design.
    try {
        policyFromName("round-robin");
        FAIL() << "unknown policy name was accepted";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("round-robin"), std::string::npos);
        for (const char *want : {"neu10", "neu10-nh", "v10", "pmt"})
            EXPECT_NE(msg.find(want), std::string::npos)
                << "error message does not list '" << want << "'";
    }
}

TEST(Placement, CommitReleaseRoundTrip)
{
    FleetPlacer placer(2, NpuCoreConfig{});
    const PlacementRequest r = req(3, 2, 4_GiB, 0.4);
    EXPECT_TRUE(placer.canHost(1, r));
    EXPECT_TRUE(placer.commit(1, r));
    EXPECT_EQ(placer.cores()[1].freeMes, 1u);
    EXPECT_EQ(placer.cores()[1].freeVes, 2u);
    EXPECT_EQ(placer.cores()[1].residents, 1u);
    // A second identical commit exceeds the MEs and must not change
    // anything.
    EXPECT_FALSE(placer.commit(1, r));
    EXPECT_EQ(placer.cores()[1].residents, 1u);
    placer.release(1, r);
    EXPECT_EQ(placer.cores()[1].freeMes, 4u);
    EXPECT_EQ(placer.cores()[1].residents, 0u);
    EXPECT_DOUBLE_EQ(placer.cores()[1].load, 0.0);
}

TEST(Placement, QuarantineBlocksPlacementUntilRepaired)
{
    FleetPlacer placer(2, NpuCoreConfig{});
    const PlacementRequest r = req(2, 2, 4_GiB, 0.4);
    placer.setQuarantined(0, true);
    EXPECT_TRUE(placer.quarantined(0));
    EXPECT_FALSE(placer.canHost(0, r));
    EXPECT_FALSE(placer.commit(0, r));
    // Every policy routes around the quarantined core.
    for (auto policy :
         {PlacementPolicy::FirstFit, PlacementPolicy::BestFit,
          PlacementPolicy::LoadBalanced}) {
        FleetPlacer p(2, NpuCoreConfig{});
        p.setQuarantined(0, true);
        EXPECT_EQ(p.place(r, policy), 1u) << placementName(policy);
    }
    // Repair restores full placement eligibility.
    placer.setQuarantined(0, false);
    EXPECT_TRUE(placer.canHost(0, r));
    EXPECT_EQ(placer.place(r, PlacementPolicy::FirstFit), 0u);
}

TEST(Placement, ReleaseAfterFailureRoundTripsCapacity)
{
    // The failover eviction order: quarantine the dead core first,
    // then release each resident. The books must round-trip to full
    // capacity so a repaired core hosts exactly what it could before.
    FleetPlacer placer(2, NpuCoreConfig{});
    const PlacementRequest a = req(2, 2, 8_GiB, 0.5);
    const PlacementRequest b = req(2, 1, 4_GiB, 0.3);
    ASSERT_TRUE(placer.commit(0, a));
    ASSERT_TRUE(placer.commit(0, b));
    placer.setQuarantined(0, true);
    placer.release(0, a);
    placer.release(0, b);
    EXPECT_EQ(placer.cores()[0].residents, 0u);
    EXPECT_EQ(placer.cores()[0].freeMes, 4u);
    EXPECT_EQ(placer.cores()[0].freeVes, 4u);
    // Load is advisory (sums in release order): FP-dust tolerance.
    EXPECT_NEAR(placer.cores()[0].load, 0.0, 1e-12);
    // Still unplaceable while down...
    EXPECT_FALSE(placer.canHost(0, a));
    // ...and a full-core request fits again after the repair.
    placer.setQuarantined(0, false);
    EXPECT_TRUE(placer.canHost(0, req(4, 4, 32_GiB)));
    EXPECT_TRUE(placer.commit(0, req(4, 4, 32_GiB)));
}

// ----------------------------------------------------- rebalance

TEST(Rebalance, SpreadsStackedCoresOntoIdleOnes)
{
    FleetPlacer placer(8, NpuCoreConfig{});
    // First-fit packs eight 1M1V tenants onto cores 0 and 1.
    std::vector<CoreId> where;
    std::vector<PlacementRequest> demands(8);
    for (size_t t = 0; t < 8; ++t) {
        demands[t] = req(1, 1, 1_GiB, 1.0 + 0.01 * t);
        where.push_back(
            placer.place(demands[t], PlacementPolicy::FirstFit));
    }
    ASSERT_EQ(where[3], 0u);
    ASSERT_EQ(where[7], 1u);

    std::vector<double> pressure(8, 0.0);
    for (size_t t = 0; t < 8; ++t)
        pressure[where[t]] += demands[t].load;

    RebalanceOptions opts;
    opts.imbalanceThreshold = 0.05;
    opts.maxMigrations = 4;
    const auto moves =
        placer.rebalance(pressure, where, demands, opts);
    EXPECT_EQ(moves.size(), 4u);
    for (const Migration &mv : moves) {
        EXPECT_TRUE(mv.from == 0 || mv.from == 1);
        EXPECT_GE(mv.to, 2u); // always to a previously idle core
    }
    // The placer's books reflect the moves.
    EXPECT_EQ(placer.cores()[0].residents +
                  placer.cores()[1].residents,
              4u);
}

TEST(Rebalance, ThresholdAndBudgetRespected)
{
    FleetPlacer placer(4, NpuCoreConfig{});
    std::vector<CoreId> where;
    std::vector<PlacementRequest> demands(4);
    for (size_t t = 0; t < 4; ++t) {
        demands[t] = req(1, 1, 1_GiB, 0.5);
        where.push_back(
            placer.place(demands[t], PlacementPolicy::FirstFit));
    }
    std::vector<double> pressure = {2.0, 0.0, 0.0, 0.0};

    // A gap under the threshold: no moves at all.
    RebalanceOptions lax;
    lax.imbalanceThreshold = 5.0;
    EXPECT_TRUE(
        placer.rebalance(pressure, where, demands, lax).empty());

    // A budget of one: exactly one move even though more would help.
    RebalanceOptions tight;
    tight.imbalanceThreshold = 0.05;
    tight.maxMigrations = 1;
    EXPECT_EQ(
        placer.rebalance(pressure, where, demands, tight).size(), 1u);
}

TEST(Rebalance, UnfixableHotCoreDoesNotStallOthers)
{
    FleetPlacer placer(4, NpuCoreConfig{});
    // Tenant 0: one huge-backlog vNPU alone filling core 0. Moving
    // it would just relocate the hot spot (its load equals the whole
    // gap), so the rebalancer must freeze core 0 and still fix the
    // *second*-hottest core behind it.
    std::vector<PlacementRequest> demands = {
        req(4, 4, 1_GiB, 10.0),
        req(1, 1, 1_GiB, 3.0),
        req(1, 1, 1_GiB, 3.0),
    };
    std::vector<CoreId> where;
    for (const auto &d : demands)
        where.push_back(placer.place(d, PlacementPolicy::FirstFit));
    ASSERT_EQ(where[0], 0u);
    ASSERT_EQ(where[1], 1u);
    ASSERT_EQ(where[2], 1u);

    std::vector<double> pressure = {10.0, 6.0, 0.0, 0.0};
    RebalanceOptions opts;
    opts.imbalanceThreshold = 0.05;
    opts.maxMigrations = 4;
    const auto moves =
        placer.rebalance(pressure, where, demands, opts);
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_NE(moves[0].tenant, 0u);
    EXPECT_EQ(moves[0].from, 1u);
    EXPECT_GE(moves[0].to, 2u);
}

TEST(Rebalance, QuarantinedCoresNeitherSourceNorTarget)
{
    FleetPlacer placer(4, NpuCoreConfig{});
    // Four tenants stacked on core 0; cores 2 and 3 are down.
    std::vector<PlacementRequest> demands(4);
    std::vector<CoreId> where;
    for (size_t t = 0; t < 4; ++t) {
        demands[t] = req(1, 1, 1_GiB, 1.0);
        where.push_back(
            placer.place(demands[t], PlacementPolicy::FirstFit));
        ASSERT_EQ(where[t], 0u);
    }
    placer.setQuarantined(2, true);
    placer.setQuarantined(3, true);

    std::vector<double> pressure = {4.0, 0.0, 0.0, 0.0};
    RebalanceOptions opts;
    opts.imbalanceThreshold = 0.05;
    opts.maxMigrations = 4;
    const auto moves =
        placer.rebalance(pressure, where, demands, opts);
    ASSERT_FALSE(moves.empty());
    for (const Migration &mv : moves) {
        EXPECT_EQ(mv.from, 0u);
        EXPECT_EQ(mv.to, 1u); // never the quarantined idle cores
    }
    EXPECT_EQ(placer.cores()[2].residents, 0u);
    EXPECT_EQ(placer.cores()[3].residents, 0u);
}

TEST(Rebalance, AllAlternativesQuarantinedMakesNoMoves)
{
    FleetPlacer placer(3, NpuCoreConfig{});
    std::vector<PlacementRequest> demands = {req(1, 1, 1_GiB, 2.0),
                                             req(1, 1, 1_GiB, 2.0)};
    std::vector<CoreId> where;
    for (const auto &d : demands)
        where.push_back(placer.place(d, PlacementPolicy::FirstFit));
    placer.setQuarantined(1, true);
    placer.setQuarantined(2, true);

    std::vector<double> pressure = {4.0, 0.0, 0.0};
    RebalanceOptions opts;
    opts.imbalanceThreshold = 0.05;
    opts.maxMigrations = 4;
    // The only non-quarantined core is the hot one itself: the gap
    // is zero by construction and nothing may move.
    EXPECT_TRUE(
        placer.rebalance(pressure, where, demands, opts).empty());
}

TEST(Rebalance, FrozenHotCoreFallsBackPastQuarantine)
{
    // Variant of the frozen-core fallback with a quarantined core in
    // the mix: core 0 is hot but unfixable (its single huge tenant
    // cannot move without inverting the gap), core 1 is second-
    // hottest and fixable, core 2 is down, core 3 is the only legal
    // destination.
    FleetPlacer placer(4, NpuCoreConfig{});
    std::vector<PlacementRequest> demands = {
        req(4, 4, 1_GiB, 10.0),
        req(1, 1, 1_GiB, 3.0),
        req(1, 1, 1_GiB, 3.0),
    };
    std::vector<CoreId> where;
    for (const auto &d : demands)
        where.push_back(placer.place(d, PlacementPolicy::FirstFit));
    ASSERT_EQ(where[0], 0u);
    ASSERT_EQ(where[1], 1u);
    ASSERT_EQ(where[2], 1u);
    placer.setQuarantined(2, true);

    std::vector<double> pressure = {10.0, 6.0, 0.0, 0.0};
    RebalanceOptions opts;
    opts.imbalanceThreshold = 0.05;
    opts.maxMigrations = 4;
    const auto moves =
        placer.rebalance(pressure, where, demands, opts);
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_NE(moves[0].tenant, 0u);
    EXPECT_EQ(moves[0].from, 1u);
    EXPECT_EQ(moves[0].to, 3u);
}

// ---------------------------------------------- open-loop serving

/** Open-loop single-tenant config calibrated against the allocator's
 * service-time estimate: rho = offered load / capacity. */
ServingConfig
openLoopConfig(double rho, unsigned depth, Cycles horizon = 3e7)
{
    const VnpuSizing sizing =
        sizeVnpuForModel(ModelId::Mnist, 8, 4, NpuCoreConfig{});
    const Cycles service = sizing.serviceEstimate();

    TrafficSpec traffic;
    traffic.ratePerSec = rho * 1.05e9 / service;
    traffic.seed = 5;

    ServingConfig cfg;
    cfg.mode = ServingMode::OpenLoop;
    cfg.policy = PolicyKind::Neu10;
    TenantSpec ts;
    ts.model = ModelId::Mnist;
    ts.batch = 8;
    ts.nMes = sizing.config.numMesPerCore;
    ts.nVes = sizing.config.numVesPerCore;
    ts.arrivals = generateArrivals(traffic, horizon, 1.05e9);
    ts.maxQueueDepth = depth;
    ts.sloCycles = 10.0 * service;
    cfg.tenants = {ts};
    cfg.maxCycles = 2e9;
    return cfg;
}

TEST(OpenLoop, LightLoadAdmitsEverything)
{
    const auto cfg = openLoopConfig(/*rho=*/0.3, /*depth=*/64);
    const auto r = runServing(cfg);
    const auto &t = r.tenants[0];
    EXPECT_EQ(t.submitted, cfg.tenants[0].arrivals.size());
    EXPECT_EQ(t.rejected, 0u);
    EXPECT_EQ(t.completed, t.submitted);
    EXPECT_GT(t.completed, 20u);
    // Light load: latencies comfortably inside the 10x-service SLO.
    EXPECT_EQ(t.sloMet, t.completed);
    EXPECT_GT(t.goodput, 0.0);
    EXPECT_LE(t.p50(), t.p95());
    EXPECT_LE(t.p95(), t.p99());
}

TEST(OpenLoop, SaturationRejectsBeyondQueueDepth)
{
    setLogLevel(LogLevel::Silent);
    // 3x overload with a shallow queue: admission control must shed.
    const auto cfg = openLoopConfig(/*rho=*/3.0, /*depth=*/4);
    const auto r = runServing(cfg);
    const auto &t = r.tenants[0];
    EXPECT_EQ(t.submitted, cfg.tenants[0].arrivals.size());
    EXPECT_GT(t.rejected, 0u);
    // Everything admitted eventually drains.
    EXPECT_EQ(t.completed + t.rejected, t.submitted);
    // Rejections should be roughly the overload excess (~2/3), not a
    // trickle and not everything.
    const double frac = static_cast<double>(t.rejected) /
                        static_cast<double>(t.submitted);
    EXPECT_GT(frac, 0.3);
    EXPECT_LT(frac, 0.9);
    setLogLevel(LogLevel::Warn);
}

TEST(OpenLoop, DeeperQueueTradesRejectionsForLatency)
{
    setLogLevel(LogLevel::Silent);
    const auto shallow =
        runServing(openLoopConfig(/*rho=*/2.0, /*depth=*/2));
    const auto deep =
        runServing(openLoopConfig(/*rho=*/2.0, /*depth=*/32));
    EXPECT_GT(shallow.tenants[0].rejected,
              deep.tenants[0].rejected);
    EXPECT_GT(deep.tenants[0].p95(), shallow.tenants[0].p95());
    setLogLevel(LogLevel::Warn);
}

TEST(OpenLoop, DeterministicAcrossRuns)
{
    const auto cfg = openLoopConfig(/*rho=*/0.8, /*depth=*/16);
    const auto a = runServing(cfg);
    const auto b = runServing(cfg);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.tenants[0].completed, b.tenants[0].completed);
    EXPECT_EQ(a.tenants[0].rejected, b.tenants[0].rejected);
    EXPECT_EQ(a.tenants[0].p99(), b.tenants[0].p99());
}

TEST(OpenLoop, EpochBoundaryStopConservesRequests)
{
    // An overloaded tenant stopped mid-run: every arrival that fired
    // is completed, rejected, or reported as carriable backlog, and
    // the run is measured over the epoch window.
    setLogLevel(LogLevel::Silent);
    auto cfg = openLoopConfig(/*rho=*/2.0, /*depth=*/16);
    cfg.stopAtCycles = 1e7;
    const auto r = runServing(cfg);
    const auto &t = r.tenants[0];
    EXPECT_GT(t.backlog.size(), 0u);
    EXPECT_EQ(t.completed + t.rejected + t.backlog.size(),
              t.submitted);
    EXPECT_TRUE(std::is_sorted(t.backlog.begin(), t.backlog.end()));
    for (Cycles stamp : t.backlog) {
        EXPECT_GE(stamp, 0.0);
        EXPECT_LT(stamp, cfg.stopAtCycles);
    }
    EXPECT_EQ(r.makespan, cfg.stopAtCycles);
    setLogLevel(LogLevel::Warn);
}

TEST(OpenLoop, CycleCapConservesRequests)
{
    // The runaway cap truncates the run mid-stream: every arrival of
    // the offered stream must still be accounted — completed,
    // rejected (including the tail the cap cut off before its
    // delivery event fired), or carriable backlog. Nothing leaks.
    setLogLevel(LogLevel::Silent);
    auto cfg = openLoopConfig(/*rho=*/2.0, /*depth=*/16);
    const std::uint64_t offered = cfg.tenants[0].arrivals.size();
    cfg.maxCycles = 1e6; // well inside the 3e7-cycle stream
    const auto r = runServing(cfg);
    const auto &t = r.tenants[0];
    EXPECT_EQ(t.submitted, offered);
    EXPECT_EQ(t.completed + t.rejected + t.backlog.size(),
              t.submitted);
    EXPECT_GT(t.rejected, 0u);
    EXPECT_LE(r.makespan, cfg.maxCycles);
    setLogLevel(LogLevel::Warn);
}

TEST(OpenLoop, BoundaryArrivalsAreExclusiveAndConsistent)
{
    // An arrival stamped exactly at stopAtCycles belongs to the next
    // epoch (exclusive boundary); one stamped exactly at maxCycles is
    // likewise outside the window, but — since the cap is a terminal
    // stop, not a hand-off — it is shed as submitted + rejected
    // rather than silently dropped.
    setLogLevel(LogLevel::Silent);
    auto base = openLoopConfig(/*rho=*/0.3, /*depth=*/16,
                               /*horizon=*/1e6);
    base.tenants[0].arrivals = {1e5, 5e5, 1e6}; // last on the line

    auto boundary = base;
    boundary.stopAtCycles = 1e6;
    const auto rb = runServing(boundary);
    // The boundary arrival was neither delivered nor counted: the
    // next epoch's slice will offer it (runFleet slices streams with
    // the same strict comparison).
    EXPECT_EQ(rb.tenants[0].submitted, 2u);
    EXPECT_EQ(rb.tenants[0].completed +
                  rb.tenants[0].rejected +
                  rb.tenants[0].backlog.size(),
              rb.tenants[0].submitted);

    auto capped = base;
    capped.maxCycles = 1e6;
    const auto rc = runServing(capped);
    // The capped run owns its whole stream: the on-the-line arrival
    // counts as offered and shed.
    EXPECT_EQ(rc.tenants[0].submitted, 3u);
    EXPECT_EQ(rc.tenants[0].rejected, 1u);
    EXPECT_EQ(rc.tenants[0].completed +
                  rc.tenants[0].rejected +
                  rc.tenants[0].backlog.size(),
              rc.tenants[0].submitted);
    setLogLevel(LogLevel::Warn);
}

TEST(OpenLoop, CapBelowEpochBoundaryIsACapStop)
{
    // When the runaway cap lies inside the epoch window, the cap —
    // not the boundary — ends the run: the window must not report
    // the unreached boundary, and the undelivered arrival tail is
    // shed as submitted + rejected like any capped run.
    setLogLevel(LogLevel::Silent);
    auto cfg = openLoopConfig(/*rho=*/0.3, /*depth=*/16,
                              /*horizon=*/1e6);
    cfg.tenants[0].arrivals = {1e5, 2.5e6};
    cfg.stopAtCycles = 2e6;
    cfg.maxCycles = 1e6;
    const auto r = runServing(cfg);
    EXPECT_LE(r.makespan, cfg.maxCycles);
    const auto &t = r.tenants[0];
    EXPECT_EQ(t.submitted, 2u);
    EXPECT_EQ(t.rejected, 1u); // the 2.5e6 arrival the cap cut off
    EXPECT_EQ(t.completed + t.rejected + t.backlog.size(),
              t.submitted);
    setLogLevel(LogLevel::Warn);
}

TEST(OpenLoop, CarriedBacklogIsServedNextEpoch)
{
    setLogLevel(LogLevel::Silent);
    auto first = openLoopConfig(/*rho=*/2.0, /*depth=*/16,
                                /*horizon=*/1e7);
    first.stopAtCycles = 1e7;
    const auto a = runServing(first);
    const std::vector<Cycles> carried = a.tenants[0].backlog;
    ASSERT_GT(carried.size(), 0u);

    // Second epoch: only the carried work, restamped relative to the
    // new origin. It bypasses admission and fully drains; waiting
    // across the boundary shows up in the latency tail.
    auto second = first;
    second.stopAtCycles = kCyclesInf;
    second.tenants[0].arrivals.clear();
    second.tenants[0].backlog.clear();
    for (Cycles stamp : carried)
        second.tenants[0].backlog.push_back(stamp - 1e7);
    const auto b = runServing(second);
    const auto &t = b.tenants[0];
    EXPECT_EQ(t.submitted, 0u); // carried work is not re-counted
    EXPECT_EQ(t.rejected, 0u);
    EXPECT_EQ(t.completed, carried.size());
    EXPECT_TRUE(t.backlog.empty());
    // Every carried request waited at least one full epoch.
    EXPECT_GE(t.latencyCycles.min(), 0.0);
    setLogLevel(LogLevel::Warn);
}

TEST(OpenLoop, StartOffsetHoldsSubmissionsAndCountsInLatency)
{
    auto cfg = openLoopConfig(/*rho=*/0.3, /*depth=*/64,
                              /*horizon=*/1e6);
    cfg.tenants[0].startOffsetCycles = 5e6;
    const auto r = runServing(cfg);
    const auto &t = r.tenants[0];
    EXPECT_EQ(t.completed, t.submitted);
    // Every request arrived before 1e6 but could only start at 5e6:
    // the hold is part of its latency.
    EXPECT_GE(t.latencyCycles.min(), 4e6);
}

// --------------------------------------------------------- fleet

FleetConfig
smallFleet(PlacementPolicy placement, unsigned tenants = 8,
           TrafficShape shape = TrafficShape::Poisson)
{
    FleetConfig cfg;
    cfg.numBoards = 2;          // 2 boards x 4 cores = 8 cores
    cfg.placement = placement;
    cfg.horizon = 2e7;
    cfg.maxCycles = 2e9;

    const ModelId models[] = {ModelId::Mnist, ModelId::Ncf};
    for (unsigned i = 0; i < tenants; ++i) {
        ClusterTenantSpec t;
        t.model = models[i % 2];
        t.batch = 8;
        t.eus = 4;
        t.traffic.shape = shape;
        t.traffic.ratePerSec = 4000.0;
        t.traffic.seed = 100 + i;
        t.sloCycles = 2e6;
        t.maxQueueDepth = 16;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

TEST(Fleet, EndToEndServesAndAccounts)
{
    const auto r = runFleet(smallFleet(PlacementPolicy::LoadBalanced));
    EXPECT_EQ(r.unplacedTenants, 0u);
    EXPECT_GT(r.submitted, 0u);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_GT(r.goodput, 0.0);
    EXPECT_LE(r.p50(), r.p95());
    EXPECT_LE(r.p95(), r.p99());
    EXPECT_EQ(r.latencyCycles.count(), r.completed);
    EXPECT_EQ(r.cores.size(), 8u);
    EXPECT_EQ(r.coreMeUtil.count(), 8u);

    // Per-core completion counts add up to the fleet total.
    std::uint64_t core_sum = 0;
    for (const auto &c : r.cores)
        core_sum += c.completed;
    EXPECT_EQ(core_sum, r.completed);
}

TEST(Fleet, DeterministicAcrossRuns)
{
    const auto cfg = smallFleet(PlacementPolicy::BestFit);
    const auto a = runFleet(cfg);
    const auto b = runFleet(cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.p99(), b.p99());
    for (size_t i = 0; i < a.placements.size(); ++i)
        EXPECT_EQ(a.placements[i].core, b.placements[i].core);
}

TEST(Fleet, PlacementRespectsCoreCapacity)
{
    for (auto policy :
         {PlacementPolicy::FirstFit, PlacementPolicy::BestFit,
          PlacementPolicy::LoadBalanced}) {
        const auto cfg = smallFleet(policy, /*tenants=*/12);
        const auto r = runFleet(cfg);
        const NpuCoreConfig core;
        std::vector<unsigned> mes(cfg.totalCores(), 0);
        std::vector<unsigned> ves(cfg.totalCores(), 0);
        std::vector<Bytes> hbm(cfg.totalCores(), 0);
        for (const auto &pl : r.placements) {
            if (!pl.placed())
                continue;
            ASSERT_LT(pl.core, cfg.totalCores());
            EXPECT_GE(pl.nMes, 1u);
            EXPECT_GE(pl.nVes, 1u);
            mes[pl.core] += pl.nMes;
            ves[pl.core] += pl.nVes;
            hbm[pl.core] += pl.hbmBytes;
        }
        for (CoreId c = 0; c < cfg.totalCores(); ++c) {
            EXPECT_LE(mes[c], core.numMes) << placementName(policy);
            EXPECT_LE(ves[c], core.numVes) << placementName(policy);
            EXPECT_LE(hbm[c], core.hbmBytes) << placementName(policy);
        }
    }
}

TEST(Fleet, OversizedTenantIsRejectedWholesale)
{
    auto cfg = smallFleet(PlacementPolicy::FirstFit, /*tenants=*/2);
    cfg.tenants[1].eus = 12; // cannot fit a 4ME/4VE core
    const auto r = runFleet(cfg);
    EXPECT_EQ(r.unplacedTenants, 1u);
    EXPECT_FALSE(r.placements[1].placed());
    EXPECT_GT(r.tenants[1].submitted, 0u);
    EXPECT_EQ(r.tenants[1].rejected, r.tenants[1].submitted);
    EXPECT_EQ(r.tenants[1].completed, 0u);
    // Tenant 0 is unaffected.
    EXPECT_GT(r.tenants[0].completed, 0u);
}

TEST(Fleet, PoliciesProduceDifferentPackings)
{
    // 4 light tenants on 8 cores: first-fit doubles them up on the
    // first cores, load-balanced spreads them out.
    const auto ff =
        runFleet(smallFleet(PlacementPolicy::FirstFit, 4));
    const auto lb =
        runFleet(smallFleet(PlacementPolicy::LoadBalanced, 4));
    auto occupied = [](const FleetResult &r) {
        unsigned n = 0;
        for (const auto &c : r.cores)
            n += c.tenants > 0;
        return n;
    };
    EXPECT_LT(occupied(ff), occupied(lb));

    // Imbalance shows in the per-core utilization spread.
    EXPECT_GT(ff.coreMeUtil.stddev(), lb.coreMeUtil.stddev());
}

TEST(Fleet, ThreadCountDoesNotChangeResults)
{
    // The tentpole determinism contract: per-core simulations run on
    // a host thread pool, and the outcome is bit-identical whether
    // one thread or many execute them.
    auto cfg = smallFleet(PlacementPolicy::LoadBalanced);
    cfg.threads = 1;
    const auto serial = runFleet(cfg);
    for (unsigned threads : {4u, 8u}) {
        cfg.threads = threads;
        const auto parallel = runFleet(cfg);
        EXPECT_EQ(serial.completed, parallel.completed);
        EXPECT_EQ(serial.submitted, parallel.submitted);
        EXPECT_EQ(serial.rejected, parallel.rejected);
        EXPECT_EQ(serial.sloMet, parallel.sloMet);
        EXPECT_EQ(serial.makespan, parallel.makespan);
        EXPECT_EQ(serial.p50(), parallel.p50());
        EXPECT_EQ(serial.p99(), parallel.p99());
        EXPECT_EQ(serial.goodput, parallel.goodput);
        ASSERT_EQ(serial.tenants.size(), parallel.tenants.size());
        for (size_t i = 0; i < serial.tenants.size(); ++i) {
            EXPECT_EQ(serial.tenants[i].completed,
                      parallel.tenants[i].completed);
            EXPECT_EQ(serial.tenants[i].p99(),
                      parallel.tenants[i].p99());
            EXPECT_EQ(serial.placements[i].core,
                      parallel.placements[i].core);
        }
        for (size_t c = 0; c < serial.cores.size(); ++c) {
            EXPECT_EQ(serial.cores[c].completed,
                      parallel.cores[c].completed);
            EXPECT_EQ(serial.cores[c].euUtil,
                      parallel.cores[c].euUtil);
        }
    }
}

/** The scenarios/fleet_{static,elastic}.scn pair at its smoke
 * horizon: 8 overloaded 2-EU tenants first-fit-stacked onto 2 of 8
 * cores, bursty traffic. */
FleetConfig
imbalancedFleet(unsigned epochs, unsigned threads = 1)
{
    FleetConfig cfg;
    cfg.numBoards = 2;
    cfg.placement = PlacementPolicy::FirstFit;
    cfg.horizon = 6e6;
    cfg.maxCycles = 50.0 * cfg.horizon;
    cfg.threads = threads;
    cfg.elastic.epochs = epochs;
    cfg.elastic.imbalanceThreshold = 0.05;
    const Cycles service =
        sizeVnpuForModel(ModelId::Mnist, 32, 2, cfg.board.core)
            .serviceEstimate();
    for (unsigned i = 0; i < 8; ++i) {
        ClusterTenantSpec t;
        t.model = ModelId::Mnist;
        t.batch = 32;
        t.eus = 2;
        t.traffic.shape = TrafficShape::Bursty;
        t.traffic.ratePerSec =
            1.2 * cfg.board.core.freqHz / service;
        t.traffic.seed = 42 + i;
        t.sloCycles = 5.0 * service;
        t.maxQueueDepth = 32;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

TEST(Fleet, ElasticRebalancingBeatsStaticUnderImbalance)
{
    // The ISSUE-3 acceptance scenario: under an imbalanced bursty
    // trace, epoch-based rebalancing must demonstrably improve the
    // fleet over the static placement — directionally on both tail
    // latency and goodput here, since the hot cores are saturated
    // while most of the fleet idles.
    const auto stat = runFleet(imbalancedFleet(/*epochs=*/1));
    const auto elas = runFleet(imbalancedFleet(/*epochs=*/8));
    EXPECT_GT(elas.migrations, 0u);
    EXPECT_LT(elas.p99(), stat.p99());
    EXPECT_GT(elas.goodput, stat.goodput);
    EXPECT_GT(elas.completed, stat.completed);
    // Spreading shows as a tighter cross-core utilization spread.
    EXPECT_LT(elas.coreEuUtil.stddev(), stat.coreEuUtil.stddev());
    // Migrated vNPUs actually moved and the books know it.
    unsigned moved = 0;
    for (const auto &pl : elas.placements)
        moved += pl.migrations;
    EXPECT_EQ(moved, elas.migrations);
    EXPECT_EQ(elas.epochReports.size(), 8u);
}

TEST(Fleet, ElasticRunIsDeterministicAndThreadInvariant)
{
    const auto a = runFleet(imbalancedFleet(/*epochs=*/6));
    const auto b = runFleet(imbalancedFleet(/*epochs=*/6));
    const auto c =
        runFleet(imbalancedFleet(/*epochs=*/6, /*threads=*/4));
    for (const auto *r : {&b, &c}) {
        EXPECT_EQ(a.completed, r->completed);
        EXPECT_EQ(a.rejected, r->rejected);
        EXPECT_EQ(a.migrations, r->migrations);
        EXPECT_EQ(a.p99(), r->p99());
        for (size_t i = 0; i < a.placements.size(); ++i) {
            EXPECT_EQ(a.placements[i].core, r->placements[i].core);
            EXPECT_EQ(a.placements[i].nMes, r->placements[i].nMes);
        }
    }
}

TEST(Fleet, MigrationStallLongerThanEpochConserves)
{
    // A migration stall exceeding the epoch window: the stalled
    // tenant's carried work and arrivals must survive in the host
    // queue across boundaries, not vanish into never-fired events.
    auto cfg = imbalancedFleet(/*epochs=*/8);
    cfg.elastic.migrationCostCycles = 2.0 * cfg.horizon / 8;
    const auto r = runFleet(cfg);
    EXPECT_GT(r.migrations, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.latencyCycles.count(), r.completed);
}

TEST(Fleet, EpochsAloneKeepAccountingConsistent)
{
    // Epoch splitting with rebalancing disabled (huge threshold):
    // request conservation and the per-epoch reports must hold.
    auto cfg = imbalancedFleet(/*epochs=*/4);
    cfg.elastic.imbalanceThreshold = 1e18;
    const auto r = runFleet(cfg);
    EXPECT_EQ(r.migrations, 0u);
    ASSERT_EQ(r.epochReports.size(), 4u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.latencyCycles.count(), r.completed);
    std::uint64_t epoch_sum = 0;
    for (const auto &er : r.epochReports) {
        epoch_sum += er.completed;
        EXPECT_EQ(er.migrations, 0u);
    }
    EXPECT_EQ(epoch_sum, r.completed);
    // The final (draining) epoch carries nothing out.
    EXPECT_EQ(r.epochReports.back().backlog, 0u);
}

TEST(Fleet, BoundaryArrivalIsDeliveredExactlyOnce)
{
    // A trace arrival landing exactly on an epoch boundary must be
    // handled once, by the *next* epoch (the exclusive-boundary
    // contract between runFleet's stream slicing and the serving
    // loop's stop): conservation holds and the offered-request count
    // matches the trace whether the horizon is split or not.
    auto make = [](unsigned epochs) {
        FleetConfig cfg;
        cfg.numBoards = 1;
        cfg.placement = PlacementPolicy::FirstFit;
        cfg.horizon = 8e6;
        cfg.maxCycles = 2e9;
        cfg.elastic.epochs = epochs;
        cfg.elastic.imbalanceThreshold = 1e18;

        ClusterTenantSpec t;
        t.model = ModelId::Mnist;
        t.batch = 8;
        t.eus = 4;
        t.traffic.shape = TrafficShape::Trace;
        // One arrival exactly at the 2-epoch boundary (4e6), plus
        // neighbors on both sides.
        t.traffic.trace = {1e6, 3.999e6, 4e6, 4.001e6, 6e6};
        t.sloCycles = kCyclesInf;
        t.maxQueueDepth = 16;
        cfg.tenants.push_back(t);
        return cfg;
    };

    const auto whole = runFleet(make(1));
    const auto split = runFleet(make(2));
    EXPECT_EQ(whole.submitted, 5u);
    EXPECT_EQ(split.submitted, 5u);
    EXPECT_EQ(whole.completed + whole.rejected, whole.submitted);
    EXPECT_EQ(split.completed + split.rejected, split.submitted);
    // Light load: nothing is shed either way, so the boundary
    // arrival demonstrably reached service in the split run too.
    EXPECT_EQ(whole.completed, 5u);
    EXPECT_EQ(split.completed, 5u);
}

TEST(Fleet, BurstyTrafficHurtsTails)
{
    // Same mean rate, burstier stream: the fleet's p99 should be no
    // better, and queue rejections should not decrease.
    auto poisson_cfg =
        smallFleet(PlacementPolicy::LoadBalanced, 8,
                   TrafficShape::Poisson);
    auto bursty_cfg =
        smallFleet(PlacementPolicy::LoadBalanced, 8,
                   TrafficShape::Bursty);
    for (auto *cfg : {&poisson_cfg, &bursty_cfg})
        for (auto &t : cfg->tenants) {
            t.traffic.ratePerSec = 12000.0;
            t.maxQueueDepth = 8;
        }
    const auto poisson = runFleet(poisson_cfg);
    const auto bursty = runFleet(bursty_cfg);
    EXPECT_GE(bursty.p99(), poisson.p99());
}

} // anonymous namespace
} // namespace neu10
