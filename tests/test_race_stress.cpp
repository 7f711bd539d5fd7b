/**
 * @file
 * Concurrency stress suite for the host-parallel layers, written to
 * run under ThreadSanitizer (the `tsan` CI cell builds everything
 * with -fsanitize=thread and runs these alongside the fast, perf and
 * cluster labels with NEU10_FLEET_THREADS forcing real width).
 *
 * The tests are meaningful without TSan too — they assert the
 * determinism contract (bit-identical results at any thread width)
 * while deliberately hammering every shared structure: the
 * ThreadPool job dispenser, the fleet epoch collector, the logging
 * level knob, and compiled programs shared read-only across worker
 * threads. Under TSan any unsynchronized access on those paths
 * becomes a hard failure instead of a latent heisenbug.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "resilience/faults.hh"
#include "result_eq.hh"
#include "runtime/serving.hh"
#include "vnpu/allocator.hh"

namespace neu10
{
namespace
{

constexpr unsigned kWidth = 8; ///< forced pool width (> any CI core cap)

TEST(RaceStress, ParallelForDisjointSlotsAndSharedCounter)
{
    ThreadPool pool(kWidth);
    for (int round = 0; round < 50; ++round) {
        const std::size_t n = 256;
        std::vector<std::uint64_t> slot(n, 0);
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(n, [&](std::size_t i) {
            slot[i] = i * i + round;
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), n * (n - 1) / 2);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(slot[i], i * i + round);
    }
}

TEST(RaceStress, ExceptionsUnderContentionLeavePoolUsable)
{
    ThreadPool pool(kWidth);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> ran{0};
        EXPECT_THROW(
            pool.parallelFor(128,
                             [&](std::size_t i) {
                                 ran.fetch_add(1,
                                               std::memory_order_relaxed);
                                 if (i % 3 == 0)
                                     throw std::runtime_error("boom");
                             }),
            std::runtime_error);
        // Every index was drained even though a third of them threw.
        EXPECT_EQ(ran.load(), 128);
        // The pool survives for the next job.
        std::atomic<int> ok{0};
        pool.parallelFor(kWidth, [&](std::size_t) {
            ok.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(ok.load(), static_cast<int>(kWidth));
    }
}

TEST(RaceStress, BackToBackJobsReuseOnePool)
{
    // Tiny jobs back to back exercise the publish/claim/clear
    // hand-off of the job state far more than one big job does.
    ThreadPool pool(kWidth);
    for (int job = 0; job < 200; ++job) {
        std::atomic<int> count{0};
        pool.parallelFor(16, [&](std::size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(count.load(), 16);
    }
}

TEST(RaceStress, PoolConstructionTeardownChurn)
{
    for (int round = 0; round < 30; ++round) {
        ThreadPool pool(4);
        std::atomic<int> count{0};
        pool.parallelFor(64, [&](std::size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(count.load(), 64);
        // Destructor races the stop flag against sleeping workers.
    }
}

TEST(RaceStress, LogLevelToggledWhileWorkersLog)
{
    // inform() is suppressed at both toggled levels, so the test is
    // silent — but every call still reads the level knob while the
    // toggler writes it, which is exactly the torn-access surface
    // the atomic in common/logging.cc exists for.
    const LogLevel before = logLevel();
    std::atomic<bool> stop{false};
    std::thread toggler([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            setLogLevel(LogLevel::Silent);
            setLogLevel(LogLevel::Warn);
        }
    });
    ThreadPool pool(kWidth);
    pool.parallelFor(5000, [&](std::size_t i) {
        inform("race stress message %zu", i);
        (void)logLevel();
    });
    stop.store(true, std::memory_order_relaxed);
    toggler.join();
    setLogLevel(before);
}

TEST(RaceStress, ConcurrentServingRunsShareOneCompiledProgram)
{
    // Per-core epoch runs in a fleet share read-only compiled
    // programs across worker threads; model that directly with one
    // program driven by eight concurrent runServing calls.
    const NpuCoreConfig core;
    TenantSpec ts;
    ts.model = ModelId::Mnist;
    ts.batch = 8;
    ts.nMes = 2;
    ts.nVes = 2;
    const CompiledModel program =
        compileFor(ts, PolicyKind::Neu10, core);
    ts.program = &program;

    auto makeConfig = [&] {
        ServingConfig cfg;
        cfg.core = core;
        cfg.policy = PolicyKind::Neu10;
        cfg.minRequests = 8;
        cfg.tenants = {ts, ts};
        return cfg;
    };
    const ServingResult reference = runServing(makeConfig());

    ThreadPool pool(kWidth);
    std::vector<ServingResult> results(kWidth);
    pool.parallelFor(kWidth, [&](std::size_t k) {
        results[k] = runServing(makeConfig());
    });
    for (const ServingResult &r : results) {
        ASSERT_EQ(r.tenants.size(), reference.tenants.size());
        EXPECT_EQ(r.makespan, reference.makespan);
        for (size_t i = 0; i < r.tenants.size(); ++i) {
            EXPECT_EQ(r.tenants[i].completed,
                      reference.tenants[i].completed);
            EXPECT_EQ(r.tenants[i].latencyCycles.sum(),
                      reference.tenants[i].latencyCycles.sum());
        }
    }
}

/** Faulted + elastic fleet: every concurrent subsystem at once. */
FleetConfig
stressFleetConfig()
{
    FleetConfig cfg;
    cfg.numBoards = 2;
    cfg.placement = PlacementPolicy::LoadBalanced;
    cfg.horizon = 4e6;
    cfg.elastic.epochs = 4;
    cfg.elastic.imbalanceThreshold = 0.05;
    cfg.elastic.maxMigrationsPerEpoch = 4;
    cfg.resilience.failover = true;
    cfg.resilience.recoveryStallCycles = 1e5;
    FaultEvent loss;
    loss.at = 1.6e6;
    loss.kind = FaultKind::BoardLoss;
    loss.board = 0;
    loss.durationCycles = kCyclesInf;
    cfg.resilience.faults = {loss};

    const Cycles service =
        sizeVnpuForModel(ModelId::Mnist, 8, 2, cfg.board.core)
            .serviceEstimate();
    for (unsigned i = 0; i < 8; ++i) {
        ClusterTenantSpec t;
        t.model = ModelId::Mnist;
        t.batch = 8;
        t.eus = 2;
        t.traffic.shape = TrafficShape::Bursty;
        t.traffic.ratePerSec = 0.5 * cfg.board.core.freqHz / service;
        t.traffic.seed = 300 + i;
        t.sloCycles = 10.0 * service;
        t.maxQueueDepth = 64;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

TEST(RaceStress, FaultedElasticFleetBitIdenticalAtMaxWidth)
{
    FleetConfig cfg = stressFleetConfig();
    cfg.threads = 1;
    const FleetResult serial = runFleet(cfg);
    cfg.threads = kWidth;
    const FleetResult wide = runFleet(cfg);
    expectFleetEq(serial, wide);
    EXPECT_GT(wide.failovers, 0u);
    EXPECT_EQ(wide.completed + wide.rejected, wide.submitted);
}

TEST(RaceStress, FleetThreadsEnvOverrideForcesWidth)
{
    FleetConfig cfg = stressFleetConfig();
    cfg.threads = 1;
    const FleetResult baseline = runFleet(cfg);

    // The override reroutes the nominally serial run through the
    // pool; results must not move.
    ASSERT_EQ(setenv("NEU10_FLEET_THREADS", "5", 1), 0);
    const FleetResult forced = runFleet(cfg);
    expectFleetEq(baseline, forced);

    // Hardened env parsing applies to the override too.
    ASSERT_EQ(setenv("NEU10_FLEET_THREADS", "many", 1), 0);
    EXPECT_THROW(runFleet(cfg), FatalError);
    ASSERT_EQ(unsetenv("NEU10_FLEET_THREADS"), 0);
}

} // anonymous namespace
} // namespace neu10
