/**
 * @file
 * End-to-end serving integration tests: the §V evaluation claims as
 * executable assertions. Each test runs collocated tenants under the
 * four designs and checks the paper's qualitative results — who wins,
 * in which direction, on which pair class — with safe margins.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "result_eq.hh"
#include "runtime/serving.hh"
#include "sched/neu10_policy.hh"

namespace neu10
{
namespace
{

ServingConfig
pairConfig(ModelId w1, unsigned b1, ModelId w2, unsigned b2,
           PolicyKind policy, unsigned min_requests = 8)
{
    ServingConfig cfg;
    cfg.policy = policy;
    cfg.tenants = {
        {w1, b1, 2, 2, 1.0, 1},
        {w2, b2, 2, 2, 1.0, 1},
    };
    cfg.minRequests = min_requests;
    cfg.maxCycles = 2e9;
    return cfg;
}

TEST(Serving, CompletesRequestsUnderEveryPolicy)
{
    for (auto pol : {PolicyKind::Pmt, PolicyKind::V10,
                     PolicyKind::Neu10NH, PolicyKind::Neu10}) {
        const auto r = runServing(pairConfig(
            ModelId::Dlrm, 32, ModelId::EfficientNet, 32, pol));
        EXPECT_GE(r.tenants[0].completed, 8u) << policyName(pol);
        EXPECT_GE(r.tenants[1].completed, 8u) << policyName(pol);
        EXPECT_GT(r.makespan, 0.0);
    }
}

TEST(Serving, DeterministicAcrossRuns)
{
    const auto cfg = pairConfig(ModelId::Ncf, 32, ModelId::ResNet, 32,
                                PolicyKind::Neu10);
    const auto a = runServing(cfg);
    const auto b = runServing(cfg);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.tenants[0].completed, b.tenants[0].completed);
    EXPECT_EQ(a.tenants[0].p95(), b.tenants[0].p95());
    EXPECT_EQ(a.meUsefulUtil, b.meUsefulUtil);
}

TEST(Serving, Fig21LowContentionSharingBeatsPmt)
{
    // §V-B: with complementary demands, V10 and Neu10 overlap ME- and
    // VE-intensive phases; PMT cannot. Paper: 1.58x / 1.62x average.
    const auto pmt = runServing(pairConfig(
        ModelId::Ncf, 32, ModelId::ResNet, 32, PolicyKind::Pmt));
    const auto v10 = runServing(pairConfig(
        ModelId::Ncf, 32, ModelId::ResNet, 32, PolicyKind::V10));
    const auto neu = runServing(pairConfig(
        ModelId::Ncf, 32, ModelId::ResNet, 32, PolicyKind::Neu10));
    for (int i : {0, 1}) {
        EXPECT_GT(v10.tenants[i].throughput,
                  1.3 * pmt.tenants[i].throughput) << i;
        EXPECT_GT(neu.tenants[i].throughput,
                  1.3 * pmt.tenants[i].throughput) << i;
    }
}

TEST(Serving, Fig19TailLatencyIsolationOnHighContention)
{
    // §V-B headline: Neu10 cuts p95 tail latency vs V10 by up to
    // 4.6x; the biggest gap is the high-contention small+large pair
    // (MNIST+RetinaNet), where V10's operator interference starves
    // the light tenant.
    const auto v10 = runServing(pairConfig(
        ModelId::Mnist, 32, ModelId::RetinaNet, 32, PolicyKind::V10,
        /*min_requests=*/4));
    const auto neu = runServing(pairConfig(
        ModelId::Mnist, 32, ModelId::RetinaNet, 32, PolicyKind::Neu10,
        /*min_requests=*/4));
    EXPECT_GT(v10.tenants[0].p95(), 2.0 * neu.tenants[0].p95());
}

TEST(Serving, Fig19PmtQuantumBoundsTailsButCostsThroughput)
{
    const auto pmt = runServing(pairConfig(
        ModelId::Mnist, 32, ModelId::RetinaNet, 32, PolicyKind::Pmt,
        4));
    const auto neu = runServing(pairConfig(
        ModelId::Mnist, 32, ModelId::RetinaNet, 32, PolicyKind::Neu10,
        4));
    // Neu10's spatial isolation gives the light tenant both better
    // tails and better throughput than whole-core time sharing.
    EXPECT_LT(neu.tenants[0].p95(), pmt.tenants[0].p95());
    EXPECT_GT(neu.tenants[0].throughput, pmt.tenants[0].throughput);
}

TEST(Serving, Fig21HarvestingBeatsStaticPartitioning)
{
    // Neu10 vs Neu10-NH (MIG-like): harvesting lifts the ME-heavy
    // tenant collocated with a VE-heavy one (low-contention pairs).
    const auto nh = runServing(pairConfig(
        ModelId::Dlrm, 32, ModelId::ShapeMask, 8, PolicyKind::Neu10NH));
    const auto neu = runServing(pairConfig(
        ModelId::Dlrm, 32, ModelId::ShapeMask, 8, PolicyKind::Neu10));
    EXPECT_GT(neu.tenants[1].throughput,
              1.4 * nh.tenants[1].throughput);
    // The harvested (VE-heavy) tenant keeps its throughput.
    EXPECT_GT(neu.tenants[0].throughput,
              0.9 * nh.tenants[0].throughput);
}

TEST(Serving, Fig22UtilizationOrdering)
{
    // §V-C: dynamic sharing (V10 / Neu10) keeps engines busier than
    // static partitioning (NH), which beats whole-core time sharing.
    const auto pmt = runServing(pairConfig(
        ModelId::Dlrm, 32, ModelId::ShapeMask, 8, PolicyKind::Pmt));
    const auto nh = runServing(pairConfig(
        ModelId::Dlrm, 32, ModelId::ShapeMask, 8, PolicyKind::Neu10NH));
    const auto neu = runServing(pairConfig(
        ModelId::Dlrm, 32, ModelId::ShapeMask, 8, PolicyKind::Neu10));
    EXPECT_GT(neu.meUsefulUtil, 1.1 * pmt.meUsefulUtil);
    EXPECT_GT(neu.meUsefulUtil, 1.1 * nh.meUsefulUtil);
    EXPECT_LE(neu.meUsefulUtil, 1.0 + 1e-9);
}

TEST(Serving, TableIIIHarvestOverheadSmallAndBounded)
{
    // Blocked-by-harvest time exists but stays far below the benefit
    // (paper: 0.01% - 10.6%, always outweighed).
    const auto neu = runServing(pairConfig(
        ModelId::Dlrm, 32, ModelId::ShapeMask, 8, PolicyKind::Neu10));
    for (const auto &t : neu.tenants) {
        EXPECT_GE(t.blockedFrac, 0.0);
        EXPECT_LT(t.blockedFrac, 0.15);
    }
    // NH never harvests, so it never blocks anyone on reclaim.
    const auto nh = runServing(pairConfig(
        ModelId::Dlrm, 32, ModelId::ShapeMask, 8, PolicyKind::Neu10NH));
    for (const auto &t : nh.tenants)
        EXPECT_DOUBLE_EQ(t.blockedFrac, 0.0);
}

TEST(Serving, OpTimingsCapturedPerRequest)
{
    auto cfg = pairConfig(ModelId::Mnist, 8, ModelId::EfficientNet, 8,
                          PolicyKind::Neu10, 4);
    cfg.captureOpTimings = true;
    const auto r = runServing(cfg);
    ASSERT_FALSE(r.tenants[0].opTimings.empty());
    const auto &ops = r.tenants[0].opTimings.front();
    ASSERT_FALSE(ops.empty());
    for (const auto &op : ops) {
        EXPECT_LE(op.start, op.end);
        EXPECT_GE(op.end, 0.0);
    }
}

TEST(Serving, AssignmentTraceCaptured)
{
    auto cfg = pairConfig(ModelId::Dlrm, 32, ModelId::RetinaNet, 32,
                          PolicyKind::Neu10, 4);
    cfg.captureAssignment = true;
    const auto r = runServing(cfg);
    // The ME-heavy tenant harvests beyond its 2 own engines at least
    // once (Fig. 24's dynamic assignment behaviour).
    EXPECT_GT(r.tenants[1].assignedMes.peak(), 2.0);
    EXPECT_LE(r.tenants[1].assignedMes.peak(), 4.0 + 1e-9);
}

TEST(Serving, PriorityWeightsShiftService)
{
    // Double-priority tenant completes more work under V10's
    // priority-based fairness than at equal priority.
    auto base = pairConfig(ModelId::ResNet, 32, ModelId::ResNetRs, 32,
                           PolicyKind::V10, 6);
    const auto equal = runServing(base);
    base.tenants[0].priority = 4.0;
    const auto boosted = runServing(base);
    EXPECT_GT(boosted.tenants[0].throughput /
                  boosted.tenants[1].throughput,
              equal.tenants[0].throughput /
                  equal.tenants[1].throughput);
}

TEST(Serving, TimeCapStopsRunaways)
{
    setLogLevel(LogLevel::Silent);
    auto cfg = pairConfig(ModelId::MaskRcnn, 8, ModelId::ShapeMask, 8,
                          PolicyKind::Pmt, 1000000);
    cfg.maxCycles = 5e7;
    const auto r = runServing(cfg);
    // The cap is exclusive: no event at or past it runs, so the
    // measured window cannot overshoot (it used to, by up to one
    // arbitrarily late event).
    EXPECT_LE(r.makespan, cfg.maxCycles);
    setLogLevel(LogLevel::Warn);
}

TEST(Serving, TimeCapYieldsWellFormedPartialResult)
{
    // A capped run must report a fully formed partial TenantResult:
    // finite (non-NaN) percentiles and rates even for a tenant that
    // completed nothing inside the cap.
    setLogLevel(LogLevel::Silent);
    auto cfg = pairConfig(ModelId::MaskRcnn, 8, ModelId::ShapeMask, 8,
                          PolicyKind::Pmt, 1000000);
    cfg.maxCycles = 1e6; // far too short for either model
    const auto r = runServing(cfg);
    EXPECT_LE(r.makespan, cfg.maxCycles);
    EXPECT_TRUE(std::isfinite(r.meUsefulUtil));
    EXPECT_TRUE(std::isfinite(r.veUtil));
    for (const auto &t : r.tenants) {
        EXPECT_TRUE(std::isfinite(t.p50())) << t.model;
        EXPECT_TRUE(std::isfinite(t.p95())) << t.model;
        EXPECT_TRUE(std::isfinite(t.p99())) << t.model;
        EXPECT_TRUE(std::isfinite(t.throughput)) << t.model;
        EXPECT_TRUE(std::isfinite(t.blockedFrac)) << t.model;
        EXPECT_EQ(t.latencyCycles.count(), t.completed) << t.model;
    }
    setLogLevel(LogLevel::Warn);
}

TEST(Serving, PolicyObjectOverloadMatchesPolicyKind)
{
    for (auto pol : {PolicyKind::Pmt, PolicyKind::V10,
                     PolicyKind::Neu10NH, PolicyKind::Neu10}) {
        SCOPED_TRACE(policyName(pol));
        const auto cfg = pairConfig(ModelId::Dlrm, 32,
                                    ModelId::ShapeMask, 8, pol, 4);
        const auto a = runServing(cfg);
        const auto b = runServing(cfg, makePolicy(pol));
        EXPECT_EQ(a.policy, b.policy);
        expectServingEq(a, b);
    }
}

TEST(Serving, HarvestingOffInBothDirectionsIsNoHarvest)
{
    // The harvest ablation's baseline: a harvesting Neu10Policy with
    // ME and VE harvesting both off is exactly Neu10-NH.
    auto cfg = pairConfig(ModelId::Dlrm, 32, ModelId::ShapeMask, 8,
                          PolicyKind::Neu10, 4);
    auto policy = std::make_unique<Neu10Policy>(/*harvest=*/true);
    policy->setHarvestMes(false);
    policy->setHarvestVes(false);
    const auto off = runServing(cfg, std::move(policy));
    cfg.policy = PolicyKind::Neu10NH;
    expectServingEq(off, runServing(cfg));
}

TEST(Serving, CompileForMatchesPolicyIsa)
{
    const TenantSpec spec{ModelId::ResNet, 8, 2, 2, 1.0, 1};
    const NpuCoreConfig core;
    EXPECT_TRUE(compileFor(spec, PolicyKind::Neu10, core).neuIsa);
    EXPECT_TRUE(compileFor(spec, PolicyKind::Neu10NH, core).neuIsa);
    EXPECT_FALSE(compileFor(spec, PolicyKind::V10, core).neuIsa);
    EXPECT_FALSE(compileFor(spec, PolicyKind::Pmt, core).neuIsa);
}

TEST(Serving, EvaluationPairListMatchesPaper)
{
    const auto &pairs = evaluationPairs();
    ASSERT_EQ(pairs.size(), 9u);
    EXPECT_STREQ(pairs[0].label, "DLRM+SMask");
    EXPECT_STREQ(pairs[8].label, "RNRS+RtNt");
    int low = 0, medium = 0, high = 0;
    for (const auto &p : pairs) {
        if (std::string(p.contention) == "low")
            ++low;
        else if (std::string(p.contention) == "medium")
            ++medium;
        else
            ++high;
        // MRCNN and SMask run at batch 8, everything else 32 (§V-A).
        for (auto [m, b] : {std::pair{p.w1, p.batch1},
                            std::pair{p.w2, p.batch2}}) {
            if (m == ModelId::MaskRcnn || m == ModelId::ShapeMask)
                EXPECT_EQ(b, 8u);
            else
                EXPECT_EQ(b, 32u);
        }
    }
    EXPECT_EQ(low, 3);
    EXPECT_EQ(medium, 3);
    EXPECT_EQ(high, 3);
}

} // anonymous namespace
} // namespace neu10
