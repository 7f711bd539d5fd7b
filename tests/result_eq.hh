/**
 * @file
 * Exact-equality comparators for fleet and serving results, used by
 * every determinism and thread-invariance test (test_cluster,
 * test_resilience, test_llm, test_serving, test_race_stress) and the
 * policy-object tests of runServing (test_serving).
 *
 * "Equal" here is literal: every counter, every stamp, every latency
 * sample and every derived double is compared with exact equality,
 * no tolerances. Two runs that are supposed to describe the same
 * experiment must produce bit-identical results; anything less means
 * the two paths have silently drifted apart.
 */

#ifndef NEU10_TESTS_RESULT_EQ_HH
#define NEU10_TESTS_RESULT_EQ_HH

#include <gtest/gtest.h>

#include <cstddef>

#include "cluster/fleet.hh"
#include "runtime/serving.hh"

namespace neu10
{

inline void
expectSamplesEq(const Distribution &a, const Distribution &b,
                const char *what)
{
    ASSERT_EQ(a.count(), b.count()) << what;
    for (size_t i = 0; i < a.samples().size(); ++i)
        ASSERT_EQ(a.samples()[i], b.samples()[i]) << what
            << " sample " << i;
    EXPECT_EQ(a.sum(), b.sum()) << what;
}

inline void
expectLlmEq(const LlmEndpointStats &a, const LlmEndpointStats &b)
{
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.prefills, b.prefills);
    EXPECT_EQ(a.decodeIterations, b.decodeIterations);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.kvPages, b.kvPages);
    EXPECT_EQ(a.kvPageHighWater, b.kvPageHighWater);
    EXPECT_EQ(a.kvAllocOps, b.kvAllocOps);
    EXPECT_EQ(a.kvFreeOps, b.kvFreeOps);
    EXPECT_EQ(a.kvFailedAllocs, b.kvFailedAllocs);
    EXPECT_EQ(a.kvOccupancyMean, b.kvOccupancyMean);
    EXPECT_EQ(a.kvFragMean, b.kvFragMean);
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    expectSamplesEq(a.ttftCycles, b.ttftCycles, "ttft");
}

inline void
expectTenantEq(const TenantResult &a, const TenantResult &b,
               size_t idx)
{
    SCOPED_TRACE(::testing::Message() << "tenant " << idx);
    expectLlmEq(a.llm, b.llm);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.sloMet, b.sloMet);
    EXPECT_EQ(a.reclaims, b.reclaims);
    EXPECT_EQ(a.lostRequests, b.lostRequests);
    EXPECT_EQ(a.recoveredRequests, b.recoveredRequests);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.downtimeCycles, b.downtimeCycles);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.goodput, b.goodput);
    EXPECT_EQ(a.blockedFrac, b.blockedFrac);
    expectSamplesEq(a.latencyCycles, b.latencyCycles, "latency");
    ASSERT_EQ(a.backlog.size(), b.backlog.size());
    for (size_t i = 0; i < a.backlog.size(); ++i)
        ASSERT_EQ(a.backlog[i], b.backlog[i]) << "backlog " << i;
}

/** Everything but ServingResult::policy, which names
 * ServingConfig::policy rather than the policy object that ran. */
inline void
expectServingEq(const ServingResult &a, const ServingResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.meUsefulUtil, b.meUsefulUtil);
    EXPECT_EQ(a.meHeldUtil, b.meHeldUtil);
    EXPECT_EQ(a.veUtil, b.veUtil);
    EXPECT_EQ(a.avgHbmBytesPerCycle, b.avgHbmBytesPerCycle);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (size_t i = 0; i < a.tenants.size(); ++i)
        expectTenantEq(a.tenants[i], b.tenants[i], i);
}

inline void
expectFleetEq(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.sloMet, b.sloMet);
    EXPECT_EQ(a.unplacedTenants, b.unplacedTenants);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.transientFaults, b.transientFaults);
    EXPECT_EQ(a.coreFailures, b.coreFailures);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.lostRequests, b.lostRequests);
    EXPECT_EQ(a.recoveredRequests, b.recoveredRequests);
    EXPECT_EQ(a.downtimeCycles, b.downtimeCycles);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.mttrCycles, b.mttrCycles);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.goodput, b.goodput);
    expectSamplesEq(a.latencyCycles, b.latencyCycles, "fleet latency");
    expectSamplesEq(a.coreMeUtil, b.coreMeUtil, "core ME util");
    expectSamplesEq(a.coreEuUtil, b.coreEuUtil, "core EU util");

    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (size_t i = 0; i < a.placements.size(); ++i) {
        EXPECT_EQ(a.placements[i].core, b.placements[i].core) << i;
        EXPECT_EQ(a.placements[i].nMes, b.placements[i].nMes) << i;
        EXPECT_EQ(a.placements[i].nVes, b.placements[i].nVes) << i;
        EXPECT_EQ(a.placements[i].hbmBytes, b.placements[i].hbmBytes)
            << i;
        EXPECT_EQ(a.placements[i].load, b.placements[i].load) << i;
        EXPECT_EQ(a.placements[i].migrations,
                  b.placements[i].migrations) << i;
    }
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].core, b.cores[c].core) << c;
        EXPECT_EQ(a.cores[c].board, b.cores[c].board) << c;
        EXPECT_EQ(a.cores[c].tenants, b.cores[c].tenants) << c;
        EXPECT_EQ(a.cores[c].completed, b.cores[c].completed) << c;
        EXPECT_EQ(a.cores[c].makespan, b.cores[c].makespan) << c;
        EXPECT_EQ(a.cores[c].meUsefulUtil, b.cores[c].meUsefulUtil)
            << c;
        EXPECT_EQ(a.cores[c].veUtil, b.cores[c].veUtil) << c;
        EXPECT_EQ(a.cores[c].euUtil, b.cores[c].euUtil) << c;
        EXPECT_EQ(a.cores[c].downCycles, b.cores[c].downCycles) << c;
    }
    ASSERT_EQ(a.epochReports.size(), b.epochReports.size());
    for (size_t e = 0; e < a.epochReports.size(); ++e) {
        EXPECT_EQ(a.epochReports[e].completed,
                  b.epochReports[e].completed) << e;
        EXPECT_EQ(a.epochReports[e].backlog,
                  b.epochReports[e].backlog) << e;
        EXPECT_EQ(a.epochReports[e].migrations,
                  b.epochReports[e].migrations) << e;
        EXPECT_EQ(a.epochReports[e].failures,
                  b.epochReports[e].failures) << e;
        EXPECT_EQ(a.epochReports[e].restores,
                  b.epochReports[e].restores) << e;
        EXPECT_EQ(a.epochReports[e].pressureStddev,
                  b.epochReports[e].pressureStddev) << e;
    }
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (size_t i = 0; i < a.tenants.size(); ++i)
        expectTenantEq(a.tenants[i], b.tenants[i], i);
}

} // namespace neu10

#endif // NEU10_TESTS_RESULT_EQ_HH
