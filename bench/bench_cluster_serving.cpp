/**
 * @file
 * Cluster-scale open-loop serving: a multi-board fleet under Poisson
 * and bursty (MMPP-2) traffic, swept over placement policies.
 *
 * This is the capacity-planning view the paper's single-core §V
 * evaluation feeds into: 16 tenants rent allocator-sized vNPUs on a
 * 4-board x 4-core fleet; each tenant's request rate is calibrated to
 * a target utilization of its own vNPU (rho), so the fleet-level
 * outcome isolates what placement and traffic shape do to tails,
 * goodput and rejection rate.
 *
 * The fleet itself is declarative: this binary is a thin wrapper over
 * the scenario library (src/scenario, docs/SCENARIOS.md). The
 * canonical configuration lives in scenarios/cluster_first_fit.scn
 * and the sweep only varies placement, traffic shape and core policy
 * on top of the loaded file.
 *
 * Usage: bench_cluster_serving [placement] [core-policy]
 *   placement    first-fit | best-fit | load-balanced (default: all)
 *   core-policy  neu10 | neu10-nh | v10 | pmt   (default: neu10)
 * NEU10_SEED=<n> reseeds the traffic generators; NEU10_SMOKE=1
 * shrinks the horizon for CI (both via scenario applyEnvOverrides).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "cluster/fleet.hh"
#include "scenario/runner.hh"

using namespace neu10;

namespace
{

/** The canonical fleet (tenant mix, rates, SLOs, horizon): one
 * committed scenario file, shared with tools/neu10_run and the
 * golden test suite. */
const char *const kBaseScenario =
    NEU10_SCENARIO_DIR "/cluster_first_fit.scn";

/** One sweep point: the loaded scenario with placement, core policy
 * and traffic shape overridden. */
FleetConfig
sweepPoint(const Scenario &base, PlacementPolicy placement,
           PolicyKind core_policy, TrafficShape shape, bool traced)
{
    Scenario s = base;
    s.placement = placement;
    s.corePolicy = core_policy;
    for (ScenarioTenantGroup &g : s.groups)
        g.traffic.shape = shape;
    s.trace.enabled = traced;
    s.trace.metrics = traced;
    return toFleetConfig(s);
}

void
printFleetRow(const char *shape, const FleetResult &r)
{
    std::printf("%-14s %-8s %7llu %7llu %6.1f%% %8.0f %8.3f %8.3f "
                "%8.3f %6.1f%% %6.3f\n",
                r.placement.c_str(), shape,
                static_cast<unsigned long long>(r.submitted),
                static_cast<unsigned long long>(r.completed),
                100.0 * r.rejectionRate(), r.goodput,
                bench::toMs(r.p50()), bench::toMs(r.p95()),
                bench::toMs(r.p99()),
                100.0 * r.coreEuUtil.mean(),
                r.coreEuUtil.stddev());
}

void
printCoreMap(const FleetResult &r)
{
    std::vector<double> util;
    for (const auto &c : r.cores)
        util.push_back(c.euUtil);
    std::printf("  %-14s cores [%s]  (%u occupied, EU util "
                "sparkline)\n",
                r.placement.c_str(),
                bench::sparkline(util, 1.0).c_str(),
                [&] {
                    unsigned n = 0;
                    for (const auto &c : r.cores)
                        n += c.tenants > 0;
                    return n;
                }());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<PlacementPolicy> placements = {
        PlacementPolicy::FirstFit, PlacementPolicy::BestFit,
        PlacementPolicy::LoadBalanced};
    PolicyKind core_policy = PolicyKind::Neu10;
    Scenario base;
    try {
        base = loadScenarioFile(kBaseScenario);
        applyEnvOverrides(base);
        if (argc > 1)
            placements = {placementFromName(argv[1])};
        if (argc > 2)
            core_policy = policyFromName(argv[2]);
    } catch (const FatalError &err) {
        bench::usageError(err);
    }

    bench::header(
        "Cluster serving",
        csprintf("%u boards x 4 cores, %u tenants, open-loop "
                 "traffic, %s on-core scheduling (seed %llu)",
                 base.boards, base.totalTenants(),
                 policyName(core_policy).c_str(),
                 static_cast<unsigned long long>(base.seed)));

    std::printf("%-14s %-8s %7s %7s %7s %8s %8s %8s %8s %7s %6s\n",
                "placement", "shape", "arrive", "served", "reject",
                "goodput", "p50ms", "p95ms", "p99ms", "EU-avg",
                "EUsd");
    bench::rule();

    const TrafficShape shapes[] = {TrafficShape::Poisson,
                                   TrafficShape::Bursty};
    std::vector<FleetResult> poisson_runs;
    for (PlacementPolicy placement : placements) {
        for (TrafficShape shape : shapes) {
            // NEU10_TRACE=on (applied to the scenario by
            // applyEnvOverrides): record the first (canonical) run's
            // sim-time trace and epoch metrics.
            const bool traced = base.trace.enabled &&
                                placement == placements.front() &&
                                shape == TrafficShape::Poisson;
            const FleetResult r = runFleet(sweepPoint(
                base, placement, core_policy, shape, traced));
            if (traced)
                bench::writeTrace(
                    r.trace, r.metrics,
                    base.traceOut.empty()
                        ? "bench_cluster_serving.trace.json"
                        : base.traceOut,
                    base.board.core.freqHz);
            printFleetRow(trafficShapeName(shape).c_str(), r);
            if (shape == TrafficShape::Poisson)
                poisson_runs.push_back(r);
        }
    }

    std::printf("\nPer-core packing under Poisson traffic:\n");
    for (const FleetResult &r : poisson_runs)
        printCoreMap(r);

    if (poisson_runs.size() > 1) {
        const FleetResult &ff = poisson_runs.front();
        const FleetResult &lb = poisson_runs.back();
        std::printf("\nShape check: first-fit concentrates load "
                    "(per-core EU-util stddev %.3f) while "
                    "load-balanced spreads it (stddev %.3f) and "
                    "keeps the fleet p99 lowest; bursty arrivals "
                    "inflate p99 and rejections at equal mean "
                    "rate.\n",
                    ff.coreEuUtil.stddev(), lb.coreEuUtil.stddev());
    }
    return 0;
}
