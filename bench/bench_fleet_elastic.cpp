/**
 * @file
 * Elastic rebalancing: a static fleet vs the epoch-based elastic
 * rebalancer on the same imbalanced, bursty workload.
 *
 * Loads the committed scenario pair scenarios/fleet_static.scn and
 * scenarios/fleet_elastic.scn (identical fleet, tenants, traffic and
 * seed; only [elastic] epochs differs). 8 tenants land on a 2-board
 * fleet by first-fit, which piles them onto the first cores while
 * the tail of the fleet idles; the traffic is bursty (MMPP-2). The
 * static run (epochs = 1) keeps that placement for the whole
 * horizon; the elastic run splits the horizon into epochs and
 * migrates vNPUs off the hot cores between epochs (charging every
 * move a migration cost through the hypervisor's destroy/create
 * hypercalls). The table shows the tail-latency and goodput effect;
 * the per-epoch log shows the rebalancer converging. The exit status
 * is 1 when the elastic run beats the static one on neither goodput
 * nor p99.
 *
 * NEU10_SEED / NEU10_SMOKE apply via scenario applyEnvOverrides.
 */

#include <cstdio>

#include "bench_util.hh"
#include "cluster/fleet.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

using namespace neu10;

namespace
{

Scenario
loadScenario(const char *path)
{
    Scenario s = loadScenarioFile(path);
    applyEnvOverrides(s);
    // This bench writes no trace, so NEU10_TRACE must not make it
    // record one.
    s.trace = TraceConfig{};
    return s;
}

void
row(const char *name, const FleetResult &r)
{
    std::printf("%-10s %8llu %7.1f%% %8llu %10.0f %10.3f %10.3f "
                "%6u\n",
                name, static_cast<unsigned long long>(r.completed),
                100.0 * r.rejectionRate(),
                static_cast<unsigned long long>(r.sloMet), r.goodput,
                bench::toMs(r.p99()), r.coreEuUtil.stddev(),
                r.migrations);
}

} // anonymous namespace

int
main()
{
    Scenario stat_scn, elas_scn;
    try {
        stat_scn = loadScenario(NEU10_SCENARIO_DIR "/fleet_static.scn");
        elas_scn = loadScenario(NEU10_SCENARIO_DIR "/fleet_elastic.scn");
    } catch (const FatalError &err) {
        bench::usageError(err);
    }

    bench::header(
        "Fleet elastic",
        csprintf("static vs elastic rebalancing, %u cores, %u "
                 "tenants (seed %llu)",
                 elas_scn.totalCores(), elas_scn.totalTenants(),
                 static_cast<unsigned long long>(elas_scn.seed)));

    const FleetResult stat = runFleet(toFleetConfig(stat_scn));
    const FleetResult elas = runFleet(toFleetConfig(elas_scn));

    std::printf("%-10s %8s %8s %8s %10s %10s %10s %6s\n", "engine",
                "served", "reject", "SLO-met", "goodput",
                "p99 (ms)", "EU-sd", "moves");
    bench::rule();
    row("static", stat);
    row("elastic", elas);

    std::printf("\nElastic epoch log (completions, carried backlog, "
                "migrations, cross-core pressure stddev):\n");
    for (const FleetEpochReport &er : elas.epochReports)
        std::printf("  epoch %u: %7llu done %6llu carried  %u "
                    "moves  imbalance %.3f\n",
                    er.epoch,
                    static_cast<unsigned long long>(er.completed),
                    static_cast<unsigned long long>(er.backlog),
                    er.migrations, er.pressureStddev);

    const double p99_gain =
        elas.p99() > 0 ? stat.p99() / elas.p99() : 0.0;
    const double goodput_gain =
        stat.goodput > 0 ? elas.goodput / stat.goodput : 0.0;
    const bool improved = p99_gain > 1.0 || goodput_gain > 1.0;
    std::printf("\nShape check: elastic rebalancing moved %u vNPUs "
                "off the first-fit hot cores and %s the static "
                "fleet — goodput %.2fx (%.0f -> %.0f req/s), p99 "
                "%.2fx (%.3f -> %.3f ms), rejections %.1f%% -> "
                "%.1f%%.\n",
                elas.migrations,
                improved ? "beats" : "DOES NOT BEAT",
                goodput_gain, stat.goodput, elas.goodput, p99_gain,
                bench::toMs(stat.p99()), bench::toMs(elas.p99()),
                100.0 * stat.rejectionRate(),
                100.0 * elas.rejectionRate());
    return improved ? 0 : 1;
}
