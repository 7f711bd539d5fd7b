/**
 * @file
 * Resilience under hardware faults: failover-aware fleet serving vs.
 * the fail-and-forget baseline.
 *
 * Part 1 — the acceptance scenario: a 4-board x 4-core fleet serves
 * 16 load-balanced tenants when board 1 drops off the fabric at 30%
 * of the horizon and never returns. The same seeded traffic and the
 * same fault trace run twice: with the failover controller off (dead
 * tenants are abandoned; every later request of theirs is lost) and
 * on (their admitted work is checkpointed, their vNPUs re-created on
 * surviving cores through the destroy + pinned-create hypercall
 * path, arrivals held through the outage delivered late). The table
 * compares served/lost/recovered counts, goodput, p99 and
 * availability; the shape check asserts the failover run recovers
 * >= 90% of the requests the baseline lost — deterministically for
 * the given seed — and the exit status is 1 when it does not.
 *
 * Part 2 — fault-rate sweep: a seeded stochastic fault trace
 * (transient MMIO/DMA retries, core stalls, board losses with
 * repair) at increasing intensity, failover always on. Shows
 * goodput, p99, MTTR and availability degrading gracefully as MTBF
 * shrinks — the capacity-planning view of "how much hardware
 * unreliability can this fleet absorb".
 *
 * The fleet, tenant mix and fault trace are declarative: this binary
 * is a thin wrapper over the scenario library (src/scenario,
 * docs/SCENARIOS.md) loading scenarios/resilience_board_loss.scn;
 * part 1 flips its failover flag, part 2 swaps its fault line for
 * generated traces.
 *
 * Usage: bench_resilience [epochs]
 *   epochs  serving epochs (failover granularity; default 10)
 * NEU10_SEED=<n> reseeds traffic and the part-2 fault traces;
 * NEU10_SMOKE=1 shrinks the horizon for CI (both via scenario
 * applyEnvOverrides).
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hh"
#include "cluster/fleet.hh"
#include "resilience/faults.hh"
#include "scenario/runner.hh"

using namespace neu10;

namespace
{

/** The acceptance fleet + board-loss fault trace, as a committed
 * scenario file shared with tools/neu10_run and the golden test
 * suite. */
const char *const kBaseScenario =
    NEU10_SCENARIO_DIR "/resilience_board_loss.scn";

void
row(const char *name, const FleetResult &r)
{
    std::printf("%-12s %8llu %8llu %7llu %7llu %9llu %10.0f %9.3f "
                "%7.1f%% %8.2f\n",
                name,
                static_cast<unsigned long long>(r.submitted),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.lostRequests),
                static_cast<unsigned long long>(r.recoveredRequests),
                static_cast<unsigned long long>(r.sloMet),
                r.goodput, bench::toMs(r.p99()),
                100.0 * r.availability, bench::toMs(r.mttrCycles));
}

/** Part 1; returns whether the failover run passed the recovery
 * check. */
bool
partBoardLoss(const Scenario &scn)
{
    auto variant = [&](bool failover) {
        Scenario s = scn;
        s.failover = failover;
        // NEU10_TRACE=on: record the failover run — board loss,
        // quarantine, checkpoint/restore and the hypercall churn are
        // all reconstructable from the trace alone.
        const bool traced = failover && scn.trace.enabled;
        s.trace.enabled = traced;
        s.trace.metrics = traced;
        return runFleet(toFleetConfig(s));
    };
    const FleetResult base = variant(false);
    const FleetResult fo = variant(true);
    if (scn.trace.enabled)
        bench::writeTrace(fo.trace, fo.metrics,
                          scn.traceOut.empty()
                              ? "bench_resilience.trace.json"
                              : scn.traceOut,
                          scn.board.core.freqHz);

    std::printf("Part 1: board 1 lost at 30%% of the horizon, never "
                "repaired — %u cores, %u tenants, %u epochs\n",
                scn.totalCores(), scn.totalTenants(),
                scn.elastic.epochs);
    std::printf("%-12s %8s %8s %7s %7s %9s %10s %9s %8s %8s\n",
                "engine", "arrived", "served", "lost", "recov",
                "SLO-met", "goodput", "p99 (ms)", "avail",
                "MTTR(ms)");
    bench::rule();
    row("no-failover", base);
    row("failover", fo);

    std::printf("\nFailover epoch log (failures detected / vNPUs "
                "restored / migrations):\n");
    for (const FleetEpochReport &er : fo.epochReports)
        if (er.failures || er.restores || er.migrations)
            std::printf("  epoch %u: %u failed  %u restored  %u "
                        "migrations\n",
                        er.epoch, er.failures, er.restores,
                        er.migrations);

    const double lost_base = static_cast<double>(base.lostRequests);
    const double recovered =
        lost_base > 0
            ? 1.0 - static_cast<double>(fo.lostRequests) / lost_base
            : 0.0;
    const bool ok = recovered >= 0.9;
    std::printf("\nShape check: the no-failover fleet lost %llu "
                "requests to the dead board; failover lost %llu — "
                "it %s %.1f%% of them (acceptance: >= 90%%) and "
                "served %.2fx the baseline's completions under "
                "identical faults. The outage surfaces as tail "
                "latency (p99 %.3f -> %.3f ms), not dropped "
                "traffic; availability %.1f%%, MTTR %.2f ms.\n",
                static_cast<unsigned long long>(base.lostRequests),
                static_cast<unsigned long long>(fo.lostRequests),
                ok ? "recovered" : "FAILED TO RECOVER",
                100.0 * recovered,
                base.completed > 0
                    ? static_cast<double>(fo.completed) /
                          static_cast<double>(base.completed)
                    : 0.0,
                bench::toMs(base.p99()), bench::toMs(fo.p99()),
                100.0 * fo.availability,
                bench::toMs(fo.mttrCycles));
    return ok;
}

void
partFaultSweep(const Scenario &scn)
{
    // Part 2 reuses the scenario's fleet and traffic without the
    // board-loss line or tracing; each sweep point injects its own
    // generated fault trace instead.
    Scenario clean = scn;
    clean.faults.clear();
    clean.trace = TraceConfig{};
    const FleetConfig proto = toFleetConfig(clean);
    const FleetTopology topo{proto.numBoards,
                             proto.board.totalCores()};
    const Cycles horizon = clean.effectiveHorizon();
    const double horizon_sec = horizon / proto.board.core.freqHz;
    const std::uint64_t seed = scn.seed;

    // Fault intensity: MTBFs expressed as fractions of the horizon
    // so the sweep is horizon-independent. "1x" means roughly one
    // core stall per core and one board loss somewhere per run.
    std::vector<double> intensities = {0.0, 0.5, 1.0, 2.0, 4.0};
    if (scn.smoke && intensities.size() > 3)
        intensities.resize(3);

    std::printf("\nPart 2: stochastic fault sweep (failover on) — "
                "transients + core stalls + board losses w/ repair\n");
    std::printf("%-10s %7s %7s %7s %8s %10s %9s %8s %8s\n",
                "intensity", "faults", "failov", "lost", "served",
                "goodput", "p99 (ms)", "avail", "MTTR(ms)");
    bench::rule();
    for (double x : intensities) {
        FleetConfig cfg = proto;
        if (x > 0.0) {
            FaultSpec spec;
            spec.seed = seed * 31 + 7;
            spec.transientMmioMtbfSec = horizon_sec / (2.0 * x);
            spec.transientDmaMtbfSec = horizon_sec / (2.0 * x);
            spec.transientCostSec = 2e-5;
            spec.coreStallMtbfSec = horizon_sec / x;
            spec.coreStallMeanSec = 0.05 * horizon_sec;
            spec.boardLossMtbfSec =
                horizon_sec * topo.totalCores() /
                (x * topo.numBoards);
            spec.boardRepairMeanSec = 0.2 * horizon_sec;
            cfg.resilience.faults = generateFaultTrace(
                spec, topo, horizon, proto.board.core.freqHz);
        }
        const FleetResult r = runFleet(cfg);
        std::printf("%-9.1fx %7u %7u %7llu %8llu %10.0f %9.3f "
                    "%7.1f%% %8.2f\n",
                    x, r.faultsInjected, r.failovers,
                    static_cast<unsigned long long>(r.lostRequests),
                    static_cast<unsigned long long>(r.completed),
                    r.goodput, bench::toMs(r.p99()),
                    100.0 * r.availability,
                    bench::toMs(r.mttrCycles));
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Scenario base;
    try {
        base = loadScenarioFile(kBaseScenario);
        applyEnvOverrides(base);
    } catch (const FatalError &err) {
        bench::usageError(err);
    }
    if (argc > 1)
        base.elastic.epochs = static_cast<unsigned>(
            std::strtoul(argv[1], nullptr, 10));
    if (base.elastic.epochs < 2) {
        std::fprintf(stderr, "failover needs >= 2 epochs; using 2\n");
        base.elastic.epochs = 2;
    }

    bench::header(
        "Resilience",
        csprintf("fault injection + vNPU failover (seed %llu)",
                 static_cast<unsigned long long>(base.seed)));

    const bool recovered = partBoardLoss(base);
    partFaultSweep(base);
    return recovered ? 0 : 1;
}
