/**
 * @file
 * Figs. 19, 20, 21: tail latency, average latency, and throughput of
 * the nine collocated workload pairs under PMT, V10, Neu10-NH and
 * Neu10 — the paper's headline evaluation. Values are normalized to
 * PMT, as in the figures.
 *
 * Every cell is scenarios/paper_closed_loop_bert_enet.scn (the §V-A
 * closed-loop methodology) with only the core policy and the two
 * tenants' model and batch replaced.
 */

#include <cstdio>

#include "bench_util.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

using namespace neu10;

namespace
{

struct Row
{
    ServingResult res[4];
};

const PolicyKind kPolicies[4] = {PolicyKind::Pmt, PolicyKind::V10,
                                 PolicyKind::Neu10NH, PolicyKind::Neu10};

Row
runPair(const Scenario &cell, const WorkloadPair &pair)
{
    Scenario s = cell;
    s.groups[0].model = pair.w1;
    s.groups[0].batch = pair.batch1;
    s.groups[1].model = pair.w2;
    s.groups[1].batch = pair.batch2;
    Row row;
    for (int p = 0; p < 4; ++p) {
        s.corePolicy = kPolicies[p];
        row.res[p] = runServing(toServingConfig(s));
    }
    return row;
}

} // anonymous namespace

int
main()
{
    Scenario cell;
    try {
        cell = loadScenarioFile(NEU10_SCENARIO_DIR
                                "/paper_closed_loop_bert_enet.scn");
        applyEnvOverrides(cell);
        if (cell.groups.size() != 2 || cell.totalTenants() != 2)
            fatal("%s: a workload-pair cell needs exactly two "
                  "single-tenant groups", cell.file.c_str());
    } catch (const FatalError &err) {
        bench::usageError(err);
    }

    auto pairs = evaluationPairs();
    if (cell.smoke && pairs.size() > 2)
        pairs.resize(2);
    std::vector<Row> rows;
    for (const auto &pair : pairs)
        rows.push_back(runPair(cell, pair));

    bench::header("Figure 19", "95th-percentile latency, normalized "
                               "to PMT (lower is better)");
    std::printf("%-12s %-5s %8s %8s %8s %8s\n", "Pair", "W", "PMT",
                "V10", "NH", "Neu10");
    bench::rule();
    double worst_ratio = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
        for (int w = 0; w < 2; ++w) {
            const double pmt = rows[i].res[0].tenants[w].p95();
            std::printf("%-12s W%-4d %8.2f %8.2f %8.2f %8.2f\n",
                        pairs[i].label, w + 1, 1.0,
                        rows[i].res[1].tenants[w].p95() / pmt,
                        rows[i].res[2].tenants[w].p95() / pmt,
                        rows[i].res[3].tenants[w].p95() / pmt);
            worst_ratio = std::max(
                worst_ratio, rows[i].res[1].tenants[w].p95() /
                                 rows[i].res[3].tenants[w].p95());
        }
    }
    std::printf("Max V10/Neu10 tail-latency ratio: %.2fx (paper: up "
                "to 4.6x)\n\n", worst_ratio);

    bench::header("Figure 19 (suppl.)", "latency percentiles under "
                                        "Neu10, milliseconds");
    std::printf("%-12s %-5s %10s %10s %10s\n", "Pair", "W", "p50",
                "p95", "p99");
    bench::rule();
    for (size_t i = 0; i < rows.size(); ++i) {
        for (int w = 0; w < 2; ++w) {
            const auto &t = rows[i].res[3].tenants[w];
            std::printf("%-12s W%-4d %10.3f %10.3f %10.3f\n",
                        pairs[i].label, w + 1, bench::toMs(t.p50()),
                        bench::toMs(t.p95()), bench::toMs(t.p99()));
        }
    }
    std::printf("\n");

    bench::header("Figure 20", "average request latency, normalized "
                               "to PMT (lower is better)");
    std::printf("%-12s %-5s %8s %8s %8s %8s\n", "Pair", "W", "PMT",
                "V10", "NH", "Neu10");
    bench::rule();
    double v10_gain = 0.0, pmt_gain = 0.0;
    int n = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        for (int w = 0; w < 2; ++w) {
            const double pmt =
                rows[i].res[0].tenants[w].latencyCycles.mean();
            const double v10 =
                rows[i].res[1].tenants[w].latencyCycles.mean();
            const double nh =
                rows[i].res[2].tenants[w].latencyCycles.mean();
            const double neu =
                rows[i].res[3].tenants[w].latencyCycles.mean();
            std::printf("%-12s W%-4d %8.2f %8.2f %8.2f %8.2f\n",
                        pairs[i].label, w + 1, 1.0,
                        v10 / pmt, nh / pmt, neu / pmt);
            v10_gain += v10 / neu;
            pmt_gain += pmt / neu;
            ++n;
        }
    }
    std::printf("Average latency gain of Neu10: %.2fx over PMT, "
                "%.2fx over V10 (paper: 1.33x / 1.12x)\n\n",
                pmt_gain / n, v10_gain / n);

    bench::header("Figure 21", "throughput, normalized to PMT "
                               "(higher is better)");
    std::printf("%-12s %-5s %8s %8s %8s %8s\n", "Pair", "W", "PMT",
                "V10", "NH", "Neu10");
    bench::rule();
    for (size_t i = 0; i < rows.size(); ++i) {
        for (int w = 0; w < 2; ++w) {
            const double pmt = rows[i].res[0].tenants[w].throughput;
            std::printf("%-12s W%-4d %8.2f %8.2f %8.2f %8.2f\n",
                        pairs[i].label, w + 1, 1.0,
                        rows[i].res[1].tenants[w].throughput / pmt,
                        rows[i].res[2].tenants[w].throughput / pmt,
                        rows[i].res[3].tenants[w].throughput / pmt);
        }
    }
    std::printf("\nShape check: V10 and Neu10 sit well above PMT on "
                "low-contention pairs (paper: 1.58x/1.62x average); "
                "Neu10 keeps tails at or below PMT while V10's blow "
                "up on high-contention pairs.\n");
    return 0;
}
