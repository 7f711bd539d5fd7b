/**
 * @file
 * Figs. 19-24 + Table III from one sweep: the nine collocated
 * workload pairs under PMT, V10, Neu10-NH and Neu10 — the paper's
 * headline evaluation. Figs. 19-21 give tail latency, average latency
 * and throughput normalized to PMT; Fig. 22 the core's ME and VE
 * utilization; Fig. 23 + Table III the per-operator speedup of Neu10
 * over Neu10-NH and the blocked-time overhead of being harvested;
 * Fig. 24 the engines assigned to each tenant over time, for three
 * pairs.
 *
 * Every cell is scenarios/paper_closed_loop_bert_enet.scn (the §V-A
 * closed-loop methodology) with only the core policy and the two
 * tenants' model and batch replaced. The NH and Neu10 cells record
 * per-operator timings (Fig. 23) and the Neu10 cells of Fig. 24's
 * pairs their engine assignment; recording changes no result.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

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

/** The pairs Fig. 24 traces. */
const char *const kFig24Pairs[] = {"DLRM+RtNt", "ENet+SMask",
                                   "RNRS+RtNt"};

bool
isFig24Pair(const WorkloadPair &pair)
{
    return std::any_of(std::begin(kFig24Pairs), std::end(kFig24Pairs),
                       [&](const char *label) {
                           return std::strcmp(label, pair.label) == 0;
                       });
}

Row
runPair(const Scenario &cell, const WorkloadPair &pair)
{
    Scenario s = bench::withPair(cell, pair.w1, pair.batch1, pair.w2,
                                 pair.batch2);
    Row row;
    for (int p = 0; p < 4; ++p) {
        s.corePolicy = kPolicies[p];
        ServingConfig cfg = toServingConfig(s);
        cfg.captureOpTimings = policyUsesNeuIsa(kPolicies[p]);
        cfg.captureSeries =
            kPolicies[p] == PolicyKind::Neu10 && isFig24Pair(pair);
        row.res[p] = runServing(cfg);
    }
    return row;
}

/** Mean duration per op index over all captured requests. */
std::map<std::uint32_t, double>
meanOpDurations(const TenantResult &t)
{
    std::map<std::uint32_t, double> sum;
    std::map<std::uint32_t, unsigned> count;
    for (const auto &req : t.opTimings) {
        for (const auto &op : req) {
            if (op.end <= op.start)
                continue;
            sum[op.opIndex] += op.end - op.start;
            ++count[op.opIndex];
        }
    }
    for (auto &[idx, s] : sum)
        s /= count[idx];
    return sum;
}

/** Fig. 22a/b: one utilization column per design, and the average
 * Neu10/PMT gain. */
void
printUtilization(const char *figure, const char *what,
                 double ServingResult::*util, const char *paper,
                 const std::vector<WorkloadPair> &pairs,
                 const std::vector<Row> &rows)
{
    bench::header(figure, std::string("total ") + what + " (%)");
    std::printf("%-12s %8s %8s %8s %8s\n", "Pair", "PMT", "V10", "NH",
                "Neu10");
    bench::rule();
    double pmt_sum = 0.0, neu_sum = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const ServingResult *r = rows[i].res;
        std::printf("%-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
                    pairs[i].label, 100.0 * (r[0].*util),
                    100.0 * (r[1].*util), 100.0 * (r[2].*util),
                    100.0 * (r[3].*util));
        pmt_sum += r[0].*util;
        neu_sum += r[3].*util;
    }
    std::printf("Average %s gain Neu10/PMT: %.2fx (paper: %s)\n\n",
                what, neu_sum / pmt_sum, paper);
}

} // anonymous namespace

int
main()
{
    const Scenario cell = bench::loadPairCell(
        NEU10_SCENARIO_DIR "/paper_closed_loop_bert_enet.scn");

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
                "up on high-contention pairs.\n\n");

    printUtilization("Figure 22a", "ME utilization",
                     &ServingResult::meUsefulUtil, "1.26x", pairs,
                     rows);
    printUtilization("Figure 22b", "VE utilization",
                     &ServingResult::veUtil, "1.2x", pairs, rows);

    bench::header("Figure 23 + Table III",
                  "per-operator speedup of Neu10 over Neu10-NH and "
                  "harvesting overhead");
    std::printf("%-12s %-6s %7s %7s %7s %7s %10s\n", "Pair", "W",
                "p10", "median", "p90", ">=1.5x", "blocked");
    bench::rule();
    for (size_t i = 0; i < rows.size(); ++i) {
        for (int w = 0; w < 2; ++w) {
            const auto nh = meanOpDurations(rows[i].res[2].tenants[w]);
            const auto neu =
                meanOpDurations(rows[i].res[3].tenants[w]);
            std::vector<double> speedups;
            for (const auto &[idx, nh_dur] : nh) {
                auto it = neu.find(idx);
                if (it != neu.end() && it->second > 0.0)
                    speedups.push_back(nh_dur / it->second);
            }
            std::sort(speedups.begin(), speedups.end());
            auto pct = [&](double q) {
                if (speedups.empty())
                    return 0.0;
                const size_t k = static_cast<size_t>(
                    q * (speedups.size() - 1));
                return speedups[k];
            };
            const double frac_fast =
                speedups.empty()
                    ? 0.0
                    : static_cast<double>(std::count_if(
                          speedups.begin(), speedups.end(),
                          [](double s) { return s >= 1.5; })) /
                          speedups.size();
            std::printf("%-12s W%u     %7.2f %7.2f %7.2f %6.0f%% "
                        "%9.2f%%\n",
                        pairs[i].label, w + 1, pct(0.10), pct(0.50),
                        pct(0.90), 100.0 * frac_fast,
                        100.0 * rows[i].res[3].tenants[w].blockedFrac);
        }
    }
    std::printf("\nShape check (Fig. 23 / Table III): low-contention "
                "pairs see most operators speed up (>=1.5x for the "
                "harvest-heavy side); a minority of operators slow "
                "down slightly from interference; blocked-time "
                "overhead stays in the sub-10%% band and is "
                "outweighed by the gains.\n\n");

    constexpr size_t kBins = 56;
    bench::header("Figure 24", "assigned MEs/VEs per workload over "
                               "time (Neu10, 2ME+2VE vNPUs on a "
                               "4ME/4VE core)");
    for (size_t i = 0; i < rows.size(); ++i) {
        if (!isFig24Pair(pairs[i]))
            continue;
        const ServingResult &res = rows[i].res[3];
        std::printf("\n%s (window %.1f ms)\n", pairs[i].label,
                    bench::toMs(res.makespan));
        for (const auto &t : res.tenants) {
            const auto mes =
                t.assignedMes.rebin(0.0, res.makespan, kBins);
            const auto ves =
                t.assignedVes.rebin(0.0, res.makespan, kBins);
            std::printf("  %-6s MEs |%s| peak %.0f (owns 2)\n",
                        t.model.c_str(),
                        bench::sparkline(mes, 4.0).c_str(),
                        t.assignedMes.peak());
            std::printf("  %-6s VEs |%s| peak %.1f (owns 2)\n",
                        t.model.c_str(),
                        bench::sparkline(ves, 4.0).c_str(),
                        t.assignedVes.peak());
        }
    }
    std::printf("\nShape check: the ME-intensive side (RetinaNet / "
                "ShapeMask) repeatedly harvests up to all 4 MEs when "
                "the partner idles, and drops back to its own 2 on "
                "reclaim — the Fig. 24 sawtooth.\n");
    return 0;
}
