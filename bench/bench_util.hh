/**
 * @file
 * Shared helpers for the figure-reproduction binaries: the §V-A
 * closed-loop cell loader and the table formatting.
 *
 * Every bench prints: a header naming the paper artifact it
 * regenerates, the fixed-width data table(s), and a short "shape"
 * summary line.
 */

#ifndef NEU10_BENCH_BENCH_UTIL_HH
#define NEU10_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "models/zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "scenario/scenario.hh"
#include "sim/clock.hh"

namespace neu10
{
namespace bench
{

/** Exit(2) on a user-level env/CLI error — bench binaries have no
 * one above them to catch FatalError usefully. fatal() already
 * printed the message at the default log level; repeat it only when
 * logging was silenced so the reason is never lost. */
[[noreturn]] inline void
usageError(const FatalError &err)
{
    if (logLevel() < LogLevel::Warn)
        std::fprintf(stderr, "error: %s\n", err.what());
    std::exit(2);
}

/** Write a traced run's Chrome trace to @p path and its metrics to
 * `<path>.metrics.json`, then report the path; exit(2) with an error
 * line if either file cannot be written. */
inline void
writeTrace(const Trace &trace, const MetricsRegistry &metrics,
           const std::string &path, double freqHz)
{
    const std::string metrics_path = path + ".metrics.json";
    if (!trace.writeChromeJson(path)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     path.c_str());
        std::exit(2);
    }
    if (!metrics.writeJson(metrics_path, freqHz)) {
        std::fprintf(stderr, "error: cannot write metrics to %s\n",
                     metrics_path.c_str());
        std::exit(2);
    }
    std::printf("[trace: %llu events -> %s]\n",
                static_cast<unsigned long long>(trace.totalEvents()),
                path.c_str());
}

/**
 * Load the §V-A closed-loop cell at @p path — two single-tenant
 * groups on one core — and apply the harness env knobs
 * (applyEnvOverrides: NEU10_SMOKE sets Scenario::smoke, which the
 * benches trim their sweeps by). Exit 2 on a malformed file, cell or
 * env value.
 */
inline Scenario
loadPairCell(const std::string &path)
{
    try {
        Scenario cell = loadScenarioFile(path);
        applyEnvOverrides(cell);
        if (cell.mode != ScenarioMode::ClosedLoop ||
            cell.groups.size() != 2 || cell.totalTenants() != 2)
            fatal("%s: a workload-pair cell is a closed-loop scenario "
                  "with exactly two single-tenant groups",
                  cell.file.c_str());
        return cell;
    } catch (const FatalError &err) {
        usageError(err);
    }
}

/** @p cell with its two tenants running @p w1 and @p w2 at batches
 * @p b1 and @p b2. */
inline Scenario
withPair(Scenario cell, ModelId w1, unsigned b1, ModelId w2,
         unsigned b2)
{
    cell.groups[0].model = w1;
    cell.groups[0].batch = b1;
    cell.groups[1].model = w2;
    cell.groups[1].batch = b2;
    return cell;
}

/** Print the bench banner. */
inline void
header(const std::string &artifact, const std::string &what)
{
    std::printf("================================================"
                "====================\n");
    std::printf("%s — %s\n", artifact.c_str(), what.c_str());
    std::printf("================================================"
                "====================\n");
}

/** Print a rule between table sections. */
inline void
rule()
{
    std::printf("----------------------------------------------------"
                "----------------\n");
}

/** Render a series of bin values as a compact sparkline row. */
inline std::string
sparkline(const std::vector<double> &bins, double max_value)
{
    static const char *marks[] = {" ", ".", ":", "-", "=", "+",
                                  "*", "#", "@"};
    std::string out;
    for (double b : bins) {
        const double frac = max_value > 0 ? b / max_value : 0.0;
        const int idx =
            std::min(8, static_cast<int>(frac * 8.0 + 0.5));
        out += marks[idx];
    }
    return out;
}

/** Cycles -> milliseconds on the Table II clock. */
inline double
toMs(double cycles)
{
    return Clock().toSeconds(cycles) * 1e3;
}

} // namespace bench
} // namespace neu10

#endif // NEU10_BENCH_BENCH_UTIL_HH
