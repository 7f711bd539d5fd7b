/**
 * @file
 * perfbench: the host-cost benchmark's program. perfbench/run.py
 * builds it and calls it in three modes:
 *
 *   generate  write the workload's scenario files for a seed;
 *   timed     run runScenario + outcomeJson in a loop for --seconds,
 *             checking every run, and print the per-pass wall times
 *             and the median set-up time;
 *   traced    the per-layer run (probe.cc).
 *
 * Usage: perfbench --mode M --workload W --seed N --dir D [--seconds S]
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hh"
#include "probe.hh"
#include "spans.hh"
#include "workloads.hh"

#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace perfbench
{
namespace
{

using neu10::Scenario;
using neu10::ScenarioMode;
using neu10::ScenarioOutcome;

struct Args
{
    std::string mode, workload, dir;
    std::uint64_t seed = 0;
    double seconds = 10.0;
};

Args
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> kv;
    for (int i = 1; i + 1 < argc; i += 2)
        kv[argv[i]] = argv[i + 1];
    if ((argc - 1) % 2 != 0 || !kv.count("--mode") ||
        !kv.count("--workload") || !kv.count("--seed") ||
        !kv.count("--dir"))
        throw std::invalid_argument(
            "usage: perfbench --mode generate|timed|traced "
            "--workload W --seed N --dir D [--seconds S]");
    Args a;
    a.mode = kv["--mode"];
    a.workload = kv["--workload"];
    a.dir = kv["--dir"];
    a.seed = std::stoull(kv["--seed"]);
    if (kv.count("--seconds"))
        a.seconds = std::stod(kv["--seconds"]);
    return a;
}

std::vector<std::string>
scenarioPaths(const Args &a, const Workload &w)
{
    std::vector<std::string> paths;
    for (size_t k = 0; k < w.runs.size(); ++k)
        paths.push_back(a.dir + "/" + w.name + "_s" +
                        std::to_string(a.seed) + "_" +
                        std::to_string(k) + ".scn");
    return paths;
}

int
generate(const Workload &w, const std::vector<std::string> &paths)
{
    for (size_t k = 0; k < paths.size(); ++k) {
        std::ofstream f(paths[k], std::ios::binary);
        f << w.runs[k].text;
        if (!f.flush())
            throw std::runtime_error("cannot write " + paths[k]);
    }
    return 0;
}

/** Set-ups timed after each sub-run of a measured pass. */
constexpr unsigned kSetupRepsPerSubRun = 3;

/** The reference chases after each sub-run for this share of the
 * sub-run's time, and at least kMinChaseS. */
constexpr double kChaseShare = 0.1;
constexpr double kMinChaseS = 0.005;

/** One set-up of the workload, as setup_s times it: load every
 * scenario file and expand it into its config, which runs the §III-B
 * sizing of each tenant group. */
void
setUp(const std::vector<std::string> &paths)
{
    for (const std::string &p : paths) {
        const Scenario s = loadScenario(p);
        if (s.mode == ScenarioMode::OpenLoop)
            (void)neu10::toFleetConfig(s);
        else
            (void)neu10::toServingConfig(s);
    }
}

/**
 * Host-speed reference for the timed loop. Other tenants of a shared
 * host slow this process's memory accesses by up to 2x, in phases that
 * last longer than a run, and the fastest pass of a run cannot escape
 * them. A chase of dependent loads around a fixed ring larger than the
 * L2 cache slows with them. It is the benchmark's own code, so a change
 * to the simulator does not move it: a sub-run's time scaled by
 * kNominalStepS over the step time measured around it is the time it
 * would take with memory as fast as the reference's nominal speed.
 */
class HostReference
{
  public:
    /** Nominal time of one step: about the fastest seen on a 4-vCPU
     * Xeon host with no other load. */
    static constexpr double kNominalStepS = 100e-9;

    HostReference() : next_(kRingEntries)
    {
        // Sattolo's shuffle: one cycle through every entry.
        for (std::uint32_t i = 0; i < kRingEntries; ++i)
            next_[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = kRingEntries - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next_[i], next_[x % i]);
        }
    }

    /** Chase for at least @p seconds. @return seconds per step. */
    double
    stepTime(double seconds)
    {
        const double t0 = nowSeconds();
        std::uint32_t at = at_;
        std::uint64_t steps = 0;
        double elapsed = 0.0;
        do {
            for (unsigned i = 0; i < kChunkSteps; ++i)
                at = next_[at];
            steps += kChunkSteps;
            elapsed = nowSeconds() - t0;
        } while (elapsed < seconds);
        at_ = at;
        return elapsed / static_cast<double>(steps);
    }

  private:
    static constexpr std::uint32_t kRingEntries = 1u << 21;  // 8 MiB
    static constexpr unsigned kChunkSteps = 10000;

    std::vector<std::uint32_t> next_;
    std::uint32_t at_ = 0;
};

/** Peak resident set of this process so far (VmHWM), in KiB. */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/** paper_pairs: simulated Neu10 gains over PMT and V10 beside the
 * paper's headline. @p outs holds the four designs of each pair in
 * generation order (pmt, v10, neu10-nh, neu10). */
void
printPaperRatios(const Workload &w, const std::vector<ScenarioOutcome> &outs)
{
    double tput_pmt = 0.0, tput_v10 = 0.0, p95_pmt = 0.0, p95_v10 = 0.0;
    for (size_t k = 0; k + 3 < outs.size(); k += 4) {
        const neu10::ServingResult &pmt = outs[k].serving;
        const neu10::ServingResult &v10 = outs[k + 1].serving;
        const neu10::ServingResult &neu = outs[k + 3].serving;
        tput_pmt = std::max(tput_pmt, neu.totalThroughput() /
                                          pmt.totalThroughput());
        tput_v10 = std::max(tput_v10, neu.totalThroughput() /
                                          v10.totalThroughput());
        for (size_t t = 0; t < neu.tenants.size(); ++t) {
            p95_pmt = std::max(p95_pmt, pmt.tenants[t].p95() /
                                            neu.tenants[t].p95());
            p95_v10 = std::max(p95_v10, v10.tenants[t].p95() /
                                            neu.tenants[t].p95());
        }
    }
    std::printf("%s: simulated Neu10 over the nine pairs (max): "
                "throughput %.2fx PMT, %.2fx V10; p95 latency %.2fx "
                "lower than PMT, %.2fx lower than V10. Paper headline: "
                "up to 1.4x throughput, 4.6x lower tail latency. The "
                "model is not validated against hardware; no error "
                "figure is given.\n",
                w.name.c_str(), tput_pmt, tput_v10, p95_pmt, p95_v10);
}

int
timed(const Workload &w, const std::vector<std::string> &paths,
      double seconds)
{
    std::vector<Scenario> scenarios;
    for (const std::string &p : paths)
        scenarios.push_back(loadScenario(p));
    const size_t n = scenarios.size();

    std::vector<std::string> first_json(n);
    std::vector<Fingerprint> first_fp(n);
    std::vector<ScenarioOutcome> first_out;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> walls, setups, raw_setups;
    std::vector<std::uint64_t> dones;
    // Fastest time of each sub-run over all passes: as measured, and
    // scaled to the reference's nominal speed.
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> best(n, inf), raw_best(n, inf);
    // Built after the peak RSS is read, so its ring does not count.
    std::optional<HostReference> ref;
    double step_before = 0.0;  // reference step time before a sub-run
    double measure_start = 0.0;
    long peak_rss_kb = 0;

    // Pass 0 warms caches and finishes lazy set-up; it is checked but
    // not timed; the peak RSS is taken after it, so it covers one complete
    // run of the workload. Later passes run until --seconds elapse.
    // Every pass simulates the same requests, and other work on the
    // host can only slow a sub-run down, so the sum of each sub-run's
    // fastest scaled time is the least disturbed cost of one pass.
    // Set-ups are timed between the sub-runs of measured passes, so
    // their median spans the whole run rather than one moment of it.
    for (unsigned pass = 0;; ++pass) {
        double wall = 0.0;
        std::uint64_t done = 0;
        for (size_t k = 0; k < n; ++k) {
            const Scenario &s = scenarios[k];
            ++attempted;
            double dt = 0.0;  // stays 0 if the sub-run throws
            try {
                const double t0 = nowSeconds();
                ScenarioOutcome out = neu10::runScenario(s);
                const std::string json = neu10::outcomeJson(s, out);
                if (s.trace.enabled) {
                    // Traced scenarios export trace and metrics in
                    // memory as part of the run.
                    (void)out.fleet.trace.chromeJson();
                    (void)out.fleet.metrics.json(s.board.core.freqHz);
                }
                dt = nowSeconds() - t0;
                wall += dt;
                done += completedRequests(out);

                std::string why = conservationError(s, out);
                const Fingerprint fp = fingerprint(out);
                if (pass == 0) {
                    first_json[k] = json;
                    first_fp[k] = fp;
                } else if (json != first_json[k]) {
                    why = "outcomeJson bytes differ from the first run";
                } else if (!(fp == first_fp[k])) {
                    why = "result fields differ from the first run";
                }
                if (!why.empty()) {
                    ++failed;
                    std::fprintf(stderr, "check failed: %s: %s\n",
                                 w.runs[k].label.c_str(), why.c_str());
                }
                if (pass == 0 && w.name == "paper_pairs")
                    first_out.push_back(std::move(out));
            } catch (const std::exception &e) {
                ++failed;
                std::fprintf(stderr, "run failed: %s: %s\n",
                             w.runs[k].label.c_str(), e.what());
            }
            if (pass == 0)
                continue;
            const double step_after =
                ref->stepTime(std::max(kMinChaseS, kChaseShare * dt));
            const double scale = HostReference::kNominalStepS /
                                 (0.5 * (step_before + step_after));
            step_before = step_after;
            if (dt > 0.0) {
                best[k] = std::min(best[k], dt * scale);
                raw_best[k] = std::min(raw_best[k], dt);
            }
            for (unsigned r = 0; r < kSetupRepsPerSubRun; ++r) {
                const double t0 = nowSeconds();
                setUp(paths);
                const double t = nowSeconds() - t0;
                raw_setups.push_back(t);
                setups.push_back(t * scale);
            }
        }
        if (pass == 0) {
            peak_rss_kb = peakRssKb();
            ref.emplace();
            step_before = ref->stepTime(10 * kMinChaseS);
            measure_start = nowSeconds();
            continue;
        }
        walls.push_back(wall);
        dones.push_back(done);
        if (nowSeconds() - measure_start >= seconds)
            break;
    }
    if (first_out.size() == n)
        printPaperRatios(w, first_out);

    Fingerprint total;
    for (const Fingerprint &f : first_fp)
        total += f;
    double best_wall = 0.0, raw_best_wall = 0.0;
    for (size_t k = 0; k < n; ++k) {
        best_wall += best[k];
        raw_best_wall += raw_best[k];
    }
    std::sort(setups.begin(), setups.end());
    std::sort(raw_setups.begin(), raw_setups.end());
    std::string wall_list, done_list;
    for (size_t i = 0; i < walls.size(); ++i) {
        wall_list += (i ? ", " : "") + num(walls[i]);
        done_list += (i ? ", " : "") + std::to_string(dones[i]);
    }
    std::printf("{\"attempted\": %llu, \"failed\": %llu, "
                "\"pass_wall_s\": [%s], \"pass_completed\": [%s], "
                "\"best_wall_s\": %s, \"raw_best_wall_s\": %s, "
                "\"setup_s\": %s, \"raw_setup_s\": %s, "
                "\"fingerprint\": %s, \"peak_rss_kb\": %ld}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                wall_list.c_str(), done_list.c_str(),
                num(best_wall).c_str(), num(raw_best_wall).c_str(),
                num(setups[setups.size() / 2]).c_str(),
                num(raw_setups[raw_setups.size() / 2]).c_str(),
                total.json().c_str(), peak_rss_kb);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    try {
        const Args a = parseArgs(argc, argv);
        const Workload w = makeWorkload(a.workload, a.seed);
        const std::vector<std::string> paths = scenarioPaths(a, w);
        if (a.mode == "generate")
            return generate(w, paths);
        if (a.mode == "timed")
            return timed(w, paths, a.seconds);
        if (a.mode == "traced")
            return runTraced(w, paths,
                             a.dir + "/spans_" + w.name + "_s" +
                                 std::to_string(a.seed) + ".json");
        throw std::invalid_argument("unknown mode '" + a.mode + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
