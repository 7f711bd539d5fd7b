/**
 * @file
 * Output checks applied to every scenario run the benchmark makes.
 *
 * Simulated fields are read from the result structs (never from the
 * JSON bytes), so a change of the result schema does not break them.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <cstdint>
#include <string>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace perfbench
{

/** The simulated fields recorded for the default seed. Summed over
 * the sub-runs of a workload (p99 is summed over tenants too, as a
 * checksum). */
struct Fingerprint
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t sloMet = 0;
    double p99Cycles = 0.0;
    std::uint64_t migrations = 0;
    std::uint64_t failovers = 0;
    std::uint64_t tokens = 0;

    Fingerprint &operator+=(const Fingerprint &o);
    bool operator==(const Fingerprint &o) const = default;

    /** One JSON object, doubles in shortest round-trip form. */
    std::string json() const;
};

Fingerprint fingerprint(const neu10::ScenarioOutcome &outcome);
Fingerprint fingerprint(const neu10::FleetResult &fleet);

/**
 * Request conservation: per tenant and fleet-wide
 * completed + rejected == submitted (open loop); every tenant reached
 * the scenario's min-requests (closed loop).
 * @return "" when it holds, otherwise what broke.
 */
std::string conservationError(const neu10::Scenario &scenario,
                              const neu10::ScenarioOutcome &outcome);

/** Completed requests of a run: fleet requests or LLM sequences in
 * open loop, summed tenant completions in closed loop. */
std::uint64_t completedRequests(const neu10::ScenarioOutcome &outcome);

/** Shortest round-trip decimal of @p v. */
std::string num(double v);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
