/**
 * @file
 * The benchmark's workloads, generated from a seed as scenario-file
 * text. The simulator sees only that text (through the public scenario
 * parser); nothing else about the workload reaches it.
 *
 * Why each workload exists and which layer it stresses:
 * perfbench/README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hh"

namespace perfbench
{

/** One scenario file of a workload. */
struct SubRun
{
    std::string label; ///< e.g. "fleet_dc" or "BERT+ENet/neu10"
    std::string text;  ///< complete .scn contents
};

/** A named workload: one scenario (open-loop fleets) or many
 * single-core closed-loop scenarios (paper_pairs). */
struct Workload
{
    std::string name;
    std::vector<SubRun> runs;
};

/** Generate workload @p name (fleet_dc, fleet_churn, llm_serve or
 * paper_pairs) for @p seed. Equal arguments give byte-identical
 * scenario text. @throws std::invalid_argument on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** Load a generated scenario file the way every scenario consumer
 * does (loadScenarioFile + applyEnvOverrides). */
neu10::Scenario loadScenario(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
