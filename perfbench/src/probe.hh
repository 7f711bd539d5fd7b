/**
 * @file
 * The traced run: per-layer host cost of one workload.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

/**
 * Time the public calls into each simulator layer for workload @p w
 * (its scenario files at @p paths), count allocations, engine advances
 * and trace volume, check the outputs, and print one JSON line with
 * the per-layer metrics. Writes every recorded span to @p spans_path.
 * @return the process exit code.
 */
int runTraced(const Workload &w, const std::vector<std::string> &paths,
              const std::string &spans_path);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
