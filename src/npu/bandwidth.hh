/**
 * @file
 * Max-min fair bandwidth allocation.
 *
 * Neu10 shares HBM bandwidth fairly between collocated vNPUs by default
 * (§III-B "memory allocation"): each vNPU with outstanding traffic gets
 * an equal share, shares a vNPU cannot use spill to the others, and the
 * same discipline applies within a vNPU across its uTOps. This is the
 * classic max-min water-filling problem, solved exactly here (no
 * iteration-to-convergence), and reused for VE-harvest distribution.
 */

#ifndef NEU10_NPU_BANDWIDTH_HH
#define NEU10_NPU_BANDWIDTH_HH

#include <span>

namespace neu10
{

/**
 * Max-min fair allocation: given per-consumer demands and a total
 * capacity, write per-consumer grants such that (a) no grant exceeds
 * its demand, (b) the total never exceeds capacity, (c) capacity a
 * consumer declines is redistributed to the still-hungry ones evenly.
 *
 * The core simulator calls this several times per event, so it
 * writes into the caller's @p grants and allocates nothing for up to
 * 16 consumers. Its callers pass the vNPUs of one core or a subset of
 * its running units, at most numMes + numVes (8 on the default 4-ME,
 * 4-VE core); more consumers take a heap buffer.
 *
 * @param demands  non-negative demands.
 * @param capacity total capacity (>= 0).
 * @param grants   output, same size as @p demands.
 * @param weights  optional per-consumer weights (default: equal).
 */
void maxMinAllocate(std::span<const double> demands, double capacity,
                    std::span<double> grants,
                    std::span<const double> weights = {});

} // namespace neu10

#endif // NEU10_NPU_BANDWIDTH_HH
