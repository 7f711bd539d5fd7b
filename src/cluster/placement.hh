/**
 * @file
 * Fleet-level vNPU placement (bin packing tenants onto cores).
 *
 * The §III-B allocator sizes a vNPU (ME/VE split, segment-rounded
 * HBM); this module decides *which* physical core of a multi-board
 * fleet hosts it. Placement is capacity-checked against dedicated
 * engines and HBM segments (hardware isolation, §III-C) and weighs
 * cores by an offered-load estimate — arrival rate x estimated busy
 * EU-cycles per request — so the policies differ observably:
 *
 *  - FirstFit: lowest-indexed core with room. Fast, fills boards in
 *    order, leaves the fleet tail idle at low load.
 *  - BestFit: feasible core with the least EU headroom after the
 *    placement (tightest fit). Packs densely, frees whole cores for
 *    big tenants, concentrates contention.
 *  - LoadBalanced: feasible core with the least offered load, ties
 *    broken by EU headroom then index. Spreads heat, best tails.
 *
 * A vNPU that moves to another core — an elastic migration or a
 * failover restore — lands through one path here: its §III-B split
 * is re-run against the destination's free engines
 * (resplitForResidency) and committed, falling back to the split it
 * already has (commitResplit, placeResplit).
 */

#ifndef NEU10_CLUSTER_PLACEMENT_HH
#define NEU10_CLUSTER_PLACEMENT_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "npu/config.hh"
#include "vnpu/allocator.hh"

namespace neu10
{

/** Placement policies (see file doc). */
enum class PlacementPolicy
{
    FirstFit = 0,
    BestFit,
    LoadBalanced,
};

/** Human-readable policy name ("first-fit", ...). */
std::string placementName(PlacementPolicy policy);

/** Parse a placement-policy name (case-insensitive).
 * @throws FatalError on an unknown name. */
PlacementPolicy placementFromName(const std::string &name);

/** One vNPU's demand as the placer sees it. */
struct PlacementRequest
{
    unsigned nMes = 1;
    unsigned nVes = 1;
    Bytes hbmBytes = 0;    ///< segment-rounded HBM demand
    Bytes sramBytes = 0;   ///< segment-rounded SRAM demand

    /** Offered load in EU-cycles per core-clock cycle: at initial
     * placement an estimate (arrival rate x profiled busy EU-cycles
     * per request), at rebalance time the pressure *observed* over
     * the last epoch. */
    double load = 0.0;
};

/** @p sizing's engines and segment-rounded memory as a request
 * charging @p load. */
PlacementRequest placementRequest(const VnpuSizing &sizing, double load);

/** One planned vNPU move of the epoch-boundary rebalancer. */
struct Migration
{
    size_t tenant = 0;             ///< index into the caller's tenants
    CoreId from = kInvalidCore;
    CoreId to = kInvalidCore;
};

/** Knobs of FleetPlacer::rebalance() (cluster/fleet forwards its
 * ElasticConfig values here). */
struct RebalanceOptions
{
    /** Act only while the hottest-to-coldest observed per-core
     * pressure gap (EU-cycles/cycle) exceeds this. */
    double imbalanceThreshold = 0.1;

    /** Migration budget for one rebalance pass. */
    unsigned maxMigrations = 4;
};

/** Remaining capacity and committed load of one fleet core. Engine
 * counts and HBM bytes are hard (placement fails without them); load
 * is advisory, in the same EU-cycles-per-cycle unit as
 * PlacementRequest::load. */
struct CoreCapacity
{
    unsigned freeMes = 0;
    unsigned freeVes = 0;
    Bytes freeHbm = 0;     ///< segment-rounded bytes still free
    Bytes freeSram = 0;    ///< segment-rounded bytes still free
    double load = 0.0;     ///< sum of placed requests' load estimates
    unsigned residents = 0;

    /** Quarantined by the failover controller (hardware fault): the
     * core hosts nothing until repaired — place/canHost/commit treat
     * it as full and the rebalancer never targets it. Its free
     * capacity is tracked through the outage so un-quarantining
     * restores it exactly. */
    bool quarantined = false;

    /** Free execution units (the bin-packing dimension). */
    unsigned
    freeEus() const
    {
        return freeMes + freeVes;
    }
};

/** Bin packer for one fleet of identical cores. */
class FleetPlacer
{
  public:
    /** @param num_cores fleet-wide core count (boards x cores).
     *  @param core      per-core physical capacity; each memory must
     *                   be a positive number of whole segments. */
    FleetPlacer(unsigned num_cores, const NpuCoreConfig &core);

    /**
     * Place one request under @p policy.
     * @return the chosen fleet-wide core index and commits the
     *         capacity, or kInvalidCore when no core fits.
     */
    CoreId place(const PlacementRequest &request,
                 PlacementPolicy policy);

    /** Capacity check against one specific core, no commitment. */
    bool canHost(CoreId core, const PlacementRequest &request) const;

    /**
     * Commit @p request's capacity on a specific core (a migration
     * destination chosen by the rebalancer rather than a policy).
     * @return false — and change nothing — when the core lacks
     *         capacity.
     */
    bool commit(CoreId core, const PlacementRequest &request);

    /** Release a previously committed request's capacity (migration
     * source, vNPU teardown). The request must match what was
     * committed. */
    void release(CoreId core, const PlacementRequest &request);

    /**
     * Land a moving vNPU on @p core at a new split: re-run the
     * §III-B split of @p sizing for @p budget EUs against the core's
     * free engines and commit it, with the sizing's HBM, charging
     * @p load.
     * @return false — changing nothing — when the re-split does not
     *         fit the core; on success @p sizing holds the committed
     *         split.
     */
    bool commitResplit(CoreId core, VnpuSizing &sizing, unsigned budget,
                       double load);

    /**
     * Place a vNPU that lost its core (a failover restore): @p policy
     * picks a core with room for the current split, which is then
     * re-split there at @p budget (commitResplit), keeping the
     * current split when the re-split does not fit. When no core
     * hosts the current split as-is, the non-quarantined cores are
     * tried in index order, each re-split against its residency.
     * @return the core committed on, with @p sizing updated to the
     *         committed split, or kInvalidCore — changing nothing —
     *         when no core can host the vNPU.
     */
    CoreId placeResplit(VnpuSizing &sizing, unsigned budget,
                        double load, PlacementPolicy policy);

    /**
     * Epoch-boundary elastic rebalance: given the pressure observed
     * on every core over the last epoch, greedily move the heaviest
     * movable tenant from the hottest core to the coldest core with
     * capacity for it, until the hot-cold gap falls under the
     * threshold, no move narrows it, or the migration budget is
     * spent. Planned moves are committed on this placer (release from
     * the source, commit on the destination) as they are chosen; a
     * tenant moves at most once per pass, and quarantined cores are
     * invisible on both sides. Because the whole plan is applied to
     * this placer's books up front, a caller mirroring the moves into
     * other bookkeeping (e.g. hypervisor contexts) must tear down
     * every mover before re-creating any of them.
     * Deterministic: every tie breaks toward the lower index.
     *
     * @param core_pressure observed per-core demand, EU-cycles/cycle
     *                      (parallel to cores()).
     * @param tenant_core   current placement per tenant; kInvalidCore
     *                      entries (unplaced tenants) never move.
     * @param demands       per-tenant capacity demand; .load must be
     *                      the same observed-pressure unit as
     *                      @p core_pressure. Note the source core is
     *                      released this observed load even when the
     *                      original commit charged an estimate —
     *                      load is advisory and tolerates that
     *                      drift; engines and bytes never drift.
     * @return the applied moves, in order.
     */
    std::vector<Migration>
    rebalance(std::vector<double> core_pressure,
              const std::vector<CoreId> &tenant_core,
              const std::vector<PlacementRequest> &demands,
              const RebalanceOptions &options);

    /**
     * Quarantine (or, with @p q false, repair) one core. While
     * quarantined a core hosts nothing: place() skips it, canHost()
     * and commit() report no capacity, and rebalance() neither
     * drains it (its residents were evicted by the caller) nor picks
     * it as a migration destination. release() still works so a
     * failover controller can evict the failed core's residents
     * after quarantining it, in either order.
     */
    void setQuarantined(CoreId core, bool q);

    /** True while @p core is quarantined. */
    bool quarantined(CoreId core) const;

    /** Per-core remaining capacity (inspection / tests). */
    const std::vector<CoreCapacity> &cores() const { return cores_; }

  private:
    bool fits(const CoreCapacity &c,
              const PlacementRequest &r) const;

    NpuCoreConfig core_;   ///< shape of every core (re-split input)
    std::vector<CoreCapacity> cores_;
};

} // namespace neu10

#endif // NEU10_CLUSTER_PLACEMENT_HH
