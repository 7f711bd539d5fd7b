/**
 * @file
 * The Neu10 uTOp + operation scheduler (§III-E).
 *
 * Spatial-isolated mode: every vNPU owns its allocated MEs/VEs. Each
 * scheduling round:
 *
 *  1. fill — ready ME uTOps bind to their own vNPU's free engine
 *     budget (FIFO);
 *  2. reclaim — a vNPU with backlog whose budget is held by other
 *     vNPUs' harvesters preempts them (256-cycle context switch
 *     charged to the incoming uTOp, §III-G);
 *  3. harvest — remaining backlog binds to other vNPUs' idle budget.
 *
 * The operation scheduler assigns VE shares per vNPU budget with
 * ME-uTOp demand prioritized (so occupied MEs free up soonest), then
 * redistributes surplus VE capacity across vNPUs (Fig. 18b). The two
 * harvest directions are set apart: with both off this is exactly
 * the Neu10-NH (MIG-like static partitioning) baseline, and the
 * ablation bench turns one off at a time to separate ME-harvest from
 * VE-harvest benefit.
 *
 * Temporal mode (software-isolated oversubscription, §III-C): engine
 * budgets are re-split from priority-weighted attained service at
 * every quantum boundary, preempting what a slot holds beyond its new
 * budget, so oversubscribed vNPUs time-share fairly and never hold
 * more MEs than the core has.
 */

#ifndef NEU10_SCHED_NEU10_POLICY_HH
#define NEU10_SCHED_NEU10_POLICY_HH

#include <utility>
#include <vector>

#include "sched/policy.hh"

namespace neu10
{

/** Neu10 / Neu10-NH scheduler. */
class Neu10Policy : public SchedulerPolicy
{
  public:
    /**
     * @param harvest_mes  reclaim and harvest other vNPUs' idle MEs.
     * @param harvest_ves  hand surplus VE capacity across vNPUs.
     * @param temporal     software-isolated oversubscription mode.
     */
    Neu10Policy(bool harvest_mes, bool harvest_ves,
                bool temporal = false);

    void scheduleMes(NpuCoreSim &core, Cycles now) override;
    void scheduleVes(NpuCoreSim &core, Cycles now) override;
    Cycles nextWakeup(const NpuCoreSim &core, Cycles now) override;

  private:
    /** Fill budget_ with the effective per-slot ME budgets for this
     * round; in temporal mode, re-split them once @p now reaches the
     * quantum boundary and preempt what a slot holds beyond its new
     * budget. */
    void computeBudgets(NpuCoreSim &core, Cycles now);

    bool harvestMes_;
    bool harvestVes_;
    bool temporal_;
    /** Temporal mode: when the oversubscribed budgets next re-split. */
    Cycles nextSplit_ = 0.0;

    // Per-call scratch, kept so a scheduling round allocates nothing.
    std::vector<unsigned> budget_;
    std::vector<std::pair<double, size_t>> order_; ///< (deficit, slot)
    std::vector<UnitRun *> meUnits_;
    std::vector<double> slotLeft_;
    std::vector<std::vector<UnitRun *>> slotUnits_;
};

} // namespace neu10

#endif // NEU10_SCHED_NEU10_POLICY_HH
