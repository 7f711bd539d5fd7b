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
 * redistributes surplus VE capacity across vNPUs (Fig. 18b). With
 * harvesting disabled this is exactly the Neu10-NH (MIG-like static
 * partitioning) baseline.
 *
 * Temporal mode (software-isolated oversubscription, §III-C): engine
 * budgets are recomputed every round from priority-weighted attained
 * service, so oversubscribed vNPUs time-share fairly.
 */

#ifndef NEU10_SCHED_NEU10_POLICY_HH
#define NEU10_SCHED_NEU10_POLICY_HH

#include <vector>

#include "sched/policy.hh"

namespace neu10
{

/** Neu10 / Neu10-NH scheduler. */
class Neu10Policy : public SchedulerPolicy
{
  public:
    /**
     * @param harvest   enable ME/VE harvesting (false = Neu10-NH).
     * @param temporal  software-isolated oversubscription mode.
     */
    explicit Neu10Policy(bool harvest, bool temporal = false);

    /** Ablation toggles: disable one harvesting direction (the
     * ablation bench separates ME-harvest from VE-harvest benefit). */
    void setHarvestMes(bool on) { harvestMes_ = on; }
    void setHarvestVes(bool on) { harvestVes_ = on; }

    std::string name() const override;
    void scheduleMes(NpuCoreSim &core, Cycles now) override;
    void scheduleVes(NpuCoreSim &core, Cycles now) override;
    Cycles nextWakeup(const NpuCoreSim &core, Cycles now) override;

  private:
    /** Fill budget_ with the effective per-slot ME budgets for this
     * round. */
    void computeBudgets(const NpuCoreSim &core);

    bool harvest_;
    bool temporal_;
    bool harvestMes_ = true;
    bool harvestVes_ = true;

    // Per-call scratch, kept so a scheduling round allocates nothing.
    std::vector<unsigned> budget_;
    std::vector<size_t> order_;
    std::vector<UnitRun *> meUnits_;
    std::vector<UnitRun *> veUnits_;
    std::vector<double> slotLeft_;
    std::vector<std::vector<UnitRun *>> slotUnits_;
    std::vector<double> demands_;
    std::vector<double> grants_;
};

} // namespace neu10

#endif // NEU10_SCHED_NEU10_POLICY_HH
