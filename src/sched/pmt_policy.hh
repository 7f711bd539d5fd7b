/**
 * @file
 * The PMT baseline scheduler (§V-A, after PREMA, HPCA'20).
 *
 * PMT time-shares the *entire* NPU core: exactly one vNPU occupies all
 * MEs and VEs at a time, scheduled preemptively by least attained
 * service (token-style fairness). Every switch checkpoints the full
 * core state, which is what gives PREMA-style schemes their high
 * context-switch overhead; the core is unavailable for the switch
 * penalty. No overlap between tenants ever occurs — the utilization
 * cost the paper's Fig. 21/22 quantify.
 */

#ifndef NEU10_SCHED_PMT_POLICY_HH
#define NEU10_SCHED_PMT_POLICY_HH

#include <vector>

#include "sched/policy.hh"

namespace neu10
{

/** Whole-core preemptive temporal sharing. */
class PmtPolicy : public SchedulerPolicy
{
  public:
    /**
     * @param quantum_cycles  scheduling quantum.
     * @param switch_cycles   full-core checkpoint/restore penalty.
     */
    explicit PmtPolicy(Cycles quantum_cycles = 65536.0,
                       Cycles switch_cycles = 4096.0);

    std::string name() const override { return "PMT"; }
    void scheduleMes(NpuCoreSim &core, Cycles now) override;
    void scheduleVes(NpuCoreSim &core, Cycles now) override;
    Cycles nextWakeup(const NpuCoreSim &core, Cycles now) override;

  private:
    bool slotHasWork(const NpuCoreSim &core, std::uint32_t s) const;
    std::uint32_t leastAttained(const NpuCoreSim &core) const;
    void beginSwitch(NpuCoreSim &core, std::uint32_t target, Cycles now);

    Cycles quantum_;
    Cycles switchCost_;

    std::uint32_t active_ = kNoSlot;
    Cycles switchReadyAt_ = 0.0;  ///< core unavailable until then
    Cycles quantumEnd_ = 0.0;
    Cycles lastNow_ = 0.0;
    std::vector<double> attained_;

    // Per-call scratch, kept so a scheduling round allocates nothing.
    std::vector<UnitRun *> evict_;
    std::vector<UnitRun *> veUnits_;
    std::vector<double> demands_;
    std::vector<double> grants_;
};

} // namespace neu10

#endif // NEU10_SCHED_PMT_POLICY_HH
