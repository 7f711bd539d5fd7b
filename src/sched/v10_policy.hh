/**
 * @file
 * The V10 baseline scheduler (§V-A, after Xue et al., ISCA'23).
 *
 * V10 time-shares all MEs and VEs at *operator* granularity with a
 * priority-based preemptive fair policy. Because the workloads are
 * compiled with the classic VLIW ISA, an ME operator couples the
 * control flow of every ME: it occupies the whole ME pool for its
 * duration even when it cannot fill it (false contention, Fig. 9).
 * Only VE-only operators from collocated vNPUs may overlap with it.
 * Operator-level preemption is supported (V10's fine-grained
 * preemption) at the usual ME context-switch cost.
 */

#ifndef NEU10_SCHED_V10_POLICY_HH
#define NEU10_SCHED_V10_POLICY_HH

#include <vector>

#include "sched/policy.hh"

namespace neu10
{

/** Operator-granularity temporal sharing over a VLIW program. */
class V10Policy : public SchedulerPolicy
{
  public:
    V10Policy() = default;

    std::string name() const override { return "V10"; }
    void scheduleMes(NpuCoreSim &core, Cycles now) override;
    void scheduleVes(NpuCoreSim &core, Cycles now) override;
    Cycles nextWakeup(const NpuCoreSim &core, Cycles now) override;

  private:
    /** Slot whose turn it is: least attained ME service / priority. */
    std::uint32_t pickNext(const NpuCoreSim &core) const;

    // Per-call scratch, kept so a scheduling round allocates nothing.
    std::vector<UnitRun *> veUnits_;
    std::vector<double> demands_;
    std::vector<double> weights_;
    std::vector<double> grants_;
};

} // namespace neu10

#endif // NEU10_SCHED_V10_POLICY_HH
