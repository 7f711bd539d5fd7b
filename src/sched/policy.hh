/**
 * @file
 * Scheduling policy interface for the NPU core simulator.
 *
 * A policy is invoked at every scheduling event and makes three
 * decisions, mirroring the paper's split between the uTOp scheduler and
 * the operation scheduler (§III-E):
 *
 *  1. scheduleMes(): bind ready ME units to engines — including
 *     harvesting idle engines of collocated vNPUs and preempting
 *     harvesters to reclaim them (Neu10), whole-gang serialization
 *     (V10), or exclusive core occupancy (PMT).
 *  2. scheduleVes(): start ready VE units (bounded by the ny VE
 *     instruction queues) and assign per-unit VE shares.
 *  3. nextWakeup(): optional time-based reschedule (quanta, fairness).
 *
 * Policies are stateless with respect to unit progress — all execution
 * state lives in the simulator — but may keep fairness bookkeeping.
 */

#ifndef NEU10_SCHED_POLICY_HH
#define NEU10_SCHED_POLICY_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "npu/core_sim.hh"

namespace neu10
{

/** Abstract scheduling policy (uTOp + operation scheduler). */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    /** Bind/preempt ME units. Called after completions are drained. */
    virtual void scheduleMes(NpuCoreSim &core, Cycles now) = 0;

    /** Start VE units and assign veShare to every running unit. */
    virtual void scheduleVes(NpuCoreSim &core, Cycles now) = 0;

    /** Next time-based reschedule, or kCyclesInf for none. */
    virtual Cycles nextWakeup(const NpuCoreSim &core, Cycles now)
    {
        (void)core;
        (void)now;
        return kCyclesInf;
    }

  protected:
    /** Start ready VE units round-robin over the slots while the ny
     * VE instruction queues last ("a ready VE uTOp is always
     * executed"). */
    static void startVesRoundRobin(NpuCoreSim &core);

    /** The running ME gang operator, or nullptr. The VLIW designs run
     * at most one at a time. */
    static UnitRun *runningGang(const NpuCoreSim &core);

    /**
     * The VLIW operation scheduler's VE split: the running ME
     * operator's VLIW VE slots are served first (it cannot progress
     * otherwise), then VE-only operators share the rest of the core's
     * VEs max-min, weighted by tenant priority if @p weighted.
     */
    void splitVesMeFirst(NpuCoreSim &core, bool weighted);

    // Per-call scratch, kept so a scheduling round allocates nothing.
    std::vector<UnitRun *> veUnits_;
    std::vector<double> demands_;
    std::vector<double> weights_;
    std::vector<double> grants_;
};

/** The four evaluated designs (§V-A). */
enum class PolicyKind
{
    Neu10 = 0,   ///< spatial-isolated + dynamic harvesting (NeuISA)
    Neu10NH,     ///< spatial-isolated, no harvesting (MIG-like)
    V10,         ///< operator-level temporal sharing (VLIW)
    Pmt,         ///< whole-core preemptive temporal sharing (VLIW)
};

/** Human-readable policy name. */
std::string policyName(PolicyKind kind);

/**
 * Parse a policy name back to its kind (case-insensitive, accepts
 * "neu10-nh" / "neu10nh" / "nh" for Neu10NH). Used by bench CLIs.
 * @throws FatalError on an unknown name.
 */
PolicyKind policyFromName(const std::string &name);

/** Instantiate a policy. */
std::unique_ptr<SchedulerPolicy> makePolicy(PolicyKind kind);

/** Which compiler backend a policy executes. */
bool policyUsesNeuIsa(PolicyKind kind);

} // namespace neu10

#endif // NEU10_SCHED_POLICY_HH
