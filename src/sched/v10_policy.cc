#include "sched/v10_policy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neu10
{

namespace
{

/**
 * Maximum time (cycles) a tenant's ready ME operator may wait behind
 * the running operator before V10 preempts it — the PREMA-style token
 * threshold. V10 is utilization-first: operators normally run to
 * completion and the service deficit only picks who goes next at
 * operator boundaries. The coarse wait bound is what produces V10's
 * operator-interference tail latency (§V-B): a short request can sit
 * for half a millisecond behind a collocated tenant's long or
 * bandwidth-stalled operator that holds every ME.
 */
constexpr Cycles kMaxWaitCycles = 32.0 * 1024;

/** Slack absorbing fp dust in wait-time comparisons. */
constexpr double kFairnessEps = 1e-3;

/** How long @p s's oldest ready ME operator may wait: the token
 * threshold, scaled down for higher-priority tenants. Each caller
 * keeps its own comparison form, since `(now - readyAt) - bound` and
 * `bound - eps` need not round alike. */
double
waitBound(const VnpuSlot &s)
{
    return kMaxWaitCycles / std::max(1e-9, s.priority);
}

double
attained(const VnpuSlot &s)
{
    // V10 balances measured execution time. Performance counters see
    // a blend of engine occupancy and useful busy cycles: a
    // bandwidth-stalled operator occupies engines while accruing
    // little useful service, so the stalling tenant is considered
    // under-served and receives extra wall time to compensate — the
    // §V-F effect that squeezes a compute partner collocated with an
    // LLM.
    const double service =
        0.5 * s.meUsefulCycles + 0.5 * s.meServiceCycles;
    return service / std::max(1e-9, s.priority);
}

} // anonymous namespace

std::uint32_t
V10Policy::pickNext(const NpuCoreSim &core) const
{
    const auto &slots = core.slots();

    // A tenant past its token threshold outranks everything (this is
    // what makes the wait bound a bound, not a suggestion).
    std::uint32_t starved = kNoSlot;
    double worst_over = -kFairnessEps;
    const Cycles now = core.queue().now();
    for (std::uint32_t s = 0; s < slots.size(); ++s) {
        if (slots[s].readyMe.empty())
            continue;
        const double over =
            (now - slots[s].readyMe.front()->readyAt) - waitBound(slots[s]);
        if (over >= -kFairnessEps && over > worst_over) {
            starved = s;
            worst_over = over;
        }
    }
    if (starved != kNoSlot)
        return starved;

    std::uint32_t best = kNoSlot;
    for (std::uint32_t s = 0; s < slots.size(); ++s) {
        if (slots[s].readyMe.empty())
            continue;
        if (best == kNoSlot || attained(slots[s]) < attained(slots[best]))
            best = s;
    }
    return best;
}

void
V10Policy::scheduleMes(NpuCoreSim &core, Cycles now)
{
    auto &slots = core.slots();
    UnitRun *runner = runningGang(core);

    // Preemptive fairness: a waiter whose oldest ready ME operator has
    // exceeded the token threshold preempts the running operator
    // (V10's fine-grained operator-level preemption).
    if (runner) {
        for (std::uint32_t s = 0; s < slots.size(); ++s) {
            if (s == runner->slot || slots[s].readyMe.empty())
                continue;
            const Cycles waited =
                now - slots[s].readyMe.front()->readyAt;
            if (waited >= waitBound(slots[s]) - kFairnessEps) {
                core.preempt(runner);
                runner = nullptr;
                break;
            }
        }
    }

    if (!runner) {
        const std::uint32_t s = pickNext(core);
        if (s != kNoSlot) {
            UnitRun *u = slots[s].readyMe.front();
            // A preempted operator reloads its ME state on resume.
            core.bindMe(u, s, u->resumesPreempted());
        }
    }
}

void
V10Policy::scheduleVes(NpuCoreSim &core, Cycles now)
{
    (void)now;
    // VE-only operators from any vNPU may run alongside the ME
    // operator, sharing what it leaves by tenant priority.
    startVesRoundRobin(core);
    splitVesMeFirst(core, /*weighted=*/true);
}

Cycles
V10Policy::nextWakeup(const NpuCoreSim &core, Cycles now)
{
    // Wake when some waiter's oldest ready ME operator crosses the
    // token threshold.
    const UnitRun *runner = runningGang(core);
    if (!runner)
        return kCyclesInf;

    const auto &slots = core.slots();
    Cycles next = kCyclesInf;
    for (std::uint32_t s = 0; s < slots.size(); ++s) {
        if (s == runner->slot || slots[s].readyMe.empty())
            continue;
        const Cycles deadline =
            slots[s].readyMe.front()->readyAt + waitBound(slots[s]);
        next = std::min(next, std::max(deadline, now + 1.0));
    }
    return next;
}

} // namespace neu10
