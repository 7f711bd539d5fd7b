#include "sched/pmt_policy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neu10
{

PmtPolicy::PmtPolicy(Cycles quantum_cycles, Cycles switch_cycles)
    : quantum_(quantum_cycles), switchCost_(switch_cycles)
{
    NEU10_ASSERT(quantum_cycles > 0.0, "quantum must be positive");
}

bool
PmtPolicy::slotHasWork(const NpuCoreSim &core, std::uint32_t s) const
{
    const VnpuSlot &slot = core.slots()[s];
    if (!slot.readyMe.empty() || !slot.readyVe.empty())
        return true;
    for (const UnitRun *u : core.running())
        if (u->slot == s)
            return true;
    return false;
}

std::uint32_t
PmtPolicy::leastAttained(const NpuCoreSim &core) const
{
    std::uint32_t best = kNoSlot;
    double best_val = 0.0;
    for (std::uint32_t s = 0; s < core.slots().size(); ++s) {
        if (!slotHasWork(core, s))
            continue;
        const double val =
            attained_[s] / std::max(1e-9, core.slots()[s].priority);
        if (best == kNoSlot || val < best_val) {
            best = s;
            best_val = val;
        }
    }
    return best;
}

void
PmtPolicy::beginSwitch(NpuCoreSim &core, std::uint32_t target,
                       Cycles now)
{
    // Checkpoint everything the departing tenant had in flight.
    evict_.assign(core.running().begin(), core.running().end());
    for (UnitRun *u : evict_)
        core.preempt(u);
    active_ = target;
    switchReadyAt_ = now + switchCost_;
    quantumEnd_ = switchReadyAt_ + quantum_;
}

void
PmtPolicy::scheduleMes(NpuCoreSim &core, Cycles now)
{
    if (attained_.size() != core.slots().size())
        attained_.assign(core.slots().size(), 0.0);

    // Integrate attained core occupancy for the active tenant
    // (checkpoint gaps do not count: the core serves nobody then).
    if (active_ != kNoSlot && now > lastNow_)
        attained_[active_] +=
            std::max(0.0, now - std::max(lastNow_, switchReadyAt_));
    lastNow_ = now;

    if (now < switchReadyAt_)
        return; // mid-checkpoint: the core is unavailable

    // Pick / keep the tenant.
    if (active_ == kNoSlot || !slotHasWork(core, active_)) {
        const std::uint32_t next = leastAttained(core);
        if (next == kNoSlot)
            return;
        if (active_ == kNoSlot) {
            active_ = next;
            quantumEnd_ = now + quantum_;
        } else if (next != active_) {
            beginSwitch(core, next, now);
            return;
        }
    } else if (now >= quantumEnd_) {
        const std::uint32_t next = leastAttained(core);
        if (next != kNoSlot && next != active_) {
            beginSwitch(core, next, now);
            return;
        }
        quantumEnd_ = now + quantum_;
    }

    // Serve the active tenant exclusively: one gang operator at a
    // time, same as running solo.
    VnpuSlot &slot = core.slots()[active_];
    if (!runningGang(core) && !slot.readyMe.empty()) {
        UnitRun *u = slot.readyMe.front();
        core.bindMe(u, active_, u->resumesPreempted());
    }
}

void
PmtPolicy::scheduleVes(NpuCoreSim &core, Cycles now)
{
    if (active_ == kNoSlot || now < switchReadyAt_) {
        for (UnitRun *u : core.running())
            u->veShare = 0.0;
        return;
    }

    VnpuSlot &slot = core.slots()[active_];
    const unsigned ve_queues = core.config().numVes;
    while (core.runningVeUnits() < ve_queues && !slot.readyVe.empty())
        core.startVe(slot.readyVe.front());

    // Exclusive VE pool. Every running unit is the active tenant's,
    // so priority weights would all be equal; the split stays
    // unweighted, since cap * w / wsum need not round like cap / n.
    splitVesMeFirst(core, /*weighted=*/false);
}

Cycles
PmtPolicy::nextWakeup(const NpuCoreSim &core, Cycles now)
{
    if (now < switchReadyAt_)
        return switchReadyAt_;
    if (active_ == kNoSlot)
        return kCyclesInf;
    // Preemption check at quantum end while somebody else waits.
    for (std::uint32_t s = 0; s < core.slots().size(); ++s) {
        if (s != active_ && slotHasWork(core, s))
            return std::max(quantumEnd_, now + 1.0);
    }
    return kCyclesInf;
}

} // namespace neu10
