#include "sched/neu10_policy.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "npu/bandwidth.hh"

namespace neu10
{

namespace
{

/** Temporal-sharing re-evaluation quantum (cycles). */
constexpr Cycles kTemporalQuantum = 8192.0;

/** Re-binding a previously preempted uTOp restores its ME state. */
bool
needsRestorePenalty(const UnitRun *u)
{
    return u->preemptions > 0 && u->x > 0.0;
}

} // anonymous namespace

Neu10Policy::Neu10Policy(bool harvest, bool temporal)
    : harvest_(harvest), temporal_(temporal)
{
}

std::string
Neu10Policy::name() const
{
    if (temporal_)
        return "Neu10-T";
    return harvest_ ? "Neu10" : "Neu10-NH";
}

void
Neu10Policy::computeBudgets(const NpuCoreSim &core)
{
    const auto &slots = core.slots();
    std::vector<unsigned> &b = budget_;
    b.assign(slots.size(), 0);

    unsigned total_alloc = 0;
    for (const auto &s : slots)
        total_alloc += s.nMes;

    if (!temporal_ || total_alloc <= core.config().numMes) {
        for (size_t i = 0; i < slots.size(); ++i)
            b[i] = slots[i].nMes;
        return;
    }

    // Oversubscribed: split the physical MEs by priority-weighted
    // deficit (least attained service first), capped by allocation.
    const unsigned phys = core.config().numMes;
    std::vector<size_t> &order = order_;
    order.resize(slots.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t c) {
                         const double da =
                             slots[a].meServiceCycles /
                             std::max(1e-9, slots[a].priority);
                         const double dc =
                             slots[c].meServiceCycles /
                             std::max(1e-9, slots[c].priority);
                         return da < dc;
                     });
    unsigned left = phys;
    for (size_t i : order) {
        // Only grant budget a slot can actually use.
        const auto backlog = static_cast<unsigned>(
            slots[i].readyMe.size() + core.budgetUsed(
                static_cast<std::uint32_t>(i)));
        const unsigned want = std::min(slots[i].nMes, backlog);
        b[i] = std::min(want, left);
        left -= b[i];
    }
    // Hand leftovers to anyone with remaining allocation.
    for (size_t i : order) {
        if (left == 0)
            break;
        const unsigned extra = std::min(left, slots[i].nMes - b[i]);
        b[i] += extra;
        left -= extra;
    }
}

void
Neu10Policy::scheduleMes(NpuCoreSim &core, Cycles now)
{
    (void)now;
    auto &slots = core.slots();
    computeBudgets(core);
    const std::vector<unsigned> &budget = budget_;

    // Phase 1 — fill own budget FIFO.
    for (std::uint32_t s = 0; s < slots.size(); ++s) {
        while (!slots[s].readyMe.empty() &&
               core.budgetUsed(s) < budget[s]) {
            UnitRun *u = slots[s].readyMe.front();
            core.bindMe(u, s, needsRestorePenalty(u));
        }
    }

    if (!harvest_ || !harvestMes_)
        return;

    // Phase 2 — reclaim: backlogged owners preempt harvesters on
    // their budget; the incoming uTOp pays the context switch, which
    // is exactly the "blocked because my engines were harvested" time
    // Table III reports.
    for (std::uint32_t s = 0; s < slots.size(); ++s) {
        while (!slots[s].readyMe.empty() &&
               core.budgetUsed(s) >= budget[s]) {
            const auto harvesters = core.harvestersOn(s);
            if (harvesters.empty())
                break;
            // Evict the most recently admitted harvester: it has the
            // least sunk progress on average.
            UnitRun *victim = harvesters.back();
            ++slots[s].reclaimPreemptions;
            slots[s].blockedByHarvest += core.config().mePreemptCycles;
            core.preemptMe(victim);
            UnitRun *u = slots[s].readyMe.front();
            core.bindMe(u, s, /*with_penalty=*/true);
        }
    }

    // Phase 3 — harvest idle budget of collocated vNPUs, round-robin
    // over backlogged slots so no tenant monopolizes the spare MEs.
    bool bound = true;
    while (bound) {
        bound = false;
        for (std::uint32_t q = 0; q < slots.size(); ++q) {
            if (slots[q].readyMe.empty())
                continue;
            for (std::uint32_t p = 0; p < slots.size(); ++p) {
                if (p == q || core.budgetUsed(p) >= budget[p])
                    continue;
                if (!slots[p].readyMe.empty())
                    continue; // owner will want it this round
                UnitRun *u = slots[q].readyMe.front();
                core.bindMe(u, p, needsRestorePenalty(u));
                bound = true;
                break;
            }
        }
    }
}

void
Neu10Policy::scheduleVes(NpuCoreSim &core, Cycles now)
{
    (void)now;
    auto &slots = core.slots();
    const unsigned ve_queues = core.config().numVes;

    // Start ready VE uTOps round-robin while instruction queues last
    // ("a ready VE uTOp is always executed").
    bool started = true;
    while (core.runningVeUnits() < ve_queues && started) {
        started = false;
        for (auto &slot : slots) {
            if (slot.readyVe.empty())
                continue;
            if (core.runningVeUnits() >= ve_queues)
                break;
            core.startVe(slot.readyVe.front());
            started = true;
        }
    }

    // Per-slot VE share assignment: ME-uTOp demand first (frees the
    // occupied MEs soonest), then VE uTOps; surplus harvested.
    meUnits_.clear();
    veUnits_.clear();
    for (UnitRun *u : core.running()) {
        if (u->veTime <= 0.0) {
            u->veShare = 0.0;
            continue;
        }
        (u->kind == UTopKind::Me ? meUnits_ : veUnits_).push_back(u);
    }

    slotLeft_.resize(slots.size());
    for (size_t s = 0; s < slots.size(); ++s)
        slotLeft_[s] = slots[s].nVes;

    // Buckets the units by slot once (keeping running-set order within
    // each slot), then splits each slot's VE budget max-min.
    auto allocate_within = [&](const std::vector<UnitRun *> &units) {
        slotUnits_.resize(slots.size());
        for (auto &bucket : slotUnits_)
            bucket.clear();
        for (UnitRun *u : units)
            slotUnits_[u->slot].push_back(u);
        for (std::uint32_t s = 0; s < slots.size(); ++s) {
            const auto &mine = slotUnits_[s];
            demands_.clear();
            for (const UnitRun *u : mine)
                demands_.push_back(std::min<double>(
                    u->veDemandRate(), core.config().numVes));
            grants_.resize(mine.size());
            maxMinAllocate(demands_, slotLeft_[s], grants_);
            for (size_t i = 0; i < mine.size(); ++i) {
                mine[i]->veShare = grants_[i];
                slotLeft_[s] =
                    std::max(0.0, slotLeft_[s] - grants_[i]);
            }
        }
    };
    allocate_within(meUnits_);
    allocate_within(veUnits_);

    if (!harvest_ || !harvestVes_)
        return;

    // Harvest surplus VE capacity: unmet ME-uTOp demand first, then
    // VE uTOps (the Fig. 18b order).
    double surplus = 0.0;
    for (double v : slotLeft_)
        surplus += v;
    if (surplus <= 1e-12)
        return;

    auto top_up = [&](const std::vector<UnitRun *> &units) {
        if (surplus <= 1e-12)
            return;
        demands_.clear();
        for (const UnitRun *u : units) {
            const double want = std::min<double>(
                u->veDemandRate(), core.config().numVes);
            demands_.push_back(std::max(0.0, want - u->veShare));
        }
        grants_.resize(units.size());
        maxMinAllocate(demands_, surplus, grants_);
        for (size_t i = 0; i < units.size(); ++i) {
            units[i]->veShare += grants_[i];
            surplus -= grants_[i];
        }
    };
    top_up(meUnits_);
    top_up(veUnits_);
}

Cycles
Neu10Policy::nextWakeup(const NpuCoreSim &core, Cycles now)
{
    if (!temporal_)
        return kCyclesInf;
    // Re-evaluate deficit budgets periodically while oversubscribed
    // slots are contending.
    unsigned total_alloc = 0;
    for (const auto &s : core.slots())
        total_alloc += s.nMes;
    if (total_alloc <= core.config().numMes)
        return kCyclesInf;
    bool backlog = false;
    for (const auto &s : core.slots())
        if (!s.readyMe.empty())
            backlog = true;
    return backlog ? now + kTemporalQuantum : kCyclesInf;
}

} // namespace neu10
