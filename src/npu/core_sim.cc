#include "npu/core_sim.hh"

#include <algorithm>

#include "common/logging.hh"
#include "npu/bandwidth.hh"
#include "sched/policy.hh"

namespace neu10
{

namespace
{

/** Progress this close to 1 counts as complete (fp guard). */
constexpr double kDoneEps = 1e-7;

} // anonymous namespace

/** Execution state of one inference request. */
struct NpuCoreSim::RequestExec
{
    std::uint64_t id = 0;
    std::uint32_t index = 0;           // slot in NpuCoreSim::requests_
    std::uint32_t slot = 0;
    const CompiledModel *model = nullptr; // null while on the free list
    RequestCallback cb;
    Cycles submit = 0.0;

    std::vector<unsigned> depsLeft;    // per op
    std::vector<std::uint32_t> groupPos;
    std::vector<unsigned> unitsLeft;   // in the current group
    std::vector<OpTiming> timings;
    size_t opsDone = 0;
};

NpuCoreSim::NpuCoreSim(EventQueue &queue, const NpuCoreConfig &cfg,
                       std::unique_ptr<SchedulerPolicy> policy,
                       std::vector<VnpuSlot> slots)
    : queue_(queue), cfg_(cfg), policy_(std::move(policy)),
      slots_(std::move(slots)),
      meUseful_(std::max(1u, cfg.numMes)),
      meHeld_(std::max(1u, cfg.numMes)),
      veBusy_(std::max(1u, cfg.numVes)),
      budgetUsed_(slots_.size(), 0),
      lastAdvance_(queue.now())
{
    NEU10_ASSERT(policy_ != nullptr, "core needs a scheduling policy");
    NEU10_ASSERT(!slots_.empty(), "core needs at least one vNPU slot");
    for (const auto &s : slots_) {
        NEU10_ASSERT(s.nVes > 0, "every vNPU needs at least one VE");
        NEU10_ASSERT(s.nMes > 0, "every vNPU needs at least one ME");
    }
}

NpuCoreSim::~NpuCoreSim()
{
    if (pendingEvent_ != kInvalidEvent)
        queue_.deschedule(pendingEvent_);
}

std::uint64_t
NpuCoreSim::submit(std::uint32_t slot, const CompiledModel *model,
                   RequestCallback cb)
{
    NEU10_ASSERT(slot < slots_.size(), "bad slot %u", slot);
    NEU10_ASSERT(model != nullptr, "null model");

    if (freeRequests_.empty()) {
        freeRequests_.push_back(
            static_cast<std::uint32_t>(requests_.size()));
        requests_.push_back(std::make_unique<RequestExec>());
    }
    RequestExec &r = *requests_[freeRequests_.back()];
    r.index = freeRequests_.back();
    freeRequests_.pop_back();
    r.id = nextRequestId_++;
    r.slot = slot;
    r.model = model;
    r.cb = std::move(cb);
    r.submit = queue_.now();
    r.opsDone = 0;

    const size_t nops = model->ops.size();
    r.depsLeft.resize(nops);
    r.groupPos.assign(nops, 0);
    r.unitsLeft.assign(nops, 0);
    r.timings.clear();
    if (captureOpTimings_) {
        r.timings.resize(nops);
        for (size_t i = 0; i < nops; ++i)
            r.timings[i].opIndex = static_cast<std::uint32_t>(i);
    }
    const std::uint64_t id = r.id;

    for (size_t i = 0; i < nops; ++i)
        r.depsLeft[i] =
            static_cast<unsigned>(model->ops[i].deps.size());
    for (size_t i = 0; i < nops; ++i) {
        if (r.depsLeft[i] == 0)
            enqueueReadyUnits(r, static_cast<std::uint32_t>(i),
                              queue_.now());
    }

    if (!inEvent_) {
        // Kick a scheduling round right away.
        if (pendingEvent_ != kInvalidEvent)
            queue_.deschedule(pendingEvent_);
        pendingEvent_ = queue_.schedule(
            queue_.now(), [this](Cycles t) { onEvent(t); },
            EventPriority::Schedule);
    }
    return id;
}

void
NpuCoreSim::enqueueReadyUnits(RequestExec &req, std::uint32_t op_idx,
                              Cycles now)
{
    const CompiledOp &op = req.model->ops[op_idx];
    const WorkGroup &grp = op.groups[req.groupPos[op_idx]];
    req.unitsLeft[op_idx] = static_cast<unsigned>(grp.units.size());

    for (const WorkUnit &w : grp.units) {
        UnitRun *unit = newUnit();
        unit->id = nextUnitId_++;
        unit->slot = req.slot;
        unit->kind = w.kind;
        unit->gang = w.gang;
        unit->meTime = w.meTime;
        unit->meEff = w.meEff;
        unit->veTime = w.veTime;
        unit->bytes = w.bytes;
        unit->requestId = req.id;
        unit->request = req.index;
        unit->opIdx = op_idx;
        unit->readyAt = now;

        if (unit->kind == UTopKind::Me)
            slots_[req.slot].readyMe.push_back(unit);
        else
            slots_[req.slot].readyVe.push_back(unit);
    }
}

UnitRun *
NpuCoreSim::newUnit()
{
    if (freeUnits_.empty()) {
        units_.push_back(std::make_unique<UnitRun>());
        return units_.back().get();
    }
    UnitRun *u = freeUnits_.back();
    freeUnits_.pop_back();
    *u = UnitRun{};
    return u;
}

NpuCoreSim::RequestExec &
NpuCoreSim::requestOf(const UnitRun *u)
{
    // A unit's table entry may have gone to a newer request; the id
    // tells a stale unit from a live one.
    RequestExec &req = *requests_[u->request];
    NEU10_ASSERT(req.model != nullptr && req.id == u->requestId,
                 "unit %llu outlived its request",
                 static_cast<unsigned long long>(u->id));
    return req;
}

void
NpuCoreSim::releaseRequest(RequestExec &req)
{
    req.model = nullptr;
    req.cb = nullptr;
    freeRequests_.push_back(req.index);
}

void
NpuCoreSim::advanceTo(Cycles now)
{
    const Cycles dt = now - lastAdvance_;
    if (dt <= 0.0) {
        lastAdvance_ = now;
        return;
    }
    if (trace_ != nullptr && traceEngineEvents_) {
        trace_->span(lastAdvance_, now, "engine", "advance", "units",
                     static_cast<double>(running_.size()));
    }

    double hbm_rate = 0.0;
    scratchOccupancy_.assign(slots_.size(), 0.0);
    scratchUseful_.assign(slots_.size(), 0.0);
    std::vector<double> &me_occ = scratchOccupancy_;
    std::vector<double> &me_useful = scratchUseful_;

    for (UnitRun *u : running_) {
        const bool stalled = u->penalty > 0.0;
        if (stalled) {
            u->penalty = std::max(0.0, u->penalty - dt);
        } else {
            u->x = std::min(1.0, u->x + u->rate * dt);
        }
        hbm_rate += u->rate * static_cast<double>(u->bytes);
        if (u->kind == UTopKind::Me) {
            me_occ[u->slot] += u->gang;
            if (!stalled && u->meTime > 0.0)
                me_useful[u->slot] += u->usefulMes();
        }
    }
    hbmBytes_ += hbm_rate * dt;

    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        slots_[s].meServiceCycles += me_occ[s] * dt;
        slots_[s].meUsefulCycles += me_useful[s] * dt;
        // Blocked-by-harvest (Table III): ready backlog while the own
        // budget is (partly) consumed by other vNPUs' harvesters.
        if (slots_[s].hasMeBacklog() && budgetUsed(s) >= slots_[s].nMes) {
            for (UnitRun *u : running_) {
                if (u->kind == UTopKind::Me && u->budgetSlot == s &&
                    u->slot != s) {
                    slots_[s].blockedByHarvest += dt;
                    break;
                }
            }
        }
    }
    lastAdvance_ = now;
}

void
NpuCoreSim::start(UnitRun *u)
{
    NEU10_ASSERT(!u->running, "unit already running");
    auto &q = u->kind == UTopKind::Me ? slots_[u->slot].readyMe
                                      : slots_[u->slot].readyVe;
    auto it = std::find(q.begin(), q.end(), u);
    NEU10_ASSERT(it != q.end(), "unit %llu not in ready queue",
                 static_cast<unsigned long long>(u->id));
    q.erase(it);
    u->running = true;
    running_.push_back(u);

    if (captureOpTimings_) {
        OpTiming &t = requestOf(u).timings[u->opIdx];
        t.start = std::min(t.start, queue_.now());
    }
}

void
NpuCoreSim::release(UnitRun *u)
{
    u->running = false;
    if (u->kind == UTopKind::Ve) {
        --runningVes_;
        return;
    }
    // A harvester is charged to another slot's budget: release that
    // budget, not its owner's.
    NEU10_ASSERT(u->budgetSlot < slots_.size() &&
                     budgetUsed_[u->budgetSlot] >= u->gang,
                 "budget accounting underflow on release of unit %llu",
                 static_cast<unsigned long long>(u->id));
    budgetUsed_[u->budgetSlot] -= u->gang;
    boundMes_ -= u->gang;
    u->budgetSlot = kNoSlot;
}

void
NpuCoreSim::bindMe(UnitRun *u, std::uint32_t budget_slot,
                   bool with_penalty)
{
    NEU10_ASSERT(u->kind == UTopKind::Me, "bindMe on a VE unit");
    NEU10_ASSERT(budget_slot < slots_.size(), "bad budget slot");
    NEU10_ASSERT(boundMes_ + u->gang <= cfg_.numMes,
                 "binding unit %llu would hold %u of the core's %u MEs",
                 static_cast<unsigned long long>(u->id),
                 boundMes_ + u->gang, cfg_.numMes);
    start(u);
    u->budgetSlot = budget_slot;
    u->penalty = with_penalty ? cfg_.mePreemptCycles : 0.0;
    budgetUsed_[budget_slot] += u->gang;
    boundMes_ += u->gang;
}

void
NpuCoreSim::startVe(UnitRun *u)
{
    NEU10_ASSERT(u->kind == UTopKind::Ve, "startVe on an ME unit");
    NEU10_ASSERT(runningVeUnits() < cfg_.numVes,
                 "VE instruction queues exhausted");
    start(u);
    ++runningVes_;
}

void
NpuCoreSim::preempt(UnitRun *u)
{
    NEU10_ASSERT(u->running, "preempting a non-running unit");
    release(u);
    u->penalty = 0.0;
    u->rate = 0.0;
    u->veShare = 0.0;
    u->readyAt = queue_.now(); // its wait clock restarts on requeue
    ++u->preemptions;
    running_.erase(std::find(running_.begin(), running_.end(), u));
    auto &q = u->kind == UTopKind::Me ? slots_[u->slot].readyMe
                                      : slots_[u->slot].readyVe;
    q.insert(q.begin(), u);
}

void
NpuCoreSim::setCaptureSeries(bool on)
{
    // Each tracker asserts that it has seen no update yet, which
    // holds until the first event's updateStats.
    meUseful_.setCaptureSeries(on);
    meHeld_.setCaptureSeries(on);
    veBusy_.setCaptureSeries(on);
    captureSeries_ = on;
}

unsigned
NpuCoreSim::budgetUsed(std::uint32_t slot) const
{
    // Maintained incrementally (bindMe / release): the policies
    // probe this once per candidate binding, which made the former
    // running-set scan an O(n^2) hot spot.
    return budgetUsed_[slot];
}

std::span<UnitRun *const>
NpuCoreSim::harvestersOn(std::uint32_t slot)
{
    scratchHarvesters_.clear();
    for (UnitRun *u : running_)
        if (u->kind == UTopKind::Me && u->budgetSlot == slot &&
            u->slot != slot) {
            scratchHarvesters_.push_back(u);
        }
    return scratchHarvesters_;
}

void
NpuCoreSim::computeShares()
{
    // HBM: two-level max-min — equal split between vNPUs with traffic,
    // then between each vNPU's units (§III-B fair sharing by default).
    const double bpc = cfg_.hbmBytesPerCycle();

    // One pass stores each unit's unconstrained rate (ME + VE
    // constraints only) in its rate, buckets the traffic-bearing
    // units by slot (preserving running-set order within each slot,
    // which the per-unit max-min split below depends on) and sums
    // per-slot demand.
    scratchDemand_.assign(slots_.size(), 0.0);
    if (scratchSlotUnits_.size() != slots_.size())
        scratchSlotUnits_.resize(slots_.size());
    for (auto &bucket : scratchSlotUnits_)
        bucket.clear();
    for (UnitRun *u : running_) {
        double r = 0.0;
        if (u->penalty <= 0.0) {
            r = 1e18;
            if (u->kind == UTopKind::Me && u->meTime > 0.0)
                r = std::min(r, 1.0 / u->meTime);
            if (u->veTime > 0.0)
                r = std::min(r, u->veShare / u->veTime);
            if (r >= 1e18)
                r = 1.0; // degenerate unit: all streams empty
        }
        u->rate = r;
        scratchDemand_[u->slot] += r * static_cast<double>(u->bytes);
        if (u->bytes != 0)
            scratchSlotUnits_[u->slot].push_back(u);
    }
    scratchSlotGrant_.resize(slots_.size());
    maxMinAllocate(scratchDemand_, bpc, scratchSlotGrant_);

    // Per-unit split of each slot's grant, and the HBM cap on the
    // rate of every unit that moves bytes. Units without traffic
    // keep their unconstrained rate; a unit paying a penalty has
    // rate 0, which the cap keeps.
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        const auto &mine = scratchSlotUnits_[s];
        scratchUnitDemand_.clear();
        for (const UnitRun *u : mine)
            scratchUnitDemand_.push_back(u->rate *
                                         static_cast<double>(u->bytes));
        scratchGrant_.resize(mine.size());
        maxMinAllocate(scratchUnitDemand_, scratchSlotGrant_[s],
                       scratchGrant_);
        for (size_t i = 0; i < mine.size(); ++i) {
            UnitRun *u = mine[i];
            u->hbmShare = scratchGrant_[i];
            u->rate = std::min(
                u->rate, u->hbmShare / static_cast<double>(u->bytes));
        }
    }
}

void
NpuCoreSim::updateStats(Cycles now)
{
    double useful = 0.0, held = 0.0, ve = 0.0;
    // Per-slot sums feed only the captured assignment series.
    std::vector<double> &slot_mes = scratchOccupancy_;
    std::vector<double> &slot_ves = scratchUseful_;
    if (captureSeries_) {
        slot_mes.assign(slots_.size(), 0.0);
        slot_ves.assign(slots_.size(), 0.0);
    }

    for (const UnitRun *u : running_) {
        if (u->kind == UTopKind::Me) {
            held += u->gang;
            if (captureSeries_)
                slot_mes[u->slot] += u->gang;
            if (u->penalty <= 0.0 && u->meTime > 0.0)
                useful += u->usefulMes();
        }
        const double ve_rate =
            u->penalty > 0.0 ? 0.0 : u->rate * u->veTime;
        ve += ve_rate;
        if (captureSeries_)
            slot_ves[u->slot] += ve_rate;
    }
    meUseful_.setBusy(now, useful);
    meHeld_.setBusy(now, held);
    veBusy_.setBusy(now, ve);

    if (captureSeries_) {
        for (std::uint32_t s = 0; s < slots_.size(); ++s) {
            slots_[s].assignedMes.record(now, slot_mes[s]);
            slots_[s].assignedVes.record(now, slot_ves[s]);
        }
    }
}

void
NpuCoreSim::completeUnit(UnitRun *u, Cycles now)
{
    release(u);
    RequestExec &req = requestOf(u);
    const std::uint32_t op_idx = u->opIdx;
    // Nothing refers to a completed unit any more: recycle it before
    // the follow-on work below draws from the pool.
    freeUnits_.push_back(u);

    NEU10_ASSERT(req.unitsLeft[op_idx] > 0, "unit count underflow");
    if (--req.unitsLeft[op_idx] == 0) {
        const CompiledOp &op = req.model->ops[op_idx];
        if (++req.groupPos[op_idx] <
            static_cast<std::uint32_t>(op.groups.size())) {
            enqueueReadyUnits(req, op_idx, now);
        } else {
            opFinished(req, op_idx, now);
        }
    }
}

void
NpuCoreSim::opFinished(RequestExec &req, std::uint32_t op_idx,
                       Cycles now)
{
    if (captureOpTimings_)
        req.timings[op_idx].end = now;
    ++req.opsDone;

    // Wake dependents.
    const auto nops = static_cast<std::uint32_t>(req.model->ops.size());
    for (std::uint32_t j = op_idx + 1; j < nops; ++j) {
        const auto &deps = req.model->ops[j].deps;
        if (std::find(deps.begin(), deps.end(), op_idx) != deps.end()) {
            NEU10_ASSERT(req.depsLeft[j] > 0, "dep count underflow");
            if (--req.depsLeft[j] == 0)
                enqueueReadyUnits(req, j, now);
        }
    }

    if (req.opsDone == req.model->ops.size()) {
        RequestResult res;
        res.id = req.id;
        res.slot = req.slot;
        res.submitTime = req.submit;
        res.finishTime = now;
        res.opTimings = std::move(req.timings);
        ++slots_[req.slot].requestsCompleted;
        RequestCallback cb = std::move(req.cb);
        releaseRequest(req);
        if (cb)
            cb(res);
    }
}

void
NpuCoreSim::onEvent(Cycles now)
{
    pendingEvent_ = kInvalidEvent;
    inEvent_ = true;

    advanceTo(now);

    // Drain completions (completions may cascade: an op's last unit
    // enqueues the next group; a request callback may submit more).
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (size_t i = 0; i < running_.size();) {
            UnitRun *u = running_[i];
            if (u->penalty <= 0.0 && u->x >= 1.0 - kDoneEps) {
                running_.erase(running_.begin() +
                               static_cast<long>(i));
                completeUnit(u, now);
                progressed = true;
            } else {
                ++i;
            }
        }
    }

    policy_->scheduleMes(*this, now);
    policy_->scheduleVes(*this, now);
    computeShares();
    updateStats(now);

    inEvent_ = false;
    scheduleNext();
}

void
NpuCoreSim::scheduleNext()
{
    Cycles next = kCyclesInf;
    for (const UnitRun *u : running_) {
        if (u->penalty > 0.0) {
            next = std::min(next, queue_.now() + u->penalty);
        } else if (u->rate > 0.0) {
            next = std::min(next,
                            queue_.now() + (1.0 - u->x) / u->rate);
        }
        // rate == 0 without penalty is a legal transient stall (e.g. a
        // VE operator starved while a gang operator consumes the VE
        // pool); some other unit's completion must eventually unstall
        // it, which the deadlock check below enforces.
    }
    next = std::min(next, policy_->nextWakeup(*this, queue_.now()));

    bool backlog = !running_.empty();
    for (const auto &s : slots_)
        if (!s.readyMe.empty() || !s.readyVe.empty())
            backlog = true;
    if (backlog && next >= kCyclesInf)
        panic("scheduler deadlock: work exists but no event pending");

    if (next < kCyclesInf) {
        // Clamp to strictly-future: a wakeup computed a rounding-error
        // past `now` must not re-fire at the same instant forever.
        next = std::max(next, queue_.now() + 1e-6);
        pendingEvent_ = queue_.schedule(
            next, [this](Cycles t) { onEvent(t); },
            EventPriority::Schedule);
    }
}

void
NpuCoreSim::drainSlot(std::uint32_t slot)
{
    NEU10_ASSERT(slot < slots_.size(), "bad slot");
    // Every unit of the slot's requests carries the slot's index, so
    // the running set and the ready queues hold all of them.
    for (size_t i = 0; i < running_.size();) {
        UnitRun *u = running_[i];
        if (u->slot != slot) {
            ++i;
            continue;
        }
        release(u);
        running_.erase(running_.begin() + static_cast<long>(i));
        freeUnits_.push_back(u);
    }
    for (auto *q : {&slots_[slot].readyMe, &slots_[slot].readyVe}) {
        freeUnits_.insert(freeUnits_.end(), q->begin(), q->end());
        q->clear();
    }
    for (auto &req : requests_)
        if (req->model != nullptr && req->slot == slot)
            releaseRequest(*req);
}

} // namespace neu10
