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
    std::uint32_t slot = 0;
    const CompiledModel *model = nullptr;
    RequestCallback cb;
    Cycles submit = 0.0;

    std::vector<unsigned> depsLeft;    // per op
    std::vector<std::uint32_t> groupPos;
    std::vector<unsigned> unitsLeft;   // in the current group
    std::vector<OpTiming> timings;
    size_t opsDone = 0;
    std::vector<std::unique_ptr<UnitRun>> units;
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

    auto req = std::make_unique<RequestExec>();
    req->id = nextRequestId_++;
    req->slot = slot;
    req->model = model;
    req->cb = std::move(cb);
    req->submit = queue_.now();

    const size_t nops = model->ops.size();
    req->depsLeft.resize(nops);
    req->groupPos.assign(nops, 0);
    req->unitsLeft.assign(nops, 0);
    if (captureOpTimings_) {
        req->timings.resize(nops);
        for (size_t i = 0; i < nops; ++i)
            req->timings[i].opIndex = static_cast<std::uint32_t>(i);
    }

    RequestExec &r = *req;
    const std::uint64_t id = r.id;
    requests_.emplace(id, std::move(req));

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
        auto unit = std::make_unique<UnitRun>();
        unit->id = nextUnitId_++;
        unit->slot = req.slot;
        unit->kind = w.kind;
        unit->gang = w.gang;
        unit->meTime = w.meTime;
        unit->meEff = w.meEff;
        unit->veTime = w.veTime;
        unit->bytes = w.bytes;
        unit->request = req.id;
        unit->opIdx = op_idx;
        unit->readyAt = now;

        UnitRun *raw = unit.get();
        req.units.push_back(std::move(unit));
        if (raw->kind == UTopKind::Me)
            slots_[req.slot].readyMe.push_back(raw);
        else
            slots_[req.slot].readyVe.push_back(raw);
    }
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
            if (!stalled && u->meTime > 0.0) {
                // Useful service: what a performance counter sees —
                // occupancy discounted by array fill and stalls.
                me_useful[u->slot] +=
                    u->gang * u->meEff *
                    std::min(1.0, u->rate * u->meTime);
            }
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
NpuCoreSim::removeFromReady(UnitRun *u)
{
    auto &q = u->kind == UTopKind::Me ? slots_[u->slot].readyMe
                                      : slots_[u->slot].readyVe;
    auto it = std::find(q.begin(), q.end(), u);
    NEU10_ASSERT(it != q.end(), "unit %llu not in ready queue",
                 static_cast<unsigned long long>(u->id));
    q.erase(it);
}

void
NpuCoreSim::bindMe(UnitRun *u, std::uint32_t budget_slot,
                   bool with_penalty)
{
    NEU10_ASSERT(u->kind == UTopKind::Me, "bindMe on a VE unit");
    NEU10_ASSERT(!u->running, "unit already running");
    NEU10_ASSERT(budget_slot < slots_.size(), "bad budget slot");
    removeFromReady(u);
    u->running = true;
    u->budgetSlot = budget_slot;
    u->penalty = with_penalty ? cfg_.mePreemptCycles : 0.0;
    budgetUsed_[budget_slot] += u->gang;
    running_.push_back(u);

    if (captureOpTimings_) {
        auto it = requests_.find(u->request);
        if (it != requests_.end()) {
            OpTiming &t = it->second->timings[u->opIdx];
            t.start = std::min(t.start, queue_.now());
        }
    }
}

void
NpuCoreSim::preemptMe(UnitRun *u)
{
    NEU10_ASSERT(u->running && u->kind == UTopKind::Me,
                 "preempting a non-running ME unit");
    NEU10_ASSERT(budgetUsed_[u->budgetSlot] >= u->gang,
                 "budget accounting underflow on preempt");
    budgetUsed_[u->budgetSlot] -= u->gang;
    u->running = false;
    u->budgetSlot = kNoSlot;
    u->penalty = 0.0;
    u->rate = 0.0;
    u->readyAt = queue_.now(); // its wait clock restarts on requeue
    ++u->preemptions;
    running_.erase(std::find(running_.begin(), running_.end(), u));
    slots_[u->slot].readyMe.push_front(u);
}

void
NpuCoreSim::startVe(UnitRun *u)
{
    NEU10_ASSERT(u->kind == UTopKind::Ve, "startVe on an ME unit");
    NEU10_ASSERT(!u->running, "unit already running");
    NEU10_ASSERT(runningVeUnits() < cfg_.numVes,
                 "VE instruction queues exhausted");
    removeFromReady(u);
    u->running = true;
    running_.push_back(u);

    if (captureOpTimings_) {
        auto it = requests_.find(u->request);
        if (it != requests_.end()) {
            OpTiming &t = it->second->timings[u->opIdx];
            t.start = std::min(t.start, queue_.now());
        }
    }
}

void
NpuCoreSim::preemptVe(UnitRun *u)
{
    NEU10_ASSERT(u->running && u->kind == UTopKind::Ve,
                 "preempting a non-running VE unit");
    u->running = false;
    u->rate = 0.0;
    u->veShare = 0.0;
    ++u->preemptions;
    running_.erase(std::find(running_.begin(), running_.end(), u));
    slots_[u->slot].readyVe.push_front(u);
}

unsigned
NpuCoreSim::budgetUsed(std::uint32_t slot) const
{
    // Maintained incrementally (bindMe / preemptMe / completeUnit /
    // drainSlot): the policies probe this once per candidate binding,
    // which made the former running-set scan an O(n^2) hot spot.
    return budgetUsed_[slot];
}

std::vector<UnitRun *>
NpuCoreSim::harvestersOn(std::uint32_t slot)
{
    std::vector<UnitRun *> out;
    out.reserve(running_.size());
    for (UnitRun *u : running_)
        if (u->kind == UTopKind::Me && u->budgetSlot == slot &&
            u->slot != slot) {
            out.push_back(u);
        }
    return out;
}

unsigned
NpuCoreSim::runningVeUnits() const
{
    unsigned n = 0;
    for (const UnitRun *u : running_)
        if (u->kind == UTopKind::Ve)
            ++n;
    return n;
}

void
NpuCoreSim::computeShares()
{
    // HBM: two-level max-min — equal split between vNPUs with traffic,
    // then between each vNPU's units (§III-B fair sharing by default).
    const double bpc = cfg_.hbmBytesPerCycle();

    // Unconstrained rate (ME + VE constraints only).
    auto base_rate = [](const UnitRun *u) {
        if (u->penalty > 0.0)
            return 0.0;
        double r = 1e18;
        if (u->kind == UTopKind::Me && u->meTime > 0.0)
            r = std::min(r, 1.0 / u->meTime);
        if (u->veTime > 0.0)
            r = std::min(r, u->veShare / u->veTime);
        if (r >= 1e18)
            r = 1.0; // degenerate unit: all streams empty
        return r;
    };

    // One pass buckets the traffic-bearing units by slot (preserving
    // running-set order within each slot, which the per-unit max-min
    // split below depends on) while summing per-slot demand.
    scratchDemand_.assign(slots_.size(), 0.0);
    if (scratchSlotUnits_.size() != slots_.size())
        scratchSlotUnits_.resize(slots_.size());
    for (auto &bucket : scratchSlotUnits_)
        bucket.clear();
    for (UnitRun *u : running_) {
        const double d = base_rate(u) * static_cast<double>(u->bytes);
        scratchDemand_[u->slot] += d;
        if (u->bytes != 0)
            scratchSlotUnits_[u->slot].push_back(u);
    }
    const std::vector<double> slot_grant =
        maxMinAllocate(scratchDemand_, bpc);

    std::vector<double> demands;
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        const auto &mine = scratchSlotUnits_[s];
        demands.clear();
        for (UnitRun *u : mine)
            demands.push_back(base_rate(u) *
                              static_cast<double>(u->bytes));
        const auto grants = maxMinAllocate(demands, slot_grant[s]);
        for (size_t i = 0; i < mine.size(); ++i)
            mine[i]->hbmShare = grants[i];
    }

    // Final per-unit rates.
    for (UnitRun *u : running_) {
        if (u->penalty > 0.0) {
            u->rate = 0.0;
            continue;
        }
        double r = base_rate(u);
        if (u->bytes > 0)
            r = std::min(r, u->hbmShare / static_cast<double>(u->bytes));
        u->rate = r;
    }
}

void
NpuCoreSim::updateStats(Cycles now)
{
    double useful = 0.0, held = 0.0, ve = 0.0;
    scratchOccupancy_.assign(slots_.size(), 0.0);
    scratchUseful_.assign(slots_.size(), 0.0);
    std::vector<double> &slot_mes = scratchOccupancy_;
    std::vector<double> &slot_ves = scratchUseful_;

    for (const UnitRun *u : running_) {
        if (u->kind == UTopKind::Me) {
            held += u->gang;
            slot_mes[u->slot] += u->gang;
            if (u->penalty <= 0.0 && u->meTime > 0.0) {
                useful += u->gang * u->meEff *
                          std::min(1.0, u->rate * u->meTime);
            }
        }
        const double ve_rate =
            u->penalty > 0.0 ? 0.0 : u->rate * u->veTime;
        ve += ve_rate;
        slot_ves[u->slot] += ve_rate;
    }
    meUseful_.setBusy(now, useful);
    meHeld_.setBusy(now, held);
    veBusy_.setBusy(now, ve);

    if (captureAssignment_) {
        for (std::uint32_t s = 0; s < slots_.size(); ++s) {
            slots_[s].assignedMes.record(now, slot_mes[s]);
            slots_[s].assignedVes.record(now, slot_ves[s]);
        }
    }
}

void
NpuCoreSim::completeUnit(UnitRun *u, Cycles now)
{
    if (u->kind == UTopKind::Me && u->budgetSlot != kNoSlot) {
        NEU10_ASSERT(budgetUsed_[u->budgetSlot] >= u->gang,
                     "budget accounting underflow on completion");
        budgetUsed_[u->budgetSlot] -= u->gang;
        u->budgetSlot = kNoSlot;
    }
    u->running = false;
    u->rate = 0.0;

    auto it = requests_.find(u->request);
    NEU10_ASSERT(it != requests_.end(), "completion for dead request");
    RequestExec &req = *it->second;

    NEU10_ASSERT(req.unitsLeft[u->opIdx] > 0, "unit count underflow");
    if (--req.unitsLeft[u->opIdx] == 0) {
        const CompiledOp &op = req.model->ops[u->opIdx];
        if (++req.groupPos[u->opIdx] <
            static_cast<std::uint32_t>(op.groups.size())) {
            enqueueReadyUnits(req, u->opIdx, now);
        } else {
            opFinished(req, u->opIdx, now);
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
        requests_.erase(req.id);
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
    for (auto it = requests_.begin(); it != requests_.end();) {
        if (it->second->slot != slot) {
            ++it;
            continue;
        }
        for (auto &u : it->second->units) {
            if (u->running) {
                if (u->kind == UTopKind::Me &&
                    u->budgetSlot != kNoSlot) {
                    // A drained unit may be a harvester charged to a
                    // *different* slot's budget: release that budget,
                    // not the drained slot's.
                    NEU10_ASSERT(budgetUsed_[u->budgetSlot] >= u->gang,
                                 "budget accounting underflow on "
                                 "drain");
                    budgetUsed_[u->budgetSlot] -= u->gang;
                }
                running_.erase(std::find(running_.begin(),
                                         running_.end(), u.get()));
            }
        }
        it = requests_.erase(it);
    }
    slots_[slot].readyMe.clear();
    slots_[slot].readyVe.clear();
}

} // namespace neu10
