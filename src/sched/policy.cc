#include "sched/policy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strings.hh"
#include "npu/bandwidth.hh"
#include "sched/neu10_policy.hh"
#include "sched/pmt_policy.hh"
#include "sched/v10_policy.hh"

namespace neu10
{

void
SchedulerPolicy::startVesRoundRobin(NpuCoreSim &core)
{
    const unsigned ve_queues = core.config().numVes;
    bool started = true;
    while (core.runningVeUnits() < ve_queues && started) {
        started = false;
        for (auto &slot : core.slots()) {
            if (slot.readyVe.empty())
                continue;
            if (core.runningVeUnits() >= ve_queues)
                break;
            core.startVe(slot.readyVe.front());
            started = true;
        }
    }
}

UnitRun *
SchedulerPolicy::runningGang(const NpuCoreSim &core)
{
    for (UnitRun *u : core.running())
        if (u->kind == UTopKind::Me)
            return u;
    return nullptr;
}

void
SchedulerPolicy::splitVesMeFirst(NpuCoreSim &core, bool weighted)
{
    const unsigned pool = core.config().numVes;
    double left = pool;
    veUnits_.clear();
    demands_.clear();
    weights_.clear();
    for (UnitRun *u : core.running()) {
        if (u->veTime <= 0.0) {
            u->veShare = 0.0;
            continue;
        }
        if (u->kind == UTopKind::Me) {
            u->veShare = std::min(u->veDemandRate(), left);
            left = std::max(0.0, left - u->veShare);
        } else {
            veUnits_.push_back(u);
            demands_.push_back(pool);
            if (weighted)
                weights_.push_back(core.slots()[u->slot].priority);
        }
    }
    grants_.resize(veUnits_.size());
    maxMinAllocate(demands_, left, grants_, weights_);
    for (size_t i = 0; i < veUnits_.size(); ++i)
        veUnits_[i]->veShare = grants_[i];
}

std::string
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Neu10: return "Neu10";
      case PolicyKind::Neu10NH: return "Neu10-NH";
      case PolicyKind::V10: return "V10";
      case PolicyKind::Pmt: return "PMT";
    }
    panic("unknown policy kind %d", static_cast<int>(kind));
}

PolicyKind
policyFromName(const std::string &name)
{
    const std::string low = toLower(name);
    if (low == "neu10")
        return PolicyKind::Neu10;
    if (low == "neu10-nh" || low == "neu10nh" || low == "nh")
        return PolicyKind::Neu10NH;
    if (low == "v10")
        return PolicyKind::V10;
    if (low == "pmt")
        return PolicyKind::Pmt;
    // Never fall back silently: a bench CLI typo must fail loudly
    // with the full accepted vocabulary, not run the default design.
    fatal("unknown scheduling policy '%s'; valid names are 'neu10', "
          "'neu10-nh' (aliases 'neu10nh', 'nh'), 'v10' and 'pmt' "
          "(case-insensitive)", name.c_str());
}

std::unique_ptr<SchedulerPolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Neu10:
        return std::make_unique<Neu10Policy>(/*harvest_mes=*/true,
                                             /*harvest_ves=*/true);
      case PolicyKind::Neu10NH:
        return std::make_unique<Neu10Policy>(/*harvest_mes=*/false,
                                             /*harvest_ves=*/false);
      case PolicyKind::V10:
        return std::make_unique<V10Policy>();
      case PolicyKind::Pmt:
        return std::make_unique<PmtPolicy>();
    }
    panic("unknown policy kind %d", static_cast<int>(kind));
}

bool
policyUsesNeuIsa(PolicyKind kind)
{
    return kind == PolicyKind::Neu10 || kind == PolicyKind::Neu10NH;
}

} // namespace neu10
