#include "cluster/placement.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace neu10
{

std::string
placementName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::FirstFit: return "first-fit";
      case PlacementPolicy::BestFit: return "best-fit";
      case PlacementPolicy::LoadBalanced: return "load-balanced";
    }
    panic("unknown placement policy %d", static_cast<int>(policy));
}

PlacementPolicy
placementFromName(const std::string &name)
{
    const std::string low = toLower(name);
    if (low == "first-fit" || low == "firstfit" || low == "ff")
        return PlacementPolicy::FirstFit;
    if (low == "best-fit" || low == "bestfit" || low == "bf")
        return PlacementPolicy::BestFit;
    if (low == "load-balanced" || low == "loadbalanced" ||
        low == "load-balance" || low == "lb")
        return PlacementPolicy::LoadBalanced;
    fatal("unknown placement policy '%s' (want first-fit, best-fit "
          "or load-balanced)", name.c_str());
}

PlacementRequest
placementRequest(const VnpuSizing &sizing, double load)
{
    PlacementRequest req;
    req.nMes = sizing.config.numMesPerCore;
    req.nVes = sizing.config.numVesPerCore;
    req.hbmBytes = sizing.config.memSizePerCore;
    req.sramBytes = sizing.config.sramSizePerCore;
    req.load = load;
    return req;
}

FleetPlacer::FleetPlacer(unsigned num_cores, const NpuCoreConfig &core)
    : core_(core)
{
    NEU10_ASSERT(num_cores > 0, "fleet needs at least one core");
    // Free bytes count what the hypervisor maps, whole segments
    // (§III-C), only when each memory is whole segments itself.
    NEU10_ASSERT(core.sramBytes > 0 && core.hbmBytes > 0 &&
                     core.sramBytes % core.sramSegment == 0 &&
                     core.hbmBytes % core.hbmSegment == 0,
                 "core SRAM and HBM must be whole isolation segments");
    CoreCapacity cap;
    cap.freeMes = core.numMes;
    cap.freeVes = core.numVes;
    cap.freeHbm = core.hbmBytes;
    cap.freeSram = core.sramBytes;
    cores_.assign(num_cores, cap);
}

bool
FleetPlacer::fits(const CoreCapacity &c, const PlacementRequest &r) const
{
    return !c.quarantined && c.freeMes >= r.nMes &&
           c.freeVes >= r.nVes && c.freeHbm >= r.hbmBytes &&
           c.freeSram >= r.sramBytes;
}

void
FleetPlacer::setQuarantined(CoreId core, bool q)
{
    NEU10_ASSERT(core < cores_.size(), "bad core id %u", core);
    cores_[core].quarantined = q;
}

bool
FleetPlacer::quarantined(CoreId core) const
{
    NEU10_ASSERT(core < cores_.size(), "bad core id %u", core);
    return cores_[core].quarantined;
}

CoreId
FleetPlacer::place(const PlacementRequest &request,
                   PlacementPolicy policy)
{
    NEU10_ASSERT(request.nMes >= 1 && request.nVes >= 1,
                 "a vNPU needs at least one ME and one VE");

    CoreId best = kInvalidCore;
    for (CoreId i = 0; i < cores_.size(); ++i) {
        const CoreCapacity &c = cores_[i];
        if (!fits(c, request))
            continue;
        if (policy == PlacementPolicy::FirstFit) {
            best = i;
            break;
        }
        if (best == kInvalidCore) {
            best = i;
            continue;
        }
        const CoreCapacity &b = cores_[best];
        if (policy == PlacementPolicy::BestFit) {
            // Tightest fit: least EU headroom once placed (HBM breaks
            // EU ties so full-ish cores keep filling).
            const unsigned eu_c = c.freeEus();
            const unsigned eu_b = b.freeEus();
            if (eu_c < eu_b ||
                (eu_c == eu_b && c.freeHbm < b.freeHbm))
                best = i;
        } else { // LoadBalanced
            if (c.load < b.load ||
                (c.load == b.load && c.freeEus() > b.freeEus()))
                best = i;
        }
    }

    if (best != kInvalidCore)
        commit(best, request);
    return best;
}

bool
FleetPlacer::canHost(CoreId core, const PlacementRequest &request) const
{
    NEU10_ASSERT(core < cores_.size(), "bad core id %u", core);
    return fits(cores_[core], request);
}

bool
FleetPlacer::commit(CoreId core, const PlacementRequest &request)
{
    NEU10_ASSERT(core < cores_.size(), "bad core id %u", core);
    CoreCapacity &c = cores_[core];
    if (!fits(c, request))
        return false;
    c.freeMes -= request.nMes;
    c.freeVes -= request.nVes;
    c.freeHbm -= request.hbmBytes;
    c.freeSram -= request.sramBytes;
    c.load += request.load;
    ++c.residents;
    return true;
}

void
FleetPlacer::release(CoreId core, const PlacementRequest &request)
{
    NEU10_ASSERT(core < cores_.size(), "bad core id %u", core);
    CoreCapacity &c = cores_[core];
    NEU10_ASSERT(c.residents > 0, "core %u has no residents", core);
    c.freeMes += request.nMes;
    c.freeVes += request.nVes;
    c.freeHbm += request.hbmBytes;
    c.freeSram += request.sramBytes;
    c.load -= request.load;
    --c.residents;
}

bool
FleetPlacer::commitResplit(CoreId core, VnpuSizing &sizing,
                           unsigned budget, double load)
{
    NEU10_ASSERT(core < cores_.size(), "bad core id %u", core);
    const CoreCapacity &cap = cores_[core];
    VnpuSizing updated = sizing;
    if (!resplitForResidency(updated, budget, cap.freeMes, cap.freeVes,
                             core_) ||
        !commit(core, placementRequest(updated, load)))
        return false;
    sizing = updated;
    return true;
}

CoreId
FleetPlacer::placeResplit(VnpuSizing &sizing, unsigned budget,
                          double load, PlacementPolicy policy)
{
    const PlacementRequest cur = placementRequest(sizing, load);
    const CoreId dst = place(cur, policy);
    if (dst != kInvalidCore) {
        // Release the just-committed split so the re-split sees the
        // destination's free engines; place() already proved the
        // current split fits as the fallback.
        release(dst, cur);
        if (!commitResplit(dst, sizing, budget, load)) {
            const bool ok = commit(dst, cur);
            NEU10_ASSERT(ok, "restore destination lost capacity");
        }
        return dst;
    }
    // No core hosts the current split as-is (the lost core's
    // residency shaped it; survivors may have only the complementary
    // engines free): re-split against each survivor's residency.
    for (CoreId c = 0; c < cores_.size(); ++c)
        if (!cores_[c].quarantined &&
            commitResplit(c, sizing, budget, load))
            return c;
    return kInvalidCore;
}

std::vector<Migration>
FleetPlacer::rebalance(std::vector<double> core_pressure,
                       const std::vector<CoreId> &tenant_core,
                       const std::vector<PlacementRequest> &demands,
                       const RebalanceOptions &options)
{
    NEU10_ASSERT(core_pressure.size() == cores_.size(),
                 "pressure vector must cover every core");
    NEU10_ASSERT(tenant_core.size() == demands.size(),
                 "one demand per tenant");

    std::vector<CoreId> where = tenant_core;
    std::vector<Migration> moves;
    // One migration per tenant per pass: callers mirror the plan
    // into the hypervisor as one destroy + one pinned create per
    // mover, and a twice-moved tenant would corrupt that mirroring
    // (and thrash the vNPU in practice).
    std::vector<bool> moved(demands.size(), false);
    // Cores whose residents offered no viable move this pass: a core
    // hosting one huge-backlog vNPU can be the hottest yet unfixable
    // (moving its only tenant just relocates the hot spot), and must
    // not stall rebalancing of the next-hottest cores behind it.
    std::vector<bool> frozen(cores_.size(), false);
    while (moves.size() < options.maxMigrations) {
        // Hottest non-frozen and coldest cores; ties toward the
        // lower index. Quarantined cores are invisible on both
        // sides: they host nothing (not hot) and must not attract
        // migrants while down (not cold).
        CoreId hot = kInvalidCore, cold = kInvalidCore;
        for (CoreId c = 0; c < core_pressure.size(); ++c) {
            if (cores_[c].quarantined)
                continue;
            if (!frozen[c] &&
                (hot == kInvalidCore ||
                 core_pressure[c] > core_pressure[hot]))
                hot = c;
            if (cold == kInvalidCore ||
                core_pressure[c] < core_pressure[cold])
                cold = c;
        }
        if (hot == kInvalidCore || cold == kInvalidCore)
            break;
        const double gap = core_pressure[hot] - core_pressure[cold];
        if (gap <= options.imbalanceThreshold)
            break;

        // Heaviest tenant on the hot core that (a) fits the cold
        // core and (b) narrows the gap rather than inverting it.
        size_t pick = demands.size();
        for (size_t t = 0; t < demands.size(); ++t) {
            if (where[t] != hot || moved[t])
                continue;
            if (demands[t].load >= gap ||
                !canHost(cold, demands[t]))
                continue;
            if (pick == demands.size() ||
                demands[t].load > demands[pick].load)
                pick = t;
        }
        if (pick == demands.size()) {
            frozen[hot] = true;
            continue;
        }

        release(hot, demands[pick]);
        const bool ok = commit(cold, demands[pick]);
        NEU10_ASSERT(ok, "rebalance destination lost capacity");
        core_pressure[hot] -= demands[pick].load;
        core_pressure[cold] += demands[pick].load;
        where[pick] = cold;
        moved[pick] = true;
        moves.push_back(Migration{pick, hot, cold});
    }
    return moves;
}

} // namespace neu10
