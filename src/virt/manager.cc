#include "virt/manager.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace neu10
{

PnpuCore::PnpuCore(CoreId cid, const NpuCoreConfig &c)
    : id(cid), cfg(c),
      sram(std::make_unique<SegmentPool>(c.sramBytes, c.sramSegment)),
      hbm(std::make_unique<SegmentPool>(c.hbmBytes, c.hbmSegment))
{
}

VnpuManager::VnpuManager(const NpuBoardConfig &board)
{
    for (unsigned i = 0; i < board.totalCores(); ++i)
        cores_.emplace_back(static_cast<CoreId>(i), board.core);
    NEU10_ASSERT(!cores_.empty(), "board has no cores");
}

bool
VnpuManager::coreFits(const PnpuCore &core, const VnpuConfig &config,
                      IsolationMode isolation) const
{
    // Memory is always hard-isolated.
    if (core.hbm->segmentsFor(config.memSizePerCore) >
        core.hbm->freeSegments())
        return false;
    if (core.sram->segmentsFor(config.sramSizePerCore) >
        core.sram->freeSegments())
        return false;
    if (isolation == IsolationMode::Hardware) {
        return core.dedicatedMes + config.numMesPerCore <=
                   core.cfg.numMes &&
               core.dedicatedVes + config.numVesPerCore <=
                   core.cfg.numVes;
    }
    return core.committedMes + config.numMesPerCore <=
               core.cfg.numMes * kMaxOversubscription &&
           core.committedVes + config.numVesPerCore <=
               core.cfg.numVes * kMaxOversubscription;
}

CoreId
VnpuManager::place(const VnpuConfig &config, IsolationMode isolation)
{
    const unsigned want_me = config.numMesPerCore;
    const unsigned want_ve = config.numVesPerCore;

    CoreId best = kInvalidCore;
    double best_score = 0.0;
    for (const PnpuCore &core : cores_) {
        if (!coreFits(core, config, isolation))
            continue;

        double score;
        if (isolation == IsolationMode::Hardware) {
            // Greedy EU/memory balance (§III-C): prefer the placement
            // that keeps engine and memory utilization closest.
            const double eu_after =
                static_cast<double>(core.dedicatedMes + want_me +
                                    core.dedicatedVes + want_ve) /
                (core.cfg.numMes + core.cfg.numVes);
            const double mem_after =
                1.0 - static_cast<double>(
                          core.hbm->freeSegments() -
                          core.hbm->segmentsFor(config.memSizePerCore)) /
                          core.hbm->totalSegments();
            score = std::abs(eu_after - mem_after);
        } else {
            // Load-balance: least committed engine requirement.
            score = core.committedMes + core.committedVes;
        }
        if (best == kInvalidCore || score < best_score) {
            best = core.id;
            best_score = score;
        }
    }
    return best;
}

void
VnpuManager::mapOnCore(Vnpu &v, CoreId core_id)
{
    PnpuCore &core = cores_[core_id];
    v.core = core_id;
    v.slot = static_cast<std::uint32_t>(core.residents.size());
    v.sramSegments = core.sram->allocate(v.config.sramSizePerCore);
    v.hbmSegments = core.hbm->allocate(v.config.memSizePerCore);
    if (v.isolation == IsolationMode::Hardware) {
        core.dedicatedMes += v.config.numMesPerCore;
        core.dedicatedVes += v.config.numVesPerCore;
    }
    core.committedMes += v.config.numMesPerCore;
    core.committedVes += v.config.numVesPerCore;
    core.residents.push_back(v.id);
    v.state = VnpuState::Mapped;
}

void
VnpuManager::unmapFromCore(Vnpu &v)
{
    NEU10_ASSERT(v.core != kInvalidCore, "vNPU %u is not mapped", v.id);
    PnpuCore &core = cores_[v.core];
    core.sram->release(v.sramSegments);
    core.hbm->release(v.hbmSegments);
    v.sramSegments.clear();
    v.hbmSegments.clear();
    if (v.isolation == IsolationMode::Hardware) {
        core.dedicatedMes -= v.config.numMesPerCore;
        core.dedicatedVes -= v.config.numVesPerCore;
    }
    core.committedMes -= v.config.numMesPerCore;
    core.committedVes -= v.config.numVesPerCore;
    core.residents.erase(std::find(core.residents.begin(),
                                   core.residents.end(), v.id));
    v.core = kInvalidCore;
}

VnpuId
VnpuManager::create(TenantId tenant, const VnpuConfig &config,
                    IsolationMode isolation, CoreId pinned_core)
{
    config.validate();
    if (config.totalCores() != 1)
        fatal("multi-core vNPUs are allocated as one instance per "
              "core; request %u cores as %u instances",
              config.totalCores(), config.totalCores());

    CoreId core = kInvalidCore;
    if (pinned_core != kInvalidCore) {
        if (pinned_core >= cores_.size())
            fatal("pinned core %u does not exist (%zu cores)",
                  pinned_core, cores_.size());
        if (!coreFits(cores_[pinned_core], config, isolation))
            fatal("pinned core %u cannot host %s (%s-isolated)",
                  pinned_core, config.toString().c_str(),
                  isolation == IsolationMode::Hardware ? "hardware"
                                                       : "software");
        core = pinned_core;
    } else {
        core = place(config, isolation);
    }
    if (core == kInvalidCore)
        fatal("no physical core can host %s (%s-isolated)",
              config.toString().c_str(),
              isolation == IsolationMode::Hardware ? "hardware"
                                                   : "software");

    Vnpu v;
    v.id = nextId_++;
    v.tenant = tenant;
    v.config = config;
    v.isolation = isolation;
    v.state = VnpuState::Created;
    auto [it, ok] = vnpus_.emplace(v.id, std::move(v));
    NEU10_ASSERT(ok, "duplicate vNPU id");
    mapOnCore(it->second, core);
    return it->first;
}

void
VnpuManager::reconfigure(VnpuId id, const VnpuConfig &config)
{
    config.validate();
    Vnpu &v = getMutable(id);
    PnpuCore &core = cores_[v.core];

    // Engine delta must fit the current core.
    if (v.isolation == IsolationMode::Hardware) {
        const unsigned other_me = core.dedicatedMes -
                                  v.config.numMesPerCore;
        const unsigned other_ve = core.dedicatedVes -
                                  v.config.numVesPerCore;
        if (other_me + config.numMesPerCore > core.cfg.numMes ||
            other_ve + config.numVesPerCore > core.cfg.numVes) {
            fatal("reconfigure of vNPU %u exceeds core %u engines", id,
                  v.core);
        }
    }

    // Re-segment memory: release then allocate (fixed segments, so no
    // fragmentation concerns).
    core.sram->release(v.sramSegments);
    core.hbm->release(v.hbmSegments);
    if (core.sram->segmentsFor(config.sramSizePerCore) >
            core.sram->freeSegments() ||
        core.hbm->segmentsFor(config.memSizePerCore) >
            core.hbm->freeSegments()) {
        // Roll back.
        v.sramSegments = core.sram->allocate(v.config.sramSizePerCore);
        v.hbmSegments = core.hbm->allocate(v.config.memSizePerCore);
        fatal("reconfigure of vNPU %u exceeds core %u memory", id,
              v.core);
    }

    if (v.isolation == IsolationMode::Hardware) {
        core.dedicatedMes += config.numMesPerCore - v.config.numMesPerCore;
        core.dedicatedVes += config.numVesPerCore - v.config.numVesPerCore;
    }
    core.committedMes += config.numMesPerCore - v.config.numMesPerCore;
    core.committedVes += config.numVesPerCore - v.config.numVesPerCore;
    v.config = config;
    v.sramSegments = core.sram->allocate(config.sramSizePerCore);
    v.hbmSegments = core.hbm->allocate(config.memSizePerCore);
}

void
VnpuManager::destroy(VnpuId id)
{
    Vnpu &v = getMutable(id);
    unmapFromCore(v);
    v.state = VnpuState::Destroyed;
    vnpus_.erase(id);
}

const Vnpu &
VnpuManager::get(VnpuId id) const
{
    auto it = vnpus_.find(id);
    if (it == vnpus_.end())
        fatal("unknown vNPU %u", id);
    return it->second;
}

Vnpu &
VnpuManager::getMutable(VnpuId id)
{
    auto it = vnpus_.find(id);
    if (it == vnpus_.end())
        fatal("unknown vNPU %u", id);
    return it->second;
}

std::vector<VnpuId>
VnpuManager::residentsOf(CoreId core) const
{
    NEU10_ASSERT(core < cores_.size(), "bad core id %u", core);
    return cores_[core].residents;
}

size_t
VnpuManager::liveCount() const
{
    return vnpus_.size();
}

} // namespace neu10
