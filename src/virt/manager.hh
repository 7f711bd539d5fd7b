/**
 * @file
 * The vNPU manager (§III-C, §III-F): host-kernel-module analogue that
 * tracks every physical NPU's free resources and implements the
 * vNPU-to-pNPU mapping policies.
 *
 * Hardware-isolated mapping admits a vNPU only if dedicated MEs/VEs,
 * SRAM and HBM segments are available; placement greedily balances EU
 * and memory consumption so one resource does not strand the other
 * ("vNPUs with many EUs and small memory will be collocated with
 * vNPUs with few EUs and large memory"). Software-isolated mapping
 * allows engine oversubscription and load-balances by least total
 * committed requirement.
 */

#ifndef NEU10_VIRT_MANAGER_HH
#define NEU10_VIRT_MANAGER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "npu/config.hh"
#include "virt/memory.hh"
#include "vnpu/instance.hh"

namespace neu10
{

/** Resource bookkeeping for one physical core. */
struct PnpuCore
{
    CoreId id = 0;
    NpuCoreConfig cfg;
    unsigned dedicatedMes = 0;   ///< hardware-isolated commitments
    unsigned dedicatedVes = 0;
    unsigned committedMes = 0;   ///< total incl. software-isolated
    unsigned committedVes = 0;
    std::unique_ptr<SegmentPool> sram;
    std::unique_ptr<SegmentPool> hbm;
    std::vector<VnpuId> residents;

    explicit PnpuCore(CoreId cid, const NpuCoreConfig &c);
};

/** Engine-oversubscription cap for software-isolated mapping. */
inline constexpr unsigned kMaxOversubscription = 4;

/** The host-side vNPU manager. */
class VnpuManager
{
  public:
    explicit VnpuManager(const NpuBoardConfig &board);

    /**
     * Create and map a vNPU (hypercall 1).
     *
     * By default the manager picks the core (greedy EU/memory
     * balance, §III-C). A cluster-level placer that has already
     * decided the core (cluster/placement) passes it as
     * @p pinned_core; the manager then only validates capacity there,
     * keeping both layers' bookkeeping in agreement.
     *
     * @throws FatalError when no core — or the pinned core — can host
     *         the request.
     */
    VnpuId create(TenantId tenant, const VnpuConfig &config,
                  IsolationMode isolation = IsolationMode::Hardware,
                  CoreId pinned_core = kInvalidCore);

    /**
     * Change the configuration of an existing vNPU (hypercall 2).
     * Engine deltas must fit the current core; memory is re-segmented.
     */
    void reconfigure(VnpuId id, const VnpuConfig &config);

    /** Deallocate a vNPU and release its resources (hypercall 3). */
    void destroy(VnpuId id);

    /** Look up a live (non-destroyed) instance. */
    const Vnpu &get(VnpuId id) const;

    /** All vNPUs currently mapped to @p core. */
    std::vector<VnpuId> residentsOf(CoreId core) const;

    /** Physical inventory access. */
    const std::vector<PnpuCore> &cores() const { return cores_; }

    size_t liveCount() const;

  private:
    Vnpu &getMutable(VnpuId id);
    bool coreFits(const PnpuCore &core, const VnpuConfig &config,
                  IsolationMode isolation) const;
    CoreId place(const VnpuConfig &config, IsolationMode isolation);
    void mapOnCore(Vnpu &v, CoreId core);
    void unmapFromCore(Vnpu &v);

    std::vector<PnpuCore> cores_;
    std::unordered_map<VnpuId, Vnpu> vnpus_;
    VnpuId nextId_ = 1;
};

} // namespace neu10

#endif // NEU10_VIRT_MANAGER_HH
