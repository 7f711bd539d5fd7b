/**
 * @file
 * IOMMU model: DMA and interrupt remapping for vNPUs (§III-F).
 *
 * Each vNPU is exposed to its VM as a PCIe virtual function; the IOMMU
 * confines the device's DMA to the guest's registered buffers and
 * remaps completion interrupts to the owning tenant. Unmapped accesses
 * raise DMA faults instead of corrupting other tenants' memory — the
 * isolation property the tests exercise.
 */

#ifndef NEU10_VIRT_IOMMU_HH
#define NEU10_VIRT_IOMMU_HH

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "common/types.hh"

namespace neu10
{

/** Raised when a device DMA touches an unmapped guest address. */
class DmaFaultError : public std::runtime_error
{
  public:
    explicit DmaFaultError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** DMA + interrupt remapping unit. */
class Iommu
{
  public:
    /** Register a device (vNPU); fresh devices have no mappings. */
    void attach(VnpuId id);

    /** Remove a device and all of its mappings/vectors. */
    void detach(VnpuId id);

    bool attached(VnpuId id) const;

    /**
     * Map a guest DMA window [guest_base, guest_base + size) to host
     * physical [host_base, ...). Windows of one device must not
     * overlap.
     */
    void map(VnpuId id, std::uint64_t guest_base,
             std::uint64_t host_base, Bytes size);

    /** Remove one window (by its guest base). */
    void unmap(VnpuId id, std::uint64_t guest_base);

    /**
     * Translate a device access of @p bytes at @p guest_addr.
     * @throws DmaFaultError for unattached devices or unmapped ranges.
     */
    std::uint64_t translate(VnpuId id, std::uint64_t guest_addr,
                            Bytes bytes = 1) const;

    /** Interrupt remapping: bind a vector to a handler. */
    using InterruptHandler = std::function<void(std::uint32_t vector)>;
    void bindInterrupt(VnpuId id, std::uint32_t vector,
                       InterruptHandler handler);

    /** Deliver an interrupt from the device; unbound vectors drop. */
    void raiseInterrupt(VnpuId id, std::uint32_t vector) const;

  private:
    struct Window
    {
        std::uint64_t hostBase;
        Bytes size;
    };
    struct Device
    {
        std::map<std::uint64_t, Window> windows; // by guest base
        std::unordered_map<std::uint32_t, InterruptHandler> vectors;
    };
    std::unordered_map<VnpuId, Device> devices_;
};

} // namespace neu10

#endif // NEU10_VIRT_IOMMU_HH
