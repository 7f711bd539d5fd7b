#include "virt/iommu.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace neu10
{

void
Iommu::attach(VnpuId id)
{
    if (devices_.count(id))
        fatal("vNPU %u already attached to the IOMMU", id);
    devices_.emplace(id, Device{});
}

void
Iommu::detach(VnpuId id)
{
    if (!devices_.erase(id))
        fatal("vNPU %u is not attached to the IOMMU", id);
}

bool
Iommu::attached(VnpuId id) const
{
    return devices_.count(id) > 0;
}

void
Iommu::map(VnpuId id, std::uint64_t guest_base, std::uint64_t host_base,
           Bytes size)
{
    auto it = devices_.find(id);
    if (it == devices_.end())
        fatal("mapping DMA for unattached vNPU %u", id);
    NEU10_ASSERT(size > 0, "empty DMA window");

    // Reject overlap with any existing window.
    for (const auto &[base, w] : it->second.windows) {
        const bool disjoint =
            guest_base + size <= base || base + w.size <= guest_base;
        if (!disjoint)
            fatal("DMA window 0x%llx+%llu overlaps existing window",
                  static_cast<unsigned long long>(guest_base),
                  static_cast<unsigned long long>(size));
    }
    it->second.windows.emplace(guest_base, Window{host_base, size});
}

void
Iommu::unmap(VnpuId id, std::uint64_t guest_base)
{
    auto it = devices_.find(id);
    if (it == devices_.end() || !it->second.windows.erase(guest_base))
        fatal("no DMA window at 0x%llx for vNPU %u",
              static_cast<unsigned long long>(guest_base), id);
}

std::uint64_t
Iommu::translate(VnpuId id, std::uint64_t guest_addr, Bytes bytes) const
{
    auto it = devices_.find(id);
    if (it == devices_.end())
        throw DmaFaultError(
            csprintf("DMA fault: vNPU %u not attached", id));

    // Find the window containing guest_addr: the last window whose
    // base is <= guest_addr.
    const auto &windows = it->second.windows;
    auto w = windows.upper_bound(guest_addr);
    if (w == windows.begin())
        throw DmaFaultError(
            csprintf("DMA fault: 0x%llx unmapped for vNPU %u",
                     static_cast<unsigned long long>(guest_addr), id));
    --w;
    const std::uint64_t off = guest_addr - w->first;
    if (off + bytes > w->second.size)
        throw DmaFaultError(
            csprintf("DMA fault: access 0x%llx+%llu crosses window end",
                     static_cast<unsigned long long>(guest_addr),
                     static_cast<unsigned long long>(bytes)));
    return w->second.hostBase + off;
}

void
Iommu::bindInterrupt(VnpuId id, std::uint32_t vector,
                     InterruptHandler handler)
{
    auto it = devices_.find(id);
    if (it == devices_.end())
        fatal("binding interrupt for unattached vNPU %u", id);
    it->second.vectors[vector] = std::move(handler);
}

void
Iommu::raiseInterrupt(VnpuId id, std::uint32_t vector) const
{
    auto it = devices_.find(id);
    if (it == devices_.end())
        return;
    auto v = it->second.vectors.find(vector);
    if (v != it->second.vectors.end() && v->second)
        v->second(vector);
}

} // namespace neu10
