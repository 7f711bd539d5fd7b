/**
 * @file
 * Memory isolation by fixed-size segmentation (§III-C).
 *
 * Neu10 divides SRAM and HBM into fixed segments (2 MB / 1 GB on the
 * Table II core) and maps whole segments into each vNPU's virtual
 * address space. Translation is base+offset per segment — negligible
 * hardware — and there is no external fragmentation since segments are
 * fixed. Invalid accesses raise a page fault. ML frameworks allocate
 * one contiguous arena up front, so segment granularity is sufficient.
 */

#ifndef NEU10_VIRT_MEMORY_HH
#define NEU10_VIRT_MEMORY_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neu10
{

/** Raised on an access outside the vNPU's mapped segments. */
class PageFaultError : public std::runtime_error
{
  public:
    explicit PageFaultError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Allocator over the fixed segments of one physical resource. */
class SegmentPool
{
  public:
    /**
     * @param total    capacity of the resource in bytes.
     * @param segment  fixed segment size (divides usable capacity).
     */
    SegmentPool(Bytes total, Bytes segment);

    /** Segments needed to back @p bytes. */
    unsigned segmentsFor(Bytes bytes) const;

    /**
     * Allocate enough segments for @p bytes.
     * @throws FatalError when the pool cannot satisfy the request.
     * @return the allocated segment indices (ascending).
     */
    std::vector<unsigned> allocate(Bytes bytes);

    /** Return segments to the pool; double-free panics. */
    void release(const std::vector<unsigned> &segments);

    unsigned totalSegments() const { return totalSegments_; }
    unsigned freeSegments() const;

  private:
    Bytes segment_;
    unsigned totalSegments_;
    std::vector<bool> used_;
};

/**
 * A vNPU's view of one resource: contiguous virtual addresses backed
 * by the mapped physical segments.
 */
class AddressSpace
{
  public:
    AddressSpace() = default;

    /**
     * @param segment   physical segment size.
     * @param segments  physical segment indices backing this space.
     */
    AddressSpace(Bytes segment, std::vector<unsigned> segments);

    /** Size of the virtual space in bytes. */
    Bytes size() const;

    /**
     * Translate a virtual address to a flat physical address
     * (segment_index * segment_size + offset).
     * @throws PageFaultError outside [0, size()).
     */
    Bytes translate(Bytes vaddr) const;

    /**
     * Translate an access of @p bytes starting at @p vaddr; the whole
     * range must be mapped.
     */
    Bytes translateRange(Bytes vaddr, Bytes bytes) const;

    const std::vector<unsigned> &segments() const { return segments_; }

  private:
    Bytes segment_ = 0;
    std::vector<unsigned> segments_;
};

} // namespace neu10

#endif // NEU10_VIRT_MEMORY_HH
