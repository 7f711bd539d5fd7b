/**
 * @file
 * vNPU instance lifecycle (§III-A).
 *
 * A Vnpu is the manager-side record of one virtual NPU: its requested
 * configuration, lifecycle state, the tenant that owns it, and — once
 * mapped — the physical placement (core + slot) and memory segments.
 * Creation and destruction flow through hypercalls (src/virt); this
 * type is the bookkeeping they manipulate.
 */

#ifndef NEU10_VNPU_INSTANCE_HH
#define NEU10_VNPU_INSTANCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "vnpu/config.hh"

namespace neu10
{

/** Lifecycle states of a vNPU instance. */
enum class VnpuState : std::uint8_t
{
    Created = 0,   ///< config accepted, no resources yet
    Mapped,        ///< bound to a physical core (context installed)
    Active,        ///< guest driver attached, commands flowing
    Destroyed,     ///< torn down; id never reused
};

/** Human-readable state name. */
std::string toString(VnpuState state);

/** Mapping discipline for a vNPU (§III-C). */
enum class IsolationMode : std::uint8_t
{
    Hardware = 0,  ///< spatial: dedicated engines, no sharing
    Software,      ///< temporal: engines may be oversubscribed
};

/** One vNPU instance record. */
struct Vnpu
{
    VnpuId id = kInvalidVnpu;
    TenantId tenant = 0;
    VnpuConfig config;
    IsolationMode isolation = IsolationMode::Hardware;
    VnpuState state = VnpuState::Created;

    // Placement, valid once state >= Mapped.
    CoreId core = kInvalidCore;
    std::uint32_t slot = 0;           ///< slot index on the core
    std::vector<unsigned> sramSegments;
    std::vector<unsigned> hbmSegments;
};

} // namespace neu10

#endif // NEU10_VNPU_INSTANCE_HH
