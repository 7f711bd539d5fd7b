/**
 * @file
 * vNPU checkpoint for failover (companion of resilience/faults).
 *
 * When a fatal fault kills a core, the device-side state of every
 * resident vNPU is gone — but the *serving* state that matters for
 * SLO accounting survives on the host: the admitted-but-unserved
 * backlog with its original arrival stamps (runtime/serving reports
 * it at any stop boundary). A checkpoint is exactly that backlog plus
 * the fault time; "taking" one costs nothing extra because the
 * open-loop engine already externalizes the backlog at every epoch
 * boundary — the failover controller just stops the faulted core's
 * epoch at the fault onset instead of the boundary. Everything else a
 * restore needs (the shared precompiled program, the §III-B sizing,
 * the paid budget, the committed load) stays in the fleet's own
 * books; the checkpoint holds only what the fault created.
 *
 * Restore re-enters the normal provisioning path on a surviving
 * core: FleetPlacer::placeResplit picks a destination, re-runs the
 * engine split against its residency and commits it — the landing
 * path elastic migration uses too — and the vNPU is re-created
 * through the hypervisor's pinned-create hypercall, so MMIO windows
 * and IOMMU attachments recycle identically. The carried backlog
 * then resumes with original arrival stamps: time spent dead counts
 * against latency and the SLO.
 */

#ifndef NEU10_RESILIENCE_CHECKPOINT_HH
#define NEU10_RESILIENCE_CHECKPOINT_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace neu10
{

/** Host-side snapshot of one vNPU's admitted-but-unserved work. */
struct VnpuCheckpoint
{
    /** Caller's tenant index (position in FleetConfig::tenants). */
    size_t tenant = 0;

    /** Absolute fault-onset time (cycles); downtime and MTTR are
     * measured from here. */
    Cycles faultAt = 0.0;

    /** Arrival stamps (absolute cycles, sorted non-decreasing) of
     * requests admitted before the fault and not yet served. */
    std::vector<Cycles> backlog;
};

/**
 * Capture a checkpoint from a fault-stopped epoch run.
 *
 * @param backlog_rel  TenantResult::backlog of the stopped run:
 *                     stamps relative to the epoch start (possibly
 *                     negative for work carried from earlier epochs).
 * @param epoch_start  absolute start of that epoch, added to every
 *                     stamp so the checkpoint is epoch-independent.
 */
VnpuCheckpoint captureCheckpoint(size_t tenant, Cycles fault_at,
                                 const std::vector<Cycles> &backlog_rel,
                                 Cycles epoch_start);

} // namespace neu10

#endif // NEU10_RESILIENCE_CHECKPOINT_HH
