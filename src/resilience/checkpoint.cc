#include "resilience/checkpoint.hh"

#include <algorithm>

namespace neu10
{

VnpuCheckpoint
captureCheckpoint(size_t tenant, Cycles fault_at,
                  const std::vector<Cycles> &backlog_rel,
                  Cycles epoch_start)
{
    VnpuCheckpoint ckpt;
    ckpt.tenant = tenant;
    ckpt.faultAt = fault_at;
    ckpt.backlog.reserve(backlog_rel.size());
    for (Cycles stamp : backlog_rel)
        ckpt.backlog.push_back(stamp + epoch_start);
    std::sort(ckpt.backlog.begin(), ckpt.backlog.end());
    return ckpt;
}

} // namespace neu10
