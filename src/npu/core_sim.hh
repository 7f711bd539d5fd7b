/**
 * @file
 * Event-driven simulator of one physical NPU core shared by multiple
 * vNPUs (§III-E, §III-G).
 *
 * The core executes *work units* — NeuISA uTOps or gang-coupled VLIW
 * operators (see compiler/lower.hh) — under a pluggable scheduling
 * policy. Execution follows a fluid model: a running unit progresses at
 *
 *     rate = min( ME supply / meTime,
 *                 VE share  / veTime,
 *                 HBM share / dmaTime )
 *
 * and rates only change at scheduling events (dispatch, completion,
 * preemption, policy quantum), so completion times between events are
 * computed exactly — the same trace-replay-on-an-event-driven-backend
 * strategy as the paper's production simulator.
 *
 * The scheduling policy decides ME bindings (including harvesting and
 * reclaim preemption), per-unit VE shares, and may request wake-ups for
 * time-quantum decisions. HBM bandwidth is split max-min fairly between
 * vNPUs and then between units (§III-B).
 *
 * Time advances event to event: at every scheduling decision the
 * simulator computes the next cycle at which any unit's state can
 * change and jumps the clock straight to it, integrating utilization
 * and share statistics analytically over the skipped span.
 */

#ifndef NEU10_NPU_CORE_SIM_HH
#define NEU10_NPU_CORE_SIM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "compiler/lower.hh"
#include "npu/config.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "stats/timeseries.hh"
#include "stats/utilization.hh"

namespace neu10
{

class SchedulerPolicy;

/** Sentinel slot index. */
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/** Start/end of one operator within one request (Fig. 23 breakdown). */
struct OpTiming
{
    std::uint32_t opIndex = 0;
    Cycles start = kCyclesInf;
    Cycles end = 0.0;
};

/** Completion record for one inference request. */
struct RequestResult
{
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
    Cycles submitTime = 0.0;
    Cycles finishTime = 0.0;
    std::vector<OpTiming> opTimings; ///< filled if timing capture is on

    Cycles
    latency() const
    {
        return finishTime - submitTime;
    }
};

using RequestCallback = std::function<void(const RequestResult &)>;

/** One schedulable work unit in flight (a uTOp / VLIW operator). */
struct UnitRun
{
    std::uint64_t id = 0;
    std::uint32_t slot = kNoSlot;     ///< owning vNPU slot
    UTopKind kind = UTopKind::Me;
    unsigned gang = 1;                ///< MEs held simultaneously
    Cycles meTime = 0.0;
    double meEff = 1.0;
    Cycles veTime = 0.0;
    Bytes bytes = 0;

    double x = 0.0;                   ///< progress in [0, 1]
    bool running = false;
    std::uint32_t budgetSlot = kNoSlot; ///< whose ME budget it consumes
    Cycles penalty = 0.0;             ///< context-switch cycles left
    double veShare = 0.0;             ///< VE-cycles/cycle granted
    double hbmShare = 0.0;            ///< bytes/cycle granted
    double rate = 0.0;                ///< progress per cycle
    Cycles readyAt = 0.0;             ///< for FIFO ordering
    unsigned preemptions = 0;

    // Identity for op/request bookkeeping.
    std::uint64_t request = 0;
    std::uint32_t opIdx = 0;

    /** True when this unit still needs ME binding to progress. */
    bool
    needsMe() const
    {
        return kind == UTopKind::Me;
    }

    /** VE-cycles per cycle needed to avoid stalling the ME stream. */
    double
    veDemandRate() const
    {
        if (kind == UTopKind::Ve)
            return 1e18; // consumes whatever it is given
        return meTime > 0.0 ? veTime / meTime : 0.0;
    }
};

/** Per-vNPU context on the core (§III-E "vNPU contexts"). */
struct VnpuSlot
{
    unsigned nMes = 0;            ///< allocated matrix engines
    unsigned nVes = 0;            ///< allocated vector engines
    double priority = 1.0;        ///< temporal-sharing weight

    std::deque<UnitRun *> readyMe;
    std::deque<UnitRun *> readyVe;

    // --- statistics -----------------------------------------------
    Cycles meServiceCycles = 0.0;     ///< attained ME occupancy
    Cycles meUsefulCycles = 0.0;      ///< attained *useful* ME busy
    Cycles blockedByHarvest = 0.0;    ///< Table III numerator
    Cycles activeSince = 0.0;
    unsigned reclaimPreemptions = 0;
    std::uint64_t requestsCompleted = 0;
    TimeSeries assignedMes;           ///< Fig. 24 (optional capture)
    TimeSeries assignedVes;

    /** Ready ME uTOps waiting for an engine. */
    bool
    hasMeBacklog() const
    {
        return !readyMe.empty();
    }
};

/**
 * The core simulator. Drive it by submitting requests; it schedules
 * itself on the shared EventQueue.
 */
class NpuCoreSim
{
  public:
    /**
     * @param queue   shared event queue (owned by the caller).
     * @param cfg     physical core configuration.
     * @param policy  scheduling policy (ownership transferred).
     * @param slots   per-vNPU engine allocations.
     */
    NpuCoreSim(EventQueue &queue, const NpuCoreConfig &cfg,
               std::unique_ptr<SchedulerPolicy> policy,
               std::vector<VnpuSlot> slots);
    ~NpuCoreSim();

    NpuCoreSim(const NpuCoreSim &) = delete;
    NpuCoreSim &operator=(const NpuCoreSim &) = delete;

    /**
     * Submit one inference request for @p slot. Ops execute in
     * dependency order; @p cb fires on completion.
     * @return the request id.
     */
    std::uint64_t submit(std::uint32_t slot, const CompiledModel *model,
                         RequestCallback cb = nullptr);

    /** Abort all in-flight work of a slot (vNPU teardown). */
    void drainSlot(std::uint32_t slot);

    /** Record per-operator timings in RequestResult (Fig. 23). */
    void setCaptureOpTimings(bool on) { captureOpTimings_ = on; }

    /** Record per-slot assigned-engine time series (Fig. 24). */
    void setCaptureAssignment(bool on) { captureAssignment_ = on; }

    /**
     * Attach a sim-time trace buffer (obs/trace.hh). When
     * @p engine_events is set, every fast-forward jump of the clock is
     * recorded as an "engine"/"advance" span — useful for seeing how
     * the engine batches work, but high-volume. The buffer is not
     * owned; pass nullptr to detach. Hot paths guard on the cached
     * pointer, so a detached core pays one predicted branch per site.
     */
    void
    setTrace(TraceBuffer *trace, bool engine_events)
    {
        trace_ = trace;
        traceEngineEvents_ = engine_events && trace != nullptr;
    }

    // --- accessors used by policies and stats consumers ------------
    const NpuCoreConfig &config() const { return cfg_; }
    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }
    std::vector<VnpuSlot> &slots() { return slots_; }
    const std::vector<VnpuSlot> &slots() const { return slots_; }
    std::vector<UnitRun *> &running() { return running_; }
    const std::vector<UnitRun *> &running() const { return running_; }

    /** Useful ME busy integral (engines x cycles doing real work). */
    const UtilizationTracker &meUseful() const { return meUseful_; }
    /** ME occupancy integral (engines held, incl. stalls/penalty). */
    const UtilizationTracker &meHeld() const { return meHeld_; }
    /** VE busy integral. */
    const UtilizationTracker &veBusy() const { return veBusy_; }
    /** Total HBM bytes transferred. */
    double hbmBytesTransferred() const { return hbmBytes_; }
    /** In-flight + queued requests across all slots. */
    size_t outstandingRequests() const { return requests_.size(); }

    // --- policy-facing mutators ------------------------------------
    /**
     * Bind an ME unit to an engine charged to @p budget_slot's budget.
     * @param with_penalty  charge the reclaim context-switch cost.
     */
    void bindMe(UnitRun *u, std::uint32_t budget_slot, bool with_penalty);

    /** Preempt a running ME unit back to the front of its ready queue
     * (progress retained; it pays the penalty when re-bound). */
    void preemptMe(UnitRun *u);

    /** Start a ready VE unit. */
    void startVe(UnitRun *u);

    /** Preempt a running VE unit (whole-core switches, e.g. PMT). */
    void preemptVe(UnitRun *u);

    /** MEs of @p slot's budget currently consumed. */
    unsigned budgetUsed(std::uint32_t slot) const;

    /** Running harvester units charged to @p slot's budget but owned
     * by other slots (candidates for reclaim). */
    std::vector<UnitRun *> harvestersOn(std::uint32_t slot);

    /** Number of running VE units (capped at ny queues). */
    unsigned runningVeUnits() const;

  private:
    struct RequestExec;

    void onEvent(Cycles now);
    void advanceTo(Cycles now);
    void computeShares();
    void scheduleNext();
    void completeUnit(UnitRun *u, Cycles now);
    void opFinished(RequestExec &req, std::uint32_t op_idx, Cycles now);
    void enqueueReadyUnits(RequestExec &req, std::uint32_t op_idx,
                           Cycles now);
    void updateStats(Cycles now);
    void removeFromReady(UnitRun *u);

    EventQueue &queue_;
    NpuCoreConfig cfg_;
    std::unique_ptr<SchedulerPolicy> policy_;
    std::vector<VnpuSlot> slots_;

    std::vector<UnitRun *> running_;
    std::unordered_map<std::uint64_t, std::unique_ptr<RequestExec>>
        requests_;

    UtilizationTracker meUseful_;
    UtilizationTracker meHeld_;
    UtilizationTracker veBusy_;

    // Running ME gangs charged to each slot's budget, maintained
    // incrementally by bindMe/preemptMe/completeUnit/drainSlot so the
    // policies' per-decision budgetUsed() probes are O(1) instead of
    // a scan over the running set (a hot path: Neu10's fill/reclaim
    // loops probe once per candidate binding).
    std::vector<unsigned> budgetUsed_;

    double hbmBytes_ = 0.0;
    Cycles lastAdvance_ = 0.0;

    // Scratch buffers reused across events so the per-event
    // advance/share/stat passes allocate nothing in steady state.
    std::vector<double> scratchOccupancy_;
    std::vector<double> scratchUseful_;
    std::vector<double> scratchDemand_;
    std::vector<std::vector<UnitRun *>> scratchSlotUnits_;

    TraceBuffer *trace_ = nullptr;
    bool traceEngineEvents_ = false;

    EventId pendingEvent_ = kInvalidEvent;
    std::uint64_t nextRequestId_ = 1;
    std::uint64_t nextUnitId_ = 1;
    bool inEvent_ = false;
    bool captureOpTimings_ = false;
    bool captureAssignment_ = false;
};

} // namespace neu10

#endif // NEU10_NPU_CORE_SIM_HH
