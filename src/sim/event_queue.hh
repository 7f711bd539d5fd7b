/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The NPU simulator is event-driven in the paper's sense: simulated state
 * changes only at discrete points (uTOp completion, request arrival,
 * scheduler quantum expiry, preemption). The EventQueue totally orders
 * events by (time, priority, insertion sequence) so that simulations are
 * deterministic even when events coincide in time.
 */

#ifndef NEU10_SIM_EVENT_QUEUE_HH
#define NEU10_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hh"

namespace neu10
{

/**
 * Priorities break ties between simultaneous events; lower runs first.
 * Completions must precede scheduling decisions at the same instant so
 * the scheduler sees freshly freed resources.
 */
enum class EventPriority : int
{
    Completion = 0,  ///< uTOp / DMA / request completions
    Arrival = 1,     ///< new work entering the system
    Schedule = 2,    ///< scheduler invocations
    Stat = 3,        ///< statistics sampling
    Default = 4,
};

/**
 * Opaque handle used to cancel a scheduled event: a callback-slot
 * index in the low 32 bits and that slot's generation in the high 32.
 * A slot's generation advances when its event fires or is cancelled,
 * so a handle outliving its event never matches again.
 */
using EventId = std::uint64_t;

/** Sentinel returned when no event is pending. */
inline constexpr EventId kInvalidEvent = 0;

/**
 * A deterministic discrete-event queue. The heap holds plain
 * {time, priority, sequence, handle} entries and the callbacks live in
 * recycled slots, so a steady stream of schedule/fire/cancel allocates
 * nothing once the heap and the slot table reach their peak size.
 */
class EventQueue
{
  public:
    using Callback = std::function<void(Cycles now)>;

    /**
     * Schedule @p cb at absolute time @p when.
     * @return a handle usable with deschedule().
     */
    EventId schedule(Cycles when, Callback cb,
                     EventPriority prio = EventPriority::Default);

    /** Cancel a pending event; no-op if already fired or cancelled. */
    void deschedule(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return pendingCount_ == 0; }

    /** Number of pending (non-cancelled) events. */
    size_t pending() const { return pendingCount_; }

    /** Current simulated time in cycles. */
    Cycles now() const { return now_; }

    /** Time of the earliest pending event, or kCyclesInf. */
    Cycles
    nextEventTime() const
    {
        return heap_.empty() ? kCyclesInf : heap_.top().when;
    }

    /**
     * Run events until the queue is empty or @p limit is reached.
     * Events scheduled exactly at @p limit still run. The clock then
     * moves forward to @p limit (if finite), never backwards.
     * @return the final simulated time.
     */
    Cycles runUntil(Cycles limit = kCyclesInf);

    /** Run exactly one event if any is pending; @return true if run. */
    bool step();

    /** Total number of events executed (for stats / debug). */
    std::uint64_t executed() const { return executed_; }

  private:
    struct Entry
    {
        Cycles when;
        int prio;
        std::uint64_t seq;
        EventId id;
        // Ordering for a min-queue via std::greater semantics.
        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return seq > o.seq;
        }
    };

    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
    };

    bool live(EventId id) const;
    /** Free @p id's slot: advance its generation, recycle it. */
    void release(EventId id);
    /** Restore the invariant that the heap top is a live event. */
    void dropStale();

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;

    Cycles now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    size_t pendingCount_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace neu10

#endif // NEU10_SIM_EVENT_QUEUE_HH
