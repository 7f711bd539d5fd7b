#include "sim/event_queue.hh"

#include "common/logging.hh"

namespace neu10
{

namespace
{

std::uint32_t
slotOf(EventId id)
{
    return static_cast<std::uint32_t>(id);
}

std::uint32_t
genOf(EventId id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

} // anonymous namespace

EventId
EventQueue::schedule(Cycles when, Callback cb, EventPriority prio)
{
    NEU10_ASSERT(when >= now_,
                 "cannot schedule into the past (when=%g now=%g)",
                 when, now_);
    NEU10_ASSERT(cb != nullptr, "event needs a callback");
    if (freeSlots_.empty()) {
        freeSlots_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot].cb = std::move(cb);
    const EventId id =
        (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
    heap_.push(Entry{when, static_cast<int>(prio), nextSeq_++, id});
    ++pendingCount_;
    return id;
}

bool
EventQueue::live(EventId id) const
{
    const std::uint32_t slot = slotOf(id);
    return slot < slots_.size() && slots_[slot].gen == genOf(id);
}

void
EventQueue::release(EventId id)
{
    Slot &s = slots_[slotOf(id)];
    s.cb = nullptr;
    // Generation 0 would let slot 0's handle equal kInvalidEvent.
    if (++s.gen == 0)
        s.gen = 1;
    freeSlots_.push_back(slotOf(id));
    --pendingCount_;
}

void
EventQueue::deschedule(EventId id)
{
    if (!live(id))
        return;
    release(id);
    dropStale();
}

void
EventQueue::dropStale()
{
    while (!heap_.empty() && !live(heap_.top().id))
        heap_.pop();
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Entry e = heap_.top();
    heap_.pop();
    Callback cb = std::move(slots_[slotOf(e.id)].cb);
    release(e.id);
    dropStale();
    NEU10_ASSERT(e.when >= now_, "event time went backwards");
    now_ = e.when;
    ++executed_;
    cb(now_);
    return true;
}

Cycles
EventQueue::runUntil(Cycles limit)
{
    while (!heap_.empty() && heap_.top().when <= limit)
        step();
    if (now_ < limit && limit < kCyclesInf)
        now_ = limit;
    return now_;
}

} // namespace neu10
