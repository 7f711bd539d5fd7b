/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * cancellation, time limits, clock conversions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"

namespace neu10
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30.0, [&](Cycles) { order.push_back(3); });
    q.schedule(10.0, [&](Cycles) { order.push_back(1); });
    q.schedule(20.0, [&](Cycles) { order.push_back(2); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, TieBrokenByPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5.0, [&](Cycles) { order.push_back(2); },
               EventPriority::Schedule);
    q.schedule(5.0, [&](Cycles) { order.push_back(0); },
               EventPriority::Completion);
    q.schedule(5.0, [&](Cycles) { order.push_back(3); },
               EventPriority::Schedule);
    q.schedule(5.0, [&](Cycles) { order.push_back(1); },
               EventPriority::Arrival);
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10.0, [&](Cycles) { ran = true; });
    q.deschedule(id);
    q.runUntil();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DescheduleTwiceIsNoop)
{
    EventQueue q;
    EventId id = q.schedule(1.0, [](Cycles) {});
    q.deschedule(id);
    EXPECT_NO_THROW(q.deschedule(id));
    q.runUntil();
}

TEST(EventQueue, EventsScheduleEvents)
{
    EventQueue q;
    std::vector<Cycles> times;
    q.schedule(1.0, [&](Cycles now) {
        times.push_back(now);
        q.schedule(now + 4.0, [&](Cycles t2) { times.push_back(t2); });
    });
    q.runUntil();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10.0, [&](Cycles) { ++fired; });
    q.schedule(20.0, [&](Cycles) { ++fired; });
    q.runUntil(15.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(q.now(), 15.0);
    q.runUntil(20.0); // inclusive limit: event at exactly 20 runs
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilNeverRewindsTheClock)
{
    EventQueue q;
    std::vector<Cycles> fired;
    q.schedule(50.0, [&](Cycles t) { fired.push_back(t); });
    q.schedule(100.0, [&](Cycles t) { fired.push_back(t); });
    q.runUntil(50.0);
    ASSERT_DOUBLE_EQ(q.now(), 50.0);
    // A limit behind the clock runs nothing and leaves time alone...
    EXPECT_DOUBLE_EQ(q.runUntil(20.0), 50.0);
    EXPECT_DOUBLE_EQ(q.now(), 50.0);
    // ...so the past stays closed to new events.
    setLogLevel(LogLevel::Silent);
    EXPECT_THROW(q.schedule(30.0, [&](Cycles t) { fired.push_back(t); }),
                 PanicError);
    setLogLevel(LogLevel::Warn);
    q.runUntil();
    EXPECT_EQ(fired, (std::vector<Cycles>{50.0, 100.0}));
}

TEST(EventQueue, StaleHandleOfReusedSlotIsNoop)
{
    EventQueue q;
    int second = 0;
    const EventId a = q.schedule(1.0, [](Cycles) {});
    q.runUntil(1.0); // a fires and frees its callback slot
    const EventId b = q.schedule(2.0, [&](Cycles) { ++second; });
    EXPECT_NE(a, b);
    q.deschedule(a); // a's slot now holds b: must not cancel it
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_DOUBLE_EQ(q.nextEventTime(), 2.0);
    q.runUntil();
    EXPECT_EQ(second, 1);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PendingStaysExactUnderCancelChurn)
{
    // The core simulator's pattern: cancel its wake-up, reschedule it,
    // while other events come and go. Cancelled handles are re-cancelled
    // too, after their slots have been reused.
    EventQueue q;
    int wakeups = 0, others = 0;
    EventId wake = kInvalidEvent;
    std::vector<EventId> cancelled;
    for (int i = 0; i < 100; ++i) {
        q.deschedule(wake);
        if (wake != kInvalidEvent)
            cancelled.push_back(wake);
        for (EventId old : cancelled)
            q.deschedule(old);
        wake = q.schedule(1000.0 + i, [&](Cycles) { ++wakeups; });
        q.schedule(static_cast<Cycles>(i), [&](Cycles) { ++others; });
        EXPECT_EQ(q.pending(), static_cast<size_t>(i + 2));
    }
    EXPECT_DOUBLE_EQ(q.nextEventTime(), 0.0);
    q.runUntil(99.0);
    EXPECT_EQ(others, 100);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_DOUBLE_EQ(q.nextEventTime(), 1099.0);
    q.runUntil();
    EXPECT_EQ(wakeups, 1);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 101u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    setLogLevel(LogLevel::Silent);
    EventQueue q;
    q.schedule(10.0, [](Cycles) {});
    q.runUntil();
    EXPECT_THROW(q.schedule(5.0, [](Cycles) {}), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(EventQueue, NextEventTimeSkipsCancelled)
{
    EventQueue q;
    EventId a = q.schedule(5.0, [](Cycles) {});
    q.schedule(9.0, [](Cycles) {});
    q.deschedule(a);
    EXPECT_DOUBLE_EQ(q.nextEventTime(), 9.0);
}

TEST(EventQueue, NextEventTimeEmptyIsInf)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTime(), kCyclesInf);
}

TEST(EventQueue, StepRunsExactlyOne)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&](Cycles) { ++fired; });
    q.schedule(2.0, [&](Cycles) { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, PendingAndExecutedCounts)
{
    EventQueue q;
    q.schedule(1.0, [](Cycles) {});
    q.schedule(2.0, [](Cycles) {});
    EXPECT_EQ(q.pending(), 2u);
    q.runUntil();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, ZeroDelaySelfEventAdvances)
{
    EventQueue q;
    int count = 0;
    std::function<void(Cycles)> chain = [&](Cycles now) {
        if (++count < 5)
            q.schedule(now, chain);
    };
    q.schedule(0.0, chain);
    q.runUntil(100.0);
    EXPECT_EQ(count, 5);
}

TEST(Clock, DefaultMatchesTableII)
{
    Clock c;
    EXPECT_DOUBLE_EQ(c.freqHz(), 1.05e9);
}

TEST(Clock, RoundTripConversions)
{
    Clock c(1.0e9);
    EXPECT_DOUBLE_EQ(c.toSeconds(1e9), 1.0);
    EXPECT_DOUBLE_EQ(c.toCycles(2.0), 2e9);
    EXPECT_DOUBLE_EQ(c.toCycles(c.toSeconds(12345.0)), 12345.0);
}

TEST(Clock, BandwidthConversions)
{
    Clock c(1.2e9);
    // 1 byte/cycle at 1.2 GHz = 1.2 GB/s.
    EXPECT_DOUBLE_EQ(c.toBytesPerSec(1.0), 1.2e9);
    EXPECT_DOUBLE_EQ(c.toBytesPerCycle(1.2e9), 1.0);
}

} // anonymous namespace
} // namespace neu10
