/**
 * @file
 * Steady-state allocation gate for the per-event core path.
 *
 * Drives NpuCoreSim directly under each of the four policies: two
 * tenants in a closed loop (the paper's BERT + EfficientNet pair), run
 * until every pool and scratch buffer has reached its working size,
 * then counted over a fixed window of events. The event queue, the
 * request and unit pools, the ready queues, max-min allocation and the
 * policies' scratch must not allocate there. The only allocations
 * allowed are the amortized growth of the append-only utilization
 * TimeSeries, a handful per window.
 *
 * This binary replaces the global operator new with a counting one, so
 * it is its own executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "npu/core_sim.hh"
#include "runtime/serving.hh"
#include "sched/policy.hh"
#include "sim/event_queue.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

} // anonymous namespace

// Every non-aligned form is replaced, so each allocation is counted
// once and new and delete agree under the sanitizers' own allocator.
void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return ::operator new(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &t) noexcept
{
    return ::operator new(n, t);
}

// The deletes stay out of line: inlined into this file's callers, gcc
// would see free() of an operator-new pointer and warn.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

void operator delete[](void *p) noexcept { ::operator delete(p); }
void operator delete(void *p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void *p, std::size_t) noexcept { ::operator delete(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

namespace neu10
{
namespace
{

constexpr std::uint64_t kWarmupEvents = 20000;
constexpr std::uint64_t kWindowEvents = 20000;
constexpr std::uint64_t kMaxWindowAllocs = 16;

/** Two tenants, each resubmitting on completion. The callback captures
 * one pointer, so it fits std::function's in-place storage. */
struct ClosedLoop
{
    NpuCoreSim *core = nullptr;
    const CompiledModel *programs[2] = {nullptr, nullptr};
    std::uint64_t completed = 0;

    void
    submit(std::uint32_t slot)
    {
        core->submit(slot, programs[slot],
                     [this](const RequestResult &r) {
                         ++completed;
                         submit(r.slot);
                     });
    }
};

void
expectSteadyStateAllocFree(PolicyKind kind)
{
    const NpuCoreConfig cfg;
    const CompiledModel bert =
        compileFor(TenantSpec(ModelId::Bert, 32, 2, 2), kind, cfg);
    const CompiledModel enet = compileFor(
        TenantSpec(ModelId::EfficientNet, 32, 2, 2), kind, cfg);
    std::vector<VnpuSlot> slots(2);
    for (VnpuSlot &s : slots) {
        s.nMes = 2;
        s.nVes = 2;
    }

    EventQueue queue;
    NpuCoreSim core(queue, cfg, makePolicy(kind), std::move(slots));
    ClosedLoop loop;
    loop.core = &core;
    loop.programs[0] = &bert;
    loop.programs[1] = &enet;
    loop.submit(0);
    loop.submit(1);

    for (std::uint64_t i = 0; i < kWarmupEvents; ++i)
        ASSERT_TRUE(queue.step());
    const std::uint64_t done_before = loop.completed;
    const std::uint64_t events_before = queue.executed();

    g_allocs.store(0);
    g_counting.store(true);
    for (std::uint64_t i = 0; i < kWindowEvents; ++i)
        if (!queue.step())
            break;
    g_counting.store(false);
    const std::uint64_t allocs = g_allocs.load();
    const std::uint64_t events = queue.executed() - events_before;

    std::printf("[alloc gate] %s: %llu allocations in %llu events, "
                "%llu requests completed in the window\n",
                policyName(kind).c_str(),
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(loop.completed -
                                                done_before));
    EXPECT_EQ(events, kWindowEvents);
    // The window must cover request turnover (submit, unit pool,
    // request slab), not only one long request's tail.
    EXPECT_GT(loop.completed, done_before);
    EXPECT_LE(allocs, kMaxWindowAllocs);
}

TEST(SteadyStateAllocs, Neu10)
{
    expectSteadyStateAllocFree(PolicyKind::Neu10);
}

TEST(SteadyStateAllocs, Neu10NH)
{
    expectSteadyStateAllocFree(PolicyKind::Neu10NH);
}

TEST(SteadyStateAllocs, V10)
{
    expectSteadyStateAllocFree(PolicyKind::V10);
}

TEST(SteadyStateAllocs, Pmt)
{
    expectSteadyStateAllocFree(PolicyKind::Pmt);
}

} // anonymous namespace
} // namespace neu10
