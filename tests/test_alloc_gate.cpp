/**
 * @file
 * Allocation gates for the per-event core path, the serving request
 * loop, the trace and the LLM token loop.
 *
 * Core path: drives NpuCoreSim directly under each of the four
 * policies, and under Neu10's temporal mode with both vNPUs given the
 * whole core (its deficit budgets are re-split every quantum, and a
 * re-split preempts what a slot holds beyond its new budget): two
 * tenants in a closed loop (the paper's BERT + EfficientNet pair),
 * run until every pool and scratch buffer has reached its working
 * size, then counted over a fixed window of events. The event queue,
 * the request and unit pools, the ready queues, max-min allocation,
 * the policies' scratch and the utilization trackers (integrated in
 * place; their series are off unless captured) must not allocate
 * there: the window allows none, so any per-event store that grows
 * fails the gate.
 *
 * Request loop: whole runServing calls, open and closed loop, with the
 * programs compiled outside the count. Admission, rejection, a carried
 * backlog, a start-offset stall, submission and completion must not
 * allocate per request; what is left is set-up and amortized container
 * growth (the event queue's tables, the host FIFOs' blocks, the latency
 * samples), well under one allocation per ten completed requests.
 *
 * Trace: epoch merges (Trace::append) must grow a track
 * geometrically, and the Chrome export must allocate per buffer, not
 * per row, so its count does not grow with the event count.
 *
 * LLM token loop: one endpoint served end to end under KV page
 * pressure. Page-list grows and releases, preemption and retiring
 * completions must not allocate; what is left is set-up and amortized
 * container growth (the waiting deque's blocks, the latency and TTFT
 * samples), well under one allocation per thousand generated tokens.
 *
 * This binary replaces the global operator new with a counting one, so
 * it is its own executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "npu/core_sim.hh"
#include "obs/trace.hh"
#include "runtime/serving.hh"
#include "sched/neu10_policy.hh"
#include "sched/policy.hh"
#include "sim/event_queue.hh"
#include "vnpu/allocator.hh"

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
constexpr std::uint64_t kMaxWindowAllocs = 0;

/** Allocations made while running @p fn. */
template <typename Fn>
std::uint64_t
countAllocs(Fn &&fn)
{
    g_allocs.store(0);
    g_counting.store(true);
    fn();
    g_counting.store(false);
    return g_allocs.load();
}

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

/** With @p temporal, a temporal-mode Neu10 core whose two vNPUs are
 * each allocated all of its MEs. */
void
expectSteadyStateAllocFree(PolicyKind kind, bool temporal = false)
{
    const NpuCoreConfig cfg;
    const unsigned mes = temporal ? cfg.numMes : 2;
    const CompiledModel bert =
        compileFor(TenantSpec(ModelId::Bert, 32, mes, 2), kind, cfg);
    const CompiledModel enet = compileFor(
        TenantSpec(ModelId::EfficientNet, 32, mes, 2), kind, cfg);
    std::vector<VnpuSlot> slots(2);
    for (VnpuSlot &s : slots) {
        s.nMes = mes;
        s.nVes = 2;
    }

    EventQueue queue;
    std::unique_ptr<SchedulerPolicy> policy =
        temporal ? std::make_unique<Neu10Policy>(true, true,
                                                 /*temporal=*/true)
                 : makePolicy(kind);
    NpuCoreSim core(queue, cfg, std::move(policy), std::move(slots));
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

    const std::uint64_t allocs = countAllocs([&] {
        for (std::uint64_t i = 0; i < kWindowEvents; ++i)
            if (!queue.step())
                break;
    });
    const std::uint64_t events = queue.executed() - events_before;

    std::printf("[alloc gate] %s%s: %llu allocations in %llu events, "
                "%llu requests completed in the window\n",
                policyName(kind).c_str(), temporal ? " temporal" : "",
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

TEST(SteadyStateAllocs, Neu10Temporal)
{
    expectSteadyStateAllocFree(PolicyKind::Neu10, /*temporal=*/true);
}

/** A core's per-epoch buffer: @p events request spans and instants. */
TraceBuffer
coreBuffer(int events)
{
    TraceBuffer buf(true);
    for (int i = 0; i < events; ++i) {
        const double at = 10.0 * i;
        if (i % 2 == 0)
            buf.asyncSpan(i + 1, at, at + 25.0, "request", "execute",
                          "tenant", 1.0);
        else
            buf.instant(at, "request", "complete", "tenant", 1.0,
                        "latency", 25.0);
    }
    return buf;
}

// 9 today: the track's map node, then capacities of 1,000 to 128,000
// events, one allocation per doubling.
constexpr std::uint64_t kMaxMergeAllocs = 12;

TEST(TraceAllocs, EpochMergesGrowTracksGeometrically)
{
    constexpr std::uint64_t kMerges = 80;
    const TraceBuffer buf = coreBuffer(1000);
    Trace trace;
    const std::uint64_t allocs = countAllocs([&] {
        for (std::uint64_t e = 0; e < kMerges; ++e)
            trace.append(0, buf, 1e4 * static_cast<double>(e),
                         (e + 1) << 56);
    });
    std::printf("[alloc gate] %llu Trace::append merges of %zu events: "
                "%llu allocations\n",
                static_cast<unsigned long long>(kMerges), buf.size(),
                static_cast<unsigned long long>(allocs));
    EXPECT_EQ(trace.totalEvents(), kMerges * buf.size());
    EXPECT_LE(allocs, kMaxMergeAllocs);
}

// The measured count, the same at any event count.
constexpr std::uint64_t kMaxExportAllocs = 4;

/** Allocations of one chromeJson() of @p events on one track. */
std::uint64_t
exportAllocs(int events)
{
    Trace trace;
    trace.setTopology(1, 1);
    trace.append(0, coreBuffer(events), 0.0, 0);
    size_t bytes = 0;
    const std::uint64_t allocs =
        countAllocs([&] { bytes = trace.chromeJson().size(); });
    std::printf("[alloc gate] chromeJson() of %d events (%zu bytes): "
                "%llu allocations\n",
                events, bytes, static_cast<unsigned long long>(allocs));
    return allocs;
}

TEST(TraceAllocs, ExportAllocatesPerBufferNotPerRow)
{
    // 4 allocations at both sizes: the output, reserved once from an
    // upper bound, the sort keys, the stable sort's buffer and the
    // list of named pids. Twice the rows must cost no more, neither an
    // allocation per row nor a doubling of the output.
    const std::uint64_t small = exportAllocs(10000);
    const std::uint64_t large = exportAllocs(20000);
    EXPECT_LE(small, kMaxExportAllocs);
    EXPECT_EQ(large, small);
}

// At most one allocation per this many completed requests.
constexpr std::uint64_t kRequestsPerAlloc = 10;

/** An MNIST + NCF core under Neu10, 2 MEs + 2 VEs each, with both
 * programs compiled before anything is counted. */
struct RequestLoopCore
{
    ServingConfig config;
    CompiledModel programs[2];

    explicit RequestLoopCore(ServingMode mode)
    {
        config.mode = mode;
        config.tenants = {TenantSpec(ModelId::Mnist, 32, 2, 2),
                          TenantSpec(ModelId::Ncf, 32, 2, 2)};
        for (int i = 0; i < 2; ++i) {
            programs[i] = compileFor(config.tenants[i], config.policy,
                                     config.core);
            config.tenants[i].program = &programs[i];
        }
    }

    /** Count one runServing call and gate its allocations per
     * completed request. @return the run's result. */
    ServingResult
    expectFewAllocsPerRequest(const char *label) const
    {
        ServingResult result;
        const std::uint64_t allocs =
            countAllocs([&] { result = runServing(config); });
        std::uint64_t completed = 0;
        for (const TenantResult &t : result.tenants)
            completed += t.completed;
        std::printf("[alloc gate] %s request loop: %llu allocations for "
                    "%llu completed requests\n",
                    label, static_cast<unsigned long long>(allocs),
                    static_cast<unsigned long long>(completed));
        EXPECT_GT(completed, 10000u);
        EXPECT_LE(allocs * kRequestsPerAlloc, completed);
        return result;
    }
};

TEST(RequestLoopAllocs, OpenLoop)
{
    // Bursts of six arrivals at one instant into an admission depth
    // of four, so every burst sheds; tenant 0 also carries a backlog
    // in and tenant 1 waits out a start offset (a migration stall).
    RequestLoopCore core(ServingMode::OpenLoop);
    for (TenantSpec &ts : core.config.tenants) {
        ts.maxQueueDepth = 4;
        for (int burst = 0; burst < 1500; ++burst)
            for (int k = 0; k < 6; ++k)
                ts.arrivals.push_back(1e6 * burst);
    }
    core.config.tenants[0].backlog = {-3e5, -2e5, -1e5};
    core.config.tenants[1].startOffsetCycles = 5e5;
    const ServingResult r = core.expectFewAllocsPerRequest("open");
    for (const TenantResult &t : r.tenants) {
        EXPECT_GT(t.rejected, 0u) << t.model;
        EXPECT_TRUE(t.backlog.empty()) << t.model;
    }
    EXPECT_EQ(r.tenants[0].completed + r.tenants[0].rejected,
              r.tenants[0].submitted + 3);
}

TEST(RequestLoopAllocs, ClosedLoop)
{
    RequestLoopCore core(ServingMode::ClosedLoop);
    core.config.minRequests = 1000;
    const ServingResult r = core.expectFewAllocsPerRequest("closed");
    for (const TenantResult &t : r.tenants)
        EXPECT_GE(t.completed, 1000u) << t.model;
}

// At most one allocation per this many generated tokens.
constexpr std::uint64_t kTokensPerAlloc = 1000;

TEST(LlmAllocs, TokenLoopDoesNotAllocatePerToken)
{
    // llm_preemption.scn's endpoint: a batch-8 HBM reservation (307
    // pages of 16 tokens) under a 16-sequence running batch, so the
    // pool oversubscribes and preempts.
    ServingConfig config;
    config.mode = ServingMode::LlmContinuous;
    config.maxCycles = kCyclesInf;
    config.llm.pageTokens = 16;
    config.llm.maxBatch = 16;
    config.llm.promptTokens = 384;
    config.llm.promptTokensMax = 640;
    config.llm.outputTokens = 64;
    config.llm.outputTokensMax = 128;
    // Arrivals outpace the endpoint; a queue deep enough to admit
    // them all makes the run serve every one before it drains.
    TenantSpec ts(ModelId::Llama, 8, 4, 4);
    ts.llmSeed = 7;
    ts.maxQueueDepth = 4096;
    ts.hbmBytes = sizeVnpuForModel(ts.model, ts.batch,
                                   ts.nMes + ts.nVes, config.core)
                      .config.memSizePerCore;
    for (int i = 0; i < 2000; ++i)
        ts.arrivals.push_back(2e7 * i);
    config.tenants.push_back(std::move(ts));

    ServingResult result;
    const std::uint64_t allocs =
        countAllocs([&] { result = runServing(config); });
    const LlmEndpointStats &llm = result.tenants[0].llm;
    std::printf("[alloc gate] LLM token loop: %llu allocations for "
                "%llu generated tokens (%llu sequences, %llu "
                "preemptions)\n",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(llm.tokensGenerated),
                static_cast<unsigned long long>(
                    result.tenants[0].completed),
                static_cast<unsigned long long>(llm.preemptions));
    EXPECT_GT(llm.preemptions, 0u);
    EXPECT_GT(llm.tokensGenerated, 100u * kTokensPerAlloc);
    EXPECT_LE(allocs * kTokensPerAlloc, llm.tokensGenerated);
}

} // anonymous namespace
} // namespace neu10
