/**
 * @file
 * Multi-tenant serving experiments (§V-A methodology).
 *
 * Two measurement loops share one core simulator:
 *
 *  - Closed loop (the paper's §V-A setup): collocated tenants each run
 *    inference requests continuously on one physical core under a
 *    chosen design (PMT / V10 / Neu10-NH / Neu10); the run ends once
 *    every tenant has completed a minimum number of requests (or a
 *    simulated-time cap triggers).
 *
 *  - Open loop (datacenter-style, used by src/cluster): each tenant
 *    brings a precomputed arrival-time stream; requests are admitted
 *    while the tenant's backlog is below its admission depth and
 *    rejected otherwise, and completions are checked against a
 *    per-tenant latency SLO. The run drains every admitted request.
 *
 * Outputs per-tenant latency distributions (p50/p95/p99), throughput,
 * goodput and rejection counts (open loop), harvest-blocked time
 * (Table III), core utilizations (Fig. 22), optional per-operator
 * timings (Fig. 23) and engine-assignment traces (Fig. 24).
 */

#ifndef NEU10_RUNTIME_SERVING_HH
#define NEU10_RUNTIME_SERVING_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/lower.hh"
#include "llm/llm_params.hh"
#include "models/zoo.hh"
#include "npu/config.hh"
#include "npu/core_sim.hh"
#include "obs/trace.hh"
#include "sched/policy.hh"
#include "stats/distribution.hh"

namespace neu10
{

/** One collocated tenant in a serving experiment. */
struct TenantSpec
{
    TenantSpec() = default;

    /** Closed-loop shorthand used throughout the benches. */
    TenantSpec(ModelId model_, unsigned batch_, unsigned n_mes,
               unsigned n_ves, double priority_ = 1.0,
               unsigned outstanding_ = 1)
        : model(model_), batch(batch_), nMes(n_mes), nVes(n_ves),
          priority(priority_), outstanding(outstanding_)
    {}

    ModelId model = ModelId::Bert;
    unsigned batch = 32;
    unsigned nMes = 2;        ///< vNPU engine allocation on the core
    unsigned nVes = 2;
    double priority = 1.0;
    unsigned outstanding = 1; ///< closed-loop requests in flight

    // --- open-loop fields (ServingMode::OpenLoop only) -------------
    /** Request arrival times in cycles (simulated core-clock cycles,
     * like every time quantity here), non-decreasing, relative to
     * this run's t = 0. Negative stamps are allowed: they model
     * requests that arrived while the tenant's vNPU was down (an
     * outage in an earlier epoch) and are delivered — through normal
     * admission control — at t = 0, keeping the original stamp so
     * the outage wait counts against latency and the SLO. */
    std::vector<Cycles> arrivals;

    /**
     * Admission depth: an arrival is rejected while this tenant
     * already has this many requests admitted but not completed
     * (queued *or* executing, including carried @ref backlog).
     */
    unsigned maxQueueDepth = 64;

    /** Latency SLO in cycles; completions within it count as goodput.
     * Latency is measured from the request's original arrival stamp,
     * so time spent held before @ref startOffsetCycles or carried
     * across an epoch boundary counts against the SLO. */
    Cycles sloCycles = kCyclesInf;

    /**
     * Arrival stamps (cycles, <= 0 relative to this run's t = 0) of
     * requests admitted in an earlier epoch and still unserved: the
     * fleet's elastic engine carries them across epoch boundaries.
     * They re-enter the host-side queue immediately and in order,
     * bypass admission (they were admitted once already) but count
     * toward the admission depth seen by fresh arrivals, and keep
     * their original stamps for latency/SLO accounting.
     */
    std::vector<Cycles> backlog;

    /**
     * Earliest core-submission time in cycles for this tenant (the
     * fleet charges vNPU migration cost through this). Work arriving
     * or carried in earlier waits in the host-side queue — admission
     * still happens at arrival time — and the wait counts toward its
     * latency. May exceed an epoch's window: everything still queued
     * at the boundary is simply carried again.
     */
    Cycles startOffsetCycles = 0.0;

    /**
     * Optional precompiled binary for this tenant — must match
     * (model, batch) and the run's policy and core shape. Non-owning
     * and read-only: epoch-based callers compile once and share it
     * across runs and host threads. When null, runServing compiles
     * via compileFor().
     */
    const CompiledModel *program = nullptr;

    // --- LLM fields (ServingMode::LlmContinuous only) --------------
    /** Seed of the per-sequence prompt/output length stream
     * (llm/llm_serving.hh); the fleet forwards the tenant's traffic
     * seed so lengths are stable per tenant. */
    std::uint64_t llmSeed = 0;

    /** vNPU HBM reservation the KV pool is carved from (weights are
     * subtracted inside llm_serving). 0 = size it on the fly via
     * sizeVnpuForModel, as the fleet placer would. */
    Bytes hbmBytes = 0;
};

/** How requests are generated (see file doc). */
enum class ServingMode
{
    ClosedLoop = 0, ///< resubmit-on-completion, §V-A methodology
    OpenLoop,       ///< arrival-driven with admission control

    /** Token-level LLM serving: arrivals are *sequences* (prompt +
     * per-token decode) batched continuously against a paged KV
     * pool (llm/llm_serving.hh). Uses the open-loop arrival,
     * admission and SLO machinery of TenantSpec. */
    LlmContinuous,
};

/** Experiment configuration. */
struct ServingConfig
{
    NpuCoreConfig core;
    PolicyKind policy = PolicyKind::Neu10;
    ServingMode mode = ServingMode::ClosedLoop;
    std::vector<TenantSpec> tenants;

    /** Closed loop: stop once the slowest tenant completes this many
     * requests. Ignored in open loop (the arrival streams bound the
     * experiment). */
    unsigned minRequests = 20;

    /**
     * Hard cap on simulated cycles (guards tiny/huge model mixes).
     * The cap is an exclusive boundary, with the same semantics as
     * @ref stopAtCycles: no event at or after it runs, so an arrival
     * landing exactly at the cap is outside this run's window. A
     * capped open-loop run stays conserved — admitted-but-unserved
     * work is reported as TenantResult::backlog and arrivals whose
     * delivery the cap cut off are counted as submitted *and*
     * rejected (the stream was offered; the server ran out of time).
     */
    Cycles maxCycles = 4e9;

    /**
     * Open loop only: stop simulating at the first event at or after
     * this time (an epoch boundary in the elastic fleet). Requests
     * admitted but unserved at the stop are reported in
     * TenantResult::backlog instead of being drained; utilization is
     * then measured over this window. kCyclesInf (default) drains
     * every admitted request as before.
     *
     * The boundary is exclusive: an arrival stamped exactly at it
     * belongs to the *next* epoch and must not be in this run's
     * TenantSpec::arrivals — runFleet slices its streams with the
     * same strict comparison, so nothing is admitted twice or
     * dropped at a boundary.
     */
    Cycles stopAtCycles = kCyclesInf;

    /** LLM serving knobs (ServingMode::LlmContinuous only). */
    LlmParams llm;

    bool captureOpTimings = false;
    bool captureAssignment = false;

    /**
     * Sim-time tracing (obs/trace.hh). Off by default; when enabled,
     * the run records request-lifecycle events (admit / queue /
     * execute / complete / reject) — and, with
     * TraceConfig::engineEvents, every engine fast-forward jump —
     * into ServingResult::trace. Event times are cycles relative to
     * this run's t = 0 (carried work keeps negative stamps); the
     * fleet re-anchors them when merging epochs.
     */
    TraceConfig trace;
};

/** Per-tenant outcome. */
struct TenantResult
{
    std::string model;
    std::uint64_t completed = 0;
    Distribution latencyCycles;
    double throughput = 0.0;      ///< requests / second
    double blockedFrac = 0.0;     ///< Table III: blocked-by-harvest
    unsigned reclaims = 0;

    // --- open-loop accounting (zero in closed loop) ----------------
    std::uint64_t submitted = 0;  ///< arrivals seen
    std::uint64_t rejected = 0;   ///< admission-control drops
    std::uint64_t sloMet = 0;     ///< completions within sloCycles
    double goodput = 0.0;         ///< SLO-met requests / second

    /** Arrival stamps (cycles, relative to this run's t = 0, possibly
     * negative for carried work) of admitted requests still unserved
     * when the run stopped at ServingConfig::stopAtCycles; sorted
     * non-decreasing. Empty when the run drained. */
    std::vector<Cycles> backlog;

    // --- resilience accounting (filled by the fleet's failover
    // --- controller; zero in a plain serving run) ------------------
    /** Requests permanently dropped by a hardware failure: admitted
     * work whose vNPU died unrestorably, plus arrivals while dead.
     * Also counted in @ref rejected so request conservation
     * (completed + rejected == submitted) holds. */
    std::uint64_t lostRequests = 0;

    /** Requests given a (late) chance at service by a failover
     * restore: the checkpointed admitted backlog plus arrivals held
     * through the outage, re-entering on the new core with original
     * stamps. Held arrivals still pass admission on re-delivery, so
     * a burst exceeding maxQueueDepth is partly shed — those drops
     * count as @ref rejected, not as @ref lostRequests. Counted per
     * restore event: a request still unserved when its *new* core
     * also fails is carried (and counted) again. */
    std::uint64_t recoveredRequests = 0;

    /** Completed failovers (vNPU restored onto a surviving core). */
    unsigned failovers = 0;

    /** Cycles this tenant had no usable vNPU: fault onset until the
     * restored instance may submit again (restore boundary plus the
     * recovery stall), or until the horizon when never restored. */
    Cycles downtimeCycles = 0.0;

    /** LLM serving outcome (ServingMode::LlmContinuous only):
     * token/prefill/preemption counters, KV-pool accounting and the
     * time-to-first-token distribution. */
    LlmEndpointStats llm;

    /** Per-request operator timings (captureOpTimings). */
    std::vector<std::vector<OpTiming>> opTimings;

    /** Engine-assignment traces (captureAssignment). */
    TimeSeries assignedMes;
    TimeSeries assignedVes;

    /** Median latency in cycles. */
    double
    p50() const
    {
        return latencyCycles.percentile(0.50);
    }

    /** p95 latency in cycles (Fig. 19's metric). */
    double
    p95() const
    {
        return latencyCycles.percentile(0.95);
    }

    /** p99 tail latency in cycles (datacenter SLO metric). */
    double
    p99() const
    {
        return latencyCycles.percentile(0.99);
    }
};

/** Whole-experiment outcome. */
struct ServingResult
{
    std::string policy;
    std::vector<TenantResult> tenants;
    Cycles makespan = 0.0;        ///< simulated cycles measured over
    double meUsefulUtil = 0.0;    ///< Fig. 22a
    double meHeldUtil = 0.0;
    double veUtil = 0.0;          ///< Fig. 22b
    double avgHbmBytesPerCycle = 0.0;

    /** Sim-time events recorded when ServingConfig::trace.enabled;
     * empty otherwise. Times are run-relative cycles. */
    TraceBuffer trace;

    /** Aggregate throughput over tenants (requests / second). */
    double totalThroughput() const;
};

/**
 * Run one serving experiment. Deterministic: identical configs yield
 * identical results.
 */
ServingResult runServing(const ServingConfig &config);

/**
 * Run one closed- or open-loop experiment with @p policy scheduling
 * the core instead of makePolicy(config.policy) — e.g. a Neu10Policy
 * with one harvest direction off. config.policy still selects the
 * compiler backend and names the result. Not for
 * ServingMode::LlmContinuous, which has no core scheduler.
 */
ServingResult runServing(const ServingConfig &config,
                         std::unique_ptr<SchedulerPolicy> policy);

/** Compile @p spec's model for @p policy on @p core (cached upstream
 * by the benches; this is a pure function). */
CompiledModel compileFor(const TenantSpec &spec, PolicyKind policy,
                         const NpuCoreConfig &core);

/** The nine workload pairs of §V-A, in paper order. */
struct WorkloadPair
{
    const char *label;
    ModelId w1;
    ModelId w2;
    unsigned batch1;
    unsigned batch2;
    const char *contention; ///< "low" / "medium" / "high"
};

/** Fig. 19-23 pair list (batch 32; 8 for MRCNN and SMask). */
const std::vector<WorkloadPair> &evaluationPairs();

} // namespace neu10

#endif // NEU10_RUNTIME_SERVING_HH
