/**
 * @file
 * Cluster-scale open-loop serving: a multi-board NPU fleet under
 * trace-driven traffic with placement and SLO accounting.
 *
 * This is the layer the paper stops short of (§V evaluates collocated
 * tenants on one physical core): N boards x M cores serve per-tenant
 * open-loop arrival streams (cluster/traffic). Each tenant rents a
 * vNPU sized by the §III-B allocator from its EU budget; a placement
 * policy (cluster/placement) bin-packs the vNPUs onto cores; every
 * core then runs the event-driven serving simulation in open-loop
 * mode (runtime/serving) with per-tenant admission control. Results
 * aggregate fleet-wide: p50/p95/p99 latency, goodput (requests
 * meeting their SLO per second), rejection rate, and per-core
 * utilization — the metrics a capacity-planning study sweeps over
 * traffic shape x fleet size x placement policy x scheduler design.
 *
 * Cores are independent (no cross-core interference is modeled;
 * tenants here are single-core vNPUs), so the fleet decomposes into
 * per-core simulations that share nothing but the traffic clock —
 * and the engine exploits that on the host: per-core simulations run
 * concurrently on a common/threadpool worker pool (FleetConfig::
 * threads), with bit-identical results for any thread count.
 *
 * On top of the static capacity-planning mode, the engine is
 * *elastic* (ElasticConfig): the run splits into epochs; at every
 * epoch boundary a rebalancer inspects the utilization and queue
 * backlog each core actually exhibited, migrates vNPUs from the
 * hottest cores to the coldest (re-running the §III-B split against
 * the destination's residency), charges each move a configurable
 * migration cost through the hypervisor's destroy/create hypercalls
 * (exercising MMIO-window recycling), and the open-loop serving
 * resumes with carried-over backlogs.
 *
 * The fleet is also *fault-aware* (ResilienceConfig): an injected
 * fault trace (resilience/faults) takes cores and whole boards down
 * mid-run. A faulted core's epoch stops at the fault onset; at the
 * next epoch boundary the failover controller quarantines the core
 * in the placer, revokes its vNPUs through the hypervisor's bulk
 * host-side teardown, checkpoints each tenant's admitted-but-
 * unserved work (resilience/checkpoint), and restores the vNPUs on
 * surviving cores — charging a recovery stall and accounting the
 * downtime, lost vs. recovered requests, and MTTR. With failover
 * disabled the same trace simply kills the affected tenants, which
 * is the baseline bench_resilience compares against.
 */

#ifndef NEU10_CLUSTER_FLEET_HH
#define NEU10_CLUSTER_FLEET_HH

#include <string>
#include <vector>

#include "cluster/placement.hh"
#include "cluster/traffic.hh"
#include "npu/config.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "resilience/faults.hh"
#include "runtime/serving.hh"
#include "stats/distribution.hh"

namespace neu10
{

/** One tenant of the fleet: a model, an EU budget, and a stream. */
struct ClusterTenantSpec
{
    ModelId model = ModelId::Dlrm;
    unsigned batch = 32;

    /** EU budget; the §III-B allocator picks the ME:VE split. */
    unsigned eus = 4;

    /** Request stream description (shape, rate, seed). */
    TrafficSpec traffic;

    /** Per-request latency SLO in cycles (goodput numerator). */
    Cycles sloCycles = kCyclesInf;

    /** Admission depth: arrivals beyond this backlog are rejected. */
    unsigned maxQueueDepth = 64;

    double priority = 1.0;
};

/** Epoch-based elastic-rebalancing knobs. */
struct ElasticConfig
{
    /** Serving epochs the horizon splits into; 1 = static fleet
     * (placement decided once, never revisited). */
    unsigned epochs = 1;

    /** Rebalance at an epoch boundary only while the hottest-to-
     * coldest observed per-core pressure gap (EU-cycles/cycle)
     * exceeds this. */
    double imbalanceThreshold = 0.1;

    /** Migration budget per epoch boundary. */
    unsigned maxMigrationsPerEpoch = 4;

    /** Cycles a migrated tenant stalls at the next epoch's start
     * (context save, MMIO re-map, IOMMU re-attach): its carried
     * backlog and early arrivals wait this long before submission,
     * and the wait counts against its latency SLO. */
    Cycles migrationCostCycles = 2e5;
};

/** Fault-injection and failover knobs. */
struct ResilienceConfig
{
    /** Injected fault trace (absolute cycles, any order); empty =
     * failure-free run, bit-identical to the pre-resilience engine.
     * Generate one with generateFaultTrace() or write it by hand
     * (bench_resilience injects a single board loss). Faults are
     * detected at epoch boundaries, so failover needs
     * ElasticConfig::epochs >= 2 to act; a fatal fault still stops
     * the affected core's serving at its onset with epochs == 1,
     * but the evicted tenants can never be restored. */
    std::vector<FaultEvent> faults;

    /** Master switch: with failover off the same fault trace is
     * injected but dead cores' tenants are abandoned — their
     * checkpointed backlog and all later arrivals count as lost.
     * This is the no-failover baseline. */
    bool failover = true;

    /** Cycles a restored vNPU stalls before submitting again on its
     * new core (context re-create, program re-load, MMIO/IOMMU
     * re-map) — the failover analogue of
     * ElasticConfig::migrationCostCycles, and part of MTTR. */
    Cycles recoveryStallCycles = 5e5;
};

/** Fleet experiment configuration. */
struct FleetConfig
{
    unsigned numBoards = 4;
    NpuBoardConfig board;     ///< per-board shape (chips x cores)

    /** On-core scheduling design (PMT / V10 / Neu10-NH / Neu10). */
    PolicyKind corePolicy = PolicyKind::Neu10;

    /**
     * How each core serves its tenants: the event-driven open-loop
     * request simulation (default), or token-level LLM serving
     * (ServingMode::LlmContinuous — every tenant must run the LLaMA
     * model; sequences flow through the continuous-batching loop of
     * llm/llm_serving.hh with per-tenant KV pools carved from the
     * placements' HBM reservations). LLM mode requires
     * elastic.epochs == 1: sequence lengths are drawn per run from
     * the tenant seed, so carrying half-decoded sequences across an
     * epoch boundary would re-draw them.
     */
    ServingMode servingMode = ServingMode::OpenLoop;

    /** LLM serving knobs (used when servingMode is LlmContinuous). */
    LlmParams llm;

    PlacementPolicy placement = PlacementPolicy::FirstFit;

    std::vector<ClusterTenantSpec> tenants;

    /** Traffic-generation window in cycles. */
    Cycles horizon = 5e7;

    /** Per-core drain cap in cycles (guards saturated cores); applies
     * to the final (draining) epoch's event loop. */
    Cycles maxCycles = 2e9;

    /** Host threads running per-core simulations concurrently:
     * 1 = serial (no pool), 0 = one per hardware thread. Results are
     * bit-identical for every value. The NEU10_FLEET_THREADS
     * environment variable, when set, overrides this (the TSan CI
     * cell uses it to force real concurrency through every fleet
     * test). */
    unsigned threads = 1;

    ElasticConfig elastic;

    ResilienceConfig resilience;

    /**
     * Sim-time tracing and metrics (obs/). When enabled, every
     * per-core run records its request lifecycle; the aggregation
     * thread merges the buffers into FleetResult::trace in core-index
     * order at each epoch boundary (the EpochRunCollector scheme), so
     * the exported bytes are identical at every @ref threads width.
     * TraceConfig::metrics additionally samples fleet counters into
     * FleetResult::metrics per epoch.
     */
    TraceConfig trace;

    /** Fleet-wide core count. */
    unsigned
    totalCores() const
    {
        return numBoards * board.totalCores();
    }
};

/** Where one tenant's vNPU landed (parallel to config.tenants).
 * Under elastic rebalancing this is the *final* placement; the
 * migration count records how often it moved. */
struct TenantPlacement
{
    CoreId core = kInvalidCore; ///< fleet-wide core index
    unsigned nMes = 0;          ///< allocator's engine split
    unsigned nVes = 0;
    Bytes hbmBytes = 0;         ///< segment-rounded HBM reservation
    double load = 0.0;          ///< offered EU-cycles/cycle estimate
    unsigned migrations = 0;    ///< elastic moves this vNPU made

    bool
    placed() const
    {
        return core != kInvalidCore;
    }
};

/** One epoch of an elastic run (a single row when static). */
struct FleetEpochReport
{
    unsigned epoch = 0;
    std::uint64_t completed = 0;  ///< completions within the epoch
    std::uint64_t backlog = 0;    ///< admitted-but-unserved, carried
    unsigned migrations = 0;      ///< applied at this epoch's end
    double pressureStddev = 0.0;  ///< cross-core observed imbalance

    /** Fatal core-down onsets detected during this epoch. */
    unsigned failures = 0;

    /** Checkpointed vNPUs restored at this epoch's end (may lag the
     * failures: restores retry while capacity is short). */
    unsigned restores = 0;
};

/** Post-run per-core report. */
struct FleetCoreReport
{
    CoreId core = 0;
    unsigned board = 0;         ///< board the core belongs to
    unsigned tenants = 0;       ///< resident vNPUs
    std::uint64_t completed = 0;

    /** Useful-ME / VE utilization over the *fleet* makespan, so
     * cores that drained early compare fairly. */
    double meUsefulUtil = 0.0;
    double veUtil = 0.0;

    /** Engine-count-weighted EU utilization (the billing unit). */
    double euUtil = 0.0;

    Cycles makespan = 0.0;      ///< this core's drain time

    /** Cycles of the horizon this core was down (injected faults). */
    Cycles downCycles = 0.0;
};

/** Whole-fleet outcome. */
struct FleetResult
{
    std::string policy;         ///< core scheduling design
    std::string placement;      ///< placement policy name

    std::vector<TenantPlacement> placements;
    std::vector<TenantResult> tenants; ///< open-loop per-tenant stats
    std::vector<FleetCoreReport> cores;

    /** Fleet-wide latency distribution (all completed requests). */
    Distribution latencyCycles;

    /** Per-core useful-ME utilizations (mean/stddev = balance). */
    Distribution coreMeUtil;

    /** Per-core EU utilizations (cross-core stddev = imbalance). */
    Distribution coreEuUtil;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0; ///< admission drops + unplaced-tenant
                                ///< arrivals + failure-lost requests
    std::uint64_t sloMet = 0;
    unsigned unplacedTenants = 0;

    /** Elastic accounting: total vNPU migrations applied and one
     * report per epoch (a single entry when elastic.epochs == 1). */
    unsigned migrations = 0;
    std::vector<FleetEpochReport> epochReports;

    // --- availability accounting (all zero/1.0 without faults) -----
    /** Injected fault events whose onset fell within the horizon. */
    unsigned faultsInjected = 0;

    /** Transient MMIO/DMA retry stalls charged to occupied cores
     * (a transient on an empty or already-down core has no MMIO
     * traffic to hit and is not counted). */
    unsigned transientFaults = 0;

    /** Fatal core-down onsets within the horizon, counted once per
     * affected core whether or not it hosted vNPUs at the time (a
     * board loss counts once per core of the board). Evictions and
     * failovers track the occupied subset. */
    unsigned coreFailures = 0;

    /** vNPUs successfully restored onto surviving cores. */
    unsigned failovers = 0;

    /** Requests permanently dropped by failures (also in rejected,
     * so completed + rejected == submitted still holds). */
    std::uint64_t lostRequests = 0;

    /** Admitted requests carried through a failover restore. */
    std::uint64_t recoveredRequests = 0;

    /** Summed tenant-downtime cycles (fault onset to restore-ready,
     * horizon-capped for tenants never restored). */
    Cycles downtimeCycles = 0.0;

    /** Core-level availability over the horizon:
     * 1 - sum(core down cycles) / (totalCores x horizon). Derived
     * from the injected trace, so identical with failover on or
     * off — failover changes what the downtime *costs*, not how
     * long the hardware was down. */
    double availability = 1.0;

    /** Mean cycles from fault onset to restored-and-submitting over
     * all failovers (0 when none succeeded). */
    Cycles mttrCycles = 0.0;

    Cycles makespan = 0.0;      ///< slowest core's drain time
    double goodput = 0.0;       ///< SLO-met requests / second

    /** Merged sim-time trace (FleetConfig::trace.enabled); empty
     * otherwise. Export with Trace::writeChromeJson. */
    Trace trace;

    /** Epoch-sampled fleet metrics (TraceConfig::metrics). */
    MetricsRegistry metrics;

    /** Rejected fraction of all submitted requests. */
    double
    rejectionRate() const
    {
        return submitted > 0
                   ? static_cast<double>(rejected) /
                         static_cast<double>(submitted)
                   : 0.0;
    }

    /** Fleet p50/p95/p99 in cycles. */
    double p50() const { return latencyCycles.percentile(0.50); }
    double p95() const { return latencyCycles.percentile(0.95); }
    double p99() const { return latencyCycles.percentile(0.99); }
};

/**
 * Run one fleet experiment. Deterministic: identical configs yield
 * identical results — traffic is seeded, per-core simulations are
 * independent, and aggregation happens in core-index order, so the
 * outcome is bit-identical for every FleetConfig::threads value.
 */
FleetResult runFleet(const FleetConfig &config);

/**
 * Whole-run LLM totals of a fleet run (all zero unless it served
 * ServingMode::LlmContinuous): counters and KV pages summed over
 * tenants, kvPageHighWater the sum of the endpoints' peaks, the pool
 * means weighted by each endpoint's pool size, TTFT merged in tenant
 * order, and tokens/s over the fleet makespan on a @p freqHz clock.
 * Computed on demand, so a run does not hold a second copy of every
 * TTFT sample.
 */
LlmEndpointStats fleetLlmTotals(const FleetResult &result,
                                double freqHz);

} // namespace neu10

#endif // NEU10_CLUSTER_FLEET_HH
