#include "cluster/fleet.hh"

#include <algorithm>
#include <utility>

#include "common/annotations.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "resilience/checkpoint.hh"
#include "sim/clock.hh"
#include "virt/hypervisor.hh"
#include "vnpu/allocator.hh"

namespace neu10
{

namespace
{

/**
 * A migrated vNPU may grow into its destination's idle EUs, which
 * would otherwise be wasted, up to this many times its paid budget.
 * The grant is transient: the next migration re-derives the split
 * from the paid budget.
 */
constexpr unsigned kMigrationGrowFactor = 2;

/**
 * Collects the epoch's per-core serving results from pool workers.
 *
 * Workers finish in host-scheduling order, but results are keyed by
 * the occupied-core index and the aggregation below walks them in
 * that order, so the fleet outcome stays bit-identical at any thread
 * width. The mutex makes the hand-off from worker to aggregator a
 * checked invariant (clang -Wthread-safety) instead of a comment:
 * workers only write through record(), and the aggregator can only
 * get the results back through take(), which asserts every core
 * reported.
 */
class EpochRunCollector
{
  public:
    explicit EpochRunCollector(std::size_t cores) : done_(cores) {}

    /** Store core-index @p k's result (called from pool workers). */
    void record(std::size_t k, ServingResult &&r) NEU10_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        NEU10_ASSERT(k < done_.size(), "core index out of range");
        done_[k] = std::move(r);
        ++recorded_;
    }

    /** Move the complete result set out (after the parallelFor
     * barrier, on the aggregation thread). */
    std::vector<ServingResult> take() NEU10_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        NEU10_ASSERT(recorded_ == done_.size(),
                     "epoch aggregation started before every core "
                     "reported (%zu of %zu)", recorded_, done_.size());
        recorded_ = 0;
        return std::move(done_);
    }

  private:
    Mutex mutex_;
    std::vector<ServingResult> done_ NEU10_GUARDED_BY(mutex_);
    std::size_t recorded_ NEU10_GUARDED_BY(mutex_) = 0;
};

/** The fleet's boards as one inventory, in the placer's core order. */
NpuBoardConfig
fleetBoard(const FleetConfig &config)
{
    NpuBoardConfig board = config.board;
    board.numChips = config.numBoards * config.board.numChips;
    return board;
}

/** One tenant's books for the whole run (parallel to config.tenants). */
struct TenantBooks
{
    /** The vNPU's current §III-B split. The placer's engine and memory
     * books always equal it, so every request is built from it
     * (placementRequest), and finish() copies it into the tenant's
     * TenantPlacement. */
    VnpuSizing sizing;

    /** The load the tenant's *current* commit charged on the placer's
     * books: the offered estimate at initial placement, the observed
     * pressure after a rebalance move (a restore keeps what the lost
     * core's commit charged). Load is advisory, but releasing exactly
     * what was committed keeps a repaired core's books from drifting
     * for the rest of the run. */
    double committedLoad = 0.0;

    /** The live vNPU, kInvalidVnpu while the tenant has none. */
    VnpuId vnpu = kInvalidVnpu;

    /** Compiled once if placed (not in LLM mode); every run of the
     * tenant points at it. */
    CompiledModel program;

    /** The seeded, epoch-independent stream and the first arrival not
     * yet handed to a run. */
    std::vector<Cycles> arrivals;
    std::size_t nextArrival = 0;

    /** Admitted-but-unserved work, stamped relative to the next
     * epoch's start (after a fault: to the faulted epoch's). */
    std::vector<Cycles> carried;

    /** Submission hold charged at the next epoch's start: the
     * migration cost for freshly moved vNPUs, the recovery stall for
     * freshly restored ones. */
    Cycles stallNext = 0.0;

    /** Blocked cycles over all runs; finish() turns them into the
     * tenant's blocked fraction of the fleet makespan. */
    double blockedCycles = 0.0;
};

/**
 * One fleet run as named phases. The constructor provisions the
 * fleet; each epoch then runs buildRuns, runCores (the only parallel
 * phase), absorb, failover, rebalance and sample, in that order; and
 * finish() settles the result.
 */
class FleetRun
{
  public:
    explicit FleetRun(const FleetConfig &config);

    void buildRuns(unsigned e);
    void runCores();
    void absorb();
    void failover();
    void rebalance();
    void sample();
    FleetResult finish();

  private:
    /** What one epoch's phases hand each other. sample() releases it,
     * so no epoch's runs or results outlive the epoch. */
    struct Epoch
    {
        FleetEpochReport report;
        Cycles start = 0.0;
        Cycles end = 0.0;
        bool last = false;
        /** The controller's epoch span covers the window — or, in the
         * final (draining) epoch, out to the slowest core's drain. */
        Cycles spanEnd = 0.0;
        /** Per core, its placed tenants in index order. */
        std::vector<std::vector<std::size_t>> residents;
        /** Per core, the fatal onset inside the window (kCyclesInf
         * when the core survives it). */
        std::vector<Cycles> fatalAt;
        /** Cores that run this epoch, in index order; runs and done
         * are parallel to it. */
        std::vector<CoreId> occupied;
        std::vector<ServingConfig> runs;
        std::vector<ServingResult> done;
        /** Observed pressure per core and per tenant (absorb()). */
        std::vector<double> pressure;
        std::vector<double> tenantPressure;
        /** Tenants restored at this boundary (failover()). */
        std::vector<bool> justRestored;
        std::uint64_t llmTokens = 0, llmPrefills = 0;
        std::uint64_t llmDecode = 0, llmPreempt = 0;
        double llmOccSum = 0.0;
        unsigned llmEndpoints = 0;
    };

    void abandon(const VnpuCheckpoint &ckpt, Cycles when);

    const FleetConfig &config_;
    const NpuCoreConfig &core_;
    const unsigned numCores_;
    const Cycles window_;
    const bool llm_;
    FleetResult result_;
    const FaultTimeline timeline_;
    /** Controller-track events, recorded serially (phases only) in
     * absolute cycles and appended to the merged trace once, by
     * finish(). */
    TraceBuffer ctl_;
    FleetPlacer placer_;
    /** One hypervisor spans the fleet. Migrations travel its
     * destroy/create hypercalls and failures its bulk core
     * revocation, so long-lived runs churn — and recycle — the MMIO
     * aperture exactly as a production host would. */
    Hypervisor hv_;
    ThreadPool pool_;
    std::vector<TenantBooks> books_;
    /** Checkpoints awaiting a restore slot, in fault-detection order
     * (epoch, then failed-core index, then resident order) — which is
     * also the priority when restore capacity is scarce. */
    std::vector<VnpuCheckpoint> pending_;
    Cycles mttrSum_ = 0.0;
    Epoch ep_;
};

FleetRun::FleetRun(const FleetConfig &config)
    : config_(config), core_(config.board.core),
      numCores_(config.totalCores()),
      window_(config.horizon / config.elastic.epochs),
      llm_(config.servingMode == ServingMode::LlmContinuous),
      timeline_(config.resilience.faults,
                FleetTopology{config.numBoards, config.board.totalCores()}),
      ctl_(config.trace.enabled), placer_(numCores_, core_),
      hv_(fleetBoard(config)),
      // NEU10_FLEET_THREADS overrides the configured width (results
      // are bit-identical at any width, so this is safe everywhere).
      // The TSan CI cell sets it to force real concurrency through
      // tests whose configs default to serial.
      pool_(static_cast<unsigned>(
          envUint64("NEU10_FLEET_THREADS", config.threads))),
      books_(config.tenants.size())
{
    result_.policy = policyName(config.corePolicy);
    result_.placement = placementName(config.placement);
    result_.placements.resize(books_.size());
    result_.tenants.resize(books_.size());
    result_.cores.resize(numCores_);
    for (const FaultEvent &ev : timeline_.events())
        if (ev.at < config.horizon && ev.kind != FaultKind::Repair)
            ++result_.faultsInjected;

    result_.trace.setTopology(config.board.totalCores(), config.numBoards);
    result_.trace.setFreqHz(core_.freqHz);
    if (ctl_.enabled())
        timeline_.emitTrace(result_.trace, config.horizon);
    result_.metrics.enable(config.trace.enabled && config.trace.metrics);

    // ---- size every vNPU and bin-pack the fleet -------------------
    // Placement is fault-oblivious: the trace is the future, and the
    // provisioning path does not get to peek at it. Tenants landing
    // on a doomed core are exactly what the failover controller is
    // for.
    for (size_t i = 0; i < books_.size(); ++i) {
        const ClusterTenantSpec &spec = config.tenants[i];
        TenantBooks &b = books_[i];
        b.sizing = sizeVnpuForModel(spec.model, spec.batch, spec.eus,
                                    core_);
        result_.tenants[i].model = modelAbbrev(spec.model);
        TenantPlacement &pl = result_.placements[i];
        // Offered load: requests/s x busy EU-cycles per request,
        // expressed in EU-cycles per cycle.
        pl.load = spec.traffic.ratePerSec *
                  (b.sizing.profile.meBusy + b.sizing.profile.veBusy) /
                  core_.freqHz;
        pl.core = placer_.place(placementRequest(b.sizing, pl.load),
                                config.placement);
        b.committedLoad = pl.load;
        if (pl.placed())
            ctl_.instant(0.0, "fleet", "place", "tenant", i, "core",
                         pl.core);
        else
            ctl_.instant(0.0, "fleet", "unplaced", "tenant", i);
    }

    // ---- install every placed vNPU through the hypervisor ---------
    hv_.setTrace(&ctl_);
    for (size_t i = 0; i < books_.size(); ++i)
        if (result_.placements[i].placed())
            books_[i].vnpu = hv_.hcCreateVnpu(
                static_cast<TenantId>(i), books_[i].sizing.config,
                IsolationMode::Hardware, result_.placements[i].core);

    // ---- generate traffic (seeded, epoch-independent) -------------
    for (size_t i = 0; i < books_.size(); ++i) {
        books_[i].arrivals = generateArrivals(config.tenants[i].traffic,
                                              config.horizon, core_.freqHz);
        if (!result_.placements[i].placed()) {
            // The fleet turned the tenant away: every request of its
            // stream counts as submitted and rejected.
            ++result_.unplacedTenants;
            result_.tenants[i].submitted = books_[i].arrivals.size();
            result_.tenants[i].rejected = books_[i].arrivals.size();
        }
    }

    // Compile every placed tenant's binary exactly once; epochs and
    // host threads share the read-only programs (NeuISA binaries are
    // compiled against the physical core shape, so resized engine
    // grants execute the same code, §III-D).
    // LLM serving prices phases analytically (no compiled program).
    pool_.parallelFor(books_.size(), [&](size_t i) {
        if (llm_ || !result_.placements[i].placed())
            return;
        TenantSpec ts;
        ts.model = config.tenants[i].model;
        ts.batch = config.tenants[i].batch;
        books_[i].program = compileFor(ts, config.corePolicy, core_);
    });
}

void
FleetRun::buildRuns(unsigned e)
{
    ep_.report.epoch = e;
    ep_.start = e * window_;
    ep_.end = ep_.start + window_;
    ep_.last = (e + 1 == config_.elastic.epochs);
    ep_.spanEnd = ep_.end;
    ep_.residents.resize(numCores_);
    for (size_t i = 0; i < books_.size(); ++i)
        if (result_.placements[i].placed())
            ep_.residents[result_.placements[i].core].push_back(i);

    // Fatal fault onsets taking cores down inside this epoch's
    // window. The sim is stopped at the onset (the host only *acts*
    // at the boundary, but a dead core executes nothing); arrivals
    // past the onset stay queued in the stream and are delivered to
    // the restored vNPU later.
    ep_.fatalAt.resize(numCores_);
    for (CoreId c = 0; c < numCores_; ++c) {
        const Cycles onset = timeline_.fatalOnset(c, ep_.start, ep_.end);
        ep_.fatalAt[c] = onset;
        if (onset < kCyclesInf)
            ++result_.coreFailures;
        // An onset coinciding exactly with the epoch start kills the
        // core before it executes a single cycle: running a
        // zero-length simulation would fire no events at all and
        // silently drop the carried backlog, so it gets no run — the
        // residents' carried books still hold their admitted work
        // (stamps relative to this epoch) and failover() checkpoints
        // it like any other fault.
        // neu10-lint: allow(float-eq): onset stamps propagate
        // untouched from the fault trace, so coincidence with the
        // epoch start is exact, never computed.
        if (!ep_.residents[c].empty() && onset != ep_.start)
            ep_.occupied.push_back(c);
    }

    ep_.runs.resize(ep_.occupied.size());
    for (size_t k = 0; k < ep_.occupied.size(); ++k) {
        const CoreId c = ep_.occupied[k];
        const bool faulted = ep_.fatalAt[c] < kCyclesInf;
        const Cycles stop_abs =
            faulted ? ep_.fatalAt[c] : (ep_.last ? kCyclesInf : ep_.end);
        // Transient MMIO/DMA retries hitting this core before it
        // (possibly) dies, charged as an epoch-start submission hold
        // on every resident.
        const Cycles stop = std::min(stop_abs, config_.horizon);
        const Cycles transient =
            timeline_.transientStall(c, ep_.start, stop);
        result_.transientFaults +=
            timeline_.transientCount(c, ep_.start, stop);

        ServingConfig &sc = ep_.runs[k];
        sc.core = core_;
        sc.policy = config_.corePolicy;
        sc.mode = config_.servingMode;
        sc.llm = config_.llm;
        sc.maxCycles = config_.maxCycles;
        sc.trace = config_.trace;
        sc.stopAtCycles = faulted ? ep_.fatalAt[c] - ep_.start
                                  : (ep_.last ? kCyclesInf : window_);
        for (size_t i : ep_.residents[c]) {
            const ClusterTenantSpec &spec = config_.tenants[i];
            TenantBooks &b = books_[i];
            TenantSpec ts;
            ts.model = spec.model;
            ts.batch = spec.batch;
            ts.nMes = b.sizing.config.numMesPerCore;
            ts.nVes = b.sizing.config.numVesPerCore;
            ts.priority = spec.priority;
            ts.maxQueueDepth = spec.maxQueueDepth;
            ts.sloCycles = spec.sloCycles;
            ts.program = llm_ ? nullptr : &b.program;
            // The KV pool is carved from the placement's actual
            // (segment-rounded) HBM reservation; the length stream
            // reuses the traffic seed through a fixed mix so arrivals
            // and lengths stay decorrelated.
            ts.hbmBytes = b.sizing.config.memSizePerCore;
            ts.llmSeed = spec.traffic.seed ^ 0x6c6c6d5f6e657531ull;
            // Carried backlog resumes here; a freshly migrated or
            // restored vNPU additionally stalls for its move or
            // recovery cost, and transient faults add their retry
            // stall on top.
            ts.backlog = std::move(b.carried);
            b.carried.clear();
            ts.startOffsetCycles = b.stallNext + transient;
            b.stallNext = 0.0;
            while (b.nextArrival < b.arrivals.size() &&
                   b.arrivals[b.nextArrival] < stop_abs) {
                // Stamps can fall before this epoch's start (arrivals
                // held through an outage): the serving loop delivers
                // them at t = 0 with the original stamp priced into
                // latency.
                ts.arrivals.push_back(b.arrivals[b.nextArrival] -
                                      ep_.start);
                ++b.nextArrival;
            }
            sc.tenants.push_back(std::move(ts));
        }
    }
}

void
FleetRun::runCores()
{
    // Per-core simulations are independent; workers hand results to
    // the collector keyed by core index and absorb() walks cores in
    // index order, so any thread count gives identical results.
    EpochRunCollector collector(ep_.occupied.size());
    const unsigned per_board = config_.board.totalCores();
    pool_.parallelFor(ep_.occupied.size(), [&](size_t k) {
        // Worker messages (cap warnings etc.) carry a
        // "[board.core @cycle]" prefix while this core runs.
        const CoreId c = ep_.occupied[k];
        ScopedLogContext log_ctx(c / per_board, c % per_board);
        collector.record(k, runServing(ep_.runs[k]));
    });
    ep_.done = collector.take();
}

void
FleetRun::absorb()
{
    // Serial, in core-index order.
    ep_.pressure.assign(numCores_, 0.0);
    ep_.tenantPressure.assign(books_.size(), 0.0);
    for (size_t k = 0; k < ep_.occupied.size(); ++k) {
        const CoreId c = ep_.occupied[k];
        const bool faulted = ep_.fatalAt[c] < kCyclesInf;
        ServingResult &r = ep_.done[k];
        const Cycles measured = std::max(1.0, r.makespan);
        if (ctl_.enabled())
            result_.trace.append(
                static_cast<int>(c), r.trace, ep_.start,
                static_cast<std::uint64_t>(ep_.report.epoch + 1) << 56);
        if (ep_.last)
            ep_.spanEnd = std::max(ep_.spanEnd, ep_.start + r.makespan);
        FleetCoreReport &rep = result_.cores[c];
        // Busy cycles until finish() divides them by the fleet
        // makespan.
        rep.meUsefulUtil += r.meUsefulUtil * measured;
        rep.veUtil += r.veUtil * measured;
        rep.makespan += faulted ? ep_.fatalAt[c] - ep_.start
                                : (ep_.last ? r.makespan : window_);
        for (size_t t = 0; t < ep_.residents[c].size(); ++t) {
            const size_t i = ep_.residents[c][t];
            TenantBooks &b = books_[i];
            TenantResult &tr = r.tenants[t];
            TenantResult &acc = result_.tenants[i];
            acc.submitted += tr.submitted;
            acc.rejected += tr.rejected;
            acc.completed += tr.completed;
            acc.sloMet += tr.sloMet;
            acc.reclaims += tr.reclaims;
            // An empty accumulator (every single-epoch run, and the
            // first epoch of the others) takes the core's samples
            // instead of copying; nothing reads the per-core
            // distribution afterwards.
            if (acc.latencyCycles.empty())
                acc.latencyCycles = std::move(tr.latencyCycles);
            else
                acc.latencyCycles.merge(tr.latencyCycles);
            if (llm_) {
                ep_.llmTokens += tr.llm.tokensGenerated;
                ep_.llmPrefills += tr.llm.prefills;
                ep_.llmDecode += tr.llm.decodeIterations;
                ep_.llmPreempt += tr.llm.preemptions;
                ep_.llmOccSum += tr.llm.kvOccupancyMean;
                ++ep_.llmEndpoints;
                // Single-epoch by construction (asserted in
                // runFleet): this is the tenant's only run, so its
                // stats are the tenant's. tokensPerSecond is
                // re-derived over the fleet makespan by finish().
                acc.llm = std::move(tr.llm);
            }
            b.blockedCycles += tr.blockedFrac * measured;
            rep.completed += tr.completed;
            ep_.report.completed += tr.completed;
            ep_.report.backlog += tr.backlog.size();
            if (faulted) {
                // The core died under this tenant: park its
                // admitted-but-unserved work in its carried books
                // (kept relative to *this* epoch's start) for
                // failover() to checkpoint — it decides whether the
                // work is restored or lost.
                b.carried = tr.backlog;
            } else {
                // Carry admitted-but-unserved work into the next
                // epoch, restamped relative to its start.
                for (Cycles stamp : tr.backlog)
                    b.carried.push_back(stamp - window_);
            }
            // The pressure this tenant demonstrably exerted: work it
            // got through *plus* work it left queued, in busy
            // EU-cycles per cycle of the epoch.
            ep_.tenantPressure[i] =
                (tr.completed + tr.backlog.size()) *
                (b.sizing.profile.meBusy + b.sizing.profile.veBusy) /
                window_;
            ep_.pressure[c] += ep_.tenantPressure[i];
        }
    }
    Distribution pdist;
    for (CoreId c = 0; c < numCores_; ++c)
        pdist.add(ep_.pressure[c]);
    ep_.report.pressureStddev = pdist.stddev();
}

void
FleetRun::failover()
{
    // Boundary bookkeeping happens "at" the epoch's end: stamp the
    // hypervisor's control-plane events accordingly.
    const Cycles now = ep_.end;
    hv_.setTraceNow(now);

    // Evict the dead cores' vNPUs (bulk host-side revocation: MMIO
    // windows and IOMMU attachments recycle exactly once), refresh
    // quarantine from the timeline, then try to restore every pending
    // checkpoint on the surviving capacity.
    for (CoreId c = 0; c < numCores_; ++c) {
        const Cycles onset = ep_.fatalAt[c];
        // neu10-lint: allow(float-eq): kCyclesInf is an exact
        // sentinel (infinity), not a computed value.
        if (onset == kCyclesInf)
            continue;
        ++ep_.report.failures;
        if (ep_.residents[c].empty())
            continue;
        for (size_t i : ep_.residents[c]) {
            TenantBooks &b = books_[i];
            placer_.release(c, placementRequest(b.sizing, b.committedLoad));
            // Checkpoint the admitted-but-unserved work: the
            // fault-stopped run's backlog (or, for a core dead from
            // the epoch's first cycle, the untouched carry-in), with
            // stamps relative to this epoch.
            pending_.push_back(
                captureCheckpoint(i, onset, b.carried, ep_.start));
            ctl_.instant(now, "resilience", "checkpoint", "tenant", i,
                         "core", c, "backlog",
                         static_cast<double>(b.carried.size()));
            b.carried.clear();
        }
        const auto revoked = hv_.hcRevokeCore(c);
        NEU10_ASSERT(revoked.size() == ep_.residents[c].size(),
                     "core %u revocation missed a vNPU", c);
        for (const auto &rv : revoked) {
            NEU10_ASSERT(books_[rv.tenant].vnpu == rv.id,
                         "revoked vNPU %u does not match tenant %u's "
                         "instance", rv.id, rv.tenant);
            books_[rv.tenant].vnpu = kInvalidVnpu;
            result_.placements[rv.tenant].core = kInvalidCore;
        }
    }
    ep_.justRestored.assign(books_.size(), false);
    if (ep_.last)
        return;
    for (CoreId c = 0; c < numCores_; ++c) {
        const bool down = timeline_.downAt(c, now);
        placer_.setQuarantined(c, down);
        if (down)
            ctl_.instant(now, "resilience", "quarantine", "core", c);
    }
    if (!config_.resilience.failover) {
        for (const VnpuCheckpoint &ckpt : pending_)
            abandon(ckpt, now);
        pending_.clear();
        return;
    }

    std::vector<VnpuCheckpoint> still;
    for (VnpuCheckpoint &ckpt : pending_) {
        // The lost core's split and load are still the tenant's
        // books: land them on a survivor, re-split for its residency
        // at the paid budget.
        const size_t i = ckpt.tenant;
        TenantBooks &b = books_[i];
        const CoreId dst =
            placer_.placeResplit(b.sizing, config_.tenants[i].eus,
                                 b.committedLoad, config_.placement);
        if (dst == kInvalidCore) {
            still.push_back(std::move(ckpt));
            continue;
        }
        b.vnpu = hv_.hcCreateVnpu(static_cast<TenantId>(i),
                                  b.sizing.config,
                                  IsolationMode::Hardware, dst);
        ep_.justRestored[i] = true;
        ctl_.instant(now, "resilience", "restore", "tenant", i, "core",
                     dst, "backlog",
                     static_cast<double>(ckpt.backlog.size()));
        result_.placements[i].core = dst;
        for (Cycles stamp : ckpt.backlog)
            b.carried.push_back(stamp - now);
        b.stallNext = config_.resilience.recoveryStallCycles;
        TenantResult &tr = result_.tenants[i];
        ++tr.failovers;
        ++result_.failovers;
        ++ep_.report.restores;
        // Recovered: the checkpointed backlog plus the arrivals held
        // through the outage — everything a failover-less fleet
        // would have dropped that now gets its chance (late) at
        // service.
        std::uint64_t held = 0;
        for (size_t a = b.nextArrival;
             a < b.arrivals.size() && b.arrivals[a] < now; ++a)
            ++held;
        tr.recoveredRequests += ckpt.backlog.size() + held;
        const Cycles repaired = (now - ckpt.faultAt) +
                                config_.resilience.recoveryStallCycles;
        tr.downtimeCycles += repaired;
        mttrSum_ += repaired;
    }
    pending_ = std::move(still);
}

void
FleetRun::rebalance()
{
    if (ep_.last)
        return;
    std::vector<CoreId> where(books_.size(), kInvalidCore);
    std::vector<PlacementRequest> demands(books_.size());
    for (size_t i = 0; i < books_.size(); ++i) {
        where[i] = result_.placements[i].core;
        demands[i] =
            placementRequest(books_[i].sizing, ep_.tenantPressure[i]);
    }
    RebalanceOptions opts;
    opts.imbalanceThreshold = config_.elastic.imbalanceThreshold;
    opts.maxMigrations = config_.elastic.maxMigrationsPerEpoch;
    const std::vector<Migration> moves =
        placer_.rebalance(ep_.pressure, where, demands, opts);

    // rebalance() applied every planned move to the placer's books at
    // once, so the grown re-splits below see the post-rebalance
    // residency. Mirror that in the manager before any re-create:
    // destroy every mover first — otherwise a grant grown into EUs a
    // *later* move is about to vacate would exceed the destination's
    // current occupancy and the pinned create would (rightly) refuse.
    for (const Migration &mv : moves)
        hv_.hcDestroyVnpu(static_cast<TenantId>(mv.tenant),
                          books_[mv.tenant].vnpu);

    for (const Migration &mv : moves) {
        TenantPlacement &pl = result_.placements[mv.tenant];
        TenantBooks &b = books_[mv.tenant];
        // Re-run the §III-B split against the destination's
        // residency: free engines there once this vNPU's committed
        // share is set aside. The grant may grow into idle EUs
        // (kMigrationGrowFactor); when the grown or re-split request
        // no longer fits (engines or SRAM), fall back to the paid
        // budget and finally to the current split that rebalance()
        // already proved feasible.
        const PlacementRequest &cur = demands[mv.tenant];
        placer_.release(mv.to, cur);
        const unsigned paid = config_.tenants[mv.tenant].eus;
        const unsigned grown = std::max(
            paid, std::min(placer_.cores()[mv.to].freeEus(),
                           paid * kMigrationGrowFactor));
        const bool ok =
            placer_.commitResplit(mv.to, b.sizing, grown, cur.load) ||
            placer_.commitResplit(mv.to, b.sizing, paid, cur.load) ||
            placer_.commit(mv.to, cur);
        NEU10_ASSERT(ok, "migrated vNPU no longer fits its destination "
                         "core");
        // The move itself is hypercall traffic: the destroy above
        // freed the MMIO window and IOMMU attachment, the pinned
        // create on the destination reuses them.
        b.vnpu = hv_.hcCreateVnpu(static_cast<TenantId>(mv.tenant),
                                  b.sizing.config,
                                  IsolationMode::Hardware, mv.to);
        ctl_.instant(ep_.end, "fleet", "migrate", "tenant", mv.tenant,
                     "from", mv.from, "to", mv.to);
        pl.core = mv.to;
        ++pl.migrations;
        b.committedLoad = cur.load;
        // Accumulate, don't overwrite: a vNPU restored at this same
        // boundary already owes its recovery stall, and moving it
        // again adds the migration on top. Keep the MTTR/downtime
        // books equal to the stall actually simulated.
        b.stallNext += config_.elastic.migrationCostCycles;
        if (ep_.justRestored[mv.tenant]) {
            result_.tenants[mv.tenant].downtimeCycles +=
                config_.elastic.migrationCostCycles;
            mttrSum_ += config_.elastic.migrationCostCycles;
        }
    }
    ep_.report.migrations = static_cast<unsigned>(moves.size());
    result_.migrations += static_cast<unsigned>(moves.size());
}

void
FleetRun::sample()
{
    const FleetEpochReport &er = ep_.report;
    ctl_.span(ep_.start, ep_.spanEnd, "fleet", "epoch", "completed",
              static_cast<double>(er.completed), "backlog",
              static_cast<double>(er.backlog));
    // A metric registers at its first sample (a repeat returns its
    // id), so this order is the export order.
    MetricsRegistry &mx = result_.metrics;
    mx.add(mx.counter("fleet.completed"), static_cast<double>(er.completed));
    mx.set(mx.gauge("fleet.backlog"), static_cast<double>(er.backlog));
    mx.add(mx.counter("fleet.migrations"), er.migrations);
    mx.add(mx.counter("fleet.failures"), er.failures);
    mx.add(mx.counter("fleet.restores"), er.restores);
    mx.set(mx.gauge("fleet.pressure_stddev"), er.pressureStddev);
    mx.set(mx.gauge("fleet.pending_checkpoints"),
           static_cast<double>(pending_.size()));
    mx.observe(mx.histogram("fleet.epoch_completed"),
               static_cast<double>(er.completed));
    // LLM-mode metrics are registered only when the mode is active so
    // the exported metric set (and trace goldens) of request-serving
    // runs is unchanged.
    if (llm_) {
        mx.add(mx.counter("llm.tokens"),
               static_cast<double>(ep_.llmTokens));
        mx.add(mx.counter("llm.prefills"),
               static_cast<double>(ep_.llmPrefills));
        mx.add(mx.counter("llm.decode_iterations"),
               static_cast<double>(ep_.llmDecode));
        mx.add(mx.counter("llm.preemptions"),
               static_cast<double>(ep_.llmPreempt));
        mx.set(mx.gauge("llm.kv_occupancy"),
               ep_.llmEndpoints > 0 ? ep_.llmOccSum / ep_.llmEndpoints
                                    : 0.0);
    }
    mx.sample(ep_.spanEnd);
    result_.epochReports.push_back(er);
    ep_ = Epoch{};
}

// Abandon a failed tenant for good: its checkpointed backlog and
// every not-yet-delivered arrival are lost (counted as rejected too,
// so request conservation holds), and it stays down to the end of
// the horizon. @p when is the decision instant (the epoch boundary
// giving up on the restore, or the horizon) — trace bookkeeping
// only; the loss accounting is time-independent.
void
FleetRun::abandon(const VnpuCheckpoint &ckpt, Cycles when)
{
    const size_t i = ckpt.tenant;
    TenantBooks &b = books_[i];
    TenantResult &tr = result_.tenants[i];
    const std::uint64_t lost_arrivals = b.arrivals.size() - b.nextArrival;
    b.nextArrival = b.arrivals.size();
    const std::uint64_t lost = ckpt.backlog.size() + lost_arrivals;
    tr.submitted += lost_arrivals;
    tr.rejected += lost;
    tr.lostRequests += lost;
    tr.downtimeCycles += config_.horizon - ckpt.faultAt;
    ctl_.instant(when, "resilience", "abandon", "tenant", i, "lost",
                 static_cast<double>(lost));
}

FleetResult
FleetRun::finish()
{
    // Tenants never restored (failover off handled them already;
    // here: no capacity found by the end, or the fault hit the final
    // epoch) lose their checkpointed work and any undelivered
    // arrivals.
    for (const VnpuCheckpoint &ckpt : pending_)
        abandon(ckpt, config_.horizon);

    // ---- fleet-wide makespan and per-core reports -----------------
    result_.makespan = config_.horizon;
    for (const FleetCoreReport &rep : result_.cores)
        result_.makespan = std::max(result_.makespan, rep.makespan);
    Cycles fleet_down = 0.0;
    for (CoreId c = 0; c < numCores_; ++c) {
        FleetCoreReport &rep = result_.cores[c];
        rep.core = c;
        rep.board = c / config_.board.totalCores();
        rep.downCycles = timeline_.downCycles(c, 0.0, config_.horizon);
        fleet_down += rep.downCycles;
        // Busy cycles over the fleet makespan, so cores that drained
        // early (or stood empty for epochs) compare fairly.
        rep.meUsefulUtil /= result_.makespan;
        rep.veUtil /= result_.makespan;
        rep.euUtil = (rep.meUsefulUtil * core_.numMes +
                      rep.veUtil * core_.numVes) /
                     (core_.numMes + core_.numVes);
        result_.coreMeUtil.add(rep.meUsefulUtil);
        result_.coreEuUtil.add(rep.euUtil);
    }
    result_.availability =
        1.0 - fleet_down / (static_cast<double>(numCores_) *
                            config_.horizon);
    result_.mttrCycles =
        result_.failovers > 0 ? mttrSum_ / result_.failovers : 0.0;

    // ---- fleet-wide SLO accounting and teardown -------------------
    const double secs =
        Clock(core_.freqHz).toSeconds(std::max(1.0, result_.makespan));
    hv_.setTraceNow(result_.makespan);
    for (size_t i = 0; i < books_.size(); ++i) {
        TenantResult &tr = result_.tenants[i];
        // Work still carried after the final epoch is what the drain
        // cap cut off: the run ends without serving it.
        tr.rejected += books_[i].carried.size();
        NEU10_ASSERT(tr.submitted == books_[i].arrivals.size(),
                     "tenant %zu (%s) was not offered every request "
                     "it generated", i, tr.model.c_str());
        // Rates over the fleet makespan (not any one core's window),
        // so tenants on early-draining cores are not flattered.
        settleRequests(tr, i, 0, secs, true);
        tr.blockedFrac =
            books_[i].blockedCycles / std::max(1.0, result_.makespan);
        result_.submitted += tr.submitted;
        result_.completed += tr.completed;
        result_.rejected += tr.rejected;
        result_.sloMet += tr.sloMet;
        result_.lostRequests += tr.lostRequests;
        result_.recoveredRequests += tr.recoveredRequests;
        result_.downtimeCycles += tr.downtimeCycles;
        result_.latencyCycles.merge(tr.latencyCycles);
        // Every tenant, placed or not, reports its final split.
        TenantPlacement &pl = result_.placements[i];
        const VnpuConfig &split = books_[i].sizing.config;
        pl.nMes = split.numMesPerCore;
        pl.nVes = split.numVesPerCore;
        pl.hbmBytes = split.memSizePerCore;
        if (pl.placed())
            ++result_.cores[pl.core].tenants;
        // Tear every surviving vNPU down through the hypercall path.
        if (books_[i].vnpu != kInvalidVnpu)
            hv_.hcDestroyVnpu(static_cast<TenantId>(i), books_[i].vnpu);
    }
    result_.goodput = result_.sloMet / secs;

    if (ctl_.enabled())
        result_.trace.append(Trace::kControllerTrack, ctl_, 0.0, 0);
    return std::move(result_);
}

} // anonymous namespace

FleetResult
runFleet(const FleetConfig &config)
{
    NEU10_ASSERT(!config.tenants.empty(), "fleet needs tenants");
    NEU10_ASSERT(config.totalCores() > 0, "fleet needs cores");
    NEU10_ASSERT(config.elastic.epochs >= 1,
                 "fleet needs at least one epoch");
    NEU10_ASSERT(config.servingMode != ServingMode::LlmContinuous ||
                     config.elastic.epochs == 1,
                 "LLM serving requires elastic.epochs == 1 (sequence "
                 "lengths are seed-drawn per run and cannot carry "
                 "across epoch boundaries)");
    FleetRun run(config);
    for (unsigned e = 0; e < config.elastic.epochs; ++e) {
        run.buildRuns(e);
        run.runCores();
        run.absorb();
        run.failover();
        run.rebalance();
        run.sample();
    }
    return run.finish();
}

LlmEndpointStats
fleetLlmTotals(const FleetResult &result, double freqHz)
{
    LlmEndpointStats out;
    for (const TenantResult &t : result.tenants) {
        out.tokensGenerated += t.llm.tokensGenerated;
        out.prefills += t.llm.prefills;
        out.decodeIterations += t.llm.decodeIterations;
        out.preemptions += t.llm.preemptions;
        out.kvPages += t.llm.kvPages;
        out.kvPageHighWater += t.llm.kvPageHighWater;
        out.kvAllocOps += t.llm.kvAllocOps;
        out.kvFreeOps += t.llm.kvFreeOps;
        out.kvFailedAllocs += t.llm.kvFailedAllocs;
        // Page-weighted sums; divided by the page total below.
        out.kvOccupancyMean += t.llm.kvOccupancyMean * t.llm.kvPages;
        out.kvFragMean += t.llm.kvFragMean * t.llm.kvPages;
        out.ttftCycles.merge(t.llm.ttftCycles);
    }
    if (out.kvPages > 0) {
        out.kvOccupancyMean /= out.kvPages;
        out.kvFragMean /= out.kvPages;
    }
    out.tokensPerSecond =
        static_cast<double>(out.tokensGenerated) /
        Clock(freqHz).toSeconds(std::max(1.0, result.makespan));
    return out;
}

} // namespace neu10
