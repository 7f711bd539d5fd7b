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

} // anonymous namespace

FleetResult
runFleet(const FleetConfig &config)
{
    NEU10_ASSERT(!config.tenants.empty(), "fleet needs tenants");
    NEU10_ASSERT(config.totalCores() > 0, "fleet needs cores");
    NEU10_ASSERT(config.elastic.epochs >= 1,
                 "fleet needs at least one epoch");
    const bool llm_mode =
        config.servingMode == ServingMode::LlmContinuous;
    NEU10_ASSERT(!llm_mode || config.elastic.epochs == 1,
                 "LLM serving requires elastic.epochs == 1 (sequence "
                 "lengths are seed-drawn per run and cannot carry "
                 "across epoch boundaries)");

    const NpuCoreConfig &core_cfg = config.board.core;
    const unsigned cores_per_board = config.board.totalCores();
    const unsigned num_cores = config.totalCores();
    const size_t num_tenants = config.tenants.size();
    const Clock clock(core_cfg.freqHz);

    FleetResult result;
    result.policy = policyName(config.corePolicy);
    result.placement = placementName(config.placement);
    result.placements.resize(num_tenants);
    result.tenants.resize(num_tenants);

    // ---- fold the injected fault trace into a queryable timeline --
    const FleetTopology topo{config.numBoards, cores_per_board};
    const FaultTimeline timeline(config.resilience.faults, topo);
    for (const FaultEvent &ev : timeline.events())
        if (ev.at < config.horizon && ev.kind != FaultKind::Repair)
            ++result.faultsInjected;

    // ---- observability: merged trace + epoch-sampled metrics ------
    // Controller-track events are recorded serially (epoch loop and
    // boundary controllers only) in absolute cycles into `ctl` and
    // appended to the merged trace once, after the last epoch.
    const bool tracing = config.trace.enabled;
    result.trace.setTopology(cores_per_board, config.numBoards);
    result.trace.setFreqHz(core_cfg.freqHz);
    TraceBuffer ctl(tracing);
    if (tracing)
        timeline.emitTrace(result.trace, config.horizon);
    MetricsRegistry &mx = result.metrics;
    mx.enable(tracing && config.trace.metrics);
    const MetricId mx_completed = mx.counter("fleet.completed");
    const MetricId mx_backlog = mx.gauge("fleet.backlog");
    const MetricId mx_migrations = mx.counter("fleet.migrations");
    const MetricId mx_failures = mx.counter("fleet.failures");
    const MetricId mx_restores = mx.counter("fleet.restores");
    const MetricId mx_pressure = mx.gauge("fleet.pressure_stddev");
    const MetricId mx_pending = mx.gauge("fleet.pending_checkpoints");
    const MetricId mx_epoch_done = mx.histogram("fleet.epoch_completed");
    // LLM-mode metrics are registered only when the mode is active so
    // the exported metric set (and trace goldens) of request-serving
    // runs is unchanged.
    MetricId mx_llm_tokens = 0, mx_llm_prefills = 0;
    MetricId mx_llm_decode = 0, mx_llm_preempt = 0, mx_llm_occ = 0;
    if (llm_mode) {
        mx_llm_tokens = mx.counter("llm.tokens");
        mx_llm_prefills = mx.counter("llm.prefills");
        mx_llm_decode = mx.counter("llm.decode_iterations");
        mx_llm_preempt = mx.counter("llm.preemptions");
        mx_llm_occ = mx.gauge("llm.kv_occupancy");
    }

    // ---- size every vNPU and bin-pack the fleet -------------------
    // Placement is fault-oblivious: the trace is the future, and the
    // provisioning path does not get to peek at it. Tenants landing
    // on a doomed core are exactly what the failover controller is
    // for.
    FleetPlacer placer(num_cores, core_cfg);
    std::vector<VnpuSizing> sizings(num_tenants);
    // The load each placed tenant's *current* commit charged on the
    // placer's books: the offered estimate at initial placement, the
    // observed pressure after a rebalance move, the checkpointed
    // load after a restore. Load is advisory, but releasing exactly
    // what was committed keeps a repaired core's books from drifting
    // for the rest of the run.
    std::vector<double> committed_load(num_tenants, 0.0);
    for (size_t i = 0; i < num_tenants; ++i) {
        const ClusterTenantSpec &spec = config.tenants[i];
        sizings[i] = sizeVnpuForModel(spec.model, spec.batch,
                                      spec.eus, core_cfg);
        const VnpuSizing &sizing = sizings[i];

        TenantPlacement &pl = result.placements[i];
        pl.nMes = sizing.config.numMesPerCore;
        pl.nVes = sizing.config.numVesPerCore;
        pl.hbmBytes = sizing.config.memSizePerCore;
        // Offered load: requests/s x busy EU-cycles per request,
        // expressed in EU-cycles per cycle.
        pl.load = spec.traffic.ratePerSec *
                  (sizing.profile.meBusy + sizing.profile.veBusy) /
                  core_cfg.freqHz;

        PlacementRequest req;
        req.nMes = pl.nMes;
        req.nVes = pl.nVes;
        req.hbmBytes = pl.hbmBytes;
        req.sramBytes = sizing.config.sramSizePerCore;
        req.load = pl.load;
        pl.core = placer.place(req, config.placement);
        committed_load[i] = pl.load;
        if (pl.placed())
            ctl.instant(0.0, "fleet", "place", "tenant", i, "core",
                        pl.core);
        else
            ctl.instant(0.0, "fleet", "unplaced", "tenant", i);
        if (!pl.placed())
            ++result.unplacedTenants;
    }

    // One tenant's demand as the placer sees it. Engine/memory
    // fields mirror the current commit exactly; the advisory load
    // field is whatever the caller charges (rebalance() internally
    // releases a mover's *observed* pressure from its source, so
    // load books drift there by design — see its doc).
    auto requestFor = [&](size_t i, double load) {
        const TenantPlacement &pl = result.placements[i];
        PlacementRequest req;
        req.nMes = pl.nMes;
        req.nVes = pl.nVes;
        req.hbmBytes = pl.hbmBytes;
        req.sramBytes = sizings[i].config.sramSizePerCore;
        req.load = load;
        return req;
    };

    // ---- install every placed vNPU through the hypervisor ---------
    // One hypervisor spans the fleet (to it, the boards are one big
    // inventory with the same core ordering as the placer). Later
    // migrations travel its destroy/create hypercalls and failures
    // its bulk core revocation, so long-lived runs churn — and
    // recycle — the MMIO aperture exactly as a production host would.
    NpuBoardConfig fleet_board = config.board;
    fleet_board.numChips = config.numBoards * config.board.numChips;
    Hypervisor hv(fleet_board);
    if (tracing)
        hv.setTrace(&ctl);
    std::vector<VnpuId> vnpu_ids(num_tenants, kInvalidVnpu);
    for (size_t i = 0; i < num_tenants; ++i) {
        if (result.placements[i].placed())
            vnpu_ids[i] = hv.hcCreateVnpu(
                static_cast<TenantId>(i), sizings[i].config,
                IsolationMode::Hardware, result.placements[i].core);
    }

    // ---- generate traffic (seeded, epoch-independent) -------------
    std::vector<std::vector<Cycles>> arrivals(num_tenants);
    for (size_t i = 0; i < num_tenants; ++i) {
        arrivals[i] = generateArrivals(config.tenants[i].traffic,
                                       config.horizon,
                                       core_cfg.freqHz);
        if (!result.placements[i].placed()) {
            // The fleet turned the tenant away: every request of its
            // stream counts as submitted and rejected.
            TenantResult &tr = result.tenants[i];
            tr.model = modelAbbrev(config.tenants[i].model);
            tr.submitted = arrivals[i].size();
            tr.rejected = arrivals[i].size();
        }
    }

    // ---- epoch loop: simulate, observe, fail over, rebalance ------
    const unsigned epochs = config.elastic.epochs;
    const Cycles window = config.horizon / epochs;
    // NEU10_FLEET_THREADS overrides the configured width (results are
    // bit-identical at any width, so this is safe everywhere). The
    // TSan CI cell sets it to force real concurrency through tests
    // whose configs default to serial.
    ThreadPool pool(static_cast<unsigned>(
        envUint64("NEU10_FLEET_THREADS", config.threads)));

    // Compile every placed tenant's binary exactly once; epochs and
    // host threads share the read-only programs (NeuISA binaries are
    // compiled against the physical core shape, so resized engine
    // grants execute the same code, §III-D).
    // LLM serving prices phases analytically (no compiled program).
    std::vector<CompiledModel> programs(num_tenants);
    pool.parallelFor(num_tenants, [&](size_t i) {
        if (llm_mode || !result.placements[i].placed())
            return;
        TenantSpec ts;
        ts.model = config.tenants[i].model;
        ts.batch = config.tenants[i].batch;
        programs[i] = compileFor(ts, config.corePolicy, core_cfg);
    });

    std::vector<std::vector<Cycles>> carried(num_tenants);
    // Submission hold charged at the next epoch's start: the
    // migration cost for freshly moved vNPUs, the recovery stall for
    // freshly restored ones.
    std::vector<Cycles> stall_next(num_tenants, 0.0);
    std::vector<size_t> next_arrival(num_tenants, 0);
    std::vector<double> blocked_cycles(num_tenants, 0.0);
    std::vector<double> me_busy(num_cores, 0.0);
    std::vector<double> ve_busy(num_cores, 0.0);
    std::vector<Cycles> core_live(num_cores, 0.0);
    std::vector<std::uint64_t> core_completed(num_cores, 0);

    // Failover state: checkpoints awaiting a restore slot, in fault-
    // detection order (epoch, then failed-core index, then resident
    // order) — which is also the priority when restore capacity is
    // scarce — and the running MTTR sum.
    std::vector<VnpuCheckpoint> pending;
    Cycles mttr_sum = 0.0;

    // Abandon a failed tenant for good: its checkpointed backlog and
    // every not-yet-delivered arrival are lost (counted as rejected
    // too, so request conservation holds), and it stays down to the
    // end of the horizon. @p when is the decision instant (the epoch
    // boundary giving up on the restore, or the horizon) — trace
    // bookkeeping only; the loss accounting is time-independent.
    auto abandon = [&](const VnpuCheckpoint &ckpt, Cycles when) {
        const size_t i = ckpt.tenant;
        TenantResult &tr = result.tenants[i];
        const std::uint64_t lost_arrivals =
            arrivals[i].size() - next_arrival[i];
        next_arrival[i] = arrivals[i].size();
        const std::uint64_t lost =
            ckpt.backlog.size() + lost_arrivals;
        tr.submitted += lost_arrivals;
        tr.rejected += lost;
        tr.lostRequests += lost;
        tr.downtimeCycles += config.horizon - ckpt.faultAt;
        ctl.instant(when, "resilience", "abandon", "tenant", i,
                    "lost", static_cast<double>(lost));
    };

    for (unsigned e = 0; e < epochs; ++e) {
        const Cycles start = e * window;
        const Cycles epoch_end = start + window;
        const bool last = (e + 1 == epochs);

        std::vector<std::vector<size_t>> residents(num_cores);
        for (size_t i = 0; i < num_tenants; ++i)
            if (result.placements[i].placed())
                residents[result.placements[i].core].push_back(i);

        // Fatal fault onsets taking cores down inside this epoch's
        // window. The sim is stopped at the onset (the host only
        // *acts* at the boundary, but a dead core executes nothing);
        // arrivals past the onset stay queued in the stream and are
        // delivered to the restored vNPU later.
        std::vector<Cycles> fatal_abs(num_cores, kCyclesInf);
        for (CoreId c = 0; c < num_cores; ++c) {
            fatal_abs[c] = timeline.fatalOnset(c, start, epoch_end);
            if (fatal_abs[c] < kCyclesInf)
                ++result.coreFailures;
        }

        std::vector<CoreId> occupied;
        for (CoreId c = 0; c < num_cores; ++c) {
            if (residents[c].empty())
                continue;
            // An onset coinciding exactly with the epoch start kills
            // the core before it executes a single cycle: running a
            // zero-length simulation would fire no events at all and
            // silently drop the carried backlog, so skip the run —
            // carried[] still holds the residents' admitted work
            // (stamps relative to this epoch) and the boundary
            // checkpoints it below like any other fault.
            // neu10-lint: allow(float-eq): onset stamps propagate
            // untouched from the fault trace, so coincidence with the
            // epoch start is exact, never computed.
            if (fatal_abs[c] == start)
                continue;
            occupied.push_back(c);
        }

        std::vector<ServingConfig> runs(occupied.size());
        for (size_t k = 0; k < occupied.size(); ++k) {
            const CoreId c = occupied[k];
            const bool faulted = fatal_abs[c] < kCyclesInf;
            const Cycles stop_abs =
                faulted ? fatal_abs[c]
                        : (last ? kCyclesInf : epoch_end);
            // Transient MMIO/DMA retries hitting this core before it
            // (possibly) dies, charged as an epoch-start submission
            // hold on every resident.
            const Cycles transient = timeline.transientStall(
                c, start, std::min(stop_abs, config.horizon));
            result.transientFaults += timeline.transientCount(
                c, start, std::min(stop_abs, config.horizon));

            ServingConfig &sc = runs[k];
            sc.core = core_cfg;
            sc.policy = config.corePolicy;
            sc.mode = config.servingMode;
            sc.llm = config.llm;
            sc.maxCycles = config.maxCycles;
            sc.trace = config.trace;
            sc.stopAtCycles =
                faulted ? fatal_abs[c] - start
                        : (last ? kCyclesInf : window);
            for (size_t i : residents[c]) {
                const ClusterTenantSpec &spec = config.tenants[i];
                const TenantPlacement &pl = result.placements[i];
                TenantSpec ts;
                ts.model = spec.model;
                ts.batch = spec.batch;
                ts.nMes = pl.nMes;
                ts.nVes = pl.nVes;
                ts.priority = spec.priority;
                ts.maxQueueDepth = spec.maxQueueDepth;
                ts.sloCycles = spec.sloCycles;
                ts.program = llm_mode ? nullptr : &programs[i];
                // The KV pool is carved from the placement's actual
                // (segment-rounded) HBM reservation; the length
                // stream reuses the traffic seed through a fixed
                // mix so arrivals and lengths stay decorrelated.
                ts.hbmBytes = pl.hbmBytes;
                ts.llmSeed =
                    spec.traffic.seed ^ 0x6c6c6d5f6e657531ull;
                // Carried backlog resumes here; a freshly migrated
                // or restored vNPU additionally stalls for its move
                // or recovery cost, and transient faults add their
                // retry stall on top.
                ts.backlog = std::move(carried[i]);
                carried[i].clear();
                ts.startOffsetCycles = stall_next[i] + transient;
                stall_next[i] = 0.0;
                while (next_arrival[i] < arrivals[i].size() &&
                       arrivals[i][next_arrival[i]] < stop_abs) {
                    // Stamps can fall before this epoch's start
                    // (arrivals held through an outage): the serving
                    // loop delivers them at t = 0 with the original
                    // stamp priced into latency.
                    ts.arrivals.push_back(
                        arrivals[i][next_arrival[i]] - start);
                    ++next_arrival[i];
                }
                sc.tenants.push_back(std::move(ts));
            }
        }

        // Per-core simulations are independent; workers hand results
        // to the collector keyed by core index and aggregation below
        // walks cores in index order, so any thread count gives
        // identical results.
        EpochRunCollector collector(occupied.size());
        pool.parallelFor(occupied.size(), [&](size_t k) {
            // Worker messages (cap warnings etc.) carry a
            // "[board.core @cycle]" prefix while this core runs.
            const CoreId c = occupied[k];
            ScopedLogContext log_ctx(c / cores_per_board,
                                     c % cores_per_board);
            collector.record(k, runServing(runs[k]));
        });
        const std::vector<ServingResult> done = collector.take();

        // ---- aggregate the epoch (serial, core-index order) -------
        FleetEpochReport er;
        er.epoch = e;
        // The controller's epoch span covers the window — or, in the
        // final (draining) epoch, out to the slowest core's drain.
        Cycles epoch_span_end = epoch_end;
        std::uint64_t llm_tokens = 0, llm_prefills = 0;
        std::uint64_t llm_decode = 0, llm_preempt = 0;
        double llm_occ_sum = 0.0;
        unsigned llm_endpoints = 0;
        std::vector<double> pressure(num_cores, 0.0);
        std::vector<double> tenant_pressure(num_tenants, 0.0);
        for (size_t k = 0; k < occupied.size(); ++k) {
            const CoreId c = occupied[k];
            const bool faulted = fatal_abs[c] < kCyclesInf;
            const ServingResult &r = done[k];
            const Cycles measured = std::max(1.0, r.makespan);
            if (tracing)
                result.trace.append(
                    static_cast<int>(c), r.trace, start,
                    static_cast<std::uint64_t>(e + 1) << 56);
            if (last)
                epoch_span_end =
                    std::max(epoch_span_end, start + r.makespan);
            me_busy[c] += r.meUsefulUtil * measured;
            ve_busy[c] += r.veUtil * measured;
            core_live[c] += faulted ? fatal_abs[c] - start
                                    : (last ? r.makespan : window);
            for (size_t t = 0; t < residents[c].size(); ++t) {
                const size_t i = residents[c][t];
                const TenantResult &tr = r.tenants[t];
                TenantResult &acc = result.tenants[i];
                acc.model = tr.model;
                acc.submitted += tr.submitted;
                acc.rejected += tr.rejected;
                acc.completed += tr.completed;
                acc.sloMet += tr.sloMet;
                acc.reclaims += tr.reclaims;
                acc.latencyCycles.merge(tr.latencyCycles);
                if (llm_mode) {
                    // Single-epoch by construction (asserted above),
                    // so the time-weighted means copy through
                    // unweighted.
                    LlmEndpointStats &al = acc.llm;
                    const LlmEndpointStats &el = tr.llm;
                    al.tokensGenerated += el.tokensGenerated;
                    al.prefills += el.prefills;
                    al.decodeIterations += el.decodeIterations;
                    al.preemptions += el.preemptions;
                    al.kvPages = el.kvPages;
                    al.kvPageHighWater = std::max(
                        al.kvPageHighWater, el.kvPageHighWater);
                    al.kvAllocOps += el.kvAllocOps;
                    al.kvFreeOps += el.kvFreeOps;
                    al.kvFailedAllocs += el.kvFailedAllocs;
                    al.kvOccupancyMean = el.kvOccupancyMean;
                    al.kvFragMean = el.kvFragMean;
                    al.ttftCycles.merge(el.ttftCycles);
                    llm_tokens += el.tokensGenerated;
                    llm_prefills += el.prefills;
                    llm_decode += el.decodeIterations;
                    llm_preempt += el.preemptions;
                    llm_occ_sum += el.kvOccupancyMean;
                    ++llm_endpoints;
                }
                blocked_cycles[i] += tr.blockedFrac * measured;
                core_completed[c] += tr.completed;
                er.completed += tr.completed;
                er.backlog += tr.backlog.size();
                if (faulted) {
                    // The core died under this tenant: park its
                    // admitted-but-unserved work in carried[] (kept
                    // relative to *this* epoch's start) for the
                    // boundary below to checkpoint — it decides
                    // whether the work is restored or lost.
                    carried[i] = tr.backlog;
                } else {
                    // Carry admitted-but-unserved work into the next
                    // epoch, restamped relative to its start.
                    for (Cycles stamp : tr.backlog)
                        carried[i].push_back(stamp - window);
                }
                // The pressure this tenant demonstrably exerted:
                // work it got through *plus* work it left queued,
                // in busy EU-cycles per cycle of the epoch.
                tenant_pressure[i] =
                    (tr.completed + tr.backlog.size()) *
                    (sizings[i].profile.meBusy +
                     sizings[i].profile.veBusy) /
                    window;
                pressure[c] += tenant_pressure[i];
            }
        }
        {
            Distribution pdist;
            for (CoreId c = 0; c < num_cores; ++c)
                pdist.add(pressure[c]);
            er.pressureStddev = pdist.stddev();
        }

        // Boundary bookkeeping happens "at" the epoch's end: stamp
        // the hypervisor's control-plane events accordingly.
        hv.setTraceNow(epoch_end);

        // ---- failover controller at the epoch boundary ------------
        // Evict the dead cores' vNPUs (bulk host-side revocation:
        // MMIO windows and IOMMU attachments recycle exactly once),
        // refresh quarantine from the timeline, then try to restore
        // every pending checkpoint on the surviving capacity.
        for (CoreId c = 0; c < num_cores; ++c) {
            // neu10-lint: allow(float-eq): kCyclesInf is an exact
            // sentinel (infinity), not a computed value.
            if (fatal_abs[c] == kCyclesInf)
                continue;
            ++er.failures;
            if (residents[c].empty())
                continue;
            for (size_t i : residents[c]) {
                placer.release(c, requestFor(i, committed_load[i]));
                // Checkpoint the admitted-but-unserved work: the
                // fault-stopped run's backlog (or, for a core dead
                // from the epoch's first cycle, the untouched
                // carry-in), parked in carried[] with stamps
                // relative to this epoch.
                pending.push_back(captureCheckpoint(
                    i, static_cast<TenantId>(i), c, fatal_abs[c],
                    config.tenants[i].eus, sizings[i], &programs[i],
                    committed_load[i], carried[i], start));
                ctl.instant(epoch_end, "resilience", "checkpoint",
                            "tenant", i, "core", c, "backlog",
                            static_cast<double>(carried[i].size()));
                carried[i].clear();
            }
            const auto revoked = hv.hcRevokeCore(c);
            NEU10_ASSERT(revoked.size() == residents[c].size(),
                         "core %u revocation missed a vNPU", c);
            for (const auto &rv : revoked) {
                NEU10_ASSERT(vnpu_ids[rv.tenant] == rv.id,
                             "revoked vNPU %u does not match tenant "
                             "%u's instance", rv.id, rv.tenant);
                vnpu_ids[rv.tenant] = kInvalidVnpu;
                result.placements[rv.tenant].core = kInvalidCore;
            }
        }
        std::vector<bool> just_restored(num_tenants, false);
        if (!last) {
            const Cycles now = epoch_end;
            for (CoreId c = 0; c < num_cores; ++c) {
                const bool down = timeline.downAt(c, now);
                placer.setQuarantined(c, down);
                if (down)
                    ctl.instant(now, "resilience", "quarantine",
                                "core", c);
            }

            if (config.resilience.failover) {
                std::vector<VnpuCheckpoint> still;
                for (VnpuCheckpoint &ckpt : pending) {
                    RestoreOutcome out = restoreCheckpoint(
                        ckpt, placer, hv, config.placement, core_cfg);
                    if (!out.restored()) {
                        still.push_back(std::move(ckpt));
                        continue;
                    }
                    const size_t i = ckpt.tenant;
                    just_restored[i] = true;
                    ctl.instant(now, "resilience", "restore",
                                "tenant", i, "core", out.core,
                                "backlog",
                                static_cast<double>(
                                    ckpt.backlog.size()));
                    vnpu_ids[i] = out.vnpu;
                    sizings[i] = ckpt.sizing;
                    committed_load[i] = ckpt.load;
                    TenantPlacement &pl = result.placements[i];
                    pl.core = out.core;
                    pl.nMes = out.nMes;
                    pl.nVes = out.nVes;
                    for (Cycles stamp : ckpt.backlog)
                        carried[i].push_back(stamp - now);
                    stall_next[i] =
                        config.resilience.recoveryStallCycles;
                    TenantResult &tr = result.tenants[i];
                    ++tr.failovers;
                    ++result.failovers;
                    ++er.restores;
                    // Recovered: the checkpointed backlog plus the
                    // arrivals held through the outage — everything
                    // a failover-less fleet would have dropped that
                    // now gets its chance (late) at service.
                    std::uint64_t held = 0;
                    for (size_t a = next_arrival[i];
                         a < arrivals[i].size() &&
                         arrivals[i][a] < now;
                         ++a)
                        ++held;
                    tr.recoveredRequests +=
                        ckpt.backlog.size() + held;
                    const Cycles repaired =
                        (now - ckpt.faultAt) +
                        config.resilience.recoveryStallCycles;
                    tr.downtimeCycles += repaired;
                    mttr_sum += repaired;
                }
                pending = std::move(still);
            } else {
                for (const VnpuCheckpoint &ckpt : pending)
                    abandon(ckpt, epoch_end);
                pending.clear();
            }
        }

        // ---- elastic rebalance at the epoch boundary --------------
        if (!last && epochs > 1) {
            std::vector<CoreId> where(num_tenants, kInvalidCore);
            std::vector<PlacementRequest> demands(num_tenants);
            for (size_t i = 0; i < num_tenants; ++i) {
                where[i] = result.placements[i].core;
                demands[i] = requestFor(i, tenant_pressure[i]);
            }
            RebalanceOptions opts;
            opts.imbalanceThreshold =
                config.elastic.imbalanceThreshold;
            opts.maxMigrations = config.elastic.maxMigrationsPerEpoch;
            const std::vector<Migration> moves =
                placer.rebalance(pressure, where, demands, opts);

            // rebalance() applied every planned move to the placer's
            // books at once, so the grown re-splits below see the
            // post-rebalance residency. Mirror that in the manager
            // before any re-create: destroy every mover first —
            // otherwise a grant grown into EUs a *later* move is
            // about to vacate would exceed the destination's current
            // occupancy and the pinned create would (rightly) refuse.
            for (const Migration &mv : moves)
                hv.hcDestroyVnpu(static_cast<TenantId>(mv.tenant),
                                 vnpu_ids[mv.tenant]);

            for (const Migration &mv : moves) {
                TenantPlacement &pl = result.placements[mv.tenant];
                if (config.elastic.resizeOnMigrate) {
                    // Re-run the §III-B split against the
                    // destination's residency: free engines there
                    // once this vNPU's committed share is set aside.
                    // The grant may grow into idle EUs (growFactor);
                    // when the grown or re-split request no longer
                    // fits (engines or SRAM), fall back to the paid
                    // budget and finally to the original split that
                    // rebalance() already proved feasible.
                    const PlacementRequest cur = demands[mv.tenant];
                    placer.release(mv.to, cur);
                    const CoreCapacity &cap = placer.cores()[mv.to];
                    const unsigned paid =
                        config.tenants[mv.tenant].eus;
                    const unsigned grown = std::max(
                        paid,
                        std::min(cap.freeEus(),
                                 static_cast<unsigned>(
                                     paid *
                                     config.elastic.growFactor)));
                    bool committed = false;
                    for (unsigned budget : {grown, paid}) {
                        VnpuSizing updated = sizings[mv.tenant];
                        if (!resplitForResidency(updated, budget,
                                                 cap.freeMes,
                                                 cap.freeVes,
                                                 core_cfg))
                            continue;
                        PlacementRequest resized = cur;
                        resized.nMes = updated.config.numMesPerCore;
                        resized.nVes = updated.config.numVesPerCore;
                        resized.sramBytes =
                            updated.config.sramSizePerCore;
                        if (placer.commit(mv.to, resized)) {
                            sizings[mv.tenant] = updated;
                            pl.nMes = resized.nMes;
                            pl.nVes = resized.nVes;
                            committed = true;
                            break;
                        }
                    }
                    if (!committed) {
                        const bool ok = placer.commit(mv.to, cur);
                        NEU10_ASSERT(ok, "migrated vNPU no longer "
                                         "fits its destination core");
                    }
                }
                // The move itself is hypercall traffic: the destroy
                // above freed the MMIO window and IOMMU attachment,
                // the pinned create on the destination reuses them.
                vnpu_ids[mv.tenant] = hv.hcCreateVnpu(
                    static_cast<TenantId>(mv.tenant),
                    sizings[mv.tenant].config,
                    IsolationMode::Hardware, mv.to);
                ctl.instant(epoch_end, "fleet", "migrate", "tenant",
                            mv.tenant, "from", mv.from, "to", mv.to);
                pl.core = mv.to;
                ++pl.migrations;
                committed_load[mv.tenant] = demands[mv.tenant].load;
                // Accumulate, don't overwrite: a vNPU restored at
                // this same boundary already owes its recovery
                // stall, and moving it again adds the migration on
                // top. Keep the MTTR/downtime books equal to the
                // stall actually simulated.
                stall_next[mv.tenant] +=
                    config.elastic.migrationCostCycles;
                if (just_restored[mv.tenant]) {
                    result.tenants[mv.tenant].downtimeCycles +=
                        config.elastic.migrationCostCycles;
                    mttr_sum += config.elastic.migrationCostCycles;
                }
            }
            er.migrations = static_cast<unsigned>(moves.size());
            result.migrations += static_cast<unsigned>(moves.size());
        }
        ctl.span(start, epoch_span_end, "fleet", "epoch", "completed",
                 static_cast<double>(er.completed), "backlog",
                 static_cast<double>(er.backlog));
        mx.add(mx_completed, static_cast<double>(er.completed));
        mx.set(mx_backlog, static_cast<double>(er.backlog));
        mx.add(mx_migrations, er.migrations);
        mx.add(mx_failures, er.failures);
        mx.add(mx_restores, er.restores);
        mx.set(mx_pressure, er.pressureStddev);
        mx.set(mx_pending, static_cast<double>(pending.size()));
        if (llm_mode) {
            mx.add(mx_llm_tokens, static_cast<double>(llm_tokens));
            mx.add(mx_llm_prefills,
                   static_cast<double>(llm_prefills));
            mx.add(mx_llm_decode, static_cast<double>(llm_decode));
            mx.add(mx_llm_preempt, static_cast<double>(llm_preempt));
            mx.set(mx_llm_occ,
                   llm_endpoints > 0 ? llm_occ_sum / llm_endpoints
                                     : 0.0);
        }
        mx.observe(mx_epoch_done, static_cast<double>(er.completed));
        mx.sample(epoch_span_end);
        result.epochReports.push_back(er);
    }

    // Tenants never restored (failover off handled them already;
    // here: no capacity found by the end, or the fault hit the final
    // epoch) lose their checkpointed work and any undelivered
    // arrivals.
    for (const VnpuCheckpoint &ckpt : pending)
        abandon(ckpt, config.horizon);
    pending.clear();

    // ---- fleet-wide makespan and per-core reports -----------------
    result.makespan = config.horizon;
    for (CoreId c = 0; c < num_cores; ++c)
        result.makespan = std::max(result.makespan, core_live[c]);

    std::vector<unsigned> final_tenants(num_cores, 0);
    for (size_t i = 0; i < num_tenants; ++i)
        if (result.placements[i].placed())
            ++final_tenants[result.placements[i].core];

    Cycles fleet_down = 0.0;
    result.cores.resize(num_cores);
    for (CoreId c = 0; c < num_cores; ++c) {
        FleetCoreReport &rep = result.cores[c];
        rep.core = c;
        rep.board = c / cores_per_board;
        rep.tenants = final_tenants[c];
        rep.completed = core_completed[c];
        rep.makespan = core_live[c];
        rep.downCycles = timeline.downCycles(c, 0.0, config.horizon);
        fleet_down += rep.downCycles;
        // Busy cycles over the fleet makespan, so cores that drained
        // early (or stood empty for epochs) compare fairly.
        rep.meUsefulUtil = me_busy[c] / result.makespan;
        rep.veUtil = ve_busy[c] / result.makespan;
        rep.euUtil = (rep.meUsefulUtil * core_cfg.numMes +
                      rep.veUtil * core_cfg.numVes) /
                     (core_cfg.numMes + core_cfg.numVes);
        result.coreMeUtil.add(rep.meUsefulUtil);
        result.coreEuUtil.add(rep.euUtil);
    }
    result.availability =
        1.0 - fleet_down / (static_cast<double>(num_cores) *
                            config.horizon);
    result.mttrCycles =
        result.failovers > 0 ? mttr_sum / result.failovers : 0.0;

    // ---- fleet-wide SLO accounting --------------------------------
    const double secs =
        clock.toSeconds(std::max(1.0, result.makespan));
    for (size_t i = 0; i < num_tenants; ++i) {
        TenantResult &tr = result.tenants[i];
        // Rates over the fleet makespan (not any one core's window),
        // so tenants on early-draining cores are not flattered.
        tr.throughput = tr.completed / secs;
        tr.goodput = tr.sloMet / secs;
        tr.llm.tokensPerSecond =
            static_cast<double>(tr.llm.tokensGenerated) / secs;
        tr.blockedFrac =
            blocked_cycles[i] / std::max(1.0, result.makespan);
        result.submitted += tr.submitted;
        result.completed += tr.completed;
        result.rejected += tr.rejected;
        result.sloMet += tr.sloMet;
        result.lostRequests += tr.lostRequests;
        result.recoveredRequests += tr.recoveredRequests;
        result.downtimeCycles += tr.downtimeCycles;
        result.latencyCycles.merge(tr.latencyCycles);
    }
    result.goodput = result.sloMet / secs;

    // Tear every surviving vNPU down through the hypercall path.
    hv.setTraceNow(result.makespan);
    for (size_t i = 0; i < num_tenants; ++i)
        if (vnpu_ids[i] != kInvalidVnpu)
            hv.hcDestroyVnpu(static_cast<TenantId>(i), vnpu_ids[i]);

    if (tracing)
        result.trace.append(Trace::kControllerTrack, ctl, 0.0, 0);
    return result;
}

} // namespace neu10
