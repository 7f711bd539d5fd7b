#include "runtime/serving.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/logging.hh"
#include "llm/llm_serving.hh"
#include "sim/clock.hh"

namespace neu10
{

double
ServingResult::totalThroughput() const
{
    double total = 0.0;
    for (const auto &t : tenants)
        total += t.throughput;
    return total;
}

CompiledModel
compileFor(const TenantSpec &spec, PolicyKind policy,
           const NpuCoreConfig &core)
{
    const DnnGraph graph = buildModel(spec.model, spec.batch);
    if (policyUsesNeuIsa(policy)) {
        // NeuISA binaries are compiled against the physical core shape
        // so any engine allocation can execute them (§III-D).
        return lowerToNeuIsa(graph, core.numMes, core.numVes,
                             core.machine());
    }
    return lowerToVliw(graph, core.numMes, core.numVes, core.machine());
}

namespace
{

/**
 * Open loop: per-tenant core-side submission window. An admitted
 * request enters the core simulator only while fewer than this many
 * of its tenant's requests are in there (the rest of the admitted
 * backlog waits in a host-side FIFO, as a real serving stack would
 * double-buffer an accelerator queue). Keeps a tenant's requests
 * executing mostly one-after-another — and bounds the work an
 * epoch-boundary stop can lose to re-execution to this many
 * partially-run requests per tenant.
 */
constexpr unsigned kCorePipelineDepth = 2;

/** Closed loop (§V-A): resubmit on completion until every tenant
 * reaches minRequests. @return the measurement stop time. */
Cycles
driveClosedLoop(const ServingConfig &config,
                const std::vector<const CompiledModel *> &programs,
                EventQueue &queue, NpuCoreSim &core,
                ServingResult &result)
{
    bool stopped = false;
    Cycles stop_time = 0.0;
    TraceBuffer &trace = result.trace;

    auto slowest_done = [&] {
        std::uint64_t least = ~0ull;
        for (const auto &t : result.tenants)
            least = std::min(least, t.completed);
        return least;
    };

    // Closed-loop pumps: resubmit on completion until stopped.
    std::function<void(std::uint32_t)> pump = [&](std::uint32_t slot) {
        core.submit(
            static_cast<std::uint32_t>(slot), programs[slot],
            [&, slot](const RequestResult &r) {
                TenantResult &tr = result.tenants[slot];
                if (!stopped) {
                    ++tr.completed;
                    tr.latencyCycles.add(r.latency());
                    trace.instant(r.finishTime, "request", "complete",
                                  "tenant", slot, "latency",
                                  r.latency());
                    if (config.captureOpTimings)
                        tr.opTimings.push_back(r.opTimings);
                }
                if (!stopped &&
                    slowest_done() >= config.minRequests) {
                    stopped = true;
                    stop_time = queue.now();
                    return;
                }
                if (!stopped)
                    pump(slot);
            });
    };

    for (std::uint32_t i = 0; i < config.tenants.size(); ++i)
        for (unsigned k = 0; k < config.tenants[i].outstanding; ++k)
            pump(i);

    // Drive the simulation until the stop condition or the time cap.
    // The cap is exclusive: an event at or after it never runs (the
    // former now()-based check let one event overshoot arbitrarily
    // far past the cap, inflating the measurement window).
    while (!stopped && !queue.empty() &&
           queue.nextEventTime() < config.maxCycles) {
        queue.step();
    }
    if (!stopped) {
        // Capped run: the partial result is still well-formed — every
        // tenant's Distribution holds exactly its completions so far
        // (possibly none; percentile() is defined on empty), and the
        // window is the last event processed inside the cap.
        stop_time = queue.now();
        logContextCycle(queue.now());
        warn("serving run hit the %.0f-cycle cap before every tenant "
             "completed %u requests (slowest tenant finished %llu)",
             config.maxCycles, config.minRequests,
             static_cast<unsigned long long>(slowest_done()));
    }
    return stop_time;
}

/** Open loop: precomputed arrival streams drive submissions through
 * per-tenant admission control (backlog capped at maxQueueDepth);
 * the run drains every admitted request, stops at stopAtCycles (an
 * epoch boundary — unserved admitted work is reported as backlog),
 * or hits the cycle cap. @return the measurement window. */
Cycles
driveOpenLoop(const ServingConfig &config,
              const std::vector<const CompiledModel *> &programs,
              EventQueue &queue, NpuCoreSim &core,
              ServingResult &result)
{
    const size_t n = config.tenants.size();
    TraceBuffer &trace = result.trace;

    // Async-span ids for overlapping request lifecycles: a request's
    // queue/execute spans can interleave with its neighbours' on the
    // same track, so they are recorded as Chrome async events keyed by
    // ((tenant + 1) << 40) + per-tenant sequence number. Ids stay
    // below 2^56; the fleet salts the top byte per epoch when merging.
    auto span_id = [](std::uint32_t i, std::uint64_t rid) {
        return ((static_cast<std::uint64_t>(i) + 1) << 40) + rid;
    };
    // Admitted requests live in two stages: a host-side FIFO of
    // arrival stamps (`waiting`) and the core simulator itself
    // (`in_core`, at most kCorePipelineDepth per tenant). `inflight`
    // counts both — that is what admission control sees.
    std::vector<std::uint64_t> inflight(n, 0);
    std::vector<std::deque<Cycles>> waiting(n);
    std::vector<unsigned> in_core(n, 0);
    // Original arrival stamp of every core-resident request, keyed by
    // a per-tenant sequence number: completions erase their entry,
    // and whatever remains at an epoch-boundary stop joins the
    // waiting FIFO as the carried backlog.
    std::vector<std::unordered_map<std::uint64_t, Cycles>> open(n);
    std::vector<std::uint64_t> seq(n, 0);

    // Earliest core-submission time per tenant (migration stalls).
    // Work arriving earlier waits in the host FIFO — never in
    // beyond-the-boundary events, so an epoch stop always sees it.
    std::vector<Cycles> start_at(n, 0.0);

    // Arrivals actually delivered so far, per tenant. When the cycle
    // cap cuts the run short, the tail of each stream never fires as
    // an event — those requests are counted below so request
    // conservation (submitted == completed + rejected + backlog)
    // survives a capped run.
    std::vector<size_t> delivered(n, 0);

    // Forward-declared so the completion callback can refill the
    // core-side window.
    std::function<void(std::uint32_t)> pump;

    auto submit_one = [&](std::uint32_t i, Cycles stamp) {
        const std::uint64_t rid = seq[i]++;
        open[i].emplace(rid, stamp);
        ++in_core[i];
        core.submit(i, programs[i],
                    [&, i, rid](const RequestResult &r) {
                        TenantResult &tr = result.tenants[i];
                        --inflight[i];
                        --in_core[i];
                        // Latency from the original arrival stamp, so
                        // host-side queueing and pre-submission holds
                        // (start offsets, carried epochs) count
                        // toward the tail and the SLO.
                        const Cycles lat =
                            r.finishTime - open[i].at(rid);
                        // Lifecycle spans are recorded at completion,
                        // when the whole arc is known: host-side wait
                        // (original stamp to core submission), then
                        // execution. Carried stamps can be negative —
                        // the fleet re-anchors, the export clamps.
                        trace.asyncSpan(span_id(i, rid), open[i].at(rid),
                                        r.submitTime, "request", "queue",
                                        "tenant", i);
                        trace.asyncSpan(span_id(i, rid), r.submitTime,
                                        r.finishTime, "request",
                                        "execute", "tenant", i);
                        trace.instant(r.finishTime, "request",
                                      "complete", "tenant", i,
                                      "latency", lat);
                        open[i].erase(rid);
                        ++tr.completed;
                        tr.latencyCycles.add(lat);
                        if (lat <= config.tenants[i].sloCycles)
                            ++tr.sloMet;
                        if (config.captureOpTimings)
                            tr.opTimings.push_back(r.opTimings);
                        pump(i);
                    });
    };

    pump = [&](std::uint32_t i) {
        if (queue.now() < start_at[i])
            return; // still stalled (migration cost); wake below
        while (in_core[i] < kCorePipelineDepth && !waiting[i].empty()) {
            const Cycles stamp = waiting[i].front();
            waiting[i].pop_front();
            submit_one(i, stamp);
        }
    };

    auto on_arrival = [&](std::uint32_t i, Cycles stamp) {
        TenantResult &tr = result.tenants[i];
        ++delivered[i];
        ++tr.submitted;
        if (inflight[i] >= config.tenants[i].maxQueueDepth) {
            ++tr.rejected;
            trace.instant(queue.now(), "request", "reject", "tenant",
                          i, "depth", inflight[i]);
            return;
        }
        ++inflight[i];
        trace.instant(queue.now(), "request", "admit", "tenant", i,
                      "depth", inflight[i]);
        waiting[i].push_back(stamp);
        pump(i);
    };

    for (std::uint32_t i = 0; i < n; ++i) {
        const TenantSpec &ts = config.tenants[i];
        start_at[i] = ts.startOffsetCycles;
        // Carried backlog was admitted in an earlier epoch: re-enter
        // it into the host FIFO right away, bypassing admission but
        // counting toward the depth fresh arrivals see. The pump
        // won't touch it before the start offset.
        for (Cycles stamp : ts.backlog) {
            ++inflight[i];
            queue.schedule(0.0,
                           [&, i, stamp](Cycles) {
                               waiting[i].push_back(stamp);
                               pump(i);
                           },
                           EventPriority::Arrival);
        }
        // Negative stamps (arrivals held through an outage) are
        // delivered at t = 0 in stream order; the original stamp
        // still prices their latency and SLO.
        for (Cycles when : ts.arrivals)
            queue.schedule(std::max(0.0, when),
                           [&, i, when](Cycles) {
                               on_arrival(i, when);
                           },
                           EventPriority::Arrival);
        if (start_at[i] > 0.0)
            queue.schedule(start_at[i],
                           [&, i](Cycles) { pump(i); },
                           EventPriority::Arrival);
    }

    // Both stops are exclusive boundaries: no event at or after
    // stopAtCycles (epoch boundary) or maxCycles (runaway cap) runs,
    // so an arrival stamped exactly on either line is outside this
    // run's window — the same strict comparison runFleet uses when
    // it slices arrival streams into epochs.
    const Cycles stop_before =
        std::min(config.stopAtCycles, config.maxCycles);
    while (!queue.empty() && queue.nextEventTime() < stop_before)
        queue.step();

    // A boundary hand-off only exists while the boundary itself is
    // inside the cap; with maxCycles < stopAtCycles the cap is the
    // terminal stop and the shed accounting below must run (and the
    // window must not report the unreached boundary).
    const bool at_boundary =
        !queue.empty() && config.stopAtCycles <= config.maxCycles &&
        queue.nextEventTime() >= config.stopAtCycles;
    if (!queue.empty() && !at_boundary) {
        logContextCycle(queue.now());
        warn("open-loop run hit the %.0f-cycle cap with %zu events "
             "pending", config.maxCycles, queue.pending());
        // The cap truncated the run mid-stream: arrivals whose
        // delivery events never fired were still offered by the
        // traffic source, so count them submitted-and-rejected
        // rather than letting them vanish (a capped core in a fleet
        // epoch must not leak requests from the conservation books).
        for (std::uint32_t i = 0; i < n; ++i) {
            TenantResult &tr = result.tenants[i];
            const size_t total = config.tenants[i].arrivals.size();
            NEU10_ASSERT(delivered[i] <= total,
                         "delivered more arrivals than the stream "
                         "holds");
            tr.submitted += total - delivered[i];
            tr.rejected += total - delivered[i];
        }
    }

    // Report whatever is still admitted-but-unserved — host-queued or
    // core-resident — so an epoch-based caller can carry it over
    // (sorted for determinism).
    for (std::uint32_t i = 0; i < n; ++i) {
        TenantResult &tr = result.tenants[i];
        tr.backlog.reserve(open[i].size() + waiting[i].size());
        // neu10-lint: allow(unordered-iter): hash-order here is
        // harmless — the merged backlog is sorted just below before
        // anything reads it.
        for (const auto &[rid, stamp] : open[i])
            tr.backlog.push_back(stamp);
        tr.backlog.insert(tr.backlog.end(), waiting[i].begin(),
                          waiting[i].end());
        std::sort(tr.backlog.begin(), tr.backlog.end());
    }
    // An epoch-bounded run is measured over the whole epoch window,
    // not just until its last processed event.
    return at_boundary ? config.stopAtCycles : queue.now();
}

} // anonymous namespace

ServingResult
runServing(const ServingConfig &config)
{
    NEU10_ASSERT(!config.tenants.empty(), "experiment needs tenants");

    // Token-level LLM serving bypasses the op-graph path entirely:
    // the analytic iteration loop in src/llm/ prices prefill/decode
    // phases directly (no event queue, no compiled program).
    if (config.mode == ServingMode::LlmContinuous)
        return llm::runLlmServing(config);
    return runServing(config, makePolicy(config.policy));
}

ServingResult
runServing(const ServingConfig &config,
           std::unique_ptr<SchedulerPolicy> policy)
{
    NEU10_ASSERT(!config.tenants.empty(), "experiment needs tenants");
    NEU10_ASSERT(config.mode != ServingMode::LlmContinuous,
                 "LLM serving has no core scheduling policy");

    // Compile every tenant's model once — or take the caller's
    // precompiled, shared binary (TenantSpec::program).
    std::vector<CompiledModel> compiled;
    compiled.reserve(config.tenants.size());
    std::vector<const CompiledModel *> programs;
    programs.reserve(config.tenants.size());
    for (const auto &spec : config.tenants) {
        if (spec.program != nullptr) {
            programs.push_back(spec.program);
        } else {
            compiled.push_back(
                compileFor(spec, config.policy, config.core));
            programs.push_back(&compiled.back());
        }
    }

    // Engine slots per tenant.
    std::vector<VnpuSlot> slots;
    slots.reserve(config.tenants.size());
    for (const auto &spec : config.tenants) {
        VnpuSlot s;
        s.nMes = spec.nMes;
        s.nVes = spec.nVes;
        s.priority = spec.priority;
        slots.push_back(s);
    }

    EventQueue queue;
    NpuCoreSim core(queue, config.core, std::move(policy),
                    std::move(slots));
    core.setCaptureOpTimings(config.captureOpTimings);
    core.setCaptureSeries(config.captureSeries);

    ServingResult result;
    if (config.trace.enabled) {
        result.trace.enable(true);
        core.setTrace(&result.trace, config.trace.engineEvents);
    }
    result.policy = policyName(config.policy);
    result.tenants.resize(config.tenants.size());
    for (size_t i = 0; i < config.tenants.size(); ++i)
        result.tenants[i].model = modelAbbrev(config.tenants[i].model);

    const Cycles stop_time =
        config.mode == ServingMode::OpenLoop
            ? driveOpenLoop(config, programs, queue, core, result)
            : driveClosedLoop(config, programs, queue, core, result);

    const Cycles window = std::max(1.0, stop_time);
    const Clock clock(config.core.freqHz);
    result.makespan = stop_time;
    result.meUsefulUtil = core.meUseful().utilization(window);
    result.meHeldUtil = core.meHeld().utilization(window);
    result.veUtil = core.veBusy().utilization(window);
    result.avgHbmBytesPerCycle = core.hbmBytesTransferred() / window;

    for (size_t i = 0; i < result.tenants.size(); ++i) {
        TenantResult &tr = result.tenants[i];
        const VnpuSlot &slot = core.slots()[i];
        tr.throughput = tr.completed / clock.toSeconds(window);
        tr.goodput = tr.sloMet / clock.toSeconds(window);
        tr.blockedFrac = slot.blockedByHarvest / window;
        tr.reclaims = slot.reclaimPreemptions;
        if (config.captureSeries) {
            tr.assignedMes = slot.assignedMes;
            tr.assignedVes = slot.assignedVes;
        }
    }
    return result;
}

const std::vector<WorkloadPair> &
evaluationPairs()
{
    static const std::vector<WorkloadPair> pairs = {
        {"DLRM+SMask", ModelId::Dlrm, ModelId::ShapeMask, 32, 8, "low"},
        {"DLRM+RtNt", ModelId::Dlrm, ModelId::RetinaNet, 32, 32, "low"},
        {"NCF+RsNt", ModelId::Ncf, ModelId::ResNet, 32, 32, "low"},
        {"ENet+SMask", ModelId::EfficientNet, ModelId::ShapeMask, 32, 8,
         "medium"},
        {"BERT+ENet", ModelId::Bert, ModelId::EfficientNet, 32, 32,
         "medium"},
        {"ENet+MRCN", ModelId::EfficientNet, ModelId::MaskRcnn, 32, 8,
         "medium"},
        {"ENet+TFMR", ModelId::EfficientNet, ModelId::Transformer, 32,
         32, "high"},
        {"MNIST+RtNt", ModelId::Mnist, ModelId::RetinaNet, 32, 32,
         "high"},
        {"RNRS+RtNt", ModelId::ResNetRs, ModelId::RetinaNet, 32, 32,
         "high"},
    };
    return pairs;
}

} // namespace neu10
