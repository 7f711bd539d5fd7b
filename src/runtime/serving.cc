#include "runtime/serving.hh"

#include <algorithm>
#include <deque>

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

bool
offerRequest(TenantResult &tr, const TenantSpec &spec, std::uint64_t depth)
{
    const bool admitted = depth < spec.maxQueueDepth;
    ++tr.submitted;
    tr.rejected += !admitted;
    return admitted;
}

void
serveRequest(TenantResult &tr, const TenantSpec &spec, Cycles latency)
{
    ++tr.completed;
    tr.latencyCycles.add(latency);
    tr.sloMet += latency <= spec.sloCycles;
}

void
shedAtCap(const ServingConfig &config, ServingResult &result, Cycles now)
{
    unsigned long long shed = 0;
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
        TenantResult &tr = result.tenants[i];
        const std::size_t total = config.tenants[i].arrivals.size();
        NEU10_ASSERT(tr.submitted <= total,
                     "tenant %zu was offered past its stream", i);
        shed += total - tr.submitted;
        tr.rejected += total - tr.submitted;
        tr.submitted = total;
    }
    logContextCycle(now);
    warn("open-loop run hit the %.0f-cycle cap and shed %llu arrivals "
         "it had not offered", config.maxCycles, shed);
}

void
settleRequests(TenantResult &tr, std::size_t i, std::size_t carriedIn,
               double seconds, bool offered)
{
    std::sort(tr.backlog.begin(), tr.backlog.end());
    tr.throughput = tr.completed / seconds;
    tr.goodput = tr.sloMet / seconds;
    tr.llm.tokensPerSecond =
        static_cast<double>(tr.llm.tokensGenerated) / seconds;
    NEU10_ASSERT(!offered || carriedIn + tr.submitted ==
                                 tr.completed + tr.rejected +
                                     tr.backlog.size(),
                 "tenant %zu (%s) does not conserve its requests: "
                 "carried in + submitted != completed + rejected + "
                 "carried out", i, tr.model.c_str());
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

/**
 * The request loop of one run. Each tenant's admitted requests wait
 * in a host-side FIFO of arrival stamps and enter the core while
 * fewer than its window are in there. The two loops differ only in
 * where arrivals come from and in when the run stops:
 *
 *  - Open loop: precomputed arrival streams pass per-tenant admission
 *    control (backlog capped at maxQueueDepth) into a window of
 *    kCorePipelineDepth. The run drains every admitted request, stops
 *    at stopAtCycles (an epoch boundary — unserved admitted work is
 *    reported as backlog), or hits the cycle cap.
 *  - Closed loop (§V-A): `outstanding` arrivals stamped 0, and each
 *    counted completion re-enqueues one stamped at its finish time,
 *    which is when its successor is submitted, until every tenant has
 *    completed minRequests. The window is `outstanding`.
 *
 * Every callback captures `this` and at most two 32-bit values, which
 * std::function stores in place, so no request allocates.
 */
class RequestLoop
{
  public:
    /** Set up each tenant's arrival source, tenant by tenant: a closed
     * loop submits its first requests now; an open loop schedules one
     * t = 0 event per carried stamp, then its arrivals, then its
     * start-offset wake (the order the queue breaks t = 0 ties in). */
    RequestLoop(const ServingConfig &config,
                const std::vector<const CompiledModel *> &programs,
                EventQueue &queue, NpuCoreSim &core,
                ServingResult &result)
        : config_(config), programs_(programs), queue_(queue),
          core_(core), result_(result),
          closed_(config.mode == ServingMode::ClosedLoop),
          tenants_(config.tenants.size())
    {
        for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
            const TenantSpec &ts = config.tenants[i];
            if (closed_) {
                tenants_[i].fifo.assign(ts.outstanding, 0.0);
                pump(i);
                continue;
            }
            // Carried backlog was admitted in an earlier epoch:
            // re-enter it into the host FIFO right away, bypassing
            // admission but counting toward the depth fresh arrivals
            // see (its events fire before the tenant's first
            // arrival). The pump won't touch it before the start
            // offset.
            for (std::uint32_t k = 0; k < ts.backlog.size(); ++k)
                queue.schedule(0.0,
                               [this, i, k](Cycles) {
                                   tenants_[i].fifo.push_back(
                                       config_.tenants[i].backlog[k]);
                                   pump(i);
                               },
                               EventPriority::Arrival);
            // Negative stamps (arrivals held through an outage) are
            // delivered at t = 0 in stream order; the original stamp
            // still prices their latency and SLO.
            for (std::uint32_t k = 0; k < ts.arrivals.size(); ++k)
                queue.schedule(std::max(0.0, ts.arrivals[k]),
                               [this, i, k](Cycles) { arrive(i, k); },
                               EventPriority::Arrival);
            if (ts.startOffsetCycles > 0.0)
                queue.schedule(ts.startOffsetCycles,
                               [this, i](Cycles) { pump(i); },
                               EventPriority::Arrival);
        }
    }

    RequestLoop(const RequestLoop &) = delete;
    RequestLoop &operator=(const RequestLoop &) = delete;

    /** Drive the run to its stop and report each tenant's backlog.
     * @return the measurement window. */
    Cycles
    run()
    {
        // Both stops are exclusive boundaries: no event at or after
        // stopAtCycles (epoch boundary) or maxCycles (runaway cap)
        // runs, so an arrival stamped exactly on either line is
        // outside this run's window — the same strict comparison
        // runFleet uses when it slices arrival streams into epochs.
        // (A now()-based cap check would let one event overshoot
        // arbitrarily far past the cap, inflating the window.)
        const Cycles stop_before =
            std::min(config_.stopAtCycles, config_.maxCycles);
        while (!stopped_ && !queue_.empty() &&
               queue_.nextEventTime() < stop_before)
            queue_.step();

        // A boundary hand-off only exists while the boundary itself
        // is inside the cap; with maxCycles < stopAtCycles the cap is
        // the terminal stop and the shed accounting below must run
        // (and the window must not report the unreached boundary).
        const bool at_boundary =
            !queue_.empty() &&
            config_.stopAtCycles <= config_.maxCycles &&
            queue_.nextEventTime() >= config_.stopAtCycles;
        if (closed_ && !stopped_) {
            // Capped run: the partial result is still well-formed —
            // every tenant's Distribution holds exactly its
            // completions so far (possibly none; percentile() is
            // defined on empty), and the window is the last event
            // processed inside the cap.
            logContextCycle(queue_.now());
            warn("serving run hit the %.0f-cycle cap before every "
                 "tenant completed %u requests (slowest tenant "
                 "finished %llu)",
                 config_.maxCycles, config_.minRequests,
                 static_cast<unsigned long long>(slowestDone()));
        } else if (!closed_ && !queue_.empty() && !at_boundary) {
            // Every arrival event before the cap has fired, so each
            // one stamped before it was offered.
            shedAtCap(config_, result_, queue_.now());
        }

        // Report whatever is still admitted-but-unserved — host-queued
        // or core-resident — so an epoch-based caller can carry it
        // over (settleRequests sorts it).
        for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
            const Tenant &t = tenants_[i];
            TenantResult &tr = result_.tenants[i];
            tr.backlog.reserve(t.inCore.size() + t.fifo.size());
            for (const InCore &e : t.inCore)
                tr.backlog.push_back(e.stamp);
            tr.backlog.insert(tr.backlog.end(), t.fifo.begin(),
                              t.fifo.end());
        }
        // An epoch-bounded run is measured over the whole epoch
        // window, not just until its last processed event.
        return at_boundary ? config_.stopAtCycles : queue_.now();
    }

  private:
    /** A core-resident request: per-tenant id and arrival stamp. */
    struct InCore
    {
        std::uint32_t rid;
        Cycles stamp;
    };

    /** One tenant's admitted-but-unserved requests, in two stages:
     * the host FIFO and the core. Admission control sees both. */
    struct Tenant
    {
        std::deque<Cycles> fifo;
        std::vector<InCore> inCore;
        std::uint32_t nextRid = 0;
    };

    /** Deliver arrival @p k of tenant @p i's stream. */
    void
    arrive(std::uint32_t i, std::uint32_t k)
    {
        Tenant &t = tenants_[i];
        const std::uint64_t depth = t.fifo.size() + t.inCore.size();
        const bool admitted =
            offerRequest(result_.tenants[i], config_.tenants[i], depth);
        result_.trace.instant(queue_.now(), "request",
                              admitted ? "admit" : "reject", "tenant", i,
                              "depth", depth + admitted);
        if (!admitted)
            return;
        t.fifo.push_back(config_.tenants[i].arrivals[k]);
        pump(i);
    }

    void
    pump(std::uint32_t i)
    {
        Tenant &t = tenants_[i];
        // An open-loop tenant submits nothing before its start offset
        // (migration and recovery stalls): work arriving earlier waits
        // in the FIFO — never in beyond-the-boundary events, so an
        // epoch stop always sees it — and the offset's wake pumps.
        if (!closed_ && queue_.now() < config_.tenants[i].startOffsetCycles)
            return;
        const unsigned window = closed_ ? config_.tenants[i].outstanding
                                        : kCorePipelineDepth;
        while (t.inCore.size() < window && !t.fifo.empty()) {
            const std::uint32_t rid = t.nextRid++;
            t.inCore.push_back({rid, t.fifo.front()});
            t.fifo.pop_front();
            core_.submit(i, programs_[i],
                         [this, i, rid](const RequestResult &r) {
                             complete(i, rid, r);
                         });
        }
    }

    void
    complete(std::uint32_t i, std::uint32_t rid, const RequestResult &r)
    {
        Tenant &t = tenants_[i];
        const auto it =
            std::find_if(t.inCore.begin(), t.inCore.end(),
                         [rid](const InCore &e) { return e.rid == rid; });
        const Cycles stamp = it->stamp;
        t.inCore.erase(it);
        // A closed loop counts nothing that finishes after its stop,
        // not even in the core event that stopped it.
        if (stopped_)
            return;
        // Latency from the original arrival stamp, so host-side
        // queueing and pre-submission holds (start offsets, carried
        // epochs) count toward the tail and the SLO.
        const Cycles lat = r.finishTime - stamp;
        // Lifecycle spans are recorded at completion, when the whole
        // arc is known: host-side wait (original stamp to core
        // submission), then execution. Carried stamps can be negative
        // — the fleet re-anchors, the export clamps. A request's spans
        // can interleave with its neighbours' on the same track, so
        // they are Chrome async events keyed by ((tenant + 1) << 40)
        // + rid. Ids stay below 2^56; the fleet salts the top byte
        // per epoch when merging.
        const std::uint64_t id =
            ((static_cast<std::uint64_t>(i) + 1) << 40) + rid;
        TraceBuffer &trace = result_.trace;
        trace.asyncSpan(id, stamp, r.submitTime, "request", "queue",
                        "tenant", i);
        trace.asyncSpan(id, r.submitTime, r.finishTime, "request",
                        "execute", "tenant", i);
        trace.instant(r.finishTime, "request", "complete", "tenant", i,
                      "latency", lat);
        TenantResult &tr = result_.tenants[i];
        serveRequest(tr, config_.tenants[i], lat);
        if (config_.captureOpTimings)
            tr.opTimings.push_back(r.opTimings);
        if (closed_) {
            stopped_ = slowestDone() >= config_.minRequests;
            if (!stopped_)
                t.fifo.push_back(r.finishTime);
        }
        pump(i);
    }

    std::uint64_t
    slowestDone() const
    {
        std::uint64_t least = ~0ull;
        for (const auto &t : result_.tenants)
            least = std::min(least, t.completed);
        return least;
    }

    const ServingConfig &config_;
    const std::vector<const CompiledModel *> &programs_;
    EventQueue &queue_;
    NpuCoreSim &core_;
    ServingResult &result_;
    const bool closed_;
    /** Closed loop: the slowest tenant has completed minRequests. */
    bool stopped_ = false;
    std::vector<Tenant> tenants_;
};

} // anonymous namespace

ServingResult
runServing(const ServingConfig &config)
{
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

    RequestLoop loop(config, programs, queue, core, result);
    const Cycles stop_time = loop.run();

    const Cycles window = std::max(1.0, stop_time);
    const double secs = Clock(config.core.freqHz).toSeconds(window);
    result.makespan = stop_time;
    result.meUsefulUtil = core.meUseful().utilization(window);
    result.meHeldUtil = core.meHeld().utilization(window);
    result.veUtil = core.veBusy().utilization(window);
    result.avgHbmBytesPerCycle = core.hbmBytesTransferred() / window;

    for (size_t i = 0; i < result.tenants.size(); ++i) {
        TenantResult &tr = result.tenants[i];
        const VnpuSlot &slot = core.slots()[i];
        settleRequests(tr, i, config.tenants[i].backlog.size(), secs,
                       config.mode == ServingMode::OpenLoop);
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
