#include "llm/llm_serving.hh"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "llm/kv_pool.hh"
#include "sim/clock.hh"
#include "vnpu/allocator.hh"

namespace neu10
{
namespace llm
{

namespace
{

/** One sequence's lifetime state. */
struct Seq
{
    Cycles stamp = 0.0;       ///< arrival time (original, for SLO)
    std::uint32_t prompt = 0; ///< prompt tokens
    std::uint32_t output = 0; ///< tokens to decode
    /** Tokens decoded so far; a preemption keeps the count. */
    std::uint32_t generated = 0;
};

/** Resolved per-endpoint knobs. */
struct EndpointParams
{
    unsigned maxBatch = 0;
    std::uint32_t promptMin = 0, promptMax = 0;
    std::uint32_t outputMin = 0, outputMax = 0;
    double bwShare = 0.0;
};

EndpointParams
resolveParams(const ServingConfig &config, const TenantSpec &ts,
              unsigned tenant)
{
    const LlmParams &p = config.llm;
    if (p.promptTokens == 0 || p.outputTokens == 0)
        fatal("llm: prompt-tokens and output-tokens must be >= 1");
    if (ts.model != ModelId::Llama)
        fatal("llm: tenant %u runs %s, but LLM serving requires the "
              "LLaMA model (the phase model is LLaMA-shaped)",
              tenant, modelAbbrev(ts.model).c_str());
    if (ts.nMes == 0 || ts.nVes == 0)
        fatal("llm: tenant %u needs at least one ME and one VE",
              tenant);

    EndpointParams ep;
    ep.maxBatch = p.maxBatch != 0 ? p.maxBatch : ts.batch;
    if (ep.maxBatch == 0)
        fatal("llm: tenant %u resolves to a zero max running batch",
              tenant);
    ep.promptMin = p.promptTokens;
    ep.promptMax = std::max(p.promptTokens, p.promptTokensMax);
    ep.outputMin = p.outputTokens;
    ep.outputMax = std::max(p.outputTokens, p.outputTokensMax);
    // Static per-vNPU bandwidth partition: the tenant's paid EU
    // fraction of the physical core.
    ep.bwShare = static_cast<double>(ts.nMes + ts.nVes) /
                 (config.core.numMes + config.core.numVes);
    return ep;
}

/**
 * Run one tenant's endpoint: fill its TenantResult, stretch
 * result.makespan to the endpoint's end and add its ME-weighted
 * prefill and decode, VE-weighted decode and streamed bytes to the
 * core fields, which runLlmServing divides by the window.
 * @return whether the cycle cap (not a boundary) stopped it.
 */
bool
runEndpoint(const ServingConfig &config, unsigned tenant,
            ServingResult &result)
{
    const TenantSpec &ts = config.tenants[tenant];
    TenantResult &tr = result.tenants[tenant];
    TraceBuffer &trace = result.trace;
    const LlmModelSpec &spec = llamaSpec();
    const EndpointParams ep = resolveParams(config, ts, tenant);
    // Hot-path trace calls branch on this first (obs/trace.hh), so
    // an untraced run skips the calls and their arguments.
    const bool tracing = trace.enabled();
    // LLM serving is single-epoch (runFleet asserts it), so nothing
    // carries admitted work in: ts.backlog is ignored here, and the
    // conservation assert in settleRequests fails on a run handed one.

    // --- KV pool, carved from the vNPU HBM reservation ------------
    Bytes hbm = ts.hbmBytes;
    if (hbm == 0) {
        hbm = sizeVnpuForModel(ts.model, ts.batch, ts.nMes + ts.nVes,
                               config.core)
                  .config.memSizePerCore;
    }
    const std::uint32_t pages =
        kvPoolPages(spec, hbm, ts.batch, config.llm.pageTokens);
    // One holder per sequence id: ids index `seqs` (built below, one
    // per arrival).
    KvPool pool(pages, config.llm.pageTokens, ts.arrivals.size());
    if (pool.pagesFor(static_cast<std::uint64_t>(ep.promptMax) +
                      ep.outputMax) > pages)
        fatal("llm: tenant %u: one sequence can reach %u tokens but "
              "the KV pool holds only %u pages of %u tokens — grow "
              "the vNPU HBM reservation (batch) or shrink "
              "prompt/output lengths",
              tenant, ep.promptMax + ep.outputMax, pages,
              config.llm.pageTokens);

    // --- sequence table: one per arrival, with lengths drawn in
    // --- arrival order from the seeded stream ----------------------
    std::vector<Seq> seqs;
    seqs.reserve(ts.arrivals.size());
    Rng rng(ts.llmSeed);
    const auto draw = [&](std::uint32_t lo, std::uint32_t hi) {
        if (hi <= lo)
            return lo;
        return lo + static_cast<std::uint32_t>(
                        rng.below(hi - lo + 1ull));
    };
    for (Cycles stamp : ts.arrivals)
        seqs.push_back({stamp, draw(ep.promptMin, ep.promptMax),
                        draw(ep.outputMin, ep.outputMax)});

    // --- endpoint state --------------------------------------------
    const bool continuous =
        config.llm.scheduler == LlmScheduler::Continuous;
    const Cycles stop =
        std::min(config.stopAtCycles, config.maxCycles);
    const bool boundary = config.stopAtCycles <= config.maxCycles;
    Cycles t = ts.startOffsetCycles;
    std::size_t next = 0;            // next undelivered seq index
    std::deque<std::uint32_t> waiting;
    std::vector<std::uint32_t> running;
    std::vector<std::uint32_t> staticDone; // finished, pages held
    bool stopped = false;
    std::uint64_t spanSeq = 0; // async-span id counter
    const std::uint64_t idBase =
        (static_cast<std::uint64_t>(tenant) + 1) << 40;

    // Occupancy/fragmentation integrals over simulated time.
    double pageCyc = 0.0, tokenCyc = 0.0;
    double prefillBusy = 0.0, decodeBusy = 0.0, bytes = 0.0;

    const auto advance = [&](Cycles to) {
        const double dt = to - t;
        pageCyc += static_cast<double>(pool.usedPages()) * dt;
        tokenCyc +=
            static_cast<double>(pool.stats().usedTokens) * dt;
        t = to;
    };

    // Offer each arrival stamped at or before @p upTo — never one at
    // or past the stop, which is exclusive as in the request loop.
    const auto deliver = [&](Cycles upTo) {
        while (next < seqs.size() && seqs[next].stamp <= upTo &&
               seqs[next].stamp < stop) {
            const auto idx = static_cast<std::uint32_t>(next);
            const bool admitted = offerRequest(
                tr, ts, waiting.size() + running.size() + staticDone.size());
            if (admitted)
                waiting.push_back(idx);
            if (tracing)
                trace.instant(std::max(seqs[next].stamp, t), "request",
                              admitted ? "admit" : "reject", "tenant",
                              tenant, "seq", idx);
            ++next;
        }
    };

    const auto tracePageAlloc = [&](std::uint32_t newPages) {
        if (tracing && newPages != 0)
            trace.instant(t, "llm", "page-alloc", "tenant", tenant,
                          "pages", newPages, "free",
                          pool.freePages());
    };

    // Prefill one waiting sequence into the running batch. The
    // context (prompt plus any tokens generated before a preemption)
    // is recomputed in one pass. @return false when page-gated or
    // the pass cannot complete before the stop boundary.
    const auto prefillInto = [&](std::uint64_t reserveTokens) {
        const std::uint32_t idx = waiting.front();
        Seq &s = seqs[idx];
        const std::uint64_t ctx =
            static_cast<std::uint64_t>(s.prompt) + s.generated;
        // Stop-gate before touching the pool so a sequence that
        // cannot start never ends up waiting with pages held.
        const Cycles pc = prefillCycles(spec, ctx, config.core,
                                        ts.nMes, ep.bwShare);
        if (t + pc > stop) {
            stopped = true;
            return false;
        }
        tracePageAlloc(
            pool.ensureTokens(idx, std::max(ctx, reserveTokens)));
        if (pool.lastGrowFailed())
            return false;
        waiting.pop_front();
        if (tracing)
            trace.asyncSpan(idBase + ++spanSeq, t, t + pc, "llm",
                            "prefill", "seq", idx, "tokens",
                            static_cast<double>(ctx));
        advance(t + pc);
        prefillBusy += pc;
        bytes += static_cast<double>(prefillBytes(spec, ctx));
        ++tr.llm.prefills;
        running.push_back(idx);
        deliver(t); // arrivals during the pass
        return true;
    };

    const auto admitContinuous = [&]() {
        while (!stopped && running.size() < ep.maxBatch &&
               !waiting.empty()) {
            if (!prefillInto(/*reserveTokens=*/0))
                break; // strict FIFO: no skipping past the head
        }
    };

    const auto admitStatic = [&]() {
        if (!running.empty() || !staticDone.empty())
            return;
        while (!stopped && running.size() < ep.maxBatch &&
               !waiting.empty()) {
            // Naive worst-case reservation: prompt + full output.
            const Seq &s = seqs[waiting.front()];
            if (!prefillInto(static_cast<std::uint64_t>(s.prompt) +
                             s.output))
                break;
        }
    };

    const auto preemptYoungest = [&](std::uint32_t needy) {
        const std::uint32_t victim = running.back();
        running.pop_back();
        const std::uint32_t freed = pool.release(victim);
        ++tr.llm.preemptions;
        if (tracing)
            trace.instant(t, "llm", "page-evict", "tenant", tenant, "seq",
                          victim, "pages", freed);
        // Recompute on readmission: the page list is gone but the
        // generated count survives, so the re-prefill covers
        // prompt + generated and decode resumes where it stopped.
        waiting.push_front(victim);
        return victim == needy;
    };

    // --- main loop: one decode iteration per pass ------------------
    while (true) {
        deliver(t);
        if (continuous)
            admitContinuous();
        else
            admitStatic();
        if (stopped)
            break;
        if (running.empty()) {
            if (waiting.empty() && next >= seqs.size())
                break; // drained
            if (!waiting.empty()) {
                // Nothing admitted with an empty core: impossible
                // under the single-sequence capacity check above.
                fatal("llm: tenant %u deadlocked with %zu sequences "
                      "waiting and an idle core",
                      tenant, waiting.size());
            }
            const Cycles at = std::max(t, seqs[next].stamp);
            if (at >= stop) {
                stopped = true;
                break;
            }
            advance(at); // idle until the next arrival
            continue;
        }

        // Grow every running sequence's page list by one token,
        // evicting the youngest under page pressure.
        std::size_t k = 0;
        while (k < running.size()) {
            const std::uint32_t idx = running[k];
            const Seq &s = seqs[idx];
            const std::uint64_t need =
                static_cast<std::uint64_t>(s.prompt) + s.generated +
                1;
            bool evictedSelf = false;
            tracePageAlloc(pool.ensureTokens(idx, need));
            while (pool.lastGrowFailed()) {
                if (running.size() == 1)
                    fatal("llm: tenant %u: lone sequence of %llu "
                          "tokens starved for pages",
                          tenant,
                          static_cast<unsigned long long>(need));
                evictedSelf = preemptYoungest(idx);
                if (evictedSelf)
                    break;
                tracePageAlloc(pool.ensureTokens(idx, need));
            }
            if (!evictedSelf)
                ++k;
        }
        if (running.empty())
            continue;

        // Price and run the iteration: every live context is read,
        // all weights re-stream, one token per sequence comes out.
        std::uint64_t ctx = 0;
        for (std::uint32_t idx : running)
            ctx += static_cast<std::uint64_t>(seqs[idx].prompt) +
                   seqs[idx].generated;
        const Cycles cost =
            decodeStepCycles(spec, running.size(), ctx, config.core,
                             ts.nMes, ep.bwShare);
        if (t + cost > stop) {
            stopped = true;
            break;
        }
        const Cycles begin = t;
        advance(t + cost);
        decodeBusy += cost;
        bytes += static_cast<double>(decodeStepBytes(spec, ctx));
        ++tr.llm.decodeIterations;
        if (tracing)
            trace.asyncSpan(idBase + ++spanSeq, begin, t, "llm",
                            "decode", "batch",
                            static_cast<double>(running.size()),
                            "ctx", static_cast<double>(ctx));

        // Advance the whole batch one token; retire completions by
        // compacting `running` in place. The compaction is stable:
        // preemptYoungest takes running.back().
        std::size_t kept = 0;
        for (const std::uint32_t idx : running) {
            Seq &s = seqs[idx];
            ++s.generated;
            ++tr.llm.tokensGenerated;
            if (s.generated == 1) // its first token
                tr.llm.ttftCycles.add(t - s.stamp);
            if (s.generated >= s.output) {
                const Cycles latency = t - s.stamp;
                serveRequest(tr, ts, latency);
                if (tracing)
                    trace.instant(t, "request", "complete", "tenant",
                                  tenant, "latency", latency);
                if (continuous) {
                    pool.release(idx); // pages free immediately
                } else {
                    staticDone.push_back(idx); // held to batch end
                }
            } else {
                running[kept++] = idx;
            }
        }
        running.resize(kept);
        if (!continuous && running.empty()) {
            // The naive baseline returns its worst-case reservation
            // only once the whole batch has drained.
            for (std::uint32_t idx : staticDone)
                pool.release(idx);
            staticDone.clear();
        }
    }

    // --- teardown: the stop, backlog, pages, stats -----------------
    // The loop stops between steps, so arrivals stamped after its
    // last step but before the stop are offered now; a boundary hands
    // the admitted ones on as backlog, and runLlmServing sheds the
    // rest at the cap.
    deliver(stop);
    pool.audit();
    tr.backlog.reserve(waiting.size() + running.size());
    for (std::uint32_t idx : waiting)
        tr.backlog.push_back(seqs[idx].stamp);
    for (std::uint32_t idx : running)
        tr.backlog.push_back(seqs[idx].stamp);
    // Release every page holder (running sequences, and in static
    // mode the finished-but-held batch members): the audited
    // invariant is an empty pool, with no holder class overlooked.
    for (SeqId holder : pool.holders())
        pool.release(holder);
    pool.audit();

    const Cycles endT = stopped ? stop : t;
    result.makespan = std::max(result.makespan, endT);
    const double window = std::max(1.0, endT);
    result.meUsefulUtil += prefillBusy * ts.nMes / config.core.numMes;
    result.meHeldUtil += decodeBusy * ts.nMes / config.core.numMes;
    result.veUtil += decodeBusy * ts.nVes / config.core.numVes;
    result.avgHbmBytesPerCycle += bytes;

    LlmEndpointStats &ls = tr.llm;
    const KvPoolStats &ps = pool.stats();
    ls.kvPages = ps.totalPages;
    ls.kvPageHighWater = ps.highWaterPages;
    ls.kvAllocOps = ps.allocOps;
    ls.kvFreeOps = ps.freeOps;
    ls.kvFailedAllocs = ps.failedAllocs;
    ls.kvOccupancyMean =
        pageCyc / (static_cast<double>(ps.totalPages) * window);
    ls.kvFragMean =
        pageCyc > 0.0
            ? 1.0 - tokenCyc / (pageCyc * pool.pageTokens())
            : 0.0;
    return stopped && !boundary;
}

} // anonymous namespace

std::uint32_t
kvPoolPages(const LlmModelSpec &spec, Bytes hbmBytes, unsigned batch,
            unsigned pageTokens)
{
    if (pageTokens == 0)
        fatal("llm: page-tokens must be >= 1");
    const Bytes reserve =
        spec.weightBytes +
        static_cast<Bytes>(batch) * spec.actPerSample;
    const Bytes pageBytes =
        static_cast<Bytes>(pageTokens) * spec.kvBytesPerToken();
    if (hbmBytes < reserve + pageBytes)
        fatal("llm: a %llu-byte vNPU HBM reservation leaves no room "
              "for KV pages after %llu bytes of weights and "
              "activations (§III-B residency)",
              static_cast<unsigned long long>(hbmBytes),
              static_cast<unsigned long long>(reserve));
    return static_cast<std::uint32_t>((hbmBytes - reserve) /
                                      pageBytes);
}

ServingResult
runLlmServing(const ServingConfig &config)
{
    NEU10_ASSERT(!config.tenants.empty(), "experiment needs tenants");
    NEU10_ASSERT(config.mode == ServingMode::LlmContinuous,
                 "runLlmServing serves ServingMode::LlmContinuous");

    ServingResult result;
    result.trace.enable(config.trace.enabled);
    result.policy = policyName(config.policy);
    result.tenants.resize(config.tenants.size());

    bool capped = false;
    for (unsigned i = 0; i < config.tenants.size(); ++i) {
        result.tenants[i].model = modelAbbrev(config.tenants[i].model);
        capped |= runEndpoint(config, i, result);
    }
    if (capped)
        shedAtCap(config, result, result.makespan);

    // The measurement window spans every endpoint (they share the
    // core's wall clock even though their iterations interleave
    // analytically).
    const double window = std::max(1.0, result.makespan);
    const double secs = Clock(config.core.freqHz).toSeconds(window);
    result.meUsefulUtil /= window;
    result.meHeldUtil /= window;
    result.veUtil /= window;
    result.avgHbmBytesPerCycle /= window;
    for (unsigned i = 0; i < config.tenants.size(); ++i)
        settleRequests(result.tenants[i], i,
                       config.tenants[i].backlog.size(), secs, true);
    return result;
}

} // namespace llm
} // namespace neu10
