#include "probe.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <tuple>

#include "check.hh"
#include "spans.hh"

#include "cluster/fleet.hh"
#include "cluster/placement.hh"
#include "cluster/traffic.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "vnpu/allocator.hh"

namespace perfbench
{
namespace
{

using namespace neu10;

/** Thread width of the scaling run behind fleet.serial_frac. */
constexpr unsigned kWideThreads = 4;

/** Counts and paired timings gathered across a workload's sub-runs
 * (the span recorder holds the layer times). */
struct Probe
{
    SpanRecorder rec;
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t sizeCalls = 0, units = 0, arrivals = 0;
    std::uint64_t advances = 0, coreCompleted = 0;
    std::uint64_t coreAllocs = 0, llmAllocs = 0;
    std::uint64_t tokens = 0, preemptions = 0;
    std::uint64_t traceEvents = 0, traceBytes = 0, tracedCompleted = 0;
    std::uint64_t failovers = 0, recovered = 0;
    double wideMs = 0.0;                     // runFleet at 4 threads
    double simTraceOnMs = 0.0, simTraceOffMs = 0.0;
    double plainReplayMs = 0.0;              // replay without spans
    Fingerprint fp;

    std::map<std::tuple<ModelId, unsigned, PolicyKind>, CompiledModel>
        programs;

    void
    fail(const std::string &label, const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "check failed: %s: %s\n", label.c_str(),
                     why.c_str());
    }
};

double
msSince(double t0)
{
    return (nowSeconds() - t0) * 1e3;
}

std::string
policyLayer(PolicyKind p)
{
    switch (p) {
    case PolicyKind::Pmt:
        return "sched.pmt";
    case PolicyKind::V10:
        return "sched.v10";
    case PolicyKind::Neu10NH:
        return "sched.neu10nh";
    default:
        return "sched.neu10";
    }
}

std::uint64_t
workUnits(const CompiledModel &m)
{
    std::uint64_t n = 0;
    for (const CompiledOp &op : m.ops)
        for (const WorkGroup &g : op.groups)
            n += g.units.size();
    return n;
}

/** compileFor each distinct model x batch x policy once. */
const CompiledModel &
compileOnce(Probe &p, ModelId model, unsigned batch, PolicyKind policy,
            const NpuCoreConfig &core)
{
    const auto key = std::make_tuple(model, batch, policy);
    auto it = p.programs.find(key);
    if (it == p.programs.end()) {
        TenantSpec ts;
        ts.model = model;
        ts.batch = batch;
        it = p.programs.emplace(key, compileFor(ts, policy, core)).first;
        p.units += workUnits(it->second);
    }
    return it->second;
}

std::uint64_t
countAdvances(const TraceBuffer &t)
{
    std::uint64_t n = 0;
    for (const TraceEvent &e : t.events())
        if (std::strcmp(e.name, "advance") == 0)
            ++n;
    return n;
}

std::uint64_t
completedOf(const ServingResult &r)
{
    std::uint64_t n = 0;
    for (const TenantResult &t : r.tenants)
        n += t.completed;
    return n;
}

/** The fleet's per-core serving runs rebuilt from its final
 * placements and the generated arrivals. Exact for a static fleet
 * (one epoch, no faults); for an elastic one it replays the final
 * placement over the whole horizon. */
std::vector<ServingConfig>
replayConfigs(Probe &p, const FleetConfig &cfg, const FleetResult &r,
              const std::vector<std::vector<Cycles>> &arrivals)
{
    const bool llm = cfg.servingMode == ServingMode::LlmContinuous;
    std::vector<ServingConfig> runs(cfg.totalCores());
    for (size_t i = 0; i < cfg.tenants.size(); ++i) {
        const TenantPlacement &pl = r.placements[i];
        if (!pl.placed())
            continue;
        const ClusterTenantSpec &spec = cfg.tenants[i];
        TenantSpec ts;
        ts.model = spec.model;
        ts.batch = spec.batch;
        ts.nMes = pl.nMes;
        ts.nVes = pl.nVes;
        ts.priority = spec.priority;
        ts.maxQueueDepth = spec.maxQueueDepth;
        ts.sloCycles = spec.sloCycles;
        ts.program = llm ? nullptr
                         : &compileOnce(p, spec.model, spec.batch,
                                        cfg.corePolicy, cfg.board.core);
        ts.hbmBytes = pl.hbmBytes;
        // The fleet derives each endpoint's length stream this way.
        ts.llmSeed = spec.traffic.seed ^ 0x6c6c6d5f6e657531ull;
        ts.arrivals = arrivals[i];
        runs[pl.core].tenants.push_back(std::move(ts));
    }
    std::vector<ServingConfig> out;
    for (ServingConfig &sc : runs) {
        if (sc.tenants.empty())
            continue;
        sc.core = cfg.board.core;
        sc.policy = cfg.corePolicy;
        sc.mode = cfg.servingMode;
        sc.llm = cfg.llm;
        sc.maxCycles = cfg.maxCycles;
        out.push_back(std::move(sc));
    }
    return out;
}

/** Serving passes over @p runs (a fleet's per-core replay, or one
 * closed-loop sub-run): spans per run (serving.core or llm.serve, plus
 * the policy's sched.* layer), the same runs without spans, one with
 * engine-advance tracing, and two allocation-counting passes.
 * @return the results of the spanned pass. */
std::vector<ServingResult>
serveRuns(Probe &p, const std::vector<ServingConfig> &runs, int sub,
          const std::string &label)
{
    std::vector<ServingResult> results;
    if (runs.empty())
        return results;
    const bool llm = runs.front().mode == ServingMode::LlmContinuous;
    const std::string layer = llm ? "llm.serve" : "serving.core";
    const std::string sched = policyLayer(runs.front().policy);

    std::uint64_t completed = 0;
    for (const ServingConfig &sc : runs) {
        ScopedSpan span(p.rec, layer, sub);
        // The token loop never consults the core scheduling policy.
        std::optional<ScopedSpan> policy;
        if (!llm)
            policy.emplace(p.rec, sched, sub);
        results.push_back(runServing(sc));
    }
    for (const ServingResult &r : results) {
        completed += completedOf(r);
        for (const TenantResult &t : r.tenants) {
            p.tokens += t.llm.tokensGenerated;
            p.preemptions += t.llm.preemptions;
        }
    }

    const double t0 = nowSeconds();
    for (const ServingConfig &sc : runs)
        (void)runServing(sc);
    p.plainReplayMs += msSince(t0);

    for (ServingConfig sc : runs) {
        sc.trace.enabled = true;
        sc.trace.engineEvents = true;
        p.advances += countAdvances(runServing(sc).trace);
    }

    std::uint64_t allocs[2] = {0, 0};
    for (std::uint64_t &n : allocs) {
        AllocCount count;
        for (const ServingConfig &sc : runs)
            (void)runServing(sc);
        n = count.count();
    }
    if (allocs[0] != allocs[1])
        p.fail(label, "allocation count differs between two passes");
    if (llm) {
        p.llmAllocs += allocs[0];
    } else {
        p.coreAllocs += allocs[0];
        p.coreCompleted += completed;
    }
    return results;
}

void
checkOutcome(Probe &p, const Scenario &s, const ScenarioOutcome &out,
             const std::string &label)
{
    ++p.attempted;
    const std::string why = conservationError(s, out);
    if (!why.empty())
        p.fail(label, why);
    p.fp += fingerprint(out);
}

void
probeOpenLoop(Probe &p, const std::string &path, int sub,
              const std::string &label)
{
    ScopedSpan root(p.rec, "run", sub);
    Scenario s;
    {
        ScopedSpan span(p.rec, "scenario.load", sub);
        s = loadScenario(path);
    }
    FleetConfig cfg;
    {
        ScopedSpan span(p.rec, "scenario.expand", sub);
        cfg = toFleetConfig(s);
    }
    const NpuCoreConfig &core = cfg.board.core;

    std::vector<VnpuSizing> sizing;
    {
        ScopedSpan span(p.rec, "vnpu.size", sub);
        for (const ClusterTenantSpec &t : cfg.tenants) {
            sizing.push_back(
                sizeVnpuForModel(t.model, t.batch, t.eus, core));
            ++p.sizeCalls;
        }
    }
    {
        ScopedSpan span(p.rec, "compiler.compile", sub);
        for (const ClusterTenantSpec &t : cfg.tenants)
            compileOnce(p, t.model, t.batch, cfg.corePolicy, core);
    }
    std::vector<std::vector<Cycles>> arrivals;
    {
        ScopedSpan span(p.rec, "traffic.gen", sub);
        for (const ClusterTenantSpec &t : cfg.tenants) {
            arrivals.push_back(
                generateArrivals(t.traffic, cfg.horizon, core.freqHz));
            p.arrivals += arrivals.back().size();
        }
    }

    // The fleet's initial placement, as runFleet builds its requests.
    FleetPlacer placer(cfg.totalCores(), core);
    std::vector<PlacementRequest> requests(cfg.tenants.size());
    std::vector<CoreId> where(cfg.tenants.size(), kInvalidCore);
    {
        ScopedSpan span(p.rec, "placement.place", sub);
        for (size_t i = 0; i < cfg.tenants.size(); ++i) {
            const VnpuSizing &z = sizing[i];
            PlacementRequest &req = requests[i];
            req.nMes = z.config.numMesPerCore;
            req.nVes = z.config.numVesPerCore;
            req.hbmBytes = z.config.memSizePerCore;
            req.sramBytes = z.config.sramSizePerCore;
            req.load = cfg.tenants[i].traffic.ratePerSec *
                       (z.profile.meBusy + z.profile.veBusy) /
                       core.freqHz;
            where[i] = placer.place(req, cfg.placement);
        }
    }

    ScenarioOutcome out;
    out.mode = ScenarioMode::OpenLoop;
    out.tenants = s.totalTenants();
    out.horizon = cfg.horizon;
    FleetConfig narrow = cfg;
    narrow.threads = 1;
    {
        ScopedSpan span(p.rec, "fleet.run", sub);
        out.fleet = runFleet(narrow);
    }
    const FleetResult &r = out.fleet;
    checkOutcome(p, s, out, label);
    p.failovers += r.failovers;
    p.recovered += r.recoveredRequests;
    {
        ScopedSpan span(p.rec, "scenario.export", sub);
        (void)outcomeJson(s, out);
    }

    // Replay the cores right after the fleet run, so fleet.self_ms
    // compares passes made in the same process state.
    std::uint64_t replayed = 0;
    for (const ServingResult &core_result :
         serveRuns(p, replayConfigs(p, cfg, r, arrivals), sub, label))
        replayed += completedOf(core_result);
    const bool is_static =
        cfg.elastic.epochs == 1 && cfg.resilience.faults.empty();
    if (is_static && replayed != r.completed)
        p.fail(label, "per-core replay completed != fleet completed");

    // The obs layer works only when the workload traces: export what
    // the run recorded, and time the same run with sim tracing off.
    if (cfg.trace.enabled) {
        {
            ScopedSpan span(p.rec, "obs.export", sub);
            p.traceBytes += r.trace.chromeJson().size() +
                            r.metrics.json(core.freqHz).size();
        }
        p.traceEvents += r.trace.totalEvents();
        p.tracedCompleted += r.completed;
        FleetConfig untraced = narrow;
        untraced.trace = TraceConfig{};
        const double t0 = nowSeconds();
        const FleetResult plain = runFleet(untraced);
        p.simTraceOffMs += msSince(t0);
        p.simTraceOnMs += p.rec.totalMs("fleet.run", sub);
        if (!(fingerprint(plain) == fingerprint(r)))
            p.fail(label, "sim tracing changed the simulated result");
    }

    FleetConfig wide = cfg;
    wide.threads = kWideThreads;
    const double t0 = nowSeconds();
    (void)runFleet(wide);
    p.wideMs += msSince(t0);

    // One rebalance pass per epoch boundary, each on a copy of the
    // initial placement, fed the pressures the run observed.
    {
        std::vector<double> pressure(cfg.totalCores(), 0.0);
        std::vector<PlacementRequest> demands = requests;
        for (size_t i = 0; i < cfg.tenants.size(); ++i) {
            demands[i].load = static_cast<double>(r.tenants[i].completed) *
                              (sizing[i].profile.meBusy +
                               sizing[i].profile.veBusy) /
                              cfg.horizon;
            if (where[i] != kInvalidCore)
                pressure[where[i]] += demands[i].load;
        }
        RebalanceOptions opts;
        opts.imbalanceThreshold = cfg.elastic.imbalanceThreshold;
        opts.maxMigrations = cfg.elastic.maxMigrationsPerEpoch;
        ScopedSpan span(p.rec, "placement.rebalance", sub);
        for (unsigned e = 0; e + 1 < std::max(2u, cfg.elastic.epochs);
             ++e) {
            FleetPlacer copy = placer;
            (void)copy.rebalance(pressure, where, demands, opts);
        }
    }
}

void
probeClosedLoop(Probe &p, const std::string &path, int sub,
                const std::string &label)
{
    ScopedSpan root(p.rec, "run", sub);
    Scenario s;
    {
        ScopedSpan span(p.rec, "scenario.load", sub);
        s = loadScenario(path);
    }
    ServingConfig cfg;
    {
        ScopedSpan span(p.rec, "scenario.expand", sub);
        cfg = toServingConfig(s);
    }
    {
        ScopedSpan span(p.rec, "vnpu.size", sub);
        for (const TenantSpec &t : cfg.tenants) {
            (void)sizeVnpuForModel(t.model, t.batch, t.nMes + t.nVes,
                                   cfg.core);
            ++p.sizeCalls;
        }
    }
    {
        ScopedSpan span(p.rec, "compiler.compile", sub);
        for (TenantSpec &t : cfg.tenants)
            t.program =
                &compileOnce(p, t.model, t.batch, cfg.policy, cfg.core);
    }
    ScenarioOutcome out;
    out.mode = ScenarioMode::ClosedLoop;
    out.tenants = s.totalTenants();
    out.serving = std::move(serveRuns(p, {cfg}, sub, label).front());
    checkOutcome(p, s, out, label);
    {
        ScopedSpan span(p.rec, "scenario.export", sub);
        (void)outcomeJson(s, out);
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
runTraced(const Workload &w, const std::vector<std::string> &paths,
          const std::string &spans_path)
{
    Probe p;
    for (size_t k = 0; k < paths.size(); ++k) {
        const int sub = static_cast<int>(k);
        try {
            const Scenario s = loadScenario(paths[k]);
            if (s.mode == ScenarioMode::OpenLoop)
                probeOpenLoop(p, paths[k], sub, w.runs[k].label);
            else
                probeClosedLoop(p, paths[k], sub, w.runs[k].label);
        } catch (const std::exception &e) {
            ++p.attempted;
            p.fail(w.runs[k].label, e.what());
        }
    }

    std::ofstream(spans_path) << p.rec.json();

    const SpanRecorder &rec = p.rec;
    const double core_ms = rec.totalMs("serving.core");
    const double llm_ms = rec.totalMs("llm.serve");
    const double run_ms = rec.totalMs("fleet.run");
    const double n = kWideThreads;
    // Karp-Flatt: the serial fraction implied by the measured speedup.
    const double serial_frac =
        p.wideMs > 0.0
            ? (p.wideMs / run_ms - 1.0 / n) / (1.0 - 1.0 / n)
            : 0.0;
    const double replay_ms = core_ms + llm_ms;

    const std::pair<const char *, double> metrics[] = {
        {"scenario.load_ms", rec.totalMs("scenario.load")},
        {"scenario.expand_ms", rec.totalMs("scenario.expand")},
        {"scenario.export_ms", rec.totalMs("scenario.export")},
        {"vnpu.size_ms", rec.totalMs("vnpu.size")},
        {"vnpu.size_calls", static_cast<double>(p.sizeCalls)},
        {"compiler.compile_ms", rec.totalMs("compiler.compile")},
        {"compiler.units", static_cast<double>(p.units)},
        {"traffic.gen_ms", rec.totalMs("traffic.gen")},
        {"traffic.arrivals", static_cast<double>(p.arrivals)},
        {"placement.place_ms", rec.totalMs("placement.place")},
        {"placement.rebalance_ms", rec.totalMs("placement.rebalance")},
        {"fleet.run_ms", run_ms},
        {"fleet.self_ms", run_ms > 0.0 ? run_ms - replay_ms : 0.0},
        {"fleet.serial_frac", serial_frac},
        {"serving.core_ms", core_ms},
        {"serving.advances", static_cast<double>(p.advances)},
        {"serving.ns_per_advance",
         ratio(core_ms * 1e6, static_cast<double>(p.advances))},
        {"serving.allocs_per_req",
         ratio(static_cast<double>(p.coreAllocs),
               static_cast<double>(p.coreCompleted))},
        {"serving.allocs_per_advance",
         ratio(static_cast<double>(p.coreAllocs),
               static_cast<double>(p.advances))},
        {"sched.pmt_ms", rec.totalMs("sched.pmt")},
        {"sched.v10_ms", rec.totalMs("sched.v10")},
        {"sched.neu10nh_ms", rec.totalMs("sched.neu10nh")},
        {"sched.neu10_ms", rec.totalMs("sched.neu10")},
        {"llm.serve_ms", llm_ms},
        {"llm.tokens", static_cast<double>(p.tokens)},
        {"llm.ns_per_token",
         ratio(llm_ms * 1e6, static_cast<double>(p.tokens))},
        {"llm.allocs_per_token",
         ratio(static_cast<double>(p.llmAllocs),
               static_cast<double>(p.tokens))},
        {"llm.preemptions", static_cast<double>(p.preemptions)},
        {"obs.trace_events", static_cast<double>(p.traceEvents)},
        {"obs.trace_bytes_per_req",
         ratio(static_cast<double>(p.traceBytes),
               static_cast<double>(p.tracedCompleted))},
        {"obs.export_ms", rec.totalMs("obs.export")},
        {"obs.overhead_frac",
         ratio(p.simTraceOnMs - p.simTraceOffMs, p.simTraceOffMs)},
        {"resilience.failovers", static_cast<double>(p.failovers)},
        {"resilience.recovered", static_cast<double>(p.recovered)},
        {"spans.overhead_frac",
         ratio(replay_ms - p.plainReplayMs, p.plainReplayMs)},
    };
    std::string body;
    for (const auto &[name, value] : metrics)
        body += (body.empty() ? "\"" : ", \"") + std::string(name) +
                "\": " + num(value);
    std::printf("{\"attempted\": %llu, \"failed\": %llu, "
                "\"fingerprint\": %s, \"metrics\": {%s}}\n",
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed),
                p.fp.json().c_str(), body.c_str());
    return 0;
}

} // namespace perfbench
