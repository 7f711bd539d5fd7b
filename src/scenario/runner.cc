#include "scenario/runner.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "vnpu/allocator.hh"

namespace neu10
{

namespace
{

/** Expansion order: global tenant index per (group, instance). The
 * default round-robin interleave reproduces the benches' `i % 4`
 * pattern; grouped emits each group's block contiguously. */
std::vector<unsigned>
expansionOrder(const Scenario &s)
{
    std::vector<unsigned> order;
    order.reserve(s.totalTenants());
    if (s.roundRobin) {
        std::vector<unsigned> remaining;
        remaining.reserve(s.groups.size());
        for (const ScenarioTenantGroup &g : s.groups)
            remaining.push_back(g.count);
        bool emitted = true;
        while (emitted) {
            emitted = false;
            for (unsigned k = 0; k < s.groups.size(); ++k) {
                if (remaining[k] == 0)
                    continue;
                --remaining[k];
                order.push_back(k);
                emitted = true;
            }
        }
    } else {
        for (unsigned k = 0; k < s.groups.size(); ++k)
            for (unsigned c = 0; c < s.groups[k].count; ++c)
                order.push_back(k);
    }
    return order;
}

} // namespace

FleetConfig
toFleetConfig(const Scenario &s)
{
    NEU10_ASSERT(s.mode == ScenarioMode::OpenLoop,
                 "toFleetConfig needs an open-loop scenario, got %s",
                 scenarioModeName(s.mode).c_str());

    FleetConfig cfg;
    cfg.numBoards = s.boards;
    cfg.board = s.board;
    cfg.corePolicy = s.corePolicy;
    cfg.placement = s.placement;
    cfg.threads = s.threads;
    cfg.horizon = s.effectiveHorizon();
    cfg.maxCycles = s.maxCycles > 0.0
                        ? s.maxCycles
                        : s.maxCyclesFactor * cfg.horizon;
    cfg.elastic = s.elastic;
    if (s.hasLlm) {
        cfg.servingMode = ServingMode::LlmContinuous;
        cfg.llm = s.llm;
    }
    cfg.resilience.failover = s.failover;
    cfg.resilience.recoveryStallCycles = s.recoveryStallCycles;
    cfg.trace = s.trace;

    for (const ScenarioFault &sf : s.faults) {
        FaultEvent f;
        f.kind = sf.kind;
        f.core = sf.core;
        f.board = sf.board;
        f.at = sf.at >= 0.0 ? sf.at : sf.atFrac * cfg.horizon;
        f.durationCycles = sf.durationCycles;
        cfg.resilience.faults.push_back(f);
    }

    // Size each group's vNPU once; every tenant's rate and SLO
    // derive from that one estimate.
    std::vector<Cycles> service(s.groups.size(), 0.0);
    for (unsigned k = 0; k < s.groups.size(); ++k) {
        const ScenarioTenantGroup &g = s.groups[k];
        service[k] = sizeVnpuForModel(g.model, g.batch, g.eus,
                                      cfg.board.core)
                         .serviceEstimate();
    }

    const std::vector<unsigned> order = expansionOrder(s);
    for (unsigned i = 0; i < order.size(); ++i) {
        const unsigned k = order[i];
        const ScenarioTenantGroup &g = s.groups[k];
        ClusterTenantSpec t;
        t.model = g.model;
        t.batch = g.batch;
        t.eus = g.eus;
        t.traffic = g.traffic;
        t.traffic.ratePerSec =
            g.rho > 0.0 ? g.rho * cfg.board.core.freqHz / service[k]
                        : g.ratePerSec;
        t.traffic.seed = (g.hasSeed ? g.seed : s.seed) + i;
        t.sloCycles = g.sloFactor > 0.0 ? g.sloFactor * service[k]
                                        : g.sloCycles;
        t.maxQueueDepth = g.maxQueueDepth;
        t.priority = g.priority;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

ServingConfig
toServingConfig(const Scenario &s)
{
    NEU10_ASSERT(s.mode == ScenarioMode::ClosedLoop,
                 "toServingConfig needs a closed-loop scenario, got "
                 "%s", scenarioModeName(s.mode).c_str());

    ServingConfig cfg;
    cfg.core = s.board.core;
    cfg.policy = s.corePolicy;
    cfg.mode = ServingMode::ClosedLoop;
    cfg.minRequests = s.effectiveMinRequests();
    if (s.maxCycles > 0.0)
        cfg.maxCycles = s.maxCycles;

    const std::vector<unsigned> order = expansionOrder(s);
    for (const unsigned k : order) {
        const ScenarioTenantGroup &g = s.groups[k];
        cfg.tenants.push_back(TenantSpec{g.model, g.batch, g.nMes,
                                         g.nVes, g.priority,
                                         g.outstanding});
    }
    return cfg;
}

ScenarioOutcome
runScenario(const Scenario &s)
{
    ScenarioOutcome out;
    out.mode = s.mode;
    out.tenants = s.totalTenants();
    if (s.mode == ScenarioMode::OpenLoop) {
        const FleetConfig cfg = toFleetConfig(s);
        out.horizon = cfg.horizon;
        out.fleet = runFleet(cfg);
    } else {
        out.serving = runServing(toServingConfig(s));
    }
    return out;
}

namespace
{

/** Shortest round-trip decimal for a double — identical bytes on
 * every host, unlike printf's locale- and precision-bound %g. */
std::string
jsonNumber(double v)
{
    // Goldens must never contain non-JSON tokens; the engines only
    // report finite statistics, so an inf/nan here is a Neu10 bug.
    NEU10_ASSERT(std::isfinite(v),
                 "non-finite value in scenario JSON");
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
jsonNumber(std::uint64_t v)
{
    char buf[24];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** Minimal ordered JSON writer: keys appear exactly as emitted. */
class Json
{
  public:
    void
    open(const char *key = nullptr)
    {
        pad(key);
        out_ += "{\n";
        ++depth_;
        first_ = true;
    }

    void
    close()
    {
        --depth_;
        out_ += '\n';
        indent();
        out_ += '}';
        first_ = false;
    }

    void
    openList(const char *key)
    {
        pad(key);
        out_ += "[\n";
        ++depth_;
        first_ = true;
    }

    void
    closeList()
    {
        --depth_;
        out_ += '\n';
        indent();
        out_ += ']';
        first_ = false;
    }

    void
    field(const char *key, const std::string &rendered)
    {
        pad(key);
        out_ += rendered;
        first_ = false;
    }

    void str(const char *key, const std::string &v)
    { field(key, jsonString(v)); }

    void num(const char *key, double v)
    { field(key, jsonNumber(v)); }

    void num(const char *key, std::uint64_t v)
    { field(key, jsonNumber(v)); }

    void num(const char *key, unsigned v)
    { field(key, jsonNumber(static_cast<std::uint64_t>(v))); }

    void boolean(const char *key, bool v)
    { field(key, v ? "true" : "false"); }

    std::string
    take()
    {
        out_ += '\n';
        return std::move(out_);
    }

  private:
    void
    pad(const char *key)
    {
        if (!first_)
            out_ += ",\n";
        indent();
        if (key != nullptr) {
            out_ += jsonString(key);
            out_ += ": ";
        }
        first_ = false;
    }

    void
    indent()
    {
        out_.append(static_cast<size_t>(depth_) * 2, ' ');
    }

    std::string out_;
    int depth_ = 0;
    bool first_ = true;
};

void
emitTenant(Json &j, const TenantResult &t, ScenarioMode mode,
           bool llm = false)
{
    j.open();
    j.str("model", t.model);
    j.num("completed", t.completed);
    if (mode == ScenarioMode::OpenLoop) {
        j.num("submitted", t.submitted);
        j.num("rejected", t.rejected);
        j.num("slo_met", t.sloMet);
        j.num("goodput", t.goodput);
        j.num("lost", t.lostRequests);
        j.num("recovered", t.recoveredRequests);
    }
    const auto [p50, p95, p99] =
        t.latencyCycles.percentiles({0.50, 0.95, 0.99});
    j.num("p50_cycles", p50);
    j.num("p95_cycles", p95);
    j.num("p99_cycles", p99);
    j.num("throughput", t.throughput);
    if (mode == ScenarioMode::ClosedLoop) {
        j.num("blocked_frac", t.blockedFrac);
        j.num("reclaims", t.reclaims);
    }
    if (llm) {
        const LlmEndpointStats &l = t.llm;
        j.open("llm");
        j.num("tokens", l.tokensGenerated);
        j.num("tokens_per_sec", l.tokensPerSecond);
        j.num("prefills", l.prefills);
        j.num("decode_iterations", l.decodeIterations);
        j.num("preemptions", l.preemptions);
        const auto [ttft_p50, ttft_p99] =
            l.ttftCycles.percentiles({0.50, 0.99});
        j.num("ttft_p50_cycles", ttft_p50);
        j.num("ttft_p99_cycles", ttft_p99);
        j.num("kv_pages", l.kvPages);
        j.num("kv_page_high_water", l.kvPageHighWater);
        j.num("kv_alloc_ops", l.kvAllocOps);
        j.num("kv_free_ops", l.kvFreeOps);
        j.num("kv_failed_allocs", l.kvFailedAllocs);
        j.num("kv_occupancy_mean", l.kvOccupancyMean);
        j.num("kv_frag_mean", l.kvFragMean);
        j.close();
    }
    j.close();
}

void
emitFleet(Json &j, const Scenario &s, const ScenarioOutcome &o)
{
    const FleetResult &r = o.fleet;
    j.open("fleet");
    j.str("policy", r.policy);
    j.str("placement", r.placement);
    j.num("boards", s.boards);
    j.num("cores", s.totalCores());
    j.num("horizon_cycles", o.horizon);
    j.num("makespan_cycles", r.makespan);
    j.num("submitted", r.submitted);
    j.num("completed", r.completed);
    j.num("rejected", r.rejected);
    j.num("slo_met", r.sloMet);
    j.num("unplaced_tenants", r.unplacedTenants);
    j.num("goodput", r.goodput);
    j.num("rejection_rate", r.rejectionRate());
    const auto [p50, p95, p99] =
        r.latencyCycles.percentiles({0.50, 0.95, 0.99});
    j.num("p50_cycles", p50);
    j.num("p95_cycles", p95);
    j.num("p99_cycles", p99);
    j.num("core_eu_util_mean", r.coreEuUtil.mean());
    j.num("core_eu_util_stddev", r.coreEuUtil.stddev());
    j.num("core_me_util_mean", r.coreMeUtil.mean());
    j.num("migrations", r.migrations);

    if (s.hasLlm) {
        const LlmEndpointStats l =
            fleetLlmTotals(r, s.board.core.freqHz);
        j.open("llm");
        j.str("scheduler",
              s.llm.scheduler == LlmScheduler::Continuous
                  ? "continuous"
                  : "static-batch");
        j.num("page_tokens", s.llm.pageTokens);
        j.num("tokens", l.tokensGenerated);
        j.num("tokens_per_sec", l.tokensPerSecond);
        j.num("prefills", l.prefills);
        j.num("decode_iterations", l.decodeIterations);
        j.num("preemptions", l.preemptions);
        const auto [ttft_p50, ttft_p99] =
            l.ttftCycles.percentiles({0.50, 0.99});
        j.num("ttft_p50_cycles", ttft_p50);
        j.num("ttft_p99_cycles", ttft_p99);
        j.num("kv_pages", l.kvPages);
        j.num("kv_page_high_water", l.kvPageHighWater);
        j.num("kv_failed_allocs", l.kvFailedAllocs);
        j.num("kv_occupancy_mean", l.kvOccupancyMean);
        j.num("kv_frag_mean", l.kvFragMean);
        j.close();
    }

    j.open("faults");
    j.num("injected", r.faultsInjected);
    j.num("transients", r.transientFaults);
    j.num("core_failures", r.coreFailures);
    j.num("failovers", r.failovers);
    j.num("lost_requests", r.lostRequests);
    j.num("recovered_requests", r.recoveredRequests);
    j.num("downtime_cycles", r.downtimeCycles);
    j.num("availability", r.availability);
    j.num("mttr_cycles", r.mttrCycles);
    j.close();

    j.openList("per_tenant");
    for (const TenantResult &t : r.tenants)
        emitTenant(j, t, ScenarioMode::OpenLoop, s.hasLlm);
    j.closeList();

    j.openList("per_core");
    for (const FleetCoreReport &c : r.cores) {
        j.open();
        j.num("core", c.core);
        j.num("board", c.board);
        j.num("tenants", c.tenants);
        j.num("completed", c.completed);
        j.num("me_useful_util", c.meUsefulUtil);
        j.num("ve_util", c.veUtil);
        j.num("eu_util", c.euUtil);
        j.num("makespan_cycles", c.makespan);
        j.num("down_cycles", c.downCycles);
        j.close();
    }
    j.closeList();

    j.openList("epochs");
    for (const FleetEpochReport &e : r.epochReports) {
        j.open();
        j.num("epoch", e.epoch);
        j.num("completed", e.completed);
        j.num("backlog", e.backlog);
        j.num("migrations", e.migrations);
        j.num("pressure_stddev", e.pressureStddev);
        j.num("failures", e.failures);
        j.num("restores", e.restores);
        j.close();
    }
    j.closeList();
    j.close();
}

void
emitServing(Json &j, const ScenarioOutcome &o)
{
    const ServingResult &r = o.serving;
    j.open("serving");
    j.str("policy", r.policy);
    j.num("makespan_cycles", r.makespan);
    j.num("me_useful_util", r.meUsefulUtil);
    j.num("me_held_util", r.meHeldUtil);
    j.num("ve_util", r.veUtil);
    j.num("avg_hbm_bytes_per_cycle", r.avgHbmBytesPerCycle);
    j.num("total_throughput", r.totalThroughput());
    j.openList("per_tenant");
    for (const TenantResult &t : r.tenants)
        emitTenant(j, t, ScenarioMode::ClosedLoop);
    j.closeList();
    j.close();
}

} // namespace

std::string
outcomeJson(const Scenario &s, const ScenarioOutcome &o)
{
    Json j;
    j.open();
    j.str("schema", "neu10-scenario-result-v2");
    j.str("scenario", s.name);
    j.str("mode", scenarioModeName(s.mode));
    j.num("seed", s.seed);
    j.boolean("smoke", s.smoke);
    j.num("tenants", o.tenants);
    if (s.mode == ScenarioMode::OpenLoop)
        emitFleet(j, s, o);
    else
        emitServing(j, o);
    j.close();
    return j.take();
}

void
writeOutcomeJson(const std::string &path, const Scenario &s,
                 const ScenarioOutcome &o)
{
    const std::string body = outcomeJson(s, o);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write scenario result '%s'", path.c_str());
    const size_t n = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = n == body.size() && std::fclose(f) == 0;
    if (!ok)
        fatal("error writing scenario result '%s'", path.c_str());
}

} // namespace neu10
