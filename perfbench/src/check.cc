#include "check.hh"

#include <charconv>
#include <cmath>

namespace perfbench
{

using neu10::ScenarioMode;
using neu10::ScenarioOutcome;
using neu10::TenantResult;

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

Fingerprint &
Fingerprint::operator+=(const Fingerprint &o)
{
    submitted += o.submitted;
    completed += o.completed;
    rejected += o.rejected;
    sloMet += o.sloMet;
    p99Cycles += o.p99Cycles;
    migrations += o.migrations;
    failovers += o.failovers;
    tokens += o.tokens;
    return *this;
}

std::string
Fingerprint::json() const
{
    return "{\"submitted\": " + std::to_string(submitted) +
           ", \"completed\": " + std::to_string(completed) +
           ", \"rejected\": " + std::to_string(rejected) +
           ", \"slo_met\": " + std::to_string(sloMet) +
           ", \"p99_cycles\": " + num(p99Cycles) +
           ", \"migrations\": " + std::to_string(migrations) +
           ", \"failovers\": " + std::to_string(failovers) +
           ", \"tokens\": " + std::to_string(tokens) + "}";
}

Fingerprint
fingerprint(const neu10::FleetResult &r)
{
    Fingerprint f;
    f.submitted = r.submitted;
    f.completed = r.completed;
    f.rejected = r.rejected;
    f.sloMet = r.sloMet;
    f.p99Cycles = r.p99();
    f.migrations = r.migrations;
    f.failovers = r.failovers;
    for (const TenantResult &t : r.tenants)
        f.tokens += t.llm.tokensGenerated;
    return f;
}

Fingerprint
fingerprint(const ScenarioOutcome &o)
{
    if (o.mode == ScenarioMode::OpenLoop)
        return fingerprint(o.fleet);
    Fingerprint f;
    for (const TenantResult &t : o.serving.tenants) {
        f.completed += t.completed;
        f.p99Cycles += t.p99();
    }
    return f;
}

std::uint64_t
completedRequests(const ScenarioOutcome &o)
{
    if (o.mode == ScenarioMode::OpenLoop)
        return o.fleet.completed;
    std::uint64_t n = 0;
    for (const TenantResult &t : o.serving.tenants)
        n += t.completed;
    return n;
}

std::string
conservationError(const neu10::Scenario &s, const ScenarioOutcome &o)
{
    if (o.mode == ScenarioMode::ClosedLoop) {
        for (size_t i = 0; i < o.serving.tenants.size(); ++i)
            if (o.serving.tenants[i].completed < s.effectiveMinRequests())
                return "closed-loop tenant " + std::to_string(i) +
                       " completed fewer than min-requests";
        return "";
    }
    const neu10::FleetResult &r = o.fleet;
    std::uint64_t sub = 0, done = 0, rej = 0;
    for (size_t i = 0; i < r.tenants.size(); ++i) {
        const TenantResult &t = r.tenants[i];
        if (t.completed + t.rejected != t.submitted)
            return "tenant " + std::to_string(i) +
                   ": completed + rejected != submitted";
        sub += t.submitted;
        done += t.completed;
        rej += t.rejected;
    }
    if (r.completed + r.rejected != r.submitted)
        return "fleet: completed + rejected != submitted";
    if (sub != r.submitted || done != r.completed || rej != r.rejected)
        return "fleet totals differ from the per-tenant sums";
    return "";
}

} // namespace perfbench
