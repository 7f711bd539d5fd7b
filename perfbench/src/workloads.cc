#include "workloads.hh"

#include <stdexcept>

#include "models/zoo.hh"
#include "runtime/serving.hh"

namespace perfbench
{

namespace
{

std::string
header(const std::string &name, const std::string &description)
{
    return "[scenario]\nname = " + name + "\ndescription = " +
           description + "\n\n";
}

/** The perf_fleet_4board tenant mix with every group @p scale times
 * larger. */
std::string
perfFleetMix(unsigned scale)
{
    struct Group
    {
        const char *name, *model;
        unsigned batch, eus;
    };
    const Group groups[] = {{"mnist", "MNIST", 32, 2},
                            {"ncf", "NCF", 32, 4},
                            {"dlrm", "DLRM", 32, 4},
                            {"resnet", "RsNt", 8, 6}};
    std::string s;
    for (const Group &g : groups) {
        s += std::string("[tenant.") + g.name + "]\nmodel = " + g.model +
             "\nbatch = " + std::to_string(g.batch) +
             "\ncount = " + std::to_string(6 * scale) +
             "\neus = " + std::to_string(g.eus) +
             "\nrho = 0.35\nshape = poisson\nslo-factor = 5\n"
             "max-queue-depth = 32\n\n";
    }
    return s;
}

std::string
fleetDc(std::uint64_t seed)
{
    return header("fleet_dc", "64 boards x 4 cores, 384 tenants, "
                              "static load-balanced fleet") +
           "[fleet]\nmode = open-loop\nboards = 64\n"
           "placement = load-balanced\nhorizon = 4e7\nthreads = 1\n"
           "seed = " + std::to_string(seed) + "\n\n" +
           perfFleetMix(16);
}

std::string
fleetChurn(std::uint64_t seed)
{
    // First-fit packs the 64 tenants onto the low cores and leaves most
    // of the fleet idle, so the rebalancer has work at every boundary.
    // Boards 1 and 2 host first-fit tenants when they fail.
    return header("fleet_churn", "16 boards, 64 small tenants, 80 "
                                 "elastic epochs, faults, tracing") +
           "[fleet]\nmode = open-loop\nboards = 16\n"
           "placement = first-fit\nhorizon = 8e7\nthreads = 4\n"
           "seed = " + std::to_string(seed) + "\n\n"
           "[elastic]\nepochs = 80\nimbalance-threshold = 0.02\n"
           "max-migrations-per-epoch = 8\n\n"
           "[resilience]\nfailover = on\nrecovery-stall = 2e5\n\n"
           "[faults]\n"
           "fault = board-loss at-frac=0.2 board=1 duration=inf\n"
           "fault = repair at-frac=0.45 board=1\n"
           "fault = board-loss at-frac=0.55 board=2 duration=inf\n"
           "fault = repair at-frac=0.8 board=2\n"
           "fault = core-stall at-frac=0.3 core=3 duration=2e5\n"
           "fault = transient-mmio at-frac=0.6 core=0\n\n"
           "[trace]\nenabled = on\nmetrics = on\n\n"
           "[tenant.mnist]\nmodel = MNIST\nbatch = 32\ncount = 32\n"
           "eus = 2\nrho = 0.5\nshape = bursty\nslo-factor = 5\n"
           "max-queue-depth = 32\n\n"
           "[tenant.ncf]\nmodel = NCF\nbatch = 32\ncount = 32\n"
           "eus = 4\nrho = 0.5\nshape = diurnal\ndiurnal-depth = 0.8\n"
           "slo-factor = 5\nmax-queue-depth = 32\n";
}

std::string
llmServe(std::uint64_t seed)
{
    // llm_continuous's [llm] and tenant settings on 16 boards.
    return header("llm_serve", "64 LLaMA endpoints, continuous "
                               "batching, paged KV pool") +
           "[fleet]\nmode = open-loop\nboards = 16\n"
           "placement = first-fit\ncore-policy = neu10\n"
           "horizon = 1e12\nthreads = 1\n"
           "seed = " + std::to_string(seed) + "\n\n"
           "[llm]\nscheduler = continuous\npage-tokens = 16\n"
           "max-batch = 32\nprompt-tokens = 384\n"
           "prompt-tokens-max = 640\noutput-tokens = 32\n"
           "output-tokens-max = 96\n\n"
           "[tenant.llama]\nmodel = LLaMA\nbatch = 32\ncount = 64\n"
           "eus = 8\nrate-per-sec = 12\nshape = poisson\n"
           "slo-cycles = 3e9\nmax-queue-depth = 64\n";
}

/** The §V-A methodology: every evaluation pair under every design,
 * one closed-loop single-core scenario each. Closed loop has no
 * stochastic input; the seed is recorded in each scenario only. */
std::vector<SubRun>
paperPairs(std::uint64_t seed)
{
    const char *policies[] = {"pmt", "v10", "neu10-nh", "neu10"};
    std::vector<SubRun> runs;
    for (const neu10::WorkloadPair &p : neu10::evaluationPairs()) {
        for (const char *policy : policies) {
            SubRun r;
            r.label = std::string(p.label) + "/" + policy;
            r.text =
                header("paper_pairs", r.label) +
                "[fleet]\nmode = closed-loop\ncore-policy = " + policy +
                "\nmin-requests = 4\nmax-cycles = 3e9\n"
                "seed = " + std::to_string(seed) + "\n\n"
                "[tenant.w1]\nmodel = " + neu10::modelAbbrev(p.w1) +
                "\nbatch = " + std::to_string(p.batch1) +
                "\nmes = 2\nves = 2\n\n"
                "[tenant.w2]\nmodel = " + neu10::modelAbbrev(p.w2) +
                "\nbatch = " + std::to_string(p.batch2) +
                "\nmes = 2\nves = 2\n";
            runs.push_back(std::move(r));
        }
    }
    return runs;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "fleet_dc")
        w.runs.push_back({name, fleetDc(seed)});
    else if (name == "fleet_churn")
        w.runs.push_back({name, fleetChurn(seed)});
    else if (name == "llm_serve")
        w.runs.push_back({name, llmServe(seed)});
    else if (name == "paper_pairs")
        w.runs = paperPairs(seed);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    return w;
}

neu10::Scenario
loadScenario(const std::string &path)
{
    neu10::Scenario s = neu10::loadScenarioFile(path);
    neu10::applyEnvOverrides(s);
    return s;
}

} // namespace perfbench
