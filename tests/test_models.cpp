/**
 * @file
 * Model-zoo tests: every model builds and validates at multiple batch
 * sizes, footprints match Table I at batch 8, and the workload
 * characterization reproduces the paper's §II-B taxonomy — which
 * models are ME-heavy vs VE-heavy vs balanced vs bandwidth-bound.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/logging.hh"
#include "compiler/lower.hh"
#include "compiler/profile.hh"
#include "models/zoo.hh"

namespace neu10
{
namespace
{

constexpr double kHbmBpc = 1.2e12 / 1.05e9; // Table II: 1.2 TB/s

WorkloadProfile
prof(ModelId id, unsigned batch)
{
    return profileWorkload(buildModel(id, batch), 4, 4, kHbmBpc);
}

// ------------------------------------------------------ construction

class AllModelsBuild
    : public ::testing::TestWithParam<std::tuple<ModelId, unsigned>>
{};

TEST_P(AllModelsBuild, ValidatesAndLowers)
{
    const auto [id, batch] = GetParam();
    if (batch > maxBatch(id))
        GTEST_SKIP() << modelAbbrev(id) << " capped below " << batch;
    DnnGraph g = buildModel(id, batch);
    EXPECT_NO_THROW(g.validate());
    EXPECT_GT(g.totalVeElems() + g.totalMacs(), 0.0);
    CompiledModel neu = lowerToNeuIsa(g, 4, 4);
    CompiledModel vliw = lowerToVliw(g, 4, 4);
    EXPECT_NO_THROW(neu.validate());
    EXPECT_NO_THROW(vliw.validate());
    // The two backends agree on total useful work.
    EXPECT_NEAR(neu.totalMeBusy(), vliw.totalMeBusy(),
                1e-6 * std::max(1.0, vliw.totalMeBusy()));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, AllModelsBuild,
    ::testing::Combine(
        ::testing::ValuesIn(allModels()),
        ::testing::Values(1u, 8u, 32u, 256u)),
    [](const auto &info) {
        return modelAbbrev(std::get<0>(info.param)) + "_b" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Zoo, TableOneHasElevenModels)
{
    EXPECT_EQ(tableOneModels().size(), 11u);
    EXPECT_EQ(allModels().size(), 12u);
}

TEST(Zoo, AbbrevRoundTrip)
{
    for (auto id : allModels())
        EXPECT_EQ(modelFromAbbrev(modelAbbrev(id)), id);
    EXPECT_EQ(modelFromAbbrev("mrcnn"), ModelId::MaskRcnn);
}

TEST(Zoo, UnknownAbbrevRejected)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_THROW(modelFromAbbrev("nope"), FatalError);
    setLogLevel(LogLevel::Warn);
}

TEST(Zoo, BatchCapConsistentWithBuilders)
{
    // The cap is the single source of truth for what builds: every
    // batch at or below maxBatch() builds, validates, and lowers;
    // every batch above it is rejected up front with FatalError —
    // never a mid-build failure. (AllModelsBuild's skips rely on
    // this: a skipped parameterization means "capped", not "broken".)
    setLogLevel(LogLevel::Silent);
    for (auto id : allModels()) {
        const unsigned cap = maxBatch(id);
        for (unsigned b : {1u, 8u, 32u, 256u}) {
            if (b <= cap) {
                DnnGraph g = buildModel(id, b);
                EXPECT_NO_THROW(g.validate())
                    << modelAbbrev(id) << " b" << b;
                EXPECT_NO_THROW(lowerToNeuIsa(g, 4, 4).validate())
                    << modelAbbrev(id) << " b" << b;
            } else {
                EXPECT_THROW(buildModel(id, b), FatalError)
                    << modelAbbrev(id) << " b" << b;
            }
        }
        EXPECT_NO_THROW(buildModel(id, cap)) << modelAbbrev(id);
        EXPECT_THROW(buildModel(id, cap + 1), FatalError)
            << modelAbbrev(id);
    }
    setLogLevel(LogLevel::Warn);
}

TEST(Zoo, OnlyDocumentedModelsCappedBelow256)
{
    // Exactly the three parameterizations AllModelsBuild skips at
    // b256 — LLaMA, Mask-RCNN, ShapeMask — sit below batch 256.
    std::set<ModelId> capped;
    for (auto id : allModels())
        if (maxBatch(id) < 256)
            capped.insert(id);
    const std::set<ModelId> documented = {
        ModelId::MaskRcnn, ModelId::ShapeMask, ModelId::Llama};
    EXPECT_EQ(capped, documented);
}

TEST(Zoo, OverLargeBatchRejected)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_THROW(buildModel(ModelId::MaskRcnn, 1024), FatalError);
    EXPECT_THROW(buildModel(ModelId::Bert, 0), FatalError);
    setLogLevel(LogLevel::Warn);
}

// ------------------------------------------------- Table I footprints

// gtest prints a parameter that has no printer as its raw bytes, and
// gtest_discover_tests puts that dump into each case's CTest name. The
// four bytes after `id` are therefore a named, always-zero field: as
// implicit padding they held leftover stack bytes (part of an address,
// so they changed with every run under ASLR) and the names with them.
struct FootprintCase
{
    FootprintCase(ModelId m, double g) : id(m), gb(g) {}

    ModelId id;
    std::uint32_t zero = 0;
    double gb; // Table I HBM footprint at batch 8
};
static_assert(sizeof(FootprintCase) ==
                  sizeof(ModelId) + sizeof(std::uint32_t) + sizeof(double),
              "FootprintCase must have no implicit padding");

class TableIFootprints : public ::testing::TestWithParam<FootprintCase>
{};

TEST_P(TableIFootprints, MatchesWithinTolerance)
{
    const FootprintCase &c = GetParam();
    const DnnGraph g = buildModel(c.id, 8);
    const double got = static_cast<double>(g.hbmFootprint) / 1e9;
    EXPECT_NEAR(got, c.gb, c.gb * 0.06) << modelAbbrev(c.id);
}

INSTANTIATE_TEST_SUITE_P(
    TableI, TableIFootprints,
    ::testing::Values(FootprintCase{ModelId::Bert, 1.27},
                      FootprintCase{ModelId::Transformer, 1.54},
                      FootprintCase{ModelId::Dlrm, 22.38},
                      FootprintCase{ModelId::Ncf, 11.10},
                      FootprintCase{ModelId::MaskRcnn, 3.21},
                      FootprintCase{ModelId::RetinaNet, 0.86051},
                      FootprintCase{ModelId::ShapeMask, 6.04},
                      FootprintCase{ModelId::Mnist, 0.01059},
                      FootprintCase{ModelId::ResNet, 0.21602},
                      FootprintCase{ModelId::ResNetRs, 0.45817},
                      FootprintCase{ModelId::EfficientNet, 0.09906}),
    [](const auto &info) { return modelAbbrev(info.param.id); });

// -------------------------------------------- §II-B characterization

TEST(Characterization, RecommendersAreVeHeavy)
{
    // Fig. 4: DLRM and NCF sit at the bottom of the intensity scale.
    EXPECT_LT(prof(ModelId::Dlrm, 8).intensityRatio(), 0.1);
    EXPECT_LT(prof(ModelId::Ncf, 8).intensityRatio(), 0.1);
}

TEST(Characterization, ConvNetsAreMeHeavy)
{
    EXPECT_GT(prof(ModelId::ResNet, 8).intensityRatio(), 2.0);
    EXPECT_GT(prof(ModelId::ResNetRs, 8).intensityRatio(), 2.0);
    EXPECT_GT(prof(ModelId::RetinaNet, 8).intensityRatio(), 5.0);
}

TEST(Characterization, EfficientNetIsBalanced)
{
    const auto p = prof(ModelId::EfficientNet, 8);
    EXPECT_GT(p.intensityRatio(), 0.2);
    EXPECT_LT(p.intensityRatio(), 2.0);
    // Balanced active ratios drive Fig. 12c's diagonal configs.
    EXPECT_NEAR(p.m, p.v, 0.35);
}

TEST(Characterization, BertMoreMeIntenseThanDlrmByOrders)
{
    const double bert = prof(ModelId::Bert, 8).intensityRatio();
    const double dlrm = prof(ModelId::Dlrm, 8).intensityRatio();
    EXPECT_GT(bert / dlrm, 100.0);
}

TEST(Characterization, AtLeastOneEngineActive)
{
    // §III-B assumes m + v >= 1 for the compute-bound models the
    // allocator targets (bandwidth-bound recommenders are the
    // documented exception).
    for (auto id : {ModelId::Bert, ModelId::ResNet, ModelId::RetinaNet,
                    ModelId::EfficientNet, ModelId::MaskRcnn}) {
        const auto p = prof(id, 8);
        EXPECT_GE(p.m + p.v, 0.95) << modelAbbrev(id);
    }
}

TEST(Characterization, MemoryIntensiveWorkloadsSaturateHbm)
{
    // Fig. 26 collocates DLRM+NCF and NCF+TFMR as memory-intensive
    // pairs; their solo average bandwidth must be a large fraction of
    // the 1.2 TB/s budget, unlike ENet.
    EXPECT_GT(prof(ModelId::Dlrm, 8).averageBandwidth(),
              0.5 * kHbmBpc);
    EXPECT_GT(prof(ModelId::Ncf, 8).averageBandwidth(), 0.5 * kHbmBpc);
    EXPECT_GT(prof(ModelId::Transformer, 8).averageBandwidth(),
              0.4 * kHbmBpc);
    EXPECT_LT(prof(ModelId::EfficientNet, 8).averageBandwidth(),
              0.2 * kHbmBpc);
}

TEST(Characterization, LlamaHoldsMesWhileBandwidthBound)
{
    // §V-F: LLaMA decode occupies the MEs (m near 1) yet its useful
    // compute per occupancy-cycle is low — the harvest opportunity.
    // Prefill runs at full array fill, so the whole-inference ratio is
    // ~2x; the decode-dominated tail is where the 16x waste lives.
    const auto p = prof(ModelId::Llama, 8);
    EXPECT_GT(p.m, 0.9);
    EXPECT_GT(p.meBusy, 2.0 * p.meUseful);
    EXPECT_GT(p.averageBandwidth(), 0.3 * kHbmBpc);

    // Decode GEMVs specifically: occupancy >> useful compute.
    const DnnGraph g = buildModel(ModelId::Llama, 8);
    const MachineModel machine;
    double dec_busy = 0.0, dec_useful = 0.0;
    for (const auto &op : g.ops) {
        if (op.name.find("gemv") == std::string::npos)
            continue;
        dec_busy += machine.meCyclesFor(op.macs, op.meEfficiency);
        dec_useful += machine.meCyclesFor(op.macs);
    }
    EXPECT_GT(dec_busy, 10.0 * dec_useful);
}

TEST(Characterization, BertBandwidthDropsWithBatch)
{
    // Fig. 7: BERT's average HBM bandwidth falls from batch 8 to 32
    // (ME operators get more compute-intense); DLRM's stays flat.
    const double b8 = prof(ModelId::Bert, 8).averageBandwidth();
    const double b32 = prof(ModelId::Bert, 32).averageBandwidth();
    EXPECT_LT(b32, b8);

    const double d8 = prof(ModelId::Dlrm, 8).averageBandwidth();
    const double d32 = prof(ModelId::Dlrm, 32).averageBandwidth();
    EXPECT_NEAR(d32 / d8, 1.0, 0.15);
}

TEST(Characterization, OccupancyPerMacFallsWithBatch)
{
    // Larger batches fill the systolic array: the ME occupancy paid
    // per useful MAC falls for GEMV-dominated models (DLRM's MLPs).
    const auto p8 = prof(ModelId::Dlrm, 8);
    const auto p256 = prof(ModelId::Dlrm, 256);
    EXPECT_LT(p256.meBusy / p256.meUseful, p8.meBusy / p8.meUseful);
}

TEST(Characterization, IntensityOrderingStableAcrossBatch)
{
    // Fig. 4's cross-model ordering holds at every batch size even
    // where per-model ratios move.
    for (unsigned b : {1u, 8u, 64u}) {
        const double dlrm = prof(ModelId::Dlrm, b).intensityRatio();
        const double enet =
            prof(ModelId::EfficientNet, b).intensityRatio();
        const double bert = prof(ModelId::Bert, b).intensityRatio();
        const double rtnt = prof(ModelId::RetinaNet, b).intensityRatio();
        EXPECT_LT(dlrm, enet) << b;
        EXPECT_LT(enet, bert) << b;
        EXPECT_LT(bert, rtnt * 10.0) << b; // both strongly ME-side
    }
}

TEST(Characterization, DemandsVaryOverTime)
{
    // Fig. 2: workloads alternate between ME- and VE-demand phases.
    const auto p = prof(ModelId::Bert, 8);
    bool some_me_phase = false, some_ve_phase = false;
    for (const auto &op : p.timeline) {
        if (op.demandMe >= 2)
            some_me_phase = true;
        if (op.demandMe == 0 && op.demandVe >= 1)
            some_ve_phase = true;
    }
    EXPECT_TRUE(some_me_phase);
    EXPECT_TRUE(some_ve_phase);
}

TEST(Characterization, MnistTriggersReductionPartitioning)
{
    // MNIST's small-batch FC GEMV cannot fill 4 MEs from its
    // non-reduction dims: Fig. 16's largest NeuISA overhead.
    CompiledModel cm = lowerToNeuIsa(buildModel(ModelId::Mnist, 1), 4, 4);
    bool found_summation = false;
    for (const auto &op : cm.ops) {
        if (op.groups.size() >= 2 &&
            op.groups.back().units.size() == 1 &&
            op.groups.back().units[0].kind == UTopKind::Ve &&
            op.usesMe()) {
            found_summation = true;
        }
    }
    EXPECT_TRUE(found_summation);
}

} // anonymous namespace
} // namespace neu10
