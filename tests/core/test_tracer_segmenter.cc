#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/tracer.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/segmenter.hh"

namespace {

using namespace rsn;

TEST(Tracer, RecordsKernelSlicesDuringARun)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    core::Tracer tracer(mach, /*period=*/64);
    auto c = lib::compileModel(mach, lib::bertLargeEncoder(1, 128, true,
                                                           1),
                               lib::ScheduleOptions::optimized());
    auto r = mach.runChecked(c.program);
    ASSERT_TRUE(r.ok()) << r.toString();
    EXPECT_GT(tracer.samples(), 100u);
    ASSERT_FALSE(tracer.slices().empty());
    // Slices are well-formed and bounded by the run.
    for (const auto &s : tracer.slices()) {
        EXPECT_LE(s.begin, s.end);
        EXPECT_LE(s.end, r.result.ticks);
        EXPECT_FALSE(s.track.empty());
    }
    // Every MME shows activity.
    for (int i = 0; i < 6; ++i) {
        std::string name = "MME" + std::to_string(i);
        bool found = false;
        for (const auto &s : tracer.slices())
            found |= s.track == name;
        EXPECT_TRUE(found) << name;
    }
}

TEST(Tracer, ChromeJsonIsStructurallySound)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    core::Tracer tracer(mach, 64);
    auto c = lib::compileModel(mach, lib::bertLargeEncoder(1, 128, true,
                                                           1),
                               lib::ScheduleOptions::optimized());
    (void)mach.runChecked(c.program);
    std::string json = tracer.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Balanced braces (rough structural check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Segmenter, ClassifiesBertSegmentsLikeThePaper)
{
    lib::Segmenter seg(lib::PlatformBudget{});
    auto plan = seg.plan(lib::bertLargeEncoder(6, 512, true, 1));
    ASSERT_EQ(plan.segments.size(), 5u);
    // QKV / dense / FF are compute-bound single-MM segments.
    EXPECT_TRUE(plan.segments[0].compute_bound);
    EXPECT_TRUE(plan.segments[3].compute_bound);
    // Attention is memory-bound and picks the pipeline mapping.
    EXPECT_FALSE(plan.segments[1].compute_bound);
    EXPECT_EQ(plan.segments[1].mapping, lib::MappingType::Pipeline);
    EXPECT_GT(plan.total_est_ms, 5.0);
    EXPECT_LT(plan.total_est_ms, 40.0);
}

TEST(Segmenter, PipelineRequiresOnChipCapacity)
{
    // With a tiny on-chip budget, attention cannot pipeline.
    lib::Segmenter seg(lib::PlatformBudget{}, /*capacity=*/64 << 10);
    auto plan = seg.plan(lib::bertLargeEncoder(6, 512, true, 1));
    EXPECT_NE(plan.segments[1].mapping, lib::MappingType::Pipeline);
}

TEST(Segmenter, UnionRequirementsMatchRsnXnnTopology)
{
    // Stage 3 (Sec. 4.2): the machine's "union datapath" must provide
    // every edge class any segment of any evaluated model needs.
    lib::Segmenter seg(lib::PlatformBudget{});
    auto topo = core::buildRsnXnnTopology(core::MachineConfig::vck190());
    for (auto model : {lib::bertLargeEncoder(6, 512, true, 1),
                       lib::vitEncoder(6, false, 1), lib::ncf(6),
                       lib::mlp(6)}) {
        auto plan = seg.plan(model);
        auto missing = lib::Segmenter::missingEdges(plan, topo);
        EXPECT_TRUE(missing.empty())
            << model.name << " missing " << missing.size() << " edges";
    }
}

TEST(Segmenter, LayerNormNeedsLpddrToMemC)
{
    lib::Segmenter seg(lib::PlatformBudget{});
    auto plan = seg.plan(lib::bertLargeEncoder(1, 128, true, 1));
    EXPECT_TRUE(plan.required.lpddr_to_mem_c);
    EXPECT_TRUE(plan.required.ddr_to_mem_c);  // residuals
    EXPECT_TRUE(plan.required.memc_to_mesh);  // attention pipeline

    auto mlp_plan = seg.plan(lib::ncf(1));
    EXPECT_FALSE(mlp_plan.required.memc_to_mesh);
    EXPECT_FALSE(mlp_plan.required.ddr_to_mem_b);
}

TEST(Segmenter, PlanToStringListsEverySegment)
{
    lib::Segmenter seg(lib::PlatformBudget{});
    auto plan = seg.plan(lib::bertLargeEncoder(1, 128, true, 1));
    std::string s = plan.toString();
    EXPECT_NE(s.find("L0.qkv"), std::string::npos);
    EXPECT_NE(s.find("pipeline"), std::string::npos);
    EXPECT_NE(s.find("total estimate"), std::string::npos);
}

} // namespace
