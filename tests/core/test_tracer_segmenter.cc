#include <gtest/gtest.h>

#include <algorithm>

#include "core/machine.hh"
#include "core/tracer.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "lib/segmenter.hh"

namespace {

using namespace rsn;

void
recordSpans(core::RsnMachine &mach, bool on)
{
    for (const auto &f : mach.fus())
        f->recordSpans(on);
}

std::size_t
totalSpans(const core::RsnMachine &mach)
{
    std::size_t n = 0;
    for (const auto &f : mach.fus())
        n += f->spans().size();
    return n;
}

/** Ticks of one checked run of @p model, with span recording on or off;
 *  @p mach is left holding the run's spans and stats. */
Tick
runTicks(core::RsnMachine &mach, const lib::Model &model, bool record)
{
    recordSpans(mach, record);
    auto c = lib::compileModel(mach, model,
                               lib::ScheduleOptions::optimized());
    auto r = lib::runModelChecked(mach, model, c);
    EXPECT_TRUE(r.ok()) << r.report.toString();
    return r.report.result.ticks;
}

/** One span per kernel, exactly the FU's stats, ordered and bounded. */
void
expectSpansMatchStats(const core::RsnMachine &mach, Tick ticks)
{
    for (const auto &f : mach.fus()) {
        const auto &spans = f->spans();
        EXPECT_EQ(spans.size(), f->stats().uops) << f->name();
        Tick busy = 0;
        Tick prev_end = 0;
        for (const fu::KernelSpan &s : spans) {
            EXPECT_LE(prev_end, s.begin) << f->name() << " spans overlap";
            EXPECT_LE(s.begin, s.end) << f->name();
            busy += s.end - s.begin;
            prev_end = s.end;
        }
        EXPECT_LE(prev_end, ticks) << f->name() << " span past the run";
        EXPECT_EQ(busy, f->stats().busy_ticks) << f->name();
    }
}

TEST(KernelSpans, RecordingLeavesTicksUnchanged)
{
    const lib::Model bert = lib::bertLargeEncoder(1, 128, true, 1);
    const lib::Model tiny = lib::tinyEncoder(6, 32, 64, 4, 128, true);
    for (bool functional : {false, true}) {
        const lib::Model &model = functional ? tiny : bert;
        const auto cfg = core::MachineConfig::vck190(functional);
        core::RsnMachine off(cfg), on(cfg);
        const Tick ticks = runTicks(off, model, false);
        EXPECT_EQ(runTicks(on, model, true), ticks) << model.name;
        EXPECT_EQ(totalSpans(off), 0u);
        EXPECT_GT(totalSpans(on), 0u);
        expectSpansMatchStats(on, ticks);
    }
}

TEST(KernelSpans, ChromeJsonHasOneCompleteEventPerSpan)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    (void)runTicks(mach, lib::bertLargeEncoder(1, 128, true, 1), true);
    const std::string json = core::kernelSpansToChromeJson(mach);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"mme\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":\"MME0\""), std::string::npos);
    std::size_t complete = 0;
    for (std::size_t at = 0;
         (at = json.find("\"ph\":\"X\"", at)) != std::string::npos; ++at)
        ++complete;
    EXPECT_EQ(complete, totalSpans(mach));
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(KernelSpans, ResetClearsSpans)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    const lib::Model model = lib::bertLargeEncoder(1, 128, true, 1);
    const Tick ticks = runTicks(mach, model, true);
    const std::size_t spans = totalSpans(mach);
    ASSERT_GT(spans, 0u);
    mach.reset();
    EXPECT_EQ(totalSpans(mach), 0u);
    // A reused machine records the next run afresh, not on top.
    EXPECT_EQ(runTicks(mach, model, true), ticks);
    EXPECT_EQ(totalSpans(mach), spans);
    expectSpansMatchStats(mach, ticks);
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
    auto topo = core::buildRsnXnnTopology();
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
