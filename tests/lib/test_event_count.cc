/**
 * @file
 * Event-count pin: the golden timing-only runs dispatch an exact number
 * of engine events. The tick pins (test_golden_e2e) prove the simulated
 * time is unchanged; this pin proves the event queue itself moves no
 * event — a queue rewrite that merged, split or dropped an event at an
 * unchanged tick would show here and nowhere else.
 *
 * The FP32 runs share one machine (tiny, then BERT-Large after reset),
 * so the pin also covers the engine's reset path.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"

namespace {

using namespace rsn;

struct Pin {
    Tick ticks;
    std::uint64_t events;
};

/** Keep the ticks in sync with tests/lib/test_golden_e2e.cc. */
constexpr Pin kTinyF32{11084, 1114};
constexpr Pin kTinyBf16{8489, 1112};
constexpr Pin kBertLarge{5947426, 24096};

lib::Model
tinyModel()
{
    return lib::tinyEncoder(/*batch=*/2, /*seq=*/32, /*hidden=*/64,
                            /*heads=*/4, /*ff=*/128, /*fuse_qkv=*/true);
}

/** Compile and run @p model timing-only on @p mach; ticks and events. */
Pin
run(core::RsnMachine &mach, const lib::Model &model)
{
    auto compiled =
        lib::compileModel(mach, model, lib::ScheduleOptions::optimized());
    auto r = mach.runChecked(compiled.program);
    EXPECT_TRUE(r.ok()) << r.toString();
    return {r.result.ticks, mach.engine().eventsProcessed()};
}

void
expectPin(const Pin &got, const Pin &want)
{
    EXPECT_EQ(got.ticks, want.ticks);
    EXPECT_EQ(got.events, want.events)
        << "the engine dispatched a different number of events at the "
           "same ticks";
}

TEST(EventCount, TimingOnlyGoldenRunsDispatchPinnedEvents)
{
    core::RsnMachine f32(core::MachineConfig::vck190());
    {
        SCOPED_TRACE("tiny f32");
        expectPin(run(f32, tinyModel()), kTinyF32);
    }
    f32.reset();
    {
        SCOPED_TRACE("BERT-Large B=6 S=512");
        expectPin(run(f32, lib::bertLargeEncoder(/*batch=*/6, /*seq=*/512,
                                                 /*fuse_qkv=*/true)),
                  kBertLarge);
    }

    core::MachineConfig cfg = core::MachineConfig::vck190();
    cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
    core::RsnMachine bf16(cfg);
    SCOPED_TRACE("tiny bf16");
    expectPin(run(bf16, tinyModel()), kTinyBf16);
}

} // namespace
