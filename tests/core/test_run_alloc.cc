/**
 * @file
 * Counting-allocator pin of the timing-only run path: once a machine
 * is warm, a run does not allocate at all, whatever the program's
 * length. The uOP issue path (decoder, FU queues, kernels, DRAM
 * accesses, ping-pong halves) must not allocate per uOP — uOPs go out
 * by reference and coroutine frames come from the frame pool
 * (sim/task.hh) — and the decoder's FIFOs are built once with the
 * machine.
 */

#include <gtest/gtest.h>

#include "alloc_count.hh"
#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"

namespace {

using namespace rsn;

/** Allocations and issued uOPs of the second timing-only run of a
 *  batch-1, S=128 BERT-Large encoder of @p layers on one machine. */
struct RunCount {
    std::uint64_t allocs = 0;
    std::uint64_t uops = 0;
};

RunCount
secondRun(std::uint32_t layers)
{
    const auto model = lib::bertLargeEncoder(1, 128, true, layers);
    core::RsnMachine mach(core::MachineConfig::vck190(false));
    {
        const auto warm = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        EXPECT_TRUE(mach.runChecked(warm.program).ok());
    }
    mach.reset();
    const std::uint64_t at_compile =
        g_allocs.load(std::memory_order_relaxed);
    const auto compiled =
        lib::compileModel(mach, model, lib::ScheduleOptions::optimized());
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    // Compiling allocates, so a counter that saw nothing is not live.
    EXPECT_GT(before, at_compile);
    const auto rep = mach.runChecked(compiled.program);
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_TRUE(rep.ok()) << rep.toString();
    return {after - before, mach.decoder().uopsIssued()};
}

TEST(RunAlloc, WarmTimingOnlyRunAllocationsDoNotGrowWithUops)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "the frame pool passes frames through under ASan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    GTEST_SKIP() << "the frame pool passes frames through under ASan";
#endif
#endif
    const RunCount one = secondRun(1);
    const RunCount two = secondRun(2);
    // The second layer really adds work: about twice the uOPs.
    ASSERT_GT(two.uops, one.uops * 3 / 2);
    EXPECT_EQ(one.allocs, two.allocs)
        << one.uops << " uOPs allocated " << one.allocs << " times, "
        << two.uops << " uOPs " << two.allocs << " times";
    // The decoder's FIFOs are built once with the machine, so a warm
    // run allocates nothing at all.
    EXPECT_EQ(one.allocs, 0u);
}

} // namespace
