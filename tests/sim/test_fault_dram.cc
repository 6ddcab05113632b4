/**
 * @file
 * DRAM-channel fault injection (ISSUE 6): transient transaction errors
 * retry with tick-domain backoff on the channel, exhausted retries are a
 * hard fault that stops the run (the access itself still completes so
 * the calling kernel stays well-formed), and the whole schedule is a
 * pure function of the seed.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/engine.hh"
#include "sim/fault.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::mem::Dir;
using rsn::mem::DramChannel;
using rsn::mem::DramConfig;
using rsn::mem::DramRequest;
using rsn::sim::Engine;
using rsn::sim::FaultInjector;
using rsn::sim::FaultKind;
using rsn::sim::FaultSpec;
using rsn::sim::Task;

Task
doAccess(DramChannel &ch, DramRequest req, Tick &done_at, Engine &e)
{
    co_await e.delayUntil(ch.access(req));
    done_at = e.now();
}

TEST(FaultDram, ZeroRateLeavesServiceUntouched)
{
    Engine e;
    FaultSpec spec;
    spec.checksums = true;  // enabled, but no DRAM faults armed
    FaultInjector fi(spec, e);
    DramChannel ch(e, DramConfig{});
    ch.attachFaultInjector(&fi);
    DramRequest req{Dir::Read, 80770, 1};
    Tick plain = ch.serviceTicks(req);
    Tick done = 0;
    Task a = doAccess(ch, req, done, e);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(done, plain);
    EXPECT_EQ(ch.retries(), 0u);
}

TEST(FaultDram, CertainFailureBurnsRetriesAndStopsTheRun)
{
    Engine e;
    FaultSpec spec;
    spec.dram_rate = 1.0;
    spec.max_retries = 3;
    spec.backoff_base = 8;
    FaultInjector fi(spec, e);
    DramChannel ch(e, DramConfig{});
    ch.attachFaultInjector(&fi);
    DramRequest req{Dir::Read, 8077, 1};  // ~100 ticks + 16 overhead
    Tick done = 0;
    Task a = doAccess(ch, req, done, e);
    // The stop lands at the batch boundary before the completion wake
    // dispatches: the run ends un-drained with the kernel still parked
    // mid-await (torn down safely at scope exit), never resumed into a
    // faulted world.
    EXPECT_FALSE(e.run());
    EXPECT_FALSE(a.done());
    // The channel accounted the burned attempts even though the access
    // never delivered: base service plus backoff 8, 16, 32 ticks.
    EXPECT_EQ(ch.retries(), 3u);
    // The injector diagnosed a hard fault and asked for the stop.
    EXPECT_TRUE(fi.hardFaulted());
    ASSERT_NE(fi.firstHardFault(), nullptr);
    EXPECT_EQ(fi.firstHardFault()->kind, FaultKind::DramDead);
    EXPECT_TRUE(e.stopRequested());
    EXPECT_EQ(fi.count(FaultKind::DramDead), 1u);
}

TEST(FaultDram, TransientRetriesOccupyTheChannel)
{
    // With a generous retry budget every access succeeds, but later
    // arrivals queue behind the retry bursts of earlier ones.
    Engine e;
    FaultSpec spec;
    spec.seed = 12;
    spec.dram_rate = 0.5;
    spec.max_retries = 30;
    spec.backoff_base = 4;
    FaultInjector fi(spec, e);
    DramChannel ch(e, DramConfig{});
    ch.attachFaultInjector(&fi);
    DramRequest req{Dir::Read, 80770, 1};
    Tick base = ch.serviceTicks(req);
    Tick t[8] = {};
    {
        Task a = doAccess(ch, req, t[0], e);
        Task b = doAccess(ch, req, t[1], e);
        Task c = doAccess(ch, req, t[2], e);
        Task d = doAccess(ch, req, t[3], e);
        EXPECT_TRUE(e.run());
    }
    EXPECT_FALSE(fi.hardFaulted());
    EXPECT_GT(ch.retries(), 0u);
    // Completion order is arrival order, and at least one access paid
    // more than the fault-free service time.
    EXPECT_LT(t[0], t[1]);
    EXPECT_LT(t[1], t[2]);
    EXPECT_LT(t[2], t[3]);
    EXPECT_GT(t[3], 4 * base);
}

TEST(FaultDram, SameSeedReproducesCompletionTicks)
{
    auto lastTick = [](std::uint64_t seed) {
        Engine e;
        FaultSpec spec;
        spec.seed = seed;
        spec.dram_rate = 0.4;
        spec.max_retries = 30;
        FaultInjector fi(spec, e);
        DramChannel ch(e, DramConfig{});
        ch.attachFaultInjector(&fi);
        Tick t = 0;
        DramRequest req{Dir::Read, 40385, 1};
        Task a = doAccess(ch, req, t, e);
        Task b = doAccess(ch, req, t, e);
        Task c = doAccess(ch, req, t, e);
        EXPECT_TRUE(e.run());
        return t;
    };
    EXPECT_EQ(lastTick(21), lastTick(21));
}

} // namespace
