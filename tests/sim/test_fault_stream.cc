/**
 * @file
 * Stream-level fault injection (ISSUE 6): injected stalls and
 * retransmissions extend link occupancy deterministically; a dead link
 * loses the chunk, parks the sender forever, and surfaces through the
 * engine's silent-deadlock diagnosis instead of hanging or aborting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/chunk.hh"
#include "sim/engine.hh"
#include "sim/fault.hh"
#include "sim/stream.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::sim::Chunk;
using rsn::sim::Engine;
using rsn::sim::FaultInjector;
using rsn::sim::FaultKind;
using rsn::sim::FaultSpec;
using rsn::sim::makeChunk;
using rsn::sim::Stream;
using rsn::sim::Task;

Task
sendChunks(Stream &s, int n, std::uint32_t rows, std::uint32_t cols)
{
    for (int i = 0; i < n; ++i)
        co_await s.send(makeChunk(rows, cols, i));
}

Task
recvChunks(Stream &s, int n, std::vector<Chunk> &out)
{
    for (int i = 0; i < n; ++i)
        out.push_back(co_await s.recv());
}

TEST(FaultStream, CertainUnitStallDelaysDeliveryByExactlyOneTick)
{
    FaultSpec spec;
    spec.link_stall_rate = 1.0;
    spec.link_stall_max = 1;  // stall length is always 1 tick
    Engine e;
    FaultInjector fi(spec, e);
    Stream s(e, 64, 4, "s");
    s.attachFaultInjector(&fi);
    std::vector<Chunk> got;
    // 32x32 floats = 4096 B = 64 ticks at 64 B/tick, +1 injected stall.
    Task snd = sendChunks(s, 1, 32, 32);
    Task rcv = recvChunks(s, 1, got);
    EXPECT_TRUE(e.run());
    EXPECT_TRUE(snd.done() && rcv.done());
    EXPECT_EQ(e.now(), 65u);
    EXPECT_EQ(s.busyTicks(), 65u);
    EXPECT_EQ(fi.count(FaultKind::LinkStall), 1u);
}

TEST(FaultStream, ZeroRatesLeaveTimingUntouched)
{
    // An attached injector whose spec only enables checksums must not
    // move a tick on the link.
    FaultSpec spec;
    spec.checksums = true;
    Engine e;
    FaultInjector fi(spec, e);
    Stream s(e, 64, 8, "s");
    s.attachFaultInjector(&fi);
    std::vector<Chunk> got;
    Task snd = sendChunks(s, 4, 32, 32);
    Task rcv = recvChunks(s, 4, got);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(e.now(), 256u);  // 4 x 64 ticks, as without an injector
    EXPECT_EQ(fi.totalInjected(), 0u);
}

TEST(FaultStream, DeadLinkLosesChunkParksSenderAndDiagnoses)
{
    FaultSpec spec;
    spec.link_drop_rate = 1.0;
    spec.max_retries = 2;
    Engine e;
    FaultInjector fi(spec, e);
    Stream s(e, 64, 4, "dead");
    s.attachFaultInjector(&fi);
    std::vector<Chunk> got;
    Task snd = sendChunks(s, 1, 8, 8);
    Task rcv = recvChunks(s, 1, got);

    // The hard fault requests a stop; with nothing else scheduled the
    // queue drains, but both coroutines are parked forever.
    e.run();
    EXPECT_FALSE(snd.done());
    EXPECT_FALSE(rcv.done());
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(s.deadSends(), 1u);
    EXPECT_TRUE(fi.hardFaulted());
    ASSERT_NE(fi.firstHardFault(), nullptr);
    EXPECT_EQ(fi.firstHardFault()->kind, FaultKind::LinkDead);
    EXPECT_TRUE(e.stopRequested());

    // The drain diagnosis names the stuck endpoints.
    EXPECT_FALSE(e.drainedClean());
    std::string d = e.drainDiagnosis();
    EXPECT_NE(d.find("stream dead"), std::string::npos) << d;
    EXPECT_NE(d.find("lost to a dead link"), std::string::npos) << d;
    EXPECT_NE(d.find("parked receiver"), std::string::npos) << d;
}

TEST(FaultStream, RecoveredRetriesDeliverEverythingInOrder)
{
    // Drops with a generous retry budget: every chunk is eventually
    // delivered, in order, with the retry burst folded into occupancy.
    FaultSpec spec;
    spec.seed = 3;
    spec.link_drop_rate = 0.4;
    spec.max_retries = 30;
    spec.backoff_base = 2;
    Engine e;
    FaultInjector fi(spec, e);
    Stream s(e, 64, 2, "retry");
    s.attachFaultInjector(&fi);
    std::vector<Chunk> got;
    Task snd = sendChunks(s, 16, 8, 8);
    Task rcv = recvChunks(s, 16, got);
    EXPECT_TRUE(e.run());
    EXPECT_TRUE(snd.done() && rcv.done());
    ASSERT_EQ(got.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(got[i].tag, std::uint32_t(i));
    EXPECT_GT(s.linkRetries(), 0u);
    EXPECT_EQ(s.deadSends(), 0u);
    EXPECT_FALSE(fi.hardFaulted());
    EXPECT_TRUE(e.drainedClean());
}

TEST(FaultStream, SameSeedReproducesTheFinalTickExactly)
{
    auto finalTick = [](std::uint64_t seed) {
        FaultSpec spec;
        spec.seed = seed;
        spec.link_stall_rate = 0.3;
        spec.link_stall_max = 16;
        spec.link_drop_rate = 0.2;
        spec.max_retries = 30;
        Engine e;
        FaultInjector fi(spec, e);
        Stream s(e, 64, 2, "repro");
        s.attachFaultInjector(&fi);
        std::vector<Chunk> got;
        Task snd = sendChunks(s, 32, 16, 16);
        Task rcv = recvChunks(s, 32, got);
        EXPECT_TRUE(e.run());
        return e.now();
    };
    Tick a = finalTick(77), b = finalTick(77), c = finalTick(78);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c) << "different seeds produced identical schedules "
                       "(suspicious for a 32-transfer run)";
}

} // namespace
