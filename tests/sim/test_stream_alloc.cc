/**
 * @file
 * Counting-allocator verification of the stream data plane's
 * allocation-free invariant (see the file comment in sim/stream.hh):
 * after warmup, the steady-state per-chunk path — send awaitable, link
 * scheduler completion events, receiver handoff, and *pooled functional
 * payloads* — performs zero heap allocations. This extends the engine's
 * invariant (tests/sim/test_engine_alloc.cc) across the whole
 * chunk-transfer path, pinning the ISSUE 2 acceptance criterion of
 * 0 allocs/chunk.
 */

#include <gtest/gtest.h>

#include <vector>

#include "alloc_count.hh"
#include "sim/chunk.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"
#include "sim/tile_pool.hh"

namespace {

using rsn::Tick;
using rsn::sim::Chunk;
using rsn::sim::Engine;
using rsn::sim::makeChunk;
using rsn::sim::makeTileChunk;
using rsn::sim::Stream;
using rsn::sim::Task;
using rsn::sim::TilePool;
using rsn::sim::TileRef;

std::uint64_t
news()
{
    return g_allocs.load(std::memory_order_relaxed);
}

Task
sendTimingChunks(Stream &s, int n)
{
    for (int i = 0; i < n; ++i)
        co_await s.send(makeChunk(32, 32, i));
}

Task
sendPooledChunks(Stream &s, int n)
{
    for (int i = 0; i < n; ++i) {
        // Acquire-fill-publish, the producer pattern of every FU: after
        // warmup the pool hands back the tile the receiver just retired.
        TileRef t = TilePool::instance().acquire(32 * 32);
        float *d = t.mutableData();
        for (int j = 0; j < 32 * 32; ++j)
            d[j] = float(i + j);
        co_await s.send(makeTileChunk(32, 32, std::move(t), i));
    }
}

Task
recvChunks(Stream &s, int n, double &sink)
{
    for (int i = 0; i < n; ++i) {
        Chunk c = co_await s.recv();
        if (c.hasData())
            sink += c.at(0, 0);
        sink += double(c.bytes());
        // Chunk (and its TileRef) dies here: the tile retires to the
        // pool's free list, ready for the sender's next acquire.
    }
}

TEST(StreamAlloc, TimingOnlyChunkTransferIsAllocationFree)
{
    Engine e;
    Stream s(e, 64, 4, "alloc-timing");
    double sink = 0;
    Task snd = sendTimingChunks(s, 2000);
    Task rcv = recvChunks(s, 2000, sink);
    // Warmup: the engine arena and coroutine frames reach steady state
    // within the first few transfers (64 ticks each); the stream's ring
    // is sized at construction.
    e.run(2000);
    std::uint64_t before = news();
    e.run(100000);
    EXPECT_EQ(news(), before) << "timing-only stream path allocated";
    EXPECT_TRUE(e.run());
    EXPECT_TRUE(snd.done() && rcv.done());
    EXPECT_EQ(s.chunksTransferred(), 2000u);
}

TEST(StreamAlloc, PooledPayloadTransferIsAllocationFree)
{
    Engine e;
    Stream s(e, 64, 4, "alloc-pooled");
    double sink = 0;
    Task snd = sendPooledChunks(s, 2000);
    Task rcv = recvChunks(s, 2000, sink);
    e.run(2000);
    std::uint64_t before = news();
    e.run(100000);
    EXPECT_EQ(news(), before)
        << "pooled-payload stream path allocated per chunk";
    EXPECT_TRUE(e.run());
    EXPECT_TRUE(snd.done() && rcv.done());
    EXPECT_EQ(s.chunksTransferred(), 2000u);
    EXPECT_GT(sink, 0.0);
}

TEST(StreamAlloc, BackPressuredPathIsAllocationFree)
{
    // Depth-1 FIFO keeps the sender's chunk waiting for a slot: the
    // admit-on-pop path must also be allocation-free.
    Engine e;
    Stream s(e, 4096, 1, "alloc-bp");
    double sink = 0;
    Task snd = sendTimingChunks(s, 4000);
    Task rcv = recvChunks(s, 4000, sink);
    e.run(500);
    std::uint64_t before = news();
    e.run(3000);
    EXPECT_EQ(news(), before) << "back-pressured stream path allocated";
    EXPECT_TRUE(e.run());
    EXPECT_TRUE(snd.done() && rcv.done());
}

Task
flushForever(std::vector<Stream *> &outs, int reps)
{
    for (int i = 0; i < reps; ++i) {
        TileRef t = TilePool::instance().acquire(64);
        t.mutableData()[0] = float(i);
        Chunk c = makeTileChunk(8, 8, std::move(t), i);
        for (Stream *s : outs)
            s->post(c);  // copies share the payload by refcount
        for (Stream *s : outs)
            co_await s->flush();
    }
}

TEST(StreamAlloc, PostFlushBroadcastPatternIsAllocationFree)
{
    // The mesh broadcast: one pooled chunk posted to three streams, all
    // flushed before the next.
    Engine e;
    Stream s0(e, 64, 2, "alloc-bcast0"), s1(e, 64, 2, "alloc-bcast1"),
        s2(e, 64, 2, "alloc-bcast2");
    std::vector<Stream *> outs{&s0, &s1, &s2};
    double sink = 0;
    Task snd = flushForever(outs, 1000);
    Task r0 = recvChunks(s0, 1000, sink);
    Task r1 = recvChunks(s1, 1000, sink);
    Task r2 = recvChunks(s2, 1000, sink);
    e.run(800);
    std::uint64_t before = news();
    e.run(3000);
    EXPECT_EQ(news(), before) << "post+flush path allocated";
    EXPECT_TRUE(e.run());
    EXPECT_TRUE(snd.done() && r0.done() && r1.done() && r2.done());
    for (Stream *s : outs)
        EXPECT_EQ(s->chunksTransferred(), 1000u);
}

} // namespace
