#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/chunk.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"

namespace {

using rsn::Bytes;
using rsn::Tick;
using rsn::sim::Chunk;
using rsn::sim::Engine;
using rsn::sim::makeChunk;
using rsn::sim::makeDataChunk;
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

/** Run @p f, which must trip rsn_assert with a message naming @p name. */
template <typename F>
void
expectTripNaming(F &&f, const std::string &name)
{
    try {
        f();
        ADD_FAILURE() << "no assertion tripped";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
    }
}

TEST(Stream, TransferTicksRoundsUpAndIsAtLeastOne)
{
    Engine e;
    Stream s(e, 64, 4, "s");
    EXPECT_EQ(s.transferTicks(1), 1u);
    EXPECT_EQ(s.transferTicks(64), 1u);
    EXPECT_EQ(s.transferTicks(65), 2u);
    EXPECT_EQ(s.transferTicks(640), 10u);
}

TEST(Stream, SingleTransferTakesLinkTime)
{
    Engine e;
    Stream s(e, 64, 4, "s");
    std::vector<Chunk> got;
    // 32x32 floats = 4096 B = 64 ticks at 64 B/tick.
    Task snd = sendChunks(s, 1, 32, 32);
    Task rcv = recvChunks(s, 1, got);
    e.run();
    EXPECT_TRUE(snd.done() && rcv.done());
    EXPECT_EQ(e.now(), 64u);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].bytes(), Bytes(4096));
    EXPECT_EQ(s.bytesTransferred(), Bytes(4096));
    EXPECT_EQ(s.busyTicks(), 64u);
}

TEST(Stream, BackToBackTransfersSerializeOnTheLink)
{
    Engine e;
    Stream s(e, 64, 8, "s");
    std::vector<Chunk> got;
    Task snd = sendChunks(s, 4, 32, 32);  // 4 x 64 ticks
    Task rcv = recvChunks(s, 4, got);
    e.run();
    EXPECT_EQ(e.now(), 256u);
    EXPECT_EQ(s.chunksTransferred(), 4u);
    // Chunk tags arrive in order.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got[i].tag, std::uint32_t(i));
}

TEST(Stream, FullFifoBackPressuresTheLink)
{
    // Depth-1 FIFO and a consumer that only pops at tick 1000: the second
    // transfer cannot even start until the first is drained.
    Engine e;
    Stream s(e, 4096, 1, "s");
    auto consumer = [](Engine &eng, Stream &st, std::vector<Tick> &at)
        -> Task {
        co_await eng.delay(1000);
        (void)co_await st.recv();
        at.push_back(eng.now());
        (void)co_await st.recv();
        at.push_back(eng.now());
    };
    std::vector<Tick> pop_at;
    Task snd = sendChunks(s, 2, 32, 32);  // each chunk = 1 tick of link
    Task rcv = consumer(e, s, pop_at);
    e.run();
    EXPECT_TRUE(snd.done() && rcv.done());
    ASSERT_EQ(pop_at.size(), 2u);
    EXPECT_EQ(pop_at[0], 1000u);
    // Second chunk transferred only after the first pop freed the slot.
    EXPECT_GE(pop_at[1], 1001u);
}

TEST(Stream, LinkBandwidthBoundsThroughput)
{
    // 100 chunks of 1 KiB over a 16 B/tick link: >= 6400 ticks.
    Engine e;
    Stream s(e, 16, 4, "s");
    std::vector<Chunk> got;
    Task snd = sendChunks(s, 100, 16, 16);
    Task rcv = recvChunks(s, 100, got);
    e.run();
    EXPECT_GE(e.now(), 6400u);
    EXPECT_EQ(s.bytesTransferred(), Bytes(100) * 1024);
}

TEST(Stream, FunctionalPayloadSurvivesTransfer)
{
    Engine e;
    Stream s(e, 64, 2, "s");
    std::vector<float> vals = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f};
    auto snd = [&]() -> Task {
        co_await s.send(makeDataChunk(2, 3, vals));
    }();
    std::vector<Chunk> got;
    Task rcv = recvChunks(s, 1, got);
    e.run();
    ASSERT_EQ(got.size(), 1u);
    ASSERT_TRUE(got[0].hasData());
    EXPECT_FLOAT_EQ(got[0].at(0, 0), 1.f);
    EXPECT_FLOAT_EQ(got[0].at(1, 2), 6.f);
}

TEST(Stream, ConcurrentStreamsDoNotInterfere)
{
    // Two parallel streams each carry a chunk; total time = max not sum.
    Engine e;
    Stream s1(e, 64, 2, "s1");
    Stream s2(e, 32, 2, "s2");
    std::vector<Chunk> g1, g2;
    Task a = sendChunks(s1, 1, 32, 32);  // 64 ticks
    Task b = sendChunks(s2, 1, 32, 32);  // 128 ticks
    Task ra = recvChunks(s1, 1, g1);
    Task rb = recvChunks(s2, 1, g2);
    e.run();
    EXPECT_EQ(e.now(), 128u);
}

TEST(Stream, SecondConcurrentSenderTrips)
{
    // One writer per stream: while its chunk is on the link, a second
    // sender is a wiring bug.
    Engine e;
    Stream s(e, 64, 2, "two-writers");
    Task snd = sendChunks(s, 2, 32, 32);
    auto second = s.send(makeChunk(32, 32, 7));
    ASSERT_FALSE(second.await_ready());
    expectTripNaming(
        [&] { second.await_suspend(std::noop_coroutine()); },
        "two-writers");
    // The first writer's chunks still arrive, in order.
    std::vector<Chunk> got;
    Task rcv = recvChunks(s, 2, got);
    e.run();
    EXPECT_TRUE(snd.done() && rcv.done());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].tag, 0u);
    EXPECT_EQ(got[1].tag, 1u);
}

TEST(Stream, SecondConcurrentReceiverTrips)
{
    Engine e;
    Stream s(e, 64, 2, "two-readers");
    std::vector<Chunk> got;
    Task rcv = recvChunks(s, 1, got);
    ASSERT_TRUE(s.hasBlockedReceiver());
    auto second = s.recv();
    ASSERT_FALSE(second.await_ready());
    expectTripNaming(
        [&] { second.await_suspend(std::noop_coroutine()); },
        "two-readers");
    Task snd = sendChunks(s, 1, 32, 32);
    e.run();
    EXPECT_TRUE(rcv.done());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].tag, 0u);
}

TEST(Stream, SecondPostBeforeFlushTrips)
{
    // post() is a detached send: the next one must wait for flush().
    Engine e;
    Stream s(e, 64, 2, "early-post");
    s.post(makeChunk(32, 32, 0));
    expectTripNaming([&] { s.post(makeChunk(32, 32, 1)); }, "early-post");
    auto producer = [](Stream &st) -> Task {
        co_await st.flush();
        st.post(makeChunk(32, 32, 2));
        co_await st.flush();
    };
    Task prod = producer(s);
    std::vector<Chunk> got;
    Task rcv = recvChunks(s, 2, got);
    e.run();
    EXPECT_TRUE(prod.done() && rcv.done());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].tag, 0u);
    EXPECT_EQ(got[1].tag, 2u);
    EXPECT_EQ(e.now(), 128u);  // two 64-tick transfers, back to back
}

} // namespace
