#include <gtest/gtest.h>

#include <stdexcept>

#include "fu/mesh.hh"
#include "fu_harness.hh"

namespace {

using namespace rsn;
using rsn::test::FuHarness;

struct MeshRig {
    FuHarness h;
    fu::MeshFu mesh{h.eng, FuId{FuType::MeshA, 0}};
};

TEST(MeshFu, BroadcastReplicatesToAllDestinations)
{
    MeshRig r;
    sim::Stream &in = r.h.input(r.mesh, memA(0));
    std::vector<sim::Stream *> outs;
    for (int i = 0; i < 3; ++i)
        outs.push_back(&r.h.output(r.mesh, mme(i)));

    isa::MeshUop u;
    u.repeats = 2;
    u.mode = isa::MeshMode::Broadcast;
    for (int i = 0; i < 3; ++i)
        u.routes.push_back({memA(0), mme(i)});
    sim::Task prog = r.h.program(r.mesh, {u});
    sim::Task feed = r.h.feedChunks(
        in, {sim::makeChunk(2, 2, 100), sim::makeChunk(2, 2, 200)});
    std::vector<std::vector<sim::Chunk>> got(3);
    std::vector<sim::Task> cols;
    for (int i = 0; i < 3; ++i)
        cols.push_back(r.h.collect(*outs[i], 2, got[i]));
    r.mesh.start();
    ASSERT_TRUE(r.h.run());
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(got[i].size(), 2u);
        EXPECT_EQ(got[i][0].tag, 100u);
        EXPECT_EQ(got[i][1].tag, 200u);
    }
}

TEST(MeshFu, BroadcastSharesOneImmutablePooledPayload)
{
    // Broadcast must not copy the payload per destination: every
    // receiver sees the *same* pooled tile by refcount, and the tile is
    // no longer uniquely owned, so mutation (copy-on-transform
    // violations) is structurally impossible.
    MeshRig r;
    sim::Stream &in = r.h.input(r.mesh, memA(0));
    std::vector<sim::Stream *> outs;
    for (int i = 0; i < 3; ++i)
        outs.push_back(&r.h.output(r.mesh, mme(i)));

    isa::MeshUop u;
    u.repeats = 1;
    u.mode = isa::MeshMode::Broadcast;
    for (int i = 0; i < 3; ++i)
        u.routes.push_back({memA(0), mme(i)});
    sim::Task prog = r.h.program(r.mesh, {u});
    sim::Task feed = r.h.feedChunks(
        in, {sim::makeDataChunk(2, 2, {1.f, 2.f, 3.f, 4.f}, 9)});
    std::vector<std::vector<sim::Chunk>> got(3);
    std::vector<sim::Task> cols;
    for (int i = 0; i < 3; ++i)
        cols.push_back(r.h.collect(*outs[i], 1, got[i]));
    r.mesh.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_TRUE(got[0][0].hasData());
    const float *payload = got[0][0].data.data();
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(got[i].size(), 1u);
        ASSERT_TRUE(got[i][0].hasData());
        EXPECT_EQ(got[i][0].data.data(), payload)
            << "destination " << i << " got a private copy";
        EXPECT_FALSE(got[i][0].data.unique());
        EXPECT_FLOAT_EQ(got[i][0].at(1, 1), 4.f);
    }
    // Shared payloads reject writable access (immutability after
    // pooling).
    EXPECT_THROW((void)got[0][0].data.mutableData(), std::logic_error);
}

TEST(MeshFu, DistributeDealsRoundRobin)
{
    MeshRig r;
    sim::Stream &in = r.h.input(r.mesh, memA(0));
    std::vector<sim::Stream *> outs;
    for (int i = 0; i < 3; ++i)
        outs.push_back(&r.h.output(r.mesh, mme(i)));

    isa::MeshUop u;
    u.repeats = 2;
    u.mode = isa::MeshMode::Distribute;
    for (int i = 0; i < 3; ++i)
        u.routes.push_back({memA(0), mme(i)});
    sim::Task prog = r.h.program(r.mesh, {u});
    std::vector<sim::Chunk> chunks;
    for (std::uint32_t t = 0; t < 6; ++t)
        chunks.push_back(sim::makeChunk(1, 1, t));
    sim::Task feed = r.h.feedChunks(in, std::move(chunks));
    std::vector<std::vector<sim::Chunk>> got(3);
    std::vector<sim::Task> cols;
    for (int i = 0; i < 3; ++i)
        cols.push_back(r.h.collect(*outs[i], 2, got[i]));
    r.mesh.start();
    ASSERT_TRUE(r.h.run());
    // Chunk t goes to destination t % 3, in order.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(got[i][0].tag, std::uint32_t(i));
        EXPECT_EQ(got[i][1].tag, std::uint32_t(i + 3));
    }
}

TEST(MeshFu, ParallelIndependentRoutesOverlap)
{
    MeshRig r;
    sim::Stream &in0 = r.h.input(r.mesh, memA(0), 64);
    sim::Stream &in1 = r.h.input(r.mesh, memA(1), 64);
    sim::Stream &out0 = r.h.output(r.mesh, mme(0), 64);
    sim::Stream &out1 = r.h.output(r.mesh, mme(1), 64);

    isa::MeshUop u;
    u.repeats = 4;
    u.mode = isa::MeshMode::Parallel;
    u.routes.push_back({memA(0), mme(0)});
    u.routes.push_back({memA(1), mme(1)});
    sim::Task prog = r.h.program(r.mesh, {u});
    std::vector<sim::Chunk> c0, c1;
    for (int t = 0; t < 4; ++t) {
        c0.push_back(sim::makeChunk(16, 16, t));
        c1.push_back(sim::makeChunk(16, 16, 10 + t));
    }
    sim::Task f0 = r.h.feedChunks(in0, std::move(c0));
    sim::Task f1 = r.h.feedChunks(in1, std::move(c1));
    std::vector<sim::Chunk> g0, g1;
    sim::Task col0 = r.h.collect(out0, 4, g0);
    sim::Task col1 = r.h.collect(out1, 4, g1);
    r.mesh.start();
    ASSERT_TRUE(r.h.run());
    // Both lanes saw their own chunks in order.
    EXPECT_EQ(g0[3].tag, 3u);
    EXPECT_EQ(g1[3].tag, 13u);
    // Lanes overlapped: total time ~ one lane's serial time, not two.
    // One chunk = 1 KiB at 64 B/t = 16 ticks in + 16 out; 4 chunks ~128+.
    EXPECT_LT(r.h.eng.now(), 2u * 4u * 40u);
}

TEST(MeshFu, ParallelSharedSourceCyclesDestinations)
{
    // Routes sharing a source alternate deterministically: K to MME_l,
    // V to MME_{3+l} (the attention pattern).
    MeshRig r;
    sim::Stream &in = r.h.input(r.mesh, memA(0));
    sim::Stream &out0 = r.h.output(r.mesh, mme(0));
    sim::Stream &out3 = r.h.output(r.mesh, mme(3));

    isa::MeshUop u;
    u.repeats = 2;
    u.mode = isa::MeshMode::Parallel;
    u.routes.push_back({memA(0), mme(0)});
    u.routes.push_back({memA(0), mme(3)});
    sim::Task prog = r.h.program(r.mesh, {u});
    std::vector<sim::Chunk> chunks;
    for (std::uint32_t t = 0; t < 4; ++t)
        chunks.push_back(sim::makeChunk(1, 1, t));
    sim::Task feed = r.h.feedChunks(in, std::move(chunks));
    std::vector<sim::Chunk> g0, g3;
    sim::Task col0 = r.h.collect(out0, 2, g0);
    sim::Task col3 = r.h.collect(out3, 2, g3);
    r.mesh.start();
    ASSERT_TRUE(r.h.run());
    EXPECT_EQ(g0[0].tag, 0u);
    EXPECT_EQ(g3[0].tag, 1u);
    EXPECT_EQ(g0[1].tag, 2u);
    EXPECT_EQ(g3[1].tag, 3u);
}

TEST(MeshFu, EmptyRoutesPanics)
{
    MeshRig r;
    isa::MeshUop u;
    u.repeats = 1;
    sim::Task prog = r.h.program(r.mesh, {u});
    EXPECT_DEATH(
        {
            r.mesh.start();
            r.h.run();
        },
        "assertion failed");
}

TEST(MeshFu, CountsBytesRouted)
{
    MeshRig r;
    sim::Stream &in = r.h.input(r.mesh, memA(0));
    sim::Stream &out = r.h.output(r.mesh, mme(0));
    isa::MeshUop u;
    u.repeats = 3;
    u.mode = isa::MeshMode::Distribute;
    u.routes.push_back({memA(0), mme(0)});
    sim::Task prog = r.h.program(r.mesh, {u});
    std::vector<sim::Chunk> chunks;
    for (int t = 0; t < 3; ++t)
        chunks.push_back(sim::makeChunk(8, 8));
    sim::Task feed = r.h.feedChunks(in, std::move(chunks));
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(out, 3, got);
    r.mesh.start();
    ASSERT_TRUE(r.h.run());
    EXPECT_EQ(r.mesh.stats().bytes_in, 3u * 8 * 8 * 4);
    EXPECT_EQ(r.mesh.stats().bytes_out, 3u * 8 * 8 * 4);
}

} // namespace
