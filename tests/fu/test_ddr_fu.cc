#include <gtest/gtest.h>

#include "fu/ddr_fus.hh"
#include "fu_harness.hh"

namespace {

using namespace rsn;
using rsn::test::FuHarness;
using rsn::test::iotaData;

struct DdrRig {
    FuHarness h;
    mem::HostMemory host{true};
    mem::DramChannel chan{h.eng, mem::DramConfig{}};
    fu::DdrFu fu{h.eng, kDdr, chan, host, mem::LayoutKind::Blocked};
};

TEST(DdrFu, LoadReadsBlockAndStreamsIt)
{
    DdrRig r;
    Addr base = r.host.alloc(64, "t");  // 8x8
    r.host.fillRegion(base, iotaData(8, 8));
    sim::Stream &out = r.h.output(r.fu, memA(0));

    isa::DdrUop u;
    u.load = true;
    u.dest = memA(0);
    u.addr = base + (2 * 8 + 1) * 4;  // row 2, col 1
    u.rows = 3;
    u.cols = 4;
    u.pitch = 8;
    sim::Task prog = r.h.program(r.fu, {u});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(out, 1, got);
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rows, 3u);
    EXPECT_FLOAT_EQ(got[0].at(0, 0), 17.f);  // elem (2,1) of iota
    EXPECT_FLOAT_EQ(got[0].at(2, 3), 36.f);  // elem (4,4)
    EXPECT_EQ(r.chan.bytesRead(), 3u * 4 * 4);
}

TEST(DdrFu, StoreWritesChunkToHostMemory)
{
    DdrRig r;
    Addr base = r.host.alloc(64, "out");
    sim::Stream &in = r.h.input(r.fu, memC(0));

    isa::DdrUop u;
    u.store = true;
    u.src = memC(0);
    u.addr = base + 8 * 4;  // row 1 of an 8-wide matrix
    u.rows = 2;
    u.cols = 8;
    u.pitch = 8;
    sim::Task prog = r.h.program(r.fu, {u});
    sim::Task feed = r.h.feedChunks(
        in, {sim::makeDataChunk(2, 8, iotaData(2, 8, 2.0f))});
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    std::vector<float> back(2 * 8);
    r.host.readBlockInto(base + 8 * 4, 8, 2, 8, back.data());
    EXPECT_FLOAT_EQ(back[0], 0.f);
    EXPECT_FLOAT_EQ(back[15], 30.f);
    EXPECT_EQ(r.chan.bytesWritten(), 2u * 8 * 4);
}

TEST(DdrFu, StridedUopTouchesMultipleBlocks)
{
    DdrRig r;
    Addr base = r.host.alloc(256, "t");  // 16x16
    r.host.fillRegion(base, iotaData(16, 16));
    sim::Stream &out = r.h.output(r.fu, memA(0), 256, 8);

    // stride_count = 4 blocks of 4x16, advancing 4 rows each.
    isa::DdrUop u;
    u.load = true;
    u.dest = memA(0);
    u.addr = base;
    u.rows = 4;
    u.cols = 16;
    u.pitch = 16;
    u.stride_count = 4;
    u.stride_offset = 4 * 16 * 4;
    sim::Task prog = r.h.program(r.fu, {u});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(out, 4, got);
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_EQ(got.size(), 4u);
    for (std::size_t b = 0; b < got.size(); ++b)
        EXPECT_FLOAT_EQ(got[b].at(0, 0), 64.f * b);  // row 4b start
    EXPECT_FLOAT_EQ(got[3].at(3, 15), 255.f);
}

TEST(DdrFu, LoadAndStoreInOneUopPanics)
{
    DdrRig r;
    isa::DdrUop u;
    u.load = true;
    u.store = true;
    sim::Task prog = r.h.program(r.fu, {u});
    EXPECT_DEATH(
        {
            r.fu.start();
            r.h.run();
        },
        "assertion failed");
}

TEST(DdrFu, UopOrderDeterminesChannelOrder)
{
    // Two loads then one store execute in program order on the channel.
    DdrRig r;
    Addr in_base = r.host.alloc(64, "in");
    Addr out_base = r.host.alloc(64, "out");
    r.host.fillRegion(in_base, iotaData(8, 8));
    sim::Stream &out = r.h.output(r.fu, memA(0), 256, 8);
    sim::Stream &in = r.h.input(r.fu, memC(0));

    isa::DdrUop ld;
    ld.load = true;
    ld.dest = memA(0);
    ld.addr = in_base;
    ld.rows = 4;
    ld.cols = 8;
    ld.pitch = 8;
    isa::DdrUop ld2 = ld;
    ld2.addr = in_base + 4 * 8 * 4;
    isa::DdrUop st;
    st.store = true;
    st.src = memC(0);
    st.addr = out_base;
    st.rows = 8;
    st.cols = 8;
    st.pitch = 8;

    sim::Task prog = r.h.program(r.fu, {ld, ld2, st});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(out, 2, got);
    sim::Task feed = r.h.feedChunks(
        in, {sim::makeDataChunk(8, 8, iotaData(8, 8))});
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    EXPECT_EQ(r.chan.requests(), 3u);
    EXPECT_EQ(r.chan.bytesRead(), 2u * 4 * 8 * 4);
    EXPECT_EQ(r.chan.bytesWritten(), 64u * 4);
}

TEST(LpddrFu, LoadsWeightBlocks)
{
    FuHarness h;
    mem::HostMemory host{true};
    mem::DramChannel chan{h.eng, mem::DramConfig{"LPDDR", 20.5, 20.5}};
    fu::LpddrFu fu{h.eng, kLpddr, chan, host, mem::LayoutKind::Blocked};
    Addr base = host.alloc(64, "W");
    host.fillRegion(base, iotaData(8, 8));
    sim::Stream &out = h.output(fu, {FuType::MemB, 0});

    isa::LpddrUop u;
    u.dest = {FuType::MemB, 0};
    u.addr = base;
    u.rows = 8;
    u.cols = 8;
    u.pitch = 8;
    sim::Task prog = h.program(fu, {u});
    std::vector<sim::Chunk> got;
    sim::Task col = h.collect(out, 1, got);
    fu.start();
    ASSERT_TRUE(h.run());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_FLOAT_EQ(got[0].at(7, 7), 63.f);
    EXPECT_EQ(chan.bytesRead(), 64u * 4);
}

} // namespace
