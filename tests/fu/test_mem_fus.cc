#include <gtest/gtest.h>

#include <initializer_list>

#include "fu/kernel_registry.hh"
#include "fu/mem_fus.hh"
#include "ref/ref_math.hh"
#include "fu_harness.hh"

namespace {

using namespace rsn;
using rsn::test::FuHarness;
using rsn::test::iotaData;

TEST(SliceRows, EvenSplit)
{
    auto s = fu::sliceRows(12, 3);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0], (std::pair<std::uint32_t, std::uint32_t>{0, 4}));
    EXPECT_EQ(s[2], (std::pair<std::uint32_t, std::uint32_t>{8, 4}));
}

TEST(SliceRows, RemainderGoesToFirstSlices)
{
    auto s = fu::sliceRows(14, 4);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].second, 4u);
    EXPECT_EQ(s[1].second, 4u);
    EXPECT_EQ(s[2].second, 3u);
    EXPECT_EQ(s[3].second, 3u);
    // Offsets tile the range exactly.
    EXPECT_EQ(s[3].first + s[3].second, 14u);
}

TEST(SliceRows, ClampsWhenFewerRowsThanSlices)
{
    auto s = fu::sliceRows(2, 6);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].second, 1u);
    EXPECT_EQ(s[1].second, 1u);
}

class SliceRowsProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(SliceRowsProperty, CoversRangeExactlyOnce)
{
    auto [total, slices] = GetParam();
    auto s = fu::sliceRows(total, slices);
    std::uint32_t pos = 0;
    for (auto [off, ext] : s) {
        EXPECT_EQ(off, pos);
        EXPECT_GT(ext, 0u);
        pos += ext;
    }
    EXPECT_EQ(pos, std::uint32_t(total));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SliceRowsProperty,
                         ::testing::Combine(::testing::Values(1, 7, 48,
                                                              768, 1023),
                                            ::testing::Values(1, 2, 3, 6,
                                                              8)));

// ---------------------------------------------------------------- MemA --

TEST(MemAFu, LoadThenSendSlicesTile)
{
    FuHarness h;
    fu::MemAFu fu(h.eng, {FuType::MemA, 0}, kMeshA);
    sim::Stream &in = h.input(fu, kDdr);
    sim::Stream &out = h.output(fu, kMeshA, 256, 8);

    isa::MemAUop load;
    load.rows = 12;
    load.cols = 4;
    load.slices = 3;
    load.src = kDdr;
    load.load = true;
    isa::MemAUop send = load;
    send.load = false;
    send.send = true;

    sim::Task prog = h.program(fu, {load, send});
    sim::Task feed = h.feedChunks(
        in, {sim::makeDataChunk(12, 4, iotaData(12, 4))});
    std::vector<sim::Chunk> got;
    sim::Task col = h.collect(out, 3, got);
    fu.start();
    ASSERT_TRUE(h.run());
    ASSERT_EQ(got.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(got[i].rows, 4u);
        EXPECT_EQ(got[i].cols, 4u);
        // Slice i starts at element 16*i.
        EXPECT_FLOAT_EQ(got[i].at(0, 0), 16.0f * i);
    }
}

TEST(MemAFu, PingPongKeepsPreviousTileWhileLoading)
{
    FuHarness h;
    fu::MemAFu fu(h.eng, {FuType::MemA, 0}, kMeshA);
    sim::Stream &in = h.input(fu, kDdr);
    sim::Stream &out = h.output(fu, kMeshA, 256, 8);

    isa::MemAUop load;
    load.rows = 2;
    load.cols = 2;
    load.slices = 1;
    load.src = kDdr;
    load.load = true;
    isa::MemAUop both = load;
    both.send = true;
    isa::MemAUop send;
    send.rows = 2;
    send.cols = 2;
    send.slices = 1;
    send.send = true;

    // Two tiles: [load t0][load t1 & send t0][send t1].
    sim::Task prog = h.program(fu, {load, both, send});
    sim::Task feed = h.feedChunks(
        in, {sim::makeDataChunk(2, 2, {1, 2, 3, 4}),
             sim::makeDataChunk(2, 2, {5, 6, 7, 8})});
    std::vector<sim::Chunk> got;
    sim::Task col = h.collect(out, 2, got);
    fu.start();
    ASSERT_TRUE(h.run());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_FLOAT_EQ(got[0].at(0, 0), 1.f);  // first tile sent intact
    EXPECT_FLOAT_EQ(got[1].at(0, 0), 5.f);  // then the second
}

TEST(MemAFu, SendBeforeLoadPanics)
{
    FuHarness h;
    fu::MemAFu fu(h.eng, {FuType::MemA, 0}, kMeshA);
    h.input(fu, kDdr);
    h.output(fu, kMeshA);
    isa::MemAUop send;
    send.rows = 2;
    send.cols = 2;
    send.slices = 1;
    send.send = true;
    sim::Task prog = h.program(fu, {send});
    EXPECT_DEATH(
        {
            fu.start();
            h.run();
        },
        "assertion failed");
}

// ---------------------------------------------------------------- MemB --

TEST(MemBFu, TransposesLoadedTile)
{
    FuHarness h;
    fu::MemBFu fu(h.eng, {FuType::MemB, 0}, kMeshB);
    sim::Stream &in = h.input(fu, kDdr);
    sim::Stream &out = h.output(fu, kMeshB);

    isa::MemBUop load;
    load.rows = 2;
    load.cols = 3;
    load.src = kDdr;
    load.load = true;
    load.transpose = true;
    isa::MemBUop send;
    send.send = true;

    sim::Task prog = h.program(fu, {load, send});
    sim::Task feed = h.feedChunks(
        in, {sim::makeDataChunk(2, 3, {1, 2, 3, 4, 5, 6})});
    std::vector<sim::Chunk> got;
    sim::Task col = h.collect(out, 1, got);
    fu.start();
    ASSERT_TRUE(h.run());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rows, 3u);
    EXPECT_EQ(got[0].cols, 2u);
    EXPECT_FLOAT_EQ(got[0].at(0, 1), 4.f);
    EXPECT_FLOAT_EQ(got[0].at(2, 0), 3.f);
}

TEST(MemBFu, PassThroughWithoutTranspose)
{
    FuHarness h;
    fu::MemBFu fu(h.eng, {FuType::MemB, 1}, kMeshB);
    sim::Stream &in = h.input(fu, kLpddr);
    sim::Stream &out = h.output(fu, kMeshB);

    isa::MemBUop load;
    load.rows = 3;
    load.cols = 2;
    load.src = kLpddr;
    load.load = true;
    isa::MemBUop send;
    send.send = true;
    sim::Task prog = h.program(fu, {load, send});
    sim::Task feed = h.feedChunks(
        in, {sim::makeDataChunk(3, 2, iotaData(3, 2))});
    std::vector<sim::Chunk> got;
    sim::Task col = h.collect(out, 1, got);
    fu.start();
    ASSERT_TRUE(h.run());
    ASSERT_EQ(got[0].rows, 3u);
    EXPECT_FLOAT_EQ(got[0].at(2, 1), 5.f);
}

// ---------------------------------------------------------------- MemC --

struct MemCRig {
    FuHarness h;
    fu::MemCFu fu;
    sim::Stream &from_mme;
    sim::Stream &from_ddr;
    sim::Stream &from_lpddr;
    sim::Stream &to_ddr;
    sim::Stream &to_mesha;

    MemCRig()
        : fu(h.eng, {FuType::MemC, 0}, mme(0), kDdr, 277.0),
          from_mme(h.input(fu, mme(0))), from_ddr(h.input(fu, kDdr)),
          from_lpddr(h.input(fu, kLpddr)), to_ddr(h.output(fu, kDdr)),
          to_mesha(h.output(fu, kMeshA))
    {
    }
};

TEST(MemCFu, RecvThenStoreSplitsIntoPieces)
{
    MemCRig r;
    isa::MemCUop recv;
    recv.rows = 4;
    recv.cols = 4;
    recv.recv_chunks = 1;
    recv.send_chunks = 2;
    recv.recv = true;
    isa::MemCUop store = recv;
    store.recv = false;
    store.store = true;
    sim::Task prog = r.h.program(r.fu, {recv, store});
    sim::Task feed = r.h.feedChunks(
        r.from_mme, {sim::makeDataChunk(4, 4, iotaData(4, 4))});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.to_ddr, 2, got);
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].rows, 2u);
    EXPECT_FLOAT_EQ(got[1].at(0, 0), 8.f);  // second piece starts row 2
}

TEST(MemCFu, SoftmaxAppliedOnRecv)
{
    // Pin the exact scalar kernel table: this test validates the MemC
    // *plumbing* against ref_math at tight tolerance; the vectorized
    // tables' accuracy has its own property suite
    // (test_nonlinear_simd.cc).
    kernel::ScopedIsaOverride exact(*kernel::runnableTables().back());
    MemCRig r;
    isa::MemCUop recv;
    recv.rows = 2;
    recv.cols = 4;
    recv.recv = true;
    recv.softmax = true;
    isa::MemCUop send = recv;
    send.recv = false;
    send.softmax = false;
    send.send_mme = true;
    send.send_dest = kMeshA;
    sim::Task prog = r.h.program(r.fu, {recv, send});
    auto m = ref::randomMatrix(2, 4, 5, 3.0f);
    sim::Task feed = r.h.feedChunks(
        r.from_mme, {sim::makeDataChunk(2, 4, m.data)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.to_mesha, 1, got);
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    auto expect = ref::softmax(m);
    ref::Matrix gm(2, 4, got[0].data.data());
    EXPECT_TRUE(ref::allclose(gm, expect, 1e-5f, 1e-6f));
    // Rows sum to one.
    EXPECT_NEAR(gm.at(0, 0) + gm.at(0, 1) + gm.at(0, 2) + gm.at(0, 3),
                1.0f, 1e-5);
}

TEST(MemCFu, ResidualAddAndLayerNormWithParams)
{
    kernel::ScopedIsaOverride exact(*kernel::runnableTables().back());
    MemCRig r;
    isa::MemCUop recv;
    recv.rows = 2;
    recv.cols = 4;
    recv.recv = true;
    recv.add_residual = true;
    recv.layernorm = true;
    recv.scale_shift = true;
    isa::MemCUop store = recv;
    store.recv = false;
    store.add_residual = false;
    store.layernorm = false;
    store.scale_shift = false;
    store.store = true;
    sim::Task prog = r.h.program(r.fu, {recv, store});

    auto x = ref::randomMatrix(2, 4, 1);
    auto res = ref::randomMatrix(2, 4, 2);
    std::vector<float> params = {1.5f, 0.5f, 2.0f, 1.0f,   // gamma
                                 0.1f, -0.2f, 0.3f, 0.0f}; // beta
    sim::Task f1 = r.h.feedChunks(r.from_mme,
                                  {sim::makeDataChunk(2, 4, x.data)});
    sim::Task f2 = r.h.feedChunks(r.from_ddr,
                                  {sim::makeDataChunk(2, 4, res.data)});
    sim::Task f3 = r.h.feedChunks(r.from_lpddr,
                                  {sim::makeDataChunk(2, 4, params)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.to_ddr, 1, got);
    r.fu.start();
    ASSERT_TRUE(r.h.run());

    std::vector<float> gamma(params.begin(), params.begin() + 4);
    std::vector<float> beta(params.begin() + 4, params.end());
    auto expect = ref::layernorm(ref::add(x, res), gamma, beta);
    ref::Matrix gm(2, 4, got[0].data.data());
    EXPECT_TRUE(ref::allclose(gm, expect, 1e-4f, 1e-5f));
}

TEST(MemCFu, GeluMatchesReference)
{
    kernel::ScopedIsaOverride exact(*kernel::runnableTables().back());
    MemCRig r;
    isa::MemCUop recv;
    recv.rows = 3;
    recv.cols = 3;
    recv.recv = true;
    recv.gelu = true;
    isa::MemCUop store = recv;
    store.recv = false;
    store.gelu = false;
    store.store = true;
    sim::Task prog = r.h.program(r.fu, {recv, store});
    auto x = ref::randomMatrix(3, 3, 9, 2.0f);
    sim::Task feed = r.h.feedChunks(r.from_mme,
                                    {sim::makeDataChunk(3, 3, x.data)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.to_ddr, 1, got);
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    ref::Matrix gm(3, 3, got[0].data.data());
    EXPECT_TRUE(ref::allclose(gm, ref::gelu(x), 1e-5f, 1e-6f));
}

TEST(MemCFu, SimdSoftmaxRunsOverATileCopiedFromTwoChunks)
{
    // A two-chunk receive copies both chunks into one staging tile in
    // arrival order; the vectorized softmax must then see the whole
    // tile exactly like the exact kernels do. Fuse softmax under the
    // best runnable table and compare against ref_math at the
    // documented softmax tolerance (fu/kernel_registry.hh). The front
    // table is never scalar, so this really exercises an approximate
    // kernel.
    kernel::ScopedIsaOverride simd(*kernel::runnableTables().front());
    MemCRig r;
    isa::MemCUop recv;
    recv.rows = 4;
    recv.cols = 16;
    recv.recv = true;
    recv.recv_chunks = 2;
    recv.softmax = true;
    isa::MemCUop send = recv;
    send.recv = false;
    send.softmax = false;
    send.send_mme = true;
    send.send_dest = kMeshA;
    sim::Task prog = r.h.program(r.fu, {recv, send});
    auto m = ref::randomMatrix(4, 16, 31, 4.0f);
    std::vector<float> top(m.data.begin(), m.data.begin() + 2 * 16);
    std::vector<float> bot(m.data.begin() + 2 * 16, m.data.end());
    sim::Task feed = r.h.feedChunks(
        r.from_mme, {sim::makeDataChunk(2, 16, top),
                     sim::makeDataChunk(2, 16, bot)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.to_mesha, 1, got);
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    auto expect = ref::softmax(m);
    ref::Matrix gm(4, 16, got[0].data.data());
    EXPECT_TRUE(ref::allclose(gm, expect, 1e-5f, 1e-5f));
}

/** Run one MemC receive of @p chunks (rows x cols each) under a
 *  4 x 16 uOP. */
void
receiveChunks(
    std::initializer_list<std::pair<std::uint32_t, std::uint32_t>> chunks)
{
    MemCRig r;
    isa::MemCUop recv;
    recv.rows = 4;
    recv.cols = 16;
    recv.recv = true;
    recv.recv_chunks = static_cast<std::uint32_t>(chunks.size());
    sim::Task prog = r.h.program(r.fu, {recv});
    std::vector<sim::Chunk> feed;
    for (auto [rows, cols] : chunks)
        feed.push_back(sim::makeDataChunk(rows, cols, iotaData(rows, cols)));
    sim::Task f = r.h.feedChunks(r.from_mme, std::move(feed));
    r.fu.start();
    r.h.run();
}

TEST(MemCFu, MultiChunkReceiveMustFillItsRowsByCols)
{
    // A multi-chunk receive copies into one staging tile of the uOP's
    // rows x cols. Chunks that overflow it, leave it short or differ
    // in width are a malformed program, named at the MemC.
    EXPECT_DEATH(receiveChunks({{2, 16}, {3, 16}}),
                 "MemC0 multi-chunk receive overflows its 4x16 tile at "
                 "chunk 1");
    EXPECT_DEATH(receiveChunks({{2, 16}, {1, 16}}),
                 "MemC0 multi-chunk receive filled 3 of its 4 rows");
    EXPECT_DEATH(receiveChunks({{2, 16}, {2, 8}}),
                 "MemC0 multi-chunk receive: chunk 1 is 8 f32 wide");
}

TEST(MemCFu, NonMmComputeTakesTime)
{
    // Softmax on a large tile must consume time at the configured rate.
    MemCRig r;
    isa::MemCUop recv;
    recv.rows = 64;
    recv.cols = 64;
    recv.recv = true;
    recv.softmax = true;
    sim::Task prog = r.h.program(r.fu, {recv});
    sim::Task feed = r.h.feedChunks(r.from_mme,
                                    {sim::makeChunk(64, 64)});
    r.fu.start();
    ASSERT_TRUE(r.h.run());
    // 64*64*5 flops at 277 flops/tick ~ 74 ticks minimum.
    EXPECT_GE(r.h.eng.now(), 70u);
}

} // namespace
