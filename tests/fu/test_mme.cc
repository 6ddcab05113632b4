#include <gtest/gtest.h>

#include "fu/mme.hh"
#include "ref/ref_math.hh"
#include "fu_harness.hh"

namespace {

using namespace rsn;
using rsn::test::FuHarness;

sim::Chunk
matChunk(const ref::Matrix &m, std::uint32_t tag = 0)
{
    return sim::makeDataChunk(m.rows, m.cols, m.data, tag);
}

struct MmeRig {
    FuHarness h;
    fu::MmeFu mme;
    sim::Stream &lhs;
    sim::Stream &rhs;
    sim::Stream &out;

    explicit MmeRig(fu::AieModelParams p = {})
        : mme(h.eng, FuId{FuType::Mme, 0}, fu::AieModel(p), kMeshA,
              kMeshB, memC(0)),
          lhs(h.input(mme, kMeshA)), rhs(h.input(mme, kMeshB)),
          out(h.output(mme, memC(0)))
    {
    }
};

TEST(AieModel, MatchesPaperThroughputFor32x32x32)
{
    fu::AieModel m;
    EXPECT_NEAR(m.steadyGflops(3072, 3072, 3072, 6), 6785.0, 70.0);
}

TEST(AieModel, MatchesPaperThroughputForAlternateTiles)
{
    fu::AieModelParams p;
    p.native_n = 16;
    EXPECT_NEAR(fu::AieModel(p).steadyGflops(3072, 3072, 3072, 6),
                6306.0, 70.0);
    fu::AieModelParams q;
    q.native_k = 16;
    EXPECT_NEAR(fu::AieModel(q).steadyGflops(3072, 3072, 3072, 6),
                6095.6, 70.0);
}

TEST(AieModel, PeakPerMmeIsTwentyGflopsPerTile)
{
    fu::AieModel m;
    EXPECT_EQ(m.tilesPerMme(), 64);
    EXPECT_NEAR(m.peakFlopsPerMme(), 64 * 20e9, 1e6);
}

TEST(AieModel, ShorterKReducesChunkCycles)
{
    fu::AieModel m;
    EXPECT_LT(m.chunkCycles(128, 64, 1024), m.chunkCycles(128, 128, 1024));
}

TEST(AieModel, PartialWavesRoundUp)
{
    fu::AieModel m;
    // 129 rows needs two waves of 128; costs the same as 256.
    EXPECT_EQ(m.chunkCycles(129, 128, 128), m.chunkCycles(256, 128, 128));
}

TEST(AieModel, TicksScaleWithClockRatio)
{
    fu::AieModel m;
    double cycles = m.chunkCycles(128, 128, 128);
    Tick t = m.chunkTicks(128, 128, 128);
    EXPECT_NEAR(double(t), cycles * 260.0 / 1250.0, 1.5);
}

TEST(MmeFu, ComputesSingleTileProduct)
{
    MmeRig r;
    auto a = ref::randomMatrix(8, 6, 1);
    auto b = ref::randomMatrix(6, 10, 2);
    isa::MmeUop u;
    u.reps = 1;
    u.k_steps = 1;
    sim::Task prog = r.h.program(r.mme, {u});
    sim::Task fl = r.h.feedChunks(r.lhs, {matChunk(a)});
    sim::Task fr = r.h.feedChunks(r.rhs, {matChunk(b)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.out, 1, got);
    r.mme.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_TRUE(r.mme.halted());
    ASSERT_EQ(got.size(), 1u);
    auto expect = ref::matmul(a, b);
    ref::Matrix gm(8, 10, got[0].data.data());
    EXPECT_TRUE(ref::allclose(gm, expect, 1e-5f, 1e-6f));
}

TEST(MmeFu, AccumulatesAlongK)
{
    MmeRig r;
    auto a1 = ref::randomMatrix(4, 8, 3);
    auto a2 = ref::randomMatrix(4, 8, 4);
    auto b1 = ref::randomMatrix(8, 5, 5);
    auto b2 = ref::randomMatrix(8, 5, 6);
    isa::MmeUop u;
    u.reps = 1;
    u.k_steps = 2;
    sim::Task prog = r.h.program(r.mme, {u});
    sim::Task fl = r.h.feedChunks(r.lhs, {matChunk(a1), matChunk(a2)});
    sim::Task fr = r.h.feedChunks(r.rhs, {matChunk(b1), matChunk(b2)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.out, 1, got);
    r.mme.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_EQ(got.size(), 1u);
    auto expect = ref::add(ref::matmul(a1, b1), ref::matmul(a2, b2));
    ref::Matrix gm(4, 5, got[0].data.data());
    EXPECT_TRUE(ref::allclose(gm, expect, 1e-5f, 1e-6f));
}

TEST(MmeFu, AddsBiasChunkBeforeTiles)
{
    MmeRig r;
    auto a = ref::randomMatrix(4, 4, 7);
    auto b = ref::randomMatrix(4, 6, 8);
    auto bias = ref::randomMatrix(1, 6, 9);
    isa::MmeUop u;
    u.reps = 1;
    u.k_steps = 1;
    u.add_bias = true;
    sim::Task prog = r.h.program(r.mme, {u});
    sim::Task fl = r.h.feedChunks(r.lhs, {matChunk(a)});
    // Bias arrives ahead of the RHS tile on the RHS stream.
    sim::Task fr = r.h.feedChunks(r.rhs, {matChunk(bias), matChunk(b)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.out, 1, got);
    r.mme.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_EQ(got.size(), 1u);
    auto expect = ref::addBias(ref::matmul(a, b), bias.data);
    ref::Matrix gm(4, 6, got[0].data.data());
    EXPECT_TRUE(ref::allclose(gm, expect, 1e-5f, 1e-6f));
}

TEST(MmeFu, EmitsPartialProductsWhenNotAccumulating)
{
    MmeRig r;
    auto a = ref::randomMatrix(4, 4, 1);
    auto b = ref::randomMatrix(4, 4, 2);
    isa::MmeUop u;
    u.reps = 1;
    u.k_steps = 2;
    u.accum_k = false;
    sim::Task prog = r.h.program(r.mme, {u});
    sim::Task fl = r.h.feedChunks(r.lhs, {matChunk(a), matChunk(a)});
    sim::Task fr = r.h.feedChunks(r.rhs, {matChunk(b), matChunk(b)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.out, 2, got);
    r.mme.start();
    ASSERT_TRUE(r.h.run());
    ASSERT_EQ(got.size(), 2u);  // one partial per k-step
}

TEST(MmeFu, MultipleRepsProcessIndependentTiles)
{
    MmeRig r;
    auto a = ref::randomMatrix(4, 4, 11);
    auto b = ref::randomMatrix(4, 4, 12);
    isa::MmeUop u;
    u.reps = 3;
    u.k_steps = 1;
    sim::Task prog = r.h.program(r.mme, {u});
    sim::Task fl = r.h.feedChunks(r.lhs,
                                  {matChunk(a), matChunk(a), matChunk(a)});
    sim::Task fr = r.h.feedChunks(r.rhs,
                                  {matChunk(b), matChunk(b), matChunk(b)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.out, 3, got);
    r.mme.start();
    ASSERT_TRUE(r.h.run());
    EXPECT_EQ(got.size(), 3u);
    EXPECT_EQ(r.mme.stats().uops, 1u);  // one uOP drove all three tiles
    EXPECT_EQ(r.mme.stats().flops, 3ull * 2 * 4 * 4 * 4);
}

TEST(MmeFu, ComputeTimeMatchesModel)
{
    MmeRig r;
    isa::MmeUop u;
    u.reps = 1;
    u.k_steps = 1;
    sim::Task prog = r.h.program(r.mme, {u});
    sim::Task fl = r.h.feedChunks(r.lhs, {sim::makeChunk(128, 128)});
    sim::Task fr = r.h.feedChunks(r.rhs, {sim::makeChunk(128, 1024)});
    std::vector<sim::Chunk> got;
    sim::Task col = r.h.collect(r.out, 1, got);
    r.mme.start();
    ASSERT_TRUE(r.h.run());
    fu::AieModel model;
    // Completion >= compute ticks (plus stream transfer time).
    EXPECT_GE(r.h.eng.now(), model.chunkTicks(128, 128, 1024));
}

} // namespace
