#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/chunk.hh"
#include "sim/tile_pool.hh"

namespace {

using rsn::sim::Chunk;
using rsn::sim::makeDataChunk;
using rsn::sim::makeTileChunk;
using rsn::sim::TilePool;
using rsn::sim::TileRef;

TEST(TilePool, AcquireGivesUniqueWritableTile)
{
    TilePool pool;
    TileRef t = pool.acquire(100);
    ASSERT_TRUE(t);
    EXPECT_TRUE(t.unique());
    EXPECT_GE(t.capacity(), 100u);
    float *d = t.mutableData();
    for (int i = 0; i < 100; ++i)
        d[i] = float(i);
    EXPECT_FLOAT_EQ(t.data()[99], 99.f);
    EXPECT_EQ(pool.liveTiles(), 1u);
}

TEST(TilePool, BucketsRoundUpToPowersOfTwo)
{
    TilePool pool;
    EXPECT_EQ(pool.acquire(1).capacity(), 64u);
    EXPECT_EQ(pool.acquire(64).capacity(), 64u);
    EXPECT_EQ(pool.acquire(65).capacity(), 128u);
    EXPECT_EQ(pool.acquire(1024).capacity(), 1024u);
    EXPECT_EQ(pool.acquire(1025).capacity(), 2048u);
}

TEST(TilePool, CopySharesAndLastReleaseRecycles)
{
    TilePool pool;
    const float *raw = nullptr;
    {
        TileRef a = pool.acquire(256);
        raw = a.data();
        TileRef b = a;
        EXPECT_FALSE(a.unique());
        EXPECT_FALSE(b.unique());
        EXPECT_EQ(a.data(), b.data());
        EXPECT_EQ(pool.liveTiles(), 1u);  // one buffer, two refs
    }
    EXPECT_EQ(pool.liveTiles(), 0u);
    EXPECT_EQ(pool.buffersAllocated(), 1u);
    // Same bucket: the retired buffer is reused, not reallocated.
    TileRef c = pool.acquire(200);
    EXPECT_EQ(c.data(), raw);
    EXPECT_EQ(pool.buffersAllocated(), 1u);
    EXPECT_EQ(pool.reuses(), 1u);
}

TEST(TilePool, MoveTransfersOwnershipWithoutRefTraffic)
{
    TilePool pool;
    TileRef a = pool.acquire(64);
    TileRef b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(b.unique());
    EXPECT_EQ(pool.liveTiles(), 1u);
}

TEST(TilePool, MutableAccessToSharedTilePanics)
{
    TilePool pool;
    TileRef a = pool.acquire(64);
    TileRef b = a;
    EXPECT_THROW((void)a.mutableData(), std::logic_error);
}

TEST(TilePool, ChunkCopySharesPayloadByRefcount)
{
    Chunk c = makeDataChunk(2, 2, {1.f, 2.f, 3.f, 4.f}, 7);
    Chunk d = c;
    EXPECT_EQ(c.data.data(), d.data.data());
    EXPECT_FALSE(c.data.unique());
    EXPECT_FLOAT_EQ(d.at(1, 1), 4.f);
    EXPECT_EQ(std::vector<float>(d.data.data(), d.data.data() + d.elems()),
              (std::vector<float>{1.f, 2.f, 3.f, 4.f}));
}

TEST(TilePool, TrimReleasesRetiredBuffersAndResetsFreeBytes)
{
    TilePool pool;
    // Park three buffers of two sizes on the free lists.
    {
        TileRef a = pool.acquire(64);
        TileRef b = pool.acquire(64);
        TileRef c = pool.acquire(1024);
        (void)a;
        (void)b;
        (void)c;
    }
    EXPECT_EQ(pool.liveTiles(), 0u);
    EXPECT_EQ(pool.freeBytes(), (64 + 64 + 1024) * sizeof(float));
    EXPECT_EQ(pool.buffersFreed(), 0u);

    // Arena reset: everything retired goes back to the system.
    EXPECT_EQ(pool.trim(), 3u);
    EXPECT_EQ(pool.freeBytes(), 0u);
    EXPECT_EQ(pool.buffersFreed(), 3u);

    // The pool keeps working after a trim — but the next acquire is a
    // fresh allocation, not a free-list hit.
    const std::uint64_t reuses_before = pool.reuses();
    TileRef d = pool.acquire(64);
    EXPECT_TRUE(d);
    EXPECT_EQ(pool.reuses(), reuses_before);
    EXPECT_EQ(pool.buffersAllocated(), 4u);

    // Live tiles are untouched by trim (only free lists drain).
    EXPECT_EQ(pool.trim(), 0u);
    EXPECT_FLOAT_EQ(*d.mutableData() = 1.5f, 1.5f);
}

TEST(TilePool, FreeBytesTracksRetireAndReuse)
{
    TilePool pool;
    {
        TileRef a = pool.acquire(64);
        (void)a;
    }
    const std::uint64_t parked = pool.freeBytes();
    EXPECT_EQ(parked, 64 * sizeof(float));
    // A free-list hit takes the buffer off the parked account.
    TileRef b = pool.acquire(64);
    EXPECT_EQ(pool.freeBytes(), 0u);
    EXPECT_EQ(pool.reuses(), 1u);
}

TEST(TilePool, MakeTileChunkValidatesCapacity)
{
    TilePool pool;
    TileRef t = pool.acquire(64);
    Chunk c = makeTileChunk(8, 8, std::move(t), 3);
    EXPECT_EQ(c.elems(), 64u);
    EXPECT_EQ(c.tag, 3u);
    TileRef small = pool.acquire(64);
    EXPECT_THROW((void)makeTileChunk(32, 32, std::move(small), 0),
                 std::logic_error);
}

} // namespace
